//! Exact storage-cost bound formulas from *"Information-Theoretic Lower
//! Bounds on the Storage Cost of Shared Memory Emulation"* (Cadambe, Wang,
//! Lynch — PODC 2016, arXiv:1605.06844v2).
//!
//! The paper proves lower bounds on the storage cost — defined as
//! `log2 |S_i|` bits for a server whose state ranges over a set `S_i`, summed
//! over all `N` servers — of *any* algorithm emulating a regular (or atomic)
//! read/write register over an asynchronous message-passing system that
//! tolerates `f` server crashes, for values drawn from a finite set `V`.
//!
//! This crate implements every bound in two forms:
//!
//! * **Normalized asymptotic** (`|V| → ∞`): the coefficient of `log2 |V|`,
//!   as an exact rational ([`ratio::Ratio`]). These are the series plotted in
//!   the paper's Figure 1.
//! * **Finite-`|V|` exact**: the full right-hand side in bits, including the
//!   `log2(|V|−1)`, `log2(N−f)`, `log2 C(|V|−1, ν*)` and `log2(ν*!)`
//!   correction terms, as `f64`.
//!
//! # Quick example
//!
//! ```
//! use shmem_bounds::{SystemParams, lower, upper};
//!
//! // The paper's Figure 1 configuration: N = 21 servers, f = 10 failures.
//! let p = SystemParams::new(21, 10)?;
//!
//! // Baseline Singleton-style bound (Theorem B.1): N/(N-f) = 21/11.
//! assert_eq!(lower::singleton_total(p).to_string(), "21/11");
//!
//! // Universal bound (Theorem 5.1): 2N/(N-f+2) = 42/13 — about twice B.1.
//! assert_eq!(lower::universal_total(p).to_string(), "42/13");
//!
//! // With at least f+1 = 11 active writes, the restricted-protocol bound
//! // (Theorem 6.5) reaches the replication cost f+1 = 11.
//! assert_eq!(lower::multi_version_total(p, 16).to_f64(), 11.0);
//! assert_eq!(upper::replication_total(p).to_f64(), 11.0);
//! # Ok::<(), shmem_bounds::ParamError>(())
//! ```

#![forbid(unsafe_code)]

pub mod catalogue;
pub mod domain;
pub mod lower;
pub mod params;
pub mod ratio;
pub mod theorem;
pub mod upper;
pub mod util;

pub use catalogue::{Bound, BoundKind, BoundValue};
pub use domain::ValueDomain;
pub use params::{ParamError, SystemParams};
pub use ratio::Ratio;
pub use theorem::CardinalityConstraint;
