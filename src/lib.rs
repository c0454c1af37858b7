//! # shmem-emulation
//!
//! A full reproduction of *"Information-Theoretic Lower Bounds on the
//! Storage Cost of Shared Memory Emulation"* (Viveck R. Cadambe, Zhiying
//! Wang, Nancy Lynch — PODC 2016, arXiv:1605.06844v2) as a Rust workspace.
//!
//! This meta-crate re-exports the workspace members under one roof:
//!
//! * [`bounds`] — exact lower/upper storage-cost bound formulas
//!   (Theorems B.1, 4.1, 5.1, 6.5 and their corollaries).
//! * [`sim`] — a deterministic discrete-event simulator of asynchronous
//!   message-passing I/O-automata systems (the paper's Section 3 model).
//! * [`erasure`] — finite fields and Reed–Solomon MDS erasure codes.
//! * [`spec`] — atomicity / regularity / weak-regularity checkers for
//!   read-write register histories.
//! * [`algorithms`] — ABD, CAS and CASGC emulation algorithms over the
//!   simulator, instrumented for storage cost.
//! * [`core`] — the paper's proof machinery made executable: adversarial
//!   executions, valency analysis, critical points, counting arguments and
//!   storage audits.
//!
//! # Quickstart
//!
//! ```
//! use shmem_emulation::bounds::{lower, upper, SystemParams};
//!
//! let p = SystemParams::new(21, 10)?;
//! // The paper's headline: the universal lower bound is about twice the
//! // previously known Singleton-style bound.
//! assert!(lower::universal_total(p) > lower::singleton_total(p));
//! // ...and replication becomes optimal once writes are highly concurrent.
//! assert_eq!(
//!     lower::multi_version_total(p, p.f() + 1),
//!     upper::replication_total(p),
//! );
//! # Ok::<(), shmem_emulation::bounds::ParamError>(())
//! ```

#![forbid(unsafe_code)]

pub use shmem_algorithms as algorithms;
pub use shmem_bounds as bounds;
pub use shmem_core as core;
pub use shmem_erasure as erasure;
pub use shmem_sim as sim;
pub use shmem_spec as spec;
