//! Consistency checkers for read/write register histories.
//!
//! The paper's lower bounds hinge on three consistency conditions:
//!
//! * **Atomicity** (linearizability) \[Herlihy–Wing; Lamport's *atomic*
//!   registers\] — required of the MWSR algorithms of Section 6 and of the
//!   comparison algorithms (ABD, CAS).
//! * **Regularity** \[Lamport\] — the weaker condition Theorems 4.1/5.1 are
//!   proved against (a bound for regular algorithms applies a fortiori to
//!   atomic ones).
//! * **Weak regularity** \[Shao–Welch–Pierce–Lee, ref. 22\] — the MWSR
//!   relaxation Theorem 6.5 uses.
//!
//! [`history::History`] records operation intervals (invocation/response
//! step indices) and payloads; [`atomic::check_atomic`] runs a
//! memoized Wing–Gong linearization search specialized to registers, and
//! [`regular::check_regular`] / [`regular::check_weak_regular`] implement
//! the interval-order conditions.
//!
//! ```
//! use shmem_spec::history::{History, OpKind};
//! use shmem_spec::atomic::check_atomic;
//!
//! let mut h = History::new(0u32);
//! let w = h.begin(0, OpKind::Write(1), 1);
//! h.complete(w, 5, None);
//! let r = h.begin(1, OpKind::Read, 6);
//! h.complete(r, 9, Some(1));
//! assert!(check_atomic(&h).is_ok());
//! ```

#![forbid(unsafe_code)]

pub mod atomic;
pub mod fabricate;
pub mod history;
pub mod regular;
pub mod safe;
pub mod verdict;

pub use atomic::check_atomic;
pub use fabricate::check_no_fabrication;
pub use history::{History, OpId, OpKind, Operation};
pub use regular::{check_regular, check_weak_regular};
pub use safe::check_safe;
pub use verdict::{Verdict, Violation};
