//! `shmem-store`: the shared-state backend behind the server automata —
//! a striped lock over the sequential reference backends.
//!
//! The sequential emulation servers keep their per-key state in a private
//! `LocalAbd` / `LocalCas` / `LocalHashed`; this crate lets several
//! threads share one server's state by partitioning its keys over a
//! fixed array of those same backends, each behind a mutex
//! ([`striped::Striped`]). There is no second copy of any transition:
//! every call locks the key's stripe and delegates. The net layer serves
//! one automaton per server on one thread (its worker-pool loop was
//! measured below the single loop and deleted, DESIGN §4.11), so today
//! the sharing is exercised by this crate's own suites, `perf_smoke`'s
//! floor and the ledger's `store.*` cells.
//!
//! Correctness is *checked, not argued*: every concurrent test path
//! records invoke/response intervals through [`log::ThreadLog`] and the
//! recorded histories are fed to the unchanged `shmem-spec` atomicity
//! checker (`tests/linearizability.rs`), with deliberately broken store
//! variants ([`broken`]) as the mutation controls. Single-threaded runs
//! through the [`shmem_algorithms::backend`] seam are byte-identical
//! (StepInfo traces and digests) to the legacy in-struct servers
//! (`tests/differential.rs`), so the paper's storage accounting —
//! per-key steady state exactly `N/(N−f)` — carries over unchanged.

#![forbid(unsafe_code)]

pub mod broken;
pub mod corrupt;
pub mod log;
pub mod striped;

pub use broken::{SplitSectionReg, StaleTagRegHandle};
pub use corrupt::CorruptingBackend;
pub use log::{merge_histories, OpClock, ThreadLog};
pub use striped::{
    CodedStore, Handle, RegStore, StoreAbdBackend, StoreCasBackend, StoreHashedBackend, Striped,
};
