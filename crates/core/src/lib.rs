//! The paper's proof machinery, executable.
//!
//! *"Information-Theoretic Lower Bounds on the Storage Cost of Shared
//! Memory Emulation"* (Cadambe–Wang–Lynch, PODC 2016) proves its bounds by
//! constructing adversarial executions and counting the server-state
//! configurations they force. This crate runs those constructions against
//! *real* algorithm implementations:
//!
//! * [`execution`] — the two-write executions `α^{(v1,v2)}` of
//!   Sections 4–5: fail `f` servers, complete `write(v1)`, then record every
//!   point of `write(v2)`.
//! * [`valency`] — the `k`-valency probes (Definitions 4.3 / 5.3): fork the
//!   world at a point, freeze the writer (optionally flushing server
//!   gossip, for the Theorem 5.1 variant), run a read, observe its return
//!   value.
//! * [`critical`] — the critical-pair search (Lemmas 4.6 / 5.6) and the
//!   one-server-changes check (Lemmas 4.8 / 5.8).
//! * [`counting`] — the injective mappings at the heart of Theorems B.1,
//!   4.1 and 5.1: value (pairs) → server-state vectors, verified by
//!   enumeration over small domains, yielding the cardinality inequalities.
//! * [`multiwrite`] — the Section 6 staged-delivery construction: ν writers
//!   halted at their value-dependent phase, value-dependent messages
//!   released to growing server prefixes, `(j, C₀)`-valency probes, and the
//!   Lemma 6.10 profile search.
//! * [`probe`] — the memoized probe engine the valency, critical,
//!   counting, and multiwrite machinery runs on: verdicts cached by
//!   `(point digest, probe config)`, shared by every clone of an engine.
//! * [`audit`] — storage audits: measure an algorithm's storage under a
//!   workload and confront it with every applicable bound from
//!   [`shmem_bounds`].
//! * [`section7`] — the concluding trichotomy: which structural property an
//!   algorithm must give up to beat each bound.

pub mod assumptions;
pub mod audit;
pub mod counting;
pub mod critical;
pub mod execution;
pub mod multiwrite;
pub mod probe;
pub mod section7;
pub mod valency;

pub use assumptions::{write_phase_profile, PhaseProfile};
pub use audit::{AuditReport, AuditRow, StorageAudit};
pub use counting::{CountingReport, SingletonReport};
pub use critical::{find_critical_pair, find_critical_pair_with, CriticalPair};
pub use execution::AlphaExecution;
pub use multiwrite::{staged_search, vector_counting, MultiWriteSetup, StagedProfile};
pub use probe::{ProbeEngine, ProbeStats, Schedule};
pub use valency::{observed_values, observed_values_at, probe_read, ReadOutcome};
