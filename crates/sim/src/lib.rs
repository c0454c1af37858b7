//! A deterministic discrete-event simulator for asynchronous message-passing
//! systems in the I/O-automata style of the paper's Section 3 model.
//!
//! The simulated world consists of:
//!
//! * **server nodes** and **client nodes** ([`ids::NodeId`]), each an
//!   automaton implementing [`node::Node`];
//! * **reliable asynchronous point-to-point channels** between every client
//!   and every server, and (when [`config::SimConfig::server_gossip`] is on)
//!   between every pair of servers;
//! * an explicit **step relation**: one step delivers one message or
//!   processes one invocation, and *points* of the execution are the states
//!   between steps — exactly the granularity at which the paper's proofs
//!   argue ("at most one non-failing server changes its state between two
//!   consecutive points", Lemma 4.8).
//!
//! Three properties make the paper's proof machinery executable on top of
//! this crate:
//!
//! 1. **Determinism** — all containers iterate in fixed order; a fair
//!    round-robin step policy yields a reproducible execution.
//! 2. **Forkability** — [`world::Sim`] is plain owned data and `Clone` is
//!    a deep copy, so an execution can be branched at any point (the
//!    α → β extensions of Sections 4–6), and [`world::Snapshot`] freezes a
//!    point behind a shared handle with a memoized digest.
//! 3. **Adversary control** — crash failures ([`world::Sim::fail`]),
//!    indefinite message delay ([`world::Sim::freeze`]), and hand-scripted
//!    delivery ([`world::Sim::deliver_one`]) implement the executions the
//!    lower-bound proofs construct.
//!
//! Storage cost is metered as the paper defines it: servers report
//! `state_bits()` (the log-cardinality of their reachable state space) and
//! the [`meter::StorageMeter`] tracks per-point maxima. Everything else an
//! execution does — messages, operation latencies, fault effects — is
//! metered by the opt-in [`metrics::MetricsRegistry`], whose ledgers obey
//! an exact conservation law the simulator audits at quiescence.

#![forbid(unsafe_code)]

pub mod config;
pub mod coverage;
pub mod hash;
pub mod ids;
pub mod meter;
pub mod metrics;
pub mod node;
pub mod trace;
pub mod world;

pub use config::{ChannelOrder, SimConfig};
pub use coverage::{CoverageMap, COVERAGE_SLOTS};
pub use hash::{combine, hash_debug, hash_of, StableHasher};
pub use ids::{ClientId, NodeId, ServerId};
pub use meter::{StorageMeter, StorageSnapshot};
pub use metrics::{ChannelLedger, ConservationError, Histogram, MetricsLevel, MetricsRegistry};
pub use node::{Ctx, Node, Protocol};
pub use trace::{OpRecord, StepInfo, TrafficCounters};
pub use world::{Point, RunError, SendRecord, Sim, Snapshot};
