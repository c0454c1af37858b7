//! Coverage access, runtime enablement, and the event hooks the step
//! relation and fault primitives call.
//!
//! The map itself lives in [`crate::coverage`]; this file is the glue
//! between it and the world, mirroring the metrics glue in `audit.rs`:
//! an off-by-default `Option<CoverageMap>` behind an inline `bool`, so
//! unfuzzed worlds pay a single branch per hook and copy nothing on fork.
//!
//! Like the metrics registry, the coverage map is an *observer* of the
//! execution, not part of the world state: it is excluded from
//! [`Sim::digest`] for the same reason (two forks that converge to the
//! same state through different histories must digest identically even
//! though they covered different edges).

use super::Sim;
use crate::coverage::CoverageMap;
use crate::ids::NodeId;
use crate::node::{Node, Protocol};

/// Event-kind tags for [`CoverageMap::record_event`]. Stable small
/// integers, one per step/fault variant, so a schedule that swaps (say) a
/// drop for a duplicate covers different edges.
pub(super) mod kind {
    pub const INVOKE: u64 = 1;
    pub const DELIVER: u64 = 2;
    pub const DROP: u64 = 3;
    pub const DUPLICATE: u64 = 4;
    pub const DELAY: u64 = 5;
    pub const CUT: u64 = 6;
    pub const HEAL_LINK: u64 = 7;
    pub const CRASH: u64 = 8;
    pub const RECOVER: u64 = 9;
    pub const FREEZE: u64 = 10;
    pub const UNFREEZE: u64 = 11;
    pub const HEAL: u64 = 12;
    pub const CORRUPT_STORE: u64 = 13;
    pub const CORRUPT_MSG: u64 = 14;
}

/// Compact, deterministic `NodeId` encoding for coverage keys: servers as
/// their index, clients offset into a disjoint range.
#[inline]
pub(super) fn node_key(node: NodeId) -> u64 {
    match node {
        NodeId::Server(s) => u64::from(s.0),
        NodeId::Client(c) => 0x10_0000 | u64::from(c.0),
    }
}

impl<P: Protocol> Sim<P> {
    /// Whether coverage recording is on.
    pub fn coverage_on(&self) -> bool {
        self.coverage_on
    }

    /// The coverage map recorded so far, if coverage is on.
    pub fn coverage(&self) -> Option<&CoverageMap> {
        self.coverage.as_ref()
    }

    /// The covered slots, sorted ascending — empty when coverage is off.
    pub fn coverage_hits(&self) -> Vec<u32> {
        self.coverage
            .as_ref()
            .map_or_else(Vec::new, CoverageMap::occupied)
    }

    /// Enables (with a fresh, empty map) or disables coverage recording at
    /// any point of an execution.
    pub fn set_coverage(&mut self, on: bool) {
        self.coverage = on.then(CoverageMap::new);
        self.coverage_on = on;
    }

    /// Records an end-of-run signature (the fuzz driver folds
    /// metrics-ledger buckets and the final digest in through this). A
    /// no-op when coverage is off.
    pub fn record_coverage_signature(&mut self, key: u64) {
        if self.coverage_on {
            if let Some(cov) = &mut self.coverage {
                cov.record_signature(key);
            }
        }
    }

    /// The hook every covered event goes through: a single branch when
    /// coverage is off.
    #[inline]
    pub(super) fn cover(&mut self, kind: u64, a: NodeId, b: NodeId, extra: u64) {
        if self.coverage_on {
            if let Some(cov) = &mut self.coverage {
                cov.record_event(kind, node_key(a), node_key(b), extra);
            }
        }
    }

    /// Covers a delivery/invocation edge including the receiving node's
    /// post-step digest bits — the per-step [`Sim::digest`] transition
    /// signal (a step changes at most the receiver, so the receiver's node
    /// digest is exactly the component of the world digest the step moved).
    #[inline]
    pub(super) fn cover_step(&mut self, kind: u64, from: NodeId, to: NodeId) {
        if self.coverage_on {
            let digest = match to {
                NodeId::Server(s) => <P::Server as Node<P>>::digest(&self.servers[s.0 as usize]),
                NodeId::Client(c) => <P::Client as Node<P>>::digest(&self.clients[c.0 as usize]),
            };
            self.cover(kind, from, to, digest & 0xFFFF);
        }
    }
}
