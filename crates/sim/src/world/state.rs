//! Node state access, storage metering, digests, and observation.
//!
//! # The incremental world digest
//!
//! [`Sim::digest`] is no longer a full-state walk. The world maintains
//! `digest_acc`, a wrapping *sum* of per-component digests — one component
//! per node, per non-empty channel, per crashed node, per frozen node, and
//! per cut link. A sum is order-insensitive, so components can be added
//! and removed in O(1) as the world mutates; each component mixes its own
//! identity (node slot, channel key), so swapping the states of two nodes
//! still changes the digest. *Within* a channel the component is
//! order-sensitive over the queued messages — delivery order is world
//! state.
//!
//! Components fall in two classes:
//!
//! * **Eager** — the failed/frozen/cut components are tiny integer hashes,
//!   so the fault primitives add/subtract them at the mutation site.
//! * **Cached with deferred refresh** — node and channel components
//!   require hashing protocol state (`Node::digest`, `Debug`-rendering
//!   queued messages), which would tax every step of the hot loop. Instead
//!   each mutation site *unfolds* the touched component from the sum
//!   (subtracting the cached value) and marks it dirty; [`Sim::digest`]
//!   folds dirty components back in on demand without mutating the caches.
//!   A step therefore pays two or three integer operations for digest
//!   maintenance, and a digest request costs O(components touched since
//!   the caches were last current) instead of O(world).
//!
//! Debug builds assert `digest() == digest_full()` on every call — the
//! incremental value is pinned to the reference full recomputation, and
//! the golden fixtures in `tests/fixtures/digest_golden.json` pin both
//! across refactors.
//!
//! The metrics registry is deliberately **excluded** from the digest:
//! metrics observe the *history* of an execution, while the digest
//! certifies indistinguishability of world *states* — two executions that
//! reach the same state through different histories (say, one with a
//! duplicate-then-drop the other never saw) must digest identically even
//! though their ledgers differ. The operation log, storage meter, send
//! log, coverage map, and the arena's enqueue ticks are excluded for the
//! same reason.

use super::Sim;
use crate::hash::{hash_debug, hash_of, StableHasher};
use crate::ids::{ClientId, NodeId, ServerId};
use crate::meter::StorageSnapshot;
use crate::node::{Node, Protocol};
use crate::trace::{OpRecord, TrafficCounters};
use std::hash::{Hash, Hasher};

/// Domain-separation tags so a node component can never collide with a
/// channel or fault component of the same numeric content.
mod tag {
    pub const NODE: u8 = 1;
    pub const CHANNEL: u8 = 2;
    pub const FAILED: u8 = 3;
    pub const FROZEN: u8 = 4;
    pub const CUT: u8 = 5;
}

pub(super) fn comp_failed(node: NodeId) -> u64 {
    hash_of(&(tag::FAILED, node))
}

pub(super) fn comp_frozen(node: NodeId) -> u64 {
    hash_of(&(tag::FROZEN, node))
}

pub(super) fn comp_cut(from: NodeId, to: NodeId) -> u64 {
    hash_of(&(tag::CUT, from, to))
}

fn comp_node(slot: usize, digest: u64) -> u64 {
    hash_of(&(tag::NODE, slot as u32, digest))
}

impl<P: Protocol> Sim<P> {
    /// A server's automaton, for white-box inspection in tests and audits.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn server(&self, id: ServerId) -> &P::Server {
        &self.servers[id.0 as usize]
    }

    /// Mutable access to a server's automaton — the fault-injection hook
    /// for tests that corrupt server state (e.g. truncating a stored
    /// codeword symbol) to exercise failure paths.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn server_mut(&mut self, id: ServerId) -> &mut P::Server {
        // The caller mutates through the returned reference, so the node's
        // digest component goes stale here.
        self.mark_node_dirty(id.0 as usize);
        &mut self.servers[id.0 as usize]
    }

    /// A client's automaton.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn client(&self, id: ClientId) -> &P::Client {
        &self.clients[id.0 as usize]
    }

    /// Per-server state digests at this point, in server order.
    pub fn server_digests(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| <P::Server as Node<P>>::digest(s))
            .collect()
    }

    /// Per-server value-bearing storage at this point, in bits.
    pub fn server_state_bits(&self) -> Vec<f64> {
        self.servers
            .iter()
            .map(|s| <P::Server as Node<P>>::state_bits(s))
            .collect()
    }

    /// A digest of the full world state (nodes, channels, fault status),
    /// used to confirm indistinguishability of forked executions.
    ///
    /// Maintained incrementally (see the [module docs](self)): this call
    /// folds the components dirtied since construction or the last fork
    /// into the running sum — it does not walk clean state. Debug builds
    /// assert the result equals [`Sim::digest_full`].
    ///
    /// A fork digests identically to its source until one of them steps;
    /// the digest is how divergence is *detected*. [`super::Snapshot`]
    /// caches this per point.
    pub fn digest(&self) -> u64 {
        let mut acc = self.digest_acc;
        for (slot, dirty) in self.node_dirty.iter().enumerate() {
            if *dirty {
                acc = acc.wrapping_add(comp_node(slot, self.node_digest(slot)));
            }
        }
        let t = &self.channels;
        for row in t.nonempty.iter() {
            let row = row as usize;
            if t.dirty[row] {
                acc = acc.wrapping_add(self.chan_comp(row));
            }
        }
        let d = hash_of(&acc);
        #[cfg(debug_assertions)]
        {
            let full = self.digest_full();
            debug_assert_eq!(
                d, full,
                "incremental digest diverged from full recomputation"
            );
        }
        d
    }

    /// The reference implementation of [`Sim::digest`]: recomputes every
    /// component from scratch, ignoring the incremental caches. Debug
    /// builds assert the two agree on every `digest()` call; the parity
    /// property tests exercise the same equivalence in release builds.
    pub fn digest_full(&self) -> u64 {
        let mut acc = 0u64;
        for slot in 0..self.node_comp.len() {
            acc = acc.wrapping_add(comp_node(slot, self.node_digest(slot)));
        }
        let t = &self.channels;
        for row in t.nonempty.iter() {
            acc = acc.wrapping_add(self.chan_comp(row as usize));
        }
        for &node in &self.failed {
            acc = acc.wrapping_add(comp_failed(node));
        }
        for &node in &self.frozen {
            acc = acc.wrapping_add(comp_frozen(node));
        }
        for &(from, to) in &self.cut_links {
            acc = acc.wrapping_add(comp_cut(from, to));
        }
        hash_of(&acc)
    }

    /// The digest component of one non-empty channel row: order-sensitive
    /// over the queued messages, mixed with the channel key.
    pub(super) fn chan_comp(&self, row: usize) -> u64 {
        let t = &self.channels;
        let mut h = StableHasher::default();
        h.write_u8(tag::CHANNEL);
        t.keys[row].hash(&mut h);
        t.for_each_msg(row, |m| h.write_u64(hash_debug(m)));
        h.finish()
    }

    /// The current digest of the node at `slot` (servers first, then
    /// clients — see [`Sim::node_slot`]).
    fn node_digest(&self, slot: usize) -> u64 {
        let n = self.servers.len();
        if slot < n {
            <P::Server as Node<P>>::digest(&self.servers[slot])
        } else {
            <P::Client as Node<P>>::digest(&self.clients[slot - n])
        }
    }

    /// Unfolds the node's component from the running digest; `digest()`
    /// will recompute it on demand.
    #[inline]
    pub(super) fn mark_node_dirty(&mut self, slot: usize) {
        if !self.node_dirty[slot] {
            self.node_dirty[slot] = true;
            self.digest_acc = self.digest_acc.wrapping_sub(self.node_comp[slot]);
        }
    }

    /// Unfolds a channel row's component from the running digest before a
    /// queue mutation. Must run while the cached component still matches
    /// what was folded in — i.e. before the first mutation that dirties
    /// the row.
    #[inline]
    pub(super) fn mark_chan_dirty(&mut self, row: usize) {
        if !self.channels.dirty[row] {
            self.channels.dirty[row] = true;
            self.digest_acc = self.digest_acc.wrapping_sub(self.channels.comp[row]);
        }
    }

    /// All operation records, in invocation order.
    pub fn ops(&self) -> &[OpRecord<P::Inv, P::Resp>] {
        &self.ops
    }

    /// Whether `client` has an operation open at this point.
    pub fn has_open_op(&self, client: ClientId) -> bool {
        self.open_ops.contains_key(&client)
    }

    /// Delivered-message totals by channel category.
    pub fn traffic(&self) -> TrafficCounters {
        self.traffic
    }

    /// The storage peaks observed so far.
    pub fn storage(&self) -> StorageSnapshot {
        self.meter.snapshot()
    }

    /// Full-width meter sample: reads every server. Used at construction;
    /// the per-step path goes through [`Sim::sample_meter_for`].
    pub(super) fn sample_meter_full(&mut self) {
        let servers = &self.servers;
        self.meter.observe_with(servers.len(), |i| {
            (
                <P::Server as Node<P>>::state_bits(&servers[i]),
                <P::Server as Node<P>>::metadata_bits(&servers[i]),
            )
        });
    }

    /// Per-step meter sample after an event at `node`. A step mutates at
    /// most the event's node, so when it is a server only that server's
    /// storage can have moved — an O(1) update instead of an O(servers)
    /// sweep; when it is a client, the sample is a tick (the point still
    /// counts toward `points_observed`).
    pub(super) fn sample_meter_for(&mut self, node: NodeId) {
        match node {
            NodeId::Server(s) => {
                let i = s.0 as usize;
                let bits = <P::Server as Node<P>>::state_bits(&self.servers[i]);
                let meta = <P::Server as Node<P>>::metadata_bits(&self.servers[i]);
                self.meter.observe_server(i, bits, meta);
            }
            NodeId::Client(_) => self.meter.observe_tick(),
        }
    }
}
