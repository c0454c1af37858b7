//! Corruption-adversary primitives: tampering with stored server state
//! and with in-flight message payloads.
//!
//! These extend the nemesis fault model (`faults.rs`) from *omission*
//! faults (drop, duplicate, delay, cut) to *corruption* faults — a
//! budget-bounded Byzantine adversary that flips bits in what servers
//! store and what channels carry. Like every fault primitive, both are
//! deterministic pure functions of the current state and a caller-chosen
//! `salt`, and both return the [`StepInfo`] that records them in the
//! trace, so a corruption schedule replays exactly from
//! `(seed, FaultPlan)`.
//!
//! What corruption *means* is protocol-defined: the world only owns the
//! seams. [`Sim::corrupt_server_state`] hands the server automaton to
//! [`Protocol::corrupt_server`], and [`Sim::corrupt_head`] hands the head
//! message of a channel to [`Protocol::corrupt_msg`]; the default
//! implementations refuse, so protocols opt in explicitly. Crucially the
//! hooks tamper with *value-bearing payload only* (share bytes, carried
//! values) — never with routing, and never with integrity metadata such
//! as the hashes the hashed-CAS protocol stores. The adversary corrupts
//! data; it does not get to forge the checksums guarding that data.
//!
//! Both primitives are digest mutation sites: server tampering goes
//! through the same dirty-marking path as [`Sim::server_mut`], and
//! message tampering unfolds the channel component before mutating the
//! arena slot in place, exactly like the queue manipulations in
//! `faults.rs`.

use super::Sim;
use crate::ids::{NodeId, ServerId};
use crate::node::Protocol;
use crate::trace::StepInfo;

impl<P: Protocol> Sim<P> {
    /// Tampers with `server`'s stored value-bearing state in
    /// protocol-defined `mode` (e.g. bit-flip a held share, resurrect a
    /// stale version, forge a tag), deterministically in `salt`.
    ///
    /// Returns the trace record on success, or `None` when the protocol
    /// refuses — either it does not implement the corruption hook at all,
    /// or the server currently holds nothing corruptible (no finalized
    /// version yet). Refusals leave the world digest unchanged and are
    /// not recorded, so a schedule that probes an empty server replays
    /// identically to one that never tried.
    ///
    /// Works regardless of endpoint liveness: corruption of stored state
    /// models silent media faults and Byzantine servers, neither of which
    /// waits for the victim to be schedulable.
    ///
    /// # Panics
    ///
    /// Panics on an unknown server id.
    pub fn corrupt_server_state(
        &mut self,
        server: ServerId,
        mode: u8,
        salt: u64,
    ) -> Option<StepInfo> {
        let node = NodeId::Server(server);
        // `server_mut` marks the node's digest component dirty *before*
        // handing out the reference; a refusing hook leaves the state
        // unchanged, so the component re-hashes to the same value.
        let tampered = P::corrupt_server(self.server_mut(server), mode, salt);
        if !tampered {
            return None;
        }
        self.cover(
            super::cover::kind::CORRUPT_STORE,
            node,
            node,
            u64::from(mode),
        );
        Some(StepInfo::CorruptedStore { node, mode })
    }

    /// Tampers with the payload of the head message of the `from → to`
    /// channel, deterministically in `salt`, without touching routing —
    /// the in-flight counterpart of [`Sim::corrupt_server_state`].
    ///
    /// Returns `Ok(None)` when the protocol refuses (the head message
    /// carries no corruptible payload — e.g. an ack or a query); the
    /// message is left byte-identical and nothing is recorded. Like
    /// [`Sim::drop_head`], this works regardless of endpoint liveness or
    /// link cuts: a corrupting network tampers with whatever it holds.
    ///
    /// # Errors
    ///
    /// [`RunError::NoSuchMessage`](super::RunError::NoSuchMessage) if the
    /// channel is empty or absent.
    pub fn corrupt_head(
        &mut self,
        from: NodeId,
        to: NodeId,
        salt: u64,
    ) -> Result<Option<StepInfo>, super::RunError> {
        let row = match self.channels.find((from, to)) {
            Some(r) if self.channels.queues[r].len > 0 => r,
            _ => return Err(super::RunError::NoSuchMessage { from, to }),
        };
        // Unfold the row's digest component while the cache still matches
        // the queue contents, then mutate the arena slot in place.
        self.mark_chan_dirty(row);
        let t = &mut self.channels;
        let head = t.queues[row].head;
        let tampered = P::corrupt_msg(t.arena.get_mut(head), salt);
        if !tampered {
            return Ok(None);
        }
        self.cover(super::cover::kind::CORRUPT_MSG, from, to, 0);
        Ok(Some(StepInfo::CorruptedMsg { from, to }))
    }
}
