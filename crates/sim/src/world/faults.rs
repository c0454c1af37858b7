//! Nemesis fault primitives: message drop, duplication, bounded delay,
//! and directed link cuts / partitions with heal.
//!
//! These are the seed-driven building blocks the nemesis schedule explorer
//! (`shmem-algorithms::nemesis`) composes into fault plans. Every primitive
//! is deterministic — it mutates the world as a pure function of the
//! current state — and returns the [`StepInfo`] that records it in the
//! trace, so an execution replays exactly from `(seed, FaultPlan)`.
//!
//! Queue manipulations ([`Sim::drop_head`], [`Sim::duplicate_head`],
//! [`Sim::delay_head`]) act on the channel directly and deliberately do
//! *not* require the endpoints to be live: the network can lose or
//! duplicate a message regardless of what the endpoints are doing. Link
//! cuts ([`Sim::cut_link`], [`Sim::partition`]) instead gate the step
//! relation — `step_options` skips cut links and `deliver_one` refuses
//! them with [`RunError::LinkDown`](super::RunError::LinkDown) — until
//! healed.
//!
//! Every primitive is also a digest mutation site: queue manipulations
//! unfold the touched channel's component ([`Sim::mark_chan_dirty`]
//! internally), and cut/heal add or subtract their eager component from
//! the running world digest (see `state.rs`).

use super::state::comp_cut;
use super::Sim;
use crate::config::ChannelOrder;
use crate::ids::NodeId;
use crate::node::Protocol;
use crate::trace::StepInfo;

impl<P: Protocol> Sim<P> {
    /// Whether the directed link `from → to` is currently cut.
    pub fn is_cut(&self, from: NodeId, to: NodeId) -> bool {
        !self.cut_links.is_empty() && self.cut_links.contains(&(from, to))
    }

    /// Cuts the directed link `from → to`: queued and future messages on
    /// it are held (not lost) until [`Sim::heal_link`]. Idempotent.
    pub fn cut_link(&mut self, from: NodeId, to: NodeId) -> StepInfo {
        if self.cut_links.insert((from, to)) {
            self.digest_acc = self.digest_acc.wrapping_add(comp_cut(from, to));
            if let Some(row) = self.channels.find((from, to)) {
                self.channels.cut[row] = true;
            }
        }
        self.cover(super::cover::kind::CUT, from, to, 0);
        StepInfo::LinkCut { from, to }
    }

    /// Restores a cut link; held messages become deliverable again in
    /// their original order. Idempotent.
    pub fn heal_link(&mut self, from: NodeId, to: NodeId) -> StepInfo {
        if self.cut_links.remove(&(from, to)) {
            self.digest_acc = self.digest_acc.wrapping_sub(comp_cut(from, to));
            if let Some(row) = self.channels.find((from, to)) {
                self.channels.cut[row] = false;
            }
        }
        self.cover(super::cover::kind::HEAL_LINK, from, to, 0);
        StepInfo::LinkHealed { from, to }
    }

    /// Cuts every link between the two sides, in both directions — a
    /// network partition separating `side_a` from `side_b`. Links within
    /// a side are untouched. Returns one [`StepInfo::LinkCut`] per cut,
    /// in deterministic order.
    pub fn partition(&mut self, side_a: &[NodeId], side_b: &[NodeId]) -> Vec<StepInfo> {
        let mut steps = Vec::with_capacity(2 * side_a.len() * side_b.len());
        for &a in side_a {
            for &b in side_b {
                steps.push(self.cut_link(a, b));
                steps.push(self.cut_link(b, a));
            }
        }
        steps
    }

    /// Heals every cut link in the world. Returns one
    /// [`StepInfo::LinkHealed`] per healed link, in deterministic order.
    pub fn heal_all_links(&mut self) -> Vec<StepInfo> {
        let cuts: Vec<(NodeId, NodeId)> = self.cut_links.iter().copied().collect();
        cuts.iter().map(|&(f, t)| self.heal_link(f, t)).collect()
    }

    /// The currently cut links, in deterministic order.
    pub fn cut_link_list(&self) -> Vec<(NodeId, NodeId)> {
        self.cut_links.iter().copied().collect()
    }

    /// Discards the head message of the `from → to` channel — message
    /// loss. Works regardless of endpoint liveness or link cuts: the
    /// network loses what it pleases.
    ///
    /// # Errors
    ///
    /// [`RunError::NoSuchMessage`](super::RunError::NoSuchMessage) if the
    /// channel is empty or absent.
    pub fn drop_head(&mut self, from: NodeId, to: NodeId) -> Result<StepInfo, super::RunError> {
        let row = match self.channels.find((from, to)) {
            Some(r) if self.channels.queues[r].len > 0 => r,
            _ => return Err(super::RunError::NoSuchMessage { from, to }),
        };
        self.mark_chan_dirty(row);
        self.channels.pop_front(row);
        if let Some(m) = self.metrics_mut() {
            m.on_dropped(row);
        }
        self.cover(super::cover::kind::DROP, from, to, 0);
        Ok(StepInfo::Dropped { from, to })
    }

    /// Re-enqueues a copy of the head message of `from → to` at the tail —
    /// at-least-once delivery. The original stays at the head, so FIFO
    /// order of first deliveries is preserved; the duplicate arrives after
    /// everything currently queued.
    ///
    /// # Errors
    ///
    /// [`RunError::NoSuchMessage`](super::RunError::NoSuchMessage) if the
    /// channel is empty or absent.
    pub fn duplicate_head(
        &mut self,
        from: NodeId,
        to: NodeId,
    ) -> Result<StepInfo, super::RunError> {
        let row = match self.channels.find((from, to)) {
            Some(r) if self.channels.queues[r].len > 0 => r,
            _ => return Err(super::RunError::NoSuchMessage { from, to }),
        };
        self.mark_chan_dirty(row);
        let now = self.now;
        let t = &mut self.channels;
        let copy = t.arena.get(t.queues[row].head).clone();
        t.push_back(row, copy, now);
        if let Some(m) = self.metrics_mut() {
            m.on_duplicated(row);
        }
        self.cover(super::cover::kind::DUPLICATE, from, to, 0);
        Ok(StepInfo::Duplicated { from, to })
    }

    /// Rotates the head message of `from → to` to the tail — a bounded
    /// delay past everything currently queued on the channel. A reorder,
    /// so only permitted under [`ChannelOrder::Any`]; with a single queued
    /// message it is a no-op rotation and allowed under FIFO too.
    ///
    /// # Errors
    ///
    /// [`RunError::NoSuchMessage`](super::RunError::NoSuchMessage) if the
    /// channel is empty or absent.
    ///
    /// # Panics
    ///
    /// Panics under the FIFO channel model when the queue holds more than
    /// one message (the rotation would reorder deliveries).
    pub fn delay_head(&mut self, from: NodeId, to: NodeId) -> Result<StepInfo, super::RunError> {
        let row = match self.channels.find((from, to)) {
            Some(r) if self.channels.queues[r].len > 0 => r,
            _ => return Err(super::RunError::NoSuchMessage { from, to }),
        };
        if self.channels.queues[row].len > 1 {
            assert_eq!(
                self.config.channel_order,
                ChannelOrder::Any,
                "delaying past queued messages requires ChannelOrder::Any"
            );
            self.mark_chan_dirty(row);
            let now = self.now;
            let t = &mut self.channels;
            let head = t.pop_front(row);
            t.push_back(row, head, now);
        }
        self.cover(super::cover::kind::DELAY, from, to, 0);
        Ok(StepInfo::Delayed { from, to })
    }
}
