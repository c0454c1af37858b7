//! Adversary controls: crashes and (reversible) freezes.
//!
//! The paper's lower-bound arguments are driven entirely by what an
//! adversary may do: fail up to `f` servers outright, and delay ("freeze")
//! all traffic of a chosen node for an arbitrary but finite time. Both
//! controls live here, separate from the step relation that respects them.
//! The nemesis layer additionally needs the reverse directions —
//! [`Sim::recover`] and [`Sim::heal`] — so a fault schedule can inject a
//! crash or a freeze window and later lift it.
//!
//! Each transition maintains both fast-path caches: the flat block mask
//! the scheduler reads ([`Sim::refresh_blocked`]) and the eager
//! failed/frozen/cut components of the incremental world digest (see
//! `state.rs`).

use super::state::{comp_cut, comp_failed, comp_frozen};
use super::Sim;
use crate::ids::NodeId;
use crate::node::Protocol;
use crate::trace::StepInfo;
use std::sync::Arc;

impl<P: Protocol> Sim<P> {
    /// Crashes a node: it stops taking steps and messages to or from it
    /// are never delivered. All messages currently queued to or from the
    /// node are discarded — they were undeliverable anyway (the step
    /// relation blocks both endpoints), and purging them here means a
    /// crash mid-delivery leaves no orphaned channel state behind for
    /// [`Sim::recover`] to resurrect as ghosts.
    ///
    /// Reversible via [`Sim::recover`] (crash-recovery with stable node
    /// state; in-flight traffic at crash time is lost).
    pub fn fail(&mut self, node: NodeId) -> StepInfo {
        if self.failed.insert(node) {
            self.digest_acc = self.digest_acc.wrapping_add(comp_failed(node));
        }
        self.refresh_blocked(node);
        // Account the purge before emptying the queues: the ledger must
        // book every discarded message for the conservation law.
        let purged: Vec<usize> = (0..self.channels.keys.len())
            .filter(|&r| {
                let (from, to) = self.channels.keys[r];
                (from == node || to == node) && self.channels.len[r] > 0
            })
            .collect();
        if self.metrics_level() != crate::metrics::MetricsLevel::Off {
            for &r in &purged {
                let count = u64::from(self.channels.len[r]);
                if let Some(m) = self.metrics_mut() {
                    m.on_purged(r, count);
                }
            }
        }
        for &r in &purged {
            self.mark_chan_dirty(r);
            Arc::make_mut(&mut self.channels).purge(r);
        }
        self.cover(super::cover::kind::CRASH, node, node, 0);
        StepInfo::Crashed { node }
    }

    /// Crashes the last `f` servers — the proofs' canonical failure pattern
    /// ("the servers in `{1,…,N} − 𝒩` fail at the beginning").
    ///
    /// # Panics
    ///
    /// Panics if `f` exceeds the server count.
    pub fn fail_last_servers(&mut self, f: u32) {
        let n = self.servers.len() as u32;
        assert!(f <= n, "cannot fail more servers than exist");
        for i in (n - f)..n {
            self.fail(NodeId::server(i));
        }
    }

    /// Lifts a [`Sim::fail`]: the node resumes taking steps from its state
    /// at crash time (crash-recovery with stable storage). Messages that
    /// were in flight when the crash happened are gone — [`Sim::fail`]
    /// discarded them — so the recovered node starts with clean channels.
    pub fn recover(&mut self, node: NodeId) -> StepInfo {
        if self.failed.remove(&node) {
            self.digest_acc = self.digest_acc.wrapping_sub(comp_failed(node));
        }
        self.refresh_blocked(node);
        self.cover(super::cover::kind::RECOVER, node, node, 0);
        StepInfo::Recovered { node }
    }

    /// Delays all messages from and to `node` indefinitely (the proofs'
    /// freeze of the writer). Unlike [`Sim::fail`], this is reversible and
    /// queued traffic survives: after [`Sim::unfreeze`], delivery resumes
    /// where it left off.
    pub fn freeze(&mut self, node: NodeId) -> StepInfo {
        if self.frozen.insert(node) {
            self.digest_acc = self.digest_acc.wrapping_add(comp_frozen(node));
        }
        self.refresh_blocked(node);
        self.cover(super::cover::kind::FREEZE, node, node, 0);
        StepInfo::Frozen { node }
    }

    /// Lifts a [`Sim::freeze`].
    pub fn unfreeze(&mut self, node: NodeId) -> StepInfo {
        if self.frozen.remove(&node) {
            self.digest_acc = self.digest_acc.wrapping_sub(comp_frozen(node));
        }
        self.refresh_blocked(node);
        self.cover(super::cover::kind::UNFREEZE, node, node, 0);
        StepInfo::Unfrozen { node }
    }

    /// Lifts every adversarial condition on `node` short of a crash: the
    /// freeze (if any) and every cut link touching the node. The heal
    /// counterpart of `freeze` + `cut_link` combined, used by fault
    /// schedules to end a disturbance window in one step.
    pub fn heal(&mut self, node: NodeId) -> StepInfo {
        if self.frozen.remove(&node) {
            self.digest_acc = self.digest_acc.wrapping_sub(comp_frozen(node));
        }
        self.refresh_blocked(node);
        let cuts: Vec<(NodeId, NodeId)> = self
            .cut_links
            .iter()
            .copied()
            .filter(|&(from, to)| from == node || to == node)
            .collect();
        for (from, to) in cuts {
            self.cut_links.remove(&(from, to));
            self.digest_acc = self.digest_acc.wrapping_sub(comp_cut(from, to));
            if let Some(row) = self.channels.find((from, to)) {
                Arc::make_mut(&mut self.channels).cut[row] = false;
            }
        }
        self.cover(super::cover::kind::HEAL, node, node, 0);
        StepInfo::Healed { node }
    }

    /// Whether `node` is crashed.
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed.contains(&node)
    }

    /// Whether `node` is frozen.
    pub fn is_frozen(&self, node: NodeId) -> bool {
        self.frozen.contains(&node)
    }

    #[inline]
    pub(super) fn is_blocked(&self, node: NodeId) -> bool {
        // `.get`: a node id outside the world is merely not blocked (its
        // channel lookup will miss), matching the pre-mask behavior.
        self.blocked
            .get(self.node_slot(node))
            .copied()
            .unwrap_or(false)
    }
}
