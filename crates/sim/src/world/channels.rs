//! The step relation: invocations, message delivery, scheduling.
//!
//! This is the simulator's hot loop, and it is allocation-free in steady
//! state:
//!
//! * scheduler scans walk the channel table's `nonempty` row bitset
//!   (ascending row order, so option order is byte-for-byte the old
//!   `BTreeMap` iteration order that recorded fault corpora replay
//!   against);
//! * messages move through the slab arena (`table.rs`) — enqueueing
//!   reuses freed slots instead of heap-allocating;
//! * the per-event [`Ctx`] borrows recycled scratch vectors from the
//!   world instead of allocating an outbox per step;
//! * every message enters its channel on one send loop (`apply_effects`),
//!   whichever of invocation, delivery or start-up produced it: the route
//!   table resolves the row in one load, and metering, the send log and
//!   cut links ride the same loop — a metered send books the ledger row
//!   the loop already holds, so there is no separate slow path;
//! * when no node is blocked and no link is cut, [`Sim::step_fair`] picks
//!   its channel straight from the `nonempty` bitset (`select`) without
//!   materializing an options list at all.
//!
//! The channel table and the node vectors are `Arc`s shared between
//! forks. Rather than paying `Arc::make_mut`'s refcount round-trips per
//! step, the delivery loop claims *unique ownership* of all three once —
//! the `hot_owned` flag on [`Sim`] — and thereafter reaches their
//! payloads directly; the first delivery after a fork unshares the trio
//! in one go and re-establishes the claim (see [`Sim::deliver_row`]'s
//! safety comment).

use super::{RunError, SendRecord, Sim};
use crate::ids::{ClientId, NodeId};
use crate::node::{Ctx, Node, Protocol};
use crate::trace::{OpRecord, StepInfo};
use std::sync::Arc;

impl<P: Protocol> Sim<P> {
    /// Invokes an operation at a client. The invocation action itself is one
    /// step of the execution.
    ///
    /// # Errors
    ///
    /// * [`RunError::NodeUnavailable`] if the client crashed or is frozen.
    /// * [`RunError::OperationPending`] if the client already has an open
    ///   operation (the model requires well-formed clients).
    pub fn invoke(&mut self, client: ClientId, inv: P::Inv) -> Result<(), RunError> {
        let id = NodeId::Client(client);
        if self.is_blocked(id) {
            return Err(RunError::NodeUnavailable { node: id });
        }
        if self.open_ops.contains_key(&client) {
            return Err(RunError::OperationPending { client });
        }
        let idx = client.0 as usize;
        assert!(idx < self.clients.len(), "unknown client {client}");
        self.now += 1;
        self.open_ops.insert(client, self.ops.len());
        Arc::make_mut(&mut self.ops).push(OpRecord {
            client,
            invoked_at: self.now,
            responded_at: None,
            invocation: inv.clone(),
            response: None,
        });
        if let Some(m) = self.metrics_mut() {
            m.on_op_started();
        }
        self.mark_node_dirty(self.servers.len() + idx);
        let mut ctx: Ctx<P> = Ctx::with_buffers(
            id,
            self.now,
            std::mem::take(&mut self.scratch_outbox),
            std::mem::take(&mut self.scratch_resp),
        );
        <P::Client as Node<P>>::on_invoke(
            &mut Arc::make_mut(&mut self.clients)[idx],
            inv,
            &mut ctx,
        );
        self.apply_effects(id, ctx);
        self.sample_meter_for(id);
        self.cover_step(super::cover::kind::INVOKE, id, id);
        Ok(())
    }

    /// Collects the deliverable channels into `out` (cleared first): the
    /// non-empty, un-cut rows whose endpoints are unblocked, in key order.
    fn fill_step_options(&self, out: &mut Vec<(NodeId, NodeId)>) {
        out.clear();
        let t = &*self.channels;
        for row in t.nonempty.iter() {
            let r = row as usize;
            if !t.cut[r]
                && !self.blocked[t.src_slot[r] as usize]
                && !self.blocked[t.dst_slot[r] as usize]
            {
                out.push(t.keys[r]);
            }
        }
    }

    /// The deliverable channels at this point: non-empty queues whose
    /// endpoints are neither crashed nor frozen and whose link is not cut,
    /// in deterministic order.
    pub fn step_options(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        self.fill_step_options(&mut out);
        out
    }

    /// [`Sim::step_options`] into a caller-owned buffer (cleared first) —
    /// the allocation-free variant for schedulers that scan every step.
    pub fn step_options_into(&self, out: &mut Vec<(NodeId, NodeId)>) {
        self.fill_step_options(out);
    }

    /// Delivers the head message of the `from → to` channel: the receiver's
    /// `on_message` runs and its effects are applied. One step.
    ///
    /// # Errors
    ///
    /// * [`RunError::NoSuchMessage`] if the channel is empty or absent.
    /// * [`RunError::NodeUnavailable`] if either endpoint is crashed or
    ///   frozen.
    /// * [`RunError::LinkDown`] if the `from → to` link is cut.
    pub fn deliver_one(&mut self, from: NodeId, to: NodeId) -> Result<StepInfo, RunError> {
        if self.is_blocked(from) || self.is_blocked(to) {
            let node = if self.is_blocked(from) { from } else { to };
            return Err(RunError::NodeUnavailable { node });
        }
        if self.is_cut(from, to) {
            return Err(RunError::LinkDown { from, to });
        }
        let src = self.node_slot(from) as u32;
        let dst = self.node_slot(to) as u32;
        let row = match self.channels.lookup(src, dst) {
            Some(r) if self.channels.len[r] > 0 => r,
            _ => return Err(RunError::NoSuchMessage { from, to }),
        };
        Ok(self.deliver_row(row))
    }

    /// The delivery core: pops `row`'s head, dispatches it, applies the
    /// effects. The row must be non-empty and deliverable.
    fn deliver_row(&mut self, row: usize) -> StepInfo {
        // Claim unique ownership of the hot allocations once, instead of
        // paying `Arc::make_mut`'s refcount round-trips on every step.
        // After the three unshares below, no other pointer to the server
        // vec, client vec, or channel table exists — re-sharing them
        // requires `Sim::clone`, which clears `hot_owned` on both worlds
        // through `&self`, and `&mut self` here excludes any concurrent
        // clone of *this* world.
        use std::sync::atomic::Ordering::Relaxed;
        if !self.hot_owned.load(Relaxed) {
            Arc::make_mut(&mut self.servers);
            Arc::make_mut(&mut self.clients);
            Arc::make_mut(&mut self.channels);
            self.hot_owned.store(true, Relaxed);
        }
        // SAFETY: `hot_owned` (checked or just established above) proves
        // these `Arc`s unique, so mutating their payloads in place is
        // sound for the same reason `Arc::get_mut_unchecked` is. The raw
        // borrow of the table coexists with the disjoint field accesses
        // below (nodes, scratch, digest caches).
        let t = unsafe {
            &mut *(Arc::as_ptr(&self.channels) as *mut super::table::ChannelTable<P::Msg>)
        };
        let (from, to) = t.keys[row];
        if !t.dirty[row] {
            t.dirty[row] = true;
            self.digest_acc = self.digest_acc.wrapping_sub(t.comp[row]);
        }
        let dst_slot = t.dst_slot[row] as usize;
        let msg = t.pop_front(row);
        self.now += 1;
        match (from.is_server(), to.is_server()) {
            (false, true) => self.traffic.client_to_server += 1,
            (true, false) => self.traffic.server_to_client += 1,
            (true, true) => self.traffic.server_to_server += 1,
            (false, false) => {}
        }
        if self.metrics_level != crate::metrics::MetricsLevel::Off {
            if let Some(m) = self.metrics.as_mut().map(Arc::make_mut) {
                m.on_delivered(row);
            }
        }
        // `mark_node_dirty`, inlined to keep the table borrow alive.
        if !self.node_dirty[dst_slot] {
            self.node_dirty[dst_slot] = true;
            self.digest_acc = self.digest_acc.wrapping_sub(self.node_comp[dst_slot]);
        }
        let mut ctx: Ctx<P> = Ctx::with_buffers(
            to,
            self.now,
            std::mem::take(&mut self.scratch_outbox),
            std::mem::take(&mut self.scratch_resp),
        );
        // SAFETY: covered by the `hot_owned` uniqueness claim above; the
        // node vectors are separate allocations from the table borrowed
        // as `t`.
        match to {
            NodeId::Server(s) => <P::Server as Node<P>>::on_message(
                unsafe {
                    &mut (&mut *(Arc::as_ptr(&self.servers) as *mut Vec<P::Server>))[s.0 as usize]
                },
                from,
                msg,
                &mut ctx,
            ),
            NodeId::Client(c) => <P::Client as Node<P>>::on_message(
                unsafe {
                    &mut (&mut *(Arc::as_ptr(&self.clients) as *mut Vec<P::Client>))[c.0 as usize]
                },
                from,
                msg,
                &mut ctx,
            ),
        }
        self.apply_effects(to, ctx);
        self.sample_meter_for(to);
        self.cover_step(super::cover::kind::DELIVER, from, to);
        StepInfo::Delivered { from, to }
    }

    /// Takes one fair step: delivers from the next schedulable channel in
    /// round-robin order. Returns `None` when no channel is deliverable
    /// (quiescence among unblocked nodes).
    pub fn step_fair(&mut self) -> Option<StepInfo> {
        if self.blocked_count == 0 && self.cut_links.is_empty() {
            // Fault-free fast path: every non-empty row is deliverable, so
            // the round-robin pick selects from the nonempty set directly.
            let t = &*self.channels;
            let n = t.nonempty.len();
            if n == 0 {
                return None;
            }
            // Same `rr_cursor mod n` pick as the general path; the cursor
            // fits 32 bits for any execution the step limit admits, and a
            // 32-bit division is markedly cheaper.
            let k = match u32::try_from(self.rr_cursor) {
                Ok(rr) => rr % n,
                Err(_) => (self.rr_cursor % u64::from(n)) as u32,
            };
            let row = t.nonempty.select(k) as usize;
            self.rr_cursor += 1;
            return Some(self.deliver_row(row));
        }
        let mut options = std::mem::take(&mut self.scratch_options);
        self.fill_step_options(&mut options);
        let step = if options.is_empty() {
            None
        } else {
            let pick = options[(self.rr_cursor % options.len() as u64) as usize];
            self.rr_cursor += 1;
            Some(
                self.deliver_one(pick.0, pick.1)
                    .expect("step option is deliverable by construction"),
            )
        };
        self.scratch_options = options;
        step
    }

    /// Delivers the `idx`-th queued message of the `from → to` channel
    /// (0 = head) by rotating it to the front first — the adversarial
    /// reorder primitive. Only permitted when the configuration's
    /// [`crate::config::ChannelOrder`] is `Any`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sim::deliver_one`], plus
    /// [`RunError::NoSuchMessage`] when `idx` is out of range.
    ///
    /// # Panics
    ///
    /// Panics under the FIFO channel model with `idx > 0`.
    pub fn deliver_nth(
        &mut self,
        from: NodeId,
        to: NodeId,
        idx: usize,
    ) -> Result<StepInfo, RunError> {
        if idx > 0 {
            assert_eq!(
                self.config.channel_order,
                crate::config::ChannelOrder::Any,
                "out-of-order delivery requires ChannelOrder::Any"
            );
        }
        let row = self
            .channels
            .find((from, to))
            .ok_or(RunError::NoSuchMessage { from, to })?;
        if idx >= self.channels.len[row] as usize {
            return Err(RunError::NoSuchMessage { from, to });
        }
        if idx > 0 {
            // Rotate the chosen message to the head; FIFO order of the rest
            // is irrelevant under ChannelOrder::Any.
            self.mark_chan_dirty(row);
            Arc::make_mut(&mut self.channels).rotate_nth_to_front(row, idx);
        }
        self.deliver_one(from, to)
    }

    /// Takes one step chosen by the caller: the closure picks among
    /// `(channel, queue_len)` options and returns `(option index, message
    /// index)`. Under FIFO configurations the message index must be 0.
    ///
    /// Returns `None` when no step is available.
    pub fn step_with_reorder(
        &mut self,
        choose: impl FnOnce(&[((NodeId, NodeId), usize)]) -> (usize, usize),
    ) -> Option<StepInfo> {
        let mut options = std::mem::take(&mut self.scratch_weighted);
        options.clear();
        {
            let t = &*self.channels;
            for row in t.nonempty.iter() {
                let r = row as usize;
                if !t.cut[r]
                    && !self.blocked[t.src_slot[r] as usize]
                    && !self.blocked[t.dst_slot[r] as usize]
                {
                    options.push((t.keys[r], t.len[r] as usize));
                }
            }
        }
        let step = if options.is_empty() {
            None
        } else {
            let (oi, mi) = choose(&options);
            let ((from, to), len) = options[oi % options.len()];
            Some(
                self.deliver_nth(from, to, mi % len)
                    .expect("validated option is deliverable"),
            )
        };
        self.scratch_weighted = options;
        step
    }

    /// Takes one step chosen by the caller from [`Sim::step_options`] —
    /// used by seeded/adversarial schedulers.
    ///
    /// Returns `None` when no step is available.
    pub fn step_with(
        &mut self,
        choose: impl FnOnce(&[(NodeId, NodeId)]) -> usize,
    ) -> Option<StepInfo> {
        let mut options = std::mem::take(&mut self.scratch_options);
        self.fill_step_options(&mut options);
        let step = if options.is_empty() {
            None
        } else {
            let idx = choose(&options) % options.len();
            let pick = options[idx];
            Some(
                self.deliver_one(pick.0, pick.1)
                    .expect("step option is deliverable by construction"),
            )
        };
        self.scratch_options = options;
        step
    }

    /// Steps fairly until no message is deliverable. When metering is on,
    /// the conservation audit runs at the quiescent point — the always-on
    /// self-check for the metrics wiring.
    ///
    /// # Errors
    ///
    /// [`RunError::StepLimit`] if the configured step budget runs out first.
    ///
    /// # Panics
    ///
    /// Panics if the metered message accounting fails its conservation law
    /// at quiescence (a simulator bug, never a legitimate execution).
    pub fn run_to_quiescence(&mut self) -> Result<u64, RunError> {
        let mut steps = 0;
        while self.step_fair().is_some() {
            steps += 1;
            if steps > self.config.step_limit {
                return Err(RunError::StepLimit {
                    steps: self.config.step_limit,
                });
            }
        }
        if let Err(e) = self.audit_conservation() {
            panic!("conservation audit failed at quiescence: {e}");
        }
        Ok(steps)
    }

    /// Steps fairly until the open operation at `client` completes, and
    /// returns its response.
    ///
    /// # Errors
    ///
    /// * [`RunError::NoOpenOperation`] if the client has no open operation.
    /// * [`RunError::Stuck`] if the system quiesces without the operation
    ///   completing (liveness failure — e.g. too many servers crashed).
    /// * [`RunError::StepLimit`] if the step budget runs out.
    pub fn run_until_op_completes(&mut self, client: ClientId) -> Result<P::Resp, RunError> {
        let op_idx = *self
            .open_ops
            .get(&client)
            .ok_or(RunError::NoOpenOperation { client })?;
        let mut steps = 0;
        while self.ops[op_idx].responded_at.is_none() {
            if self.step_fair().is_none() {
                return Err(RunError::Stuck { client });
            }
            steps += 1;
            if steps > self.config.step_limit {
                return Err(RunError::StepLimit {
                    steps: self.config.step_limit,
                });
            }
        }
        Ok(self.ops[op_idx]
            .response
            .clone()
            .expect("completed op has a response"))
    }

    /// Delivers every message currently queued on server-to-server channels
    /// (and any gossip those deliveries enqueue), until the gossip channels
    /// drain — the "channels between the servers act, delivering all their
    /// messages" prelude of Theorem 5.1's valency definition.
    ///
    /// # Errors
    ///
    /// [`RunError::StepLimit`] if gossip cascades past the step budget.
    pub fn flush_server_channels(&mut self) -> Result<u64, RunError> {
        let mut steps = 0;
        loop {
            // First deliverable server→server row in key order — the same
            // channel the old options-list `find` selected.
            let t = &*self.channels;
            let next = t.nonempty.iter().map(|row| row as usize).find(|&r| {
                let (from, to) = t.keys[r];
                from.is_server()
                    && to.is_server()
                    && !t.cut[r]
                    && !self.blocked[t.src_slot[r] as usize]
                    && !self.blocked[t.dst_slot[r] as usize]
            });
            match next {
                Some(row) => {
                    self.deliver_row(row);
                    steps += 1;
                    if steps > self.config.step_limit {
                        return Err(RunError::StepLimit {
                            steps: self.config.step_limit,
                        });
                    }
                }
                None => return Ok(steps),
            }
        }
    }

    /// Applies a node's effects: its outbox through the one send loop, then
    /// its responses. Each message resolves its channel through the route
    /// table and marks the row's digest component stale; when they are on,
    /// the send log records it and the ledger row, the wire bytes and the
    /// queue-depth histogram book it — metered, logged and cut-link worlds
    /// run the same loop as plain ones.
    // Always inlined: called out of line from `deliver_row`, a plain step
    // measured about 10 % slower.
    #[inline(always)]
    pub(super) fn apply_effects(&mut self, origin: NodeId, ctx: Ctx<P>) {
        let (mut outbox, mut responses) = ctx.into_effects();
        if !outbox.is_empty() {
            let src = self.node_slot(origin) as u32;
            let gossip_ok = !origin.is_server() || self.config.server_gossip;
            let nserv = self.servers.len() as u32;
            let nclients = self.clients.len() as u32;
            let now = self.now;
            let t = if self.hot_owned.load(std::sync::atomic::Ordering::Relaxed) {
                // SAFETY: `hot_owned` proves the table `Arc` unique, as in
                // `deliver_row`; the borrow ends with this loop.
                unsafe {
                    &mut *(Arc::as_ptr(&self.channels) as *mut super::table::ChannelTable<P::Msg>)
                }
            } else {
                Arc::make_mut(&mut self.channels)
            };
            let mut metrics = match self.metrics_level {
                crate::metrics::MetricsLevel::Off => None,
                _ => self.metrics.as_mut().map(Arc::make_mut),
            };
            let mut log = self.send_log.as_mut().map(Arc::make_mut);
            for (to, msg) in outbox.drain(..) {
                let dst = match to {
                    NodeId::Server(s) => {
                        assert!(
                            gossip_ok,
                            "protocol violated the no-gossip model: {origin} sent a message to \
                             {to} but server_gossip is disabled"
                        );
                        assert!(s.0 < nserv, "message sent to unknown node {to}");
                        s.0
                    }
                    NodeId::Client(c) => {
                        assert!(c.0 < nclients, "message sent to unknown node {to}");
                        nserv + c.0
                    }
                };
                let row = match t.lookup(src, dst) {
                    Some(r) => r,
                    None => {
                        let cut = self.cut_links.contains(&(origin, to));
                        let r = t.ensure((origin, to), src, dst, cut);
                        if let Some(m) = &mut metrics {
                            m.insert_row(r, (origin, to));
                        }
                        r
                    }
                };
                if !t.dirty[row] {
                    t.dirty[row] = true;
                    self.digest_acc = self.digest_acc.wrapping_sub(t.comp[row]);
                }
                if let Some(log) = &mut log {
                    log.push(SendRecord {
                        step: now,
                        from: origin,
                        to,
                        msg: msg.clone(),
                    });
                }
                // Wire size is only charged when metered; computing it
                // lazily keeps the off path free of the (potentially
                // payload-walking) `msg_wire_bytes` call.
                let bytes = metrics.is_some().then(|| P::msg_wire_bytes(&msg));
                let depth = t.push_back(row, msg, now);
                if let (Some(m), Some(bytes)) = (&mut metrics, bytes) {
                    m.on_sent(row, bytes, u64::from(depth));
                }
            }
        }
        self.scratch_outbox = outbox;
        if !responses.is_empty() {
            self.record_responses(origin, &mut responses);
        }
        self.scratch_resp = responses;
    }

    /// Books a client's operation responses into the op log.
    fn record_responses(&mut self, origin: NodeId, responses: &mut Vec<P::Resp>) {
        let client = origin
            .as_client()
            .expect("only clients produce operation responses");
        for resp in responses.drain(..) {
            let idx = self
                .open_ops
                .remove(&client)
                .expect("response produced with no open operation");
            let detections = if self.metrics_level != crate::metrics::MetricsLevel::Off {
                P::count_detections(&resp)
            } else {
                0
            };
            let ops = Arc::make_mut(&mut self.ops);
            ops[idx].responded_at = Some(self.now);
            ops[idx].response = Some(resp);
            let latency = self.now - self.ops[idx].invoked_at;
            if let Some(m) = self.metrics_mut() {
                m.on_op_completed(latency);
                if detections > 0 {
                    m.on_read_failed_detect(detections);
                }
            }
        }
    }

    /// The message at the head of the `from → to` channel, if any — what
    /// the next [`Sim::deliver_one`] on that channel would deliver. Used by
    /// adversaries that withhold messages by content (e.g. the Section 6
    /// construction withholding value-dependent messages).
    pub fn peek_head(&self, from: NodeId, to: NodeId) -> Option<&P::Msg> {
        let t = &*self.channels;
        let row = t.find((from, to))?;
        let h = t.head[row];
        if h.is_nil() {
            None
        } else {
            Some(t.arena.get(h))
        }
    }

    /// Enables or disables the send log. While enabled, every message
    /// enqueued onto a channel is recorded with the step at which it was
    /// sent — the raw material for protocol-structure analyses such as the
    /// Assumption 3(b) phase check in `shmem-core`.
    pub fn record_sends(&mut self, on: bool) {
        if on {
            self.send_log.get_or_insert_with(Default::default);
        } else {
            self.send_log = None;
        }
    }

    /// The recorded sends (empty unless [`Sim::record_sends`] is on).
    pub fn send_log(&self) -> &[SendRecord<P::Msg>] {
        self.send_log.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Messages currently queued from `from` to `to`.
    pub fn in_flight(&self, from: NodeId, to: NodeId) -> usize {
        self.channels
            .find((from, to))
            .map_or(0, |r| self.channels.len[r] as usize)
    }

    /// Total messages in flight anywhere.
    pub fn total_in_flight(&self) -> usize {
        self.channels.in_flight
    }
}
