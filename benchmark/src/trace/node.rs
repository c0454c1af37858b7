//! [`TimedNode`]: the `Node<P>` decorator.

use super::{Kind, TraceCtx, NO_OP};
use shmem_algorithms::abd::ShardedAbdMsg;
use shmem_algorithms::cas::ShardedCasMsg;
use shmem_sim::{ClientId, Ctx, Node, NodeId, Protocol};
use std::sync::Arc;

/// A protocol message that carries a per-client phase nonce — what ties a
/// message seen at a server back to the client operation that caused it.
pub trait RidOf {
    /// The message's phase nonce.
    fn rid(&self) -> u64;
}

impl RidOf for ShardedAbdMsg {
    fn rid(&self) -> u64 {
        match *self {
            ShardedAbdMsg::Query { rid, .. }
            | ShardedAbdMsg::QueryResp { rid, .. }
            | ShardedAbdMsg::Store { rid, .. }
            | ShardedAbdMsg::StoreAck { rid } => rid,
        }
    }
}

impl RidOf for ShardedCasMsg {
    fn rid(&self) -> u64 {
        match *self {
            ShardedCasMsg::QueryTag { rid, .. }
            | ShardedCasMsg::QueryTagResp { rid, .. }
            | ShardedCasMsg::PreWrite { rid, .. }
            | ShardedCasMsg::PreAck { rid }
            | ShardedCasMsg::Finalize { rid, .. }
            | ShardedCasMsg::FinAck { rid }
            | ShardedCasMsg::ReadGet { rid, .. }
            | ShardedCasMsg::ReadResp { rid, .. } => rid,
        }
    }
}

/// Delegates every `Node<P>` method to the wrapped automaton, with a span
/// around `on_message` and `on_invoke`. Installed through a
/// benchmark-local `Protocol` marker, the way
/// `tests/corrupt_differential.rs` installs `CorruptStoreCas`.
#[derive(Clone)]
pub struct TimedNode<N> {
    inner: N,
    ctx: Arc<TraceCtx>,
}

impl<N> TimedNode<N> {
    /// Decorates `inner`, recording into `ctx`.
    pub fn new(inner: N, ctx: Arc<TraceCtx>) -> TimedNode<N> {
        TimedNode { inner, ctx }
    }

    /// The wrapped automaton (for storage probes).
    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<P, N> Node<P> for TimedNode<N>
where
    P: Protocol,
    P::Msg: RidOf,
    N: Node<P>,
{
    fn on_start(&mut self, ctx: &mut Ctx<P>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: P::Msg, ctx: &mut Ctx<P>) {
        let (kind, client) = match (ctx.me(), from) {
            (NodeId::Client(ClientId(me)), _) => (Kind::ClientOnMessage, Some(me)),
            (NodeId::Server(_), NodeId::Client(ClientId(c))) => (Kind::ServerOnMessage, Some(c)),
            (NodeId::Server(_), NodeId::Server(_)) => (Kind::ServerOnMessage, None),
        };
        let op = client.map_or(NO_OP, |c| self.ctx.op_of_rid(c, msg.rid()));
        let _span = self.ctx.span(kind, op);
        self.inner.on_message(from, msg, ctx);
    }

    fn on_invoke(&mut self, inv: P::Inv, ctx: &mut Ctx<P>) {
        let op = match ctx.me() {
            NodeId::Client(ClientId(me)) => self.ctx.begin_op(me),
            NodeId::Server(_) => NO_OP,
        };
        let _span = self.ctx.span(Kind::ClientOnInvoke, op);
        self.inner.on_invoke(inv, ctx);
    }

    fn state_bits(&self) -> f64 {
        self.inner.state_bits()
    }

    fn metadata_bits(&self) -> f64 {
        self.inner.metadata_bits()
    }

    fn digest(&self) -> u64 {
        self.inner.digest()
    }
}
