//! [`TimedTransport`]: the `Transport` decorator.

use super::{Kind, OpId, TraceCtx, NO_OP};
use shmem_net::{Envelope, NetError, Transport};
use shmem_sim::{ClientId, NodeId};
use std::sync::Arc;
use std::time::Duration;

/// Every this-many sends, one envelope is kept for replay…
const SAMPLE_STRIDE: u64 = 8;
/// …up to this many per transport.
const SAMPLE_CAP: usize = 4096;

/// The phase nonce of an encoded sharded protocol message.
///
/// `ShardedAbdMsg` and `ShardedCasMsg` share a layout prefix — one variant
/// byte, then the big-endian `rid` — and a transport sees only bytes, so
/// this peeks at that prefix instead of decoding the payload a second
/// time. A unit test pins the prefix against `to_wire()` of both message
/// types: a codec change fails there, not silently here.
pub fn rid_of_payload(payload: &[u8]) -> Option<u64> {
    let rid: [u8; 8] = payload.get(1..9)?.try_into().ok()?;
    Some(u64::from_be_bytes(rid))
}

/// Times `send`, splits `recv_timeout` into returned-a-message and
/// timed-out, and brackets everything the owning loop does between two
/// `recv_timeout` calls in a `loop.handle` / `loop.tick` span — so the
/// parentless spans of a transport-owning thread tile its wall clock. The
/// loop-level span lives on the thread's span stack in the [`TraceCtx`];
/// whoever called the loop closes the last one with [`TraceCtx::park`]
/// when the loop returns.
pub struct TimedTransport<T> {
    inner: T,
    ctx: Arc<TraceCtx>,
    sends: u64,
    sample: Vec<Envelope>,
}

impl<T> TimedTransport<T> {
    /// Decorates `inner`, recording into `ctx`.
    pub fn new(inner: T, ctx: Arc<TraceCtx>) -> TimedTransport<T> {
        TimedTransport {
            inner,
            ctx,
            sends: 0,
            sample: Vec::new(),
        }
    }

    /// The operation `env` belongs to: the client is whichever end is
    /// one, and a client's own send binds the nonce on first sight.
    fn op_of(&self, env: &Envelope, sending: bool) -> OpId {
        let Some(rid) = rid_of_payload(&env.payload) else {
            return NO_OP;
        };
        match (env.from, env.to) {
            (NodeId::Client(ClientId(c)), _) if sending => self.ctx.bind_rid(c, rid),
            (NodeId::Client(ClientId(c)), _) | (_, NodeId::Client(ClientId(c))) => {
                self.ctx.op_of_rid(c, rid)
            }
            _ => NO_OP,
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, env: &Envelope) -> Result<(), NetError> {
        let op = self.op_of(env, true);
        if self.sends.is_multiple_of(SAMPLE_STRIDE) && self.sample.len() < SAMPLE_CAP {
            self.sample.push(env.clone());
        }
        self.sends += 1;
        if !self.ctx.in_span() {
            // A client sends before it first receives: start tiling here.
            self.ctx.open(Kind::Tick, NO_OP);
        }
        let _span = self.ctx.span(Kind::Send, op);
        self.inner.send(env)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        // One clock reading ends the loop-level span and starts the wait,
        // another ends the wait and starts the next loop-level span: the
        // spans of this thread tile its wall clock without gaps.
        let start_ns = self.ctx.now_ns();
        self.ctx.close_loop_at(start_ns);
        let got = self.inner.recv_timeout(timeout);
        let end_ns = self.ctx.now_ns();
        match &got {
            Ok(Some(env)) => {
                let op = self.op_of(env, false);
                self.ctx.leaf(Kind::Recv, start_ns, end_ns, op);
                self.ctx.open_at(Kind::Handle, op, end_ns);
            }
            Ok(None) => {
                self.ctx.leaf(Kind::Idle, start_ns, end_ns, NO_OP);
                self.ctx.open_at(Kind::Tick, NO_OP, end_ns);
            }
            Err(_) => self.ctx.leaf(Kind::Idle, start_ns, end_ns, NO_OP),
        }
        got
    }
}

impl<T> Drop for TimedTransport<T> {
    fn drop(&mut self) {
        self.ctx.keep_payloads(std::mem::take(&mut self.sample));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RidOf;
    use shmem_algorithms::abd::ShardedAbdMsg;
    use shmem_algorithms::cas::ShardedCasMsg;
    use shmem_algorithms::Tag;
    use shmem_net::wire::WireMsg;

    /// The byte peek and the typed accessor must agree on every variant
    /// of both message types — this is what fails if the codec moves the
    /// nonce.
    #[test]
    fn payload_peek_agrees_with_the_typed_nonce() {
        let rid = 0x0102_0304_0506_0708;
        let tag = Tag::new(3, 1);
        let abd = [
            ShardedAbdMsg::Query { rid, keys: vec![9] },
            ShardedAbdMsg::QueryResp {
                rid,
                items: vec![(9, tag, 5)],
            },
            ShardedAbdMsg::Store {
                rid,
                items: vec![(9, tag, 5)],
            },
            ShardedAbdMsg::StoreAck { rid },
        ];
        for m in &abd {
            assert_eq!(rid_of_payload(&m.to_wire()), Some(m.rid()), "{m:?}");
        }
        let cas = [
            ShardedCasMsg::QueryTag { rid, keys: vec![9] },
            ShardedCasMsg::QueryTagResp {
                rid,
                items: vec![(9, tag)],
            },
            ShardedCasMsg::PreWrite {
                rid,
                items: vec![(9, tag, vec![1, 2])],
            },
            ShardedCasMsg::PreAck { rid },
            ShardedCasMsg::Finalize {
                rid,
                items: vec![(9, tag)],
            },
            ShardedCasMsg::FinAck { rid },
            ShardedCasMsg::ReadGet {
                rid,
                items: vec![(9, tag)],
            },
            ShardedCasMsg::ReadResp {
                rid,
                items: vec![(9, Some(vec![1, 2]))],
            },
        ];
        for m in &cas {
            assert_eq!(rid_of_payload(&m.to_wire()), Some(m.rid()), "{m:?}");
        }
        assert_eq!(rid_of_payload(&[0; 8]), None);
    }
}
