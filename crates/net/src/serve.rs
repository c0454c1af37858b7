//! The server event loop: an unchanged protocol automaton driven by a
//! [`Transport`] instead of the simulator.
//!
//! This is the adapter the `Ctx::new` hook exists for: each inbound
//! envelope is decoded, handed to the automaton's `on_message` against a
//! fresh context, and the buffered effects are encoded and pushed back
//! into the transport. The automaton cannot tell whether the bytes came
//! over a simulator channel, an in-process queue, or a TCP socket —
//! which is exactly what the differential tests exploit.

use crate::transport::{Envelope, Transport};
use crate::wire::WireMsg;
use shmem_sim::{Ctx, Node, NodeId, Protocol, ServerId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counters one server loop accumulates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Envelopes received and decoded.
    pub msgs_in: u64,
    /// Messages sent (outbox entries).
    pub msgs_out: u64,
    /// Wire bytes sent, charged via [`Protocol::msg_wire_bytes`].
    pub wire_bytes_out: u64,
    /// Envelopes whose payload failed to decode (dropped, not fatal).
    pub decode_errors: u64,
}

impl ServeStats {
    /// Componentwise sum (the servers of one cluster, or one server
    /// across restarts).
    #[must_use]
    pub fn merge(self, other: ServeStats) -> ServeStats {
        ServeStats {
            msgs_in: self.msgs_in + other.msgs_in,
            msgs_out: self.msgs_out + other.msgs_out,
            wire_bytes_out: self.wire_bytes_out + other.wire_bytes_out,
            decode_errors: self.decode_errors + other.decode_errors,
        }
    }
}

/// One automaton's seat at a transport: the decode → `on_message` →
/// encode → emit step of the serve loop, and the counters it keeps.
/// `emit` is where a driver says what sending means — [`serve_until`]
/// hands every envelope straight to its transport.
struct Seat<P: Protocol> {
    automaton: P::Server,
    me: NodeId,
    event: u64,
    stats: ServeStats,
}

impl<P> Seat<P>
where
    P: Protocol,
    P::Msg: WireMsg,
{
    /// Seats `automaton` as server `me` and runs its `on_start`.
    fn start(mut automaton: P::Server, me: ServerId, emit: impl FnMut(Envelope)) -> Seat<P> {
        let me = NodeId::Server(me);
        let mut ctx: Ctx<P> = Ctx::new(me, 0);
        automaton.on_start(&mut ctx);
        let mut seat = Seat {
            automaton,
            me,
            event: 0,
            stats: ServeStats::default(),
        };
        seat.flush(ctx, emit);
        seat
    }

    /// Handles one inbound envelope. A payload that fails to decode is
    /// counted and dropped; the loop — and the server — survives
    /// arbitrary bytes from the network.
    fn step(&mut self, env: Envelope, emit: impl FnMut(Envelope)) {
        let Ok(msg) = P::Msg::from_wire(&env.payload) else {
            self.stats.decode_errors += 1;
            return;
        };
        self.stats.msgs_in += 1;
        self.event += 1;
        let mut ctx: Ctx<P> = Ctx::new(self.me, self.event);
        self.automaton.on_message(env.from, msg, &mut ctx);
        self.flush(ctx, emit);
    }

    /// Encodes one event's buffered effects and hands them to `emit`.
    fn flush(&mut self, ctx: Ctx<P>, mut emit: impl FnMut(Envelope)) {
        let (outbox, responses) = ctx.into_effects();
        debug_assert!(responses.is_empty(), "servers never respond to operations");
        for (to, msg) in outbox {
            self.stats.msgs_out += 1;
            self.stats.wire_bytes_out += P::msg_wire_bytes(&msg);
            emit(Envelope {
                from: self.me,
                to,
                payload: msg.to_wire(),
            });
        }
    }
}

/// Runs `automaton` against `transport` until `stop` is raised, then
/// returns it (with its state intact — the durable-state crash model)
/// together with the loop's counters.
pub fn serve_until<P, T>(
    automaton: P::Server,
    me: ServerId,
    mut transport: T,
    stop: Arc<AtomicBool>,
) -> (P::Server, ServeStats)
where
    P: Protocol,
    P::Msg: WireMsg,
    T: Transport,
{
    // Best-effort: a dead peer just loses the message.
    let mut seat = Seat::<P>::start(automaton, me, |env| {
        let _ = transport.send(&env);
    });
    while !stop.load(Ordering::Acquire) {
        let env = match transport.recv_timeout(Duration::from_millis(10)) {
            Ok(Some(env)) => env,
            Ok(None) => continue,
            Err(_) => break,
        };
        seat.step(env, |env| {
            let _ = transport.send(&env);
        });
    }
    (seat.automaton, seat.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcHub;
    use shmem_algorithms::abd::{ShardedAbd, ShardedAbdMsg, ShardedAbdServer};
    use shmem_algorithms::tag::Tag;
    use shmem_algorithms::value::ValueSpec;
    use shmem_sim::ClientId;
    use std::thread;

    /// One scripted sequence — a garbage payload, a `Store`, eight
    /// `Query`s — through [`serve_until`]: the replies in script order,
    /// and the loop's counters (the garbage is counted, not fatal).
    #[test]
    fn serve_until_answers_the_script_and_counts() {
        let hub = InProcHub::new();
        let server_ep = hub.endpoint(&[NodeId::Server(ServerId(0))]);
        let mut client_ep = hub.endpoint(&[NodeId::Client(ClientId(0))]);
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let automaton = ShardedAbdServer::new(0, ValueSpec::from_bits(64.0));
                serve_until::<ShardedAbd, _>(automaton, ServerId(0), server_ep, stop).1
            })
        };

        let items = vec![(7, Tag::ZERO.successor(0), 42)];
        let store = ShardedAbdMsg::Store {
            rid: 1,
            items: items.clone(),
        };
        let queries = (2..10).map(|rid| ShardedAbdMsg::Query { rid, keys: vec![7] });
        let script = std::iter::once(store).chain(queries).map(|m| m.to_wire());
        let mut replies = Vec::new();
        for (i, payload) in std::iter::once(vec![0xff; 9]).chain(script).enumerate() {
            client_ep
                .send(&Envelope {
                    from: NodeId::Client(ClientId(0)),
                    to: NodeId::Server(ServerId(0)),
                    payload,
                })
                .unwrap();
            if i == 0 {
                continue; // garbage draws no reply
            }
            let reply = client_ep
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("server replies");
            replies.push(ShardedAbdMsg::from_wire(&reply.payload).expect("reply parses"));
        }
        stop.store(true, Ordering::Release);
        let stats = handle.join().unwrap();

        assert_eq!(replies.len(), 9);
        assert_eq!(replies[0], ShardedAbdMsg::StoreAck { rid: 1 });
        assert_eq!(replies[1], ShardedAbdMsg::QueryResp { rid: 2, items });
        let (in_, out, bad) = (stats.msgs_in, stats.msgs_out, stats.decode_errors);
        assert_eq!((in_, out, bad), (9, 9, 1));
    }
}
