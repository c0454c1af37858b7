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
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Componentwise sum (workers of one pooled server, or one server
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

/// Runs `automaton` against `transport` until `stop` is raised, then
/// returns it (with its state intact — the durable-state crash model)
/// together with the loop's counters.
///
/// A payload that fails to decode is counted and dropped; the loop — and
/// the server — survives arbitrary bytes from the network.
pub fn serve_until<P, T>(
    mut automaton: P::Server,
    me: ServerId,
    mut transport: T,
    stop: Arc<AtomicBool>,
) -> (P::Server, ServeStats)
where
    P: Protocol,
    P::Msg: WireMsg,
    T: Transport,
{
    let my_id = NodeId::Server(me);
    let mut stats = ServeStats::default();
    let mut event: u64 = 0;

    let mut ctx: Ctx<P> = Ctx::new(my_id, event);
    automaton.on_start(&mut ctx);
    flush::<P, T>(&mut transport, my_id, ctx, &mut stats);

    while !stop.load(Ordering::Acquire) {
        let env = match transport.recv_timeout(Duration::from_millis(10)) {
            Ok(Some(env)) => env,
            Ok(None) => continue,
            Err(_) => break,
        };
        let msg = match P::Msg::from_wire(&env.payload) {
            Ok(m) => m,
            Err(_) => {
                stats.decode_errors += 1;
                continue;
            }
        };
        stats.msgs_in += 1;
        event += 1;
        let mut ctx: Ctx<P> = Ctx::new(my_id, event);
        automaton.on_message(env.from, msg, &mut ctx);
        flush::<P, T>(&mut transport, my_id, ctx, &mut stats);
    }
    (automaton, stats)
}

/// Runs `automata` as a *pool of worker threads* serving one server
/// identity `me` over one `transport` until `stop` is raised.
///
/// This is the concurrent-server entry point: every worker holds its own
/// automaton instance, but the instances share their state through a
/// striped-lock backend (`shmem-store`), so the pool behaves as a single
/// server whose message handling parallelizes across cores. The
/// transport stays owned by the calling thread (transports are
/// single-owner): it feeds a shared inbox the workers drain, and drains
/// an outbox channel the workers fill with pre-encoded envelopes —
/// decode, protocol logic, and encode all run on worker threads.
///
/// Returns the worker automata (state intact, any one a representative
/// of the shared store) and the pool's merged counters.
pub fn serve_shared<P, T>(
    automata: Vec<P::Server>,
    me: ServerId,
    mut transport: T,
    stop: Arc<AtomicBool>,
) -> (Vec<P::Server>, ServeStats)
where
    P: Protocol,
    P::Msg: WireMsg,
    P::Server: Send,
    T: Transport,
{
    assert!(
        !automata.is_empty(),
        "a server pool needs at least one worker"
    );
    let my_id = NodeId::Server(me);
    let inbox: Mutex<VecDeque<Envelope>> = Mutex::new(VecDeque::new());
    let available = Condvar::new();
    let (out_tx, out_rx) = mpsc::channel::<Envelope>();

    std::thread::scope(|scope| {
        let handles: Vec<_> = automata
            .into_iter()
            .enumerate()
            .map(|(worker, mut automaton)| {
                let out_tx = out_tx.clone();
                let (inbox, available, stop) = (&inbox, &available, &stop);
                scope.spawn(move || {
                    let mut stats = ServeStats::default();
                    let mut event: u64 = 0;
                    let mut ctx: Ctx<P> = Ctx::new(my_id, event);
                    // Every worker runs on_start (per-instance init),
                    // but the pool is ONE logical server: only the
                    // first worker's start-up effects go to the wire.
                    // A protocol whose server emits on_start traffic
                    // must not have it multiplied by the pool size.
                    automaton.on_start(&mut ctx);
                    if worker == 0 {
                        enqueue::<P>(&out_tx, my_id, ctx, &mut stats);
                    } else {
                        let (outbox, responses) = ctx.into_effects();
                        assert!(
                            outbox.is_empty() && responses.is_empty(),
                            "pooled server on_start effects are emitted once, \
                             by the first worker only"
                        );
                    }
                    loop {
                        let env = {
                            let mut q = inbox.lock().expect("inbox poisoned");
                            loop {
                                if let Some(env) = q.pop_front() {
                                    break env;
                                }
                                if stop.load(Ordering::Acquire) {
                                    return (automaton, stats);
                                }
                                // Timed wait so a missed notification can
                                // never outlive the stop flag.
                                q = available
                                    .wait_timeout(q, Duration::from_millis(5))
                                    .expect("inbox poisoned")
                                    .0;
                            }
                        };
                        let msg = match P::Msg::from_wire(&env.payload) {
                            Ok(m) => m,
                            Err(_) => {
                                stats.decode_errors += 1;
                                continue;
                            }
                        };
                        stats.msgs_in += 1;
                        event += 1;
                        let mut ctx: Ctx<P> = Ctx::new(my_id, event);
                        automaton.on_message(env.from, msg, &mut ctx);
                        enqueue::<P>(&out_tx, my_id, ctx, &mut stats);
                    }
                })
            })
            .collect();

        // IO loop: the calling thread shovels inbound envelopes to the
        // workers and outbound envelopes to the wire.
        while !stop.load(Ordering::Acquire) {
            match transport.recv_timeout(Duration::from_millis(1)) {
                Ok(Some(env)) => {
                    inbox.lock().expect("inbox poisoned").push_back(env);
                    available.notify_one();
                }
                Ok(None) => {}
                Err(_) => {
                    stop.store(true, Ordering::Release);
                    break;
                }
            }
            for env in out_rx.try_iter() {
                // Best-effort: a dead peer just loses the message.
                let _ = transport.send(&env);
            }
        }
        available.notify_all();

        let mut pool = Vec::new();
        let mut stats = ServeStats::default();
        for h in handles {
            let (automaton, s) = h.join().expect("server worker panicked");
            pool.push(automaton);
            stats = stats.merge(s);
        }
        // Workers are joined; flush their final effects.
        drop(out_tx);
        for env in out_rx.try_iter() {
            let _ = transport.send(&env);
        }
        (pool, stats)
    })
}

/// Encodes one event's buffered effects onto the pool's outbox channel.
fn enqueue<P>(out: &Sender<Envelope>, me: NodeId, ctx: Ctx<P>, stats: &mut ServeStats)
where
    P: Protocol,
    P::Msg: WireMsg,
{
    let (outbox, responses) = ctx.into_effects();
    debug_assert!(responses.is_empty(), "servers never respond to operations");
    for (to, msg) in outbox {
        stats.msgs_out += 1;
        stats.wire_bytes_out += P::msg_wire_bytes(&msg);
        let env = Envelope {
            from: me,
            to,
            payload: msg.to_wire(),
        };
        // The IO thread drains this channel; if it exited first (stop
        // raced the last handler), the message is lost like any other
        // best-effort send.
        let _ = out.send(env);
    }
}

fn flush<P, T>(transport: &mut T, me: NodeId, ctx: Ctx<P>, stats: &mut ServeStats)
where
    P: Protocol,
    P::Msg: WireMsg,
    T: Transport,
{
    let (outbox, responses) = ctx.into_effects();
    debug_assert!(responses.is_empty(), "servers never respond to operations");
    for (to, msg) in outbox {
        stats.msgs_out += 1;
        stats.wire_bytes_out += P::msg_wire_bytes(&msg);
        let env = Envelope {
            from: me,
            to,
            payload: msg.to_wire(),
        };
        // Best-effort: a dead peer just loses the message.
        let _ = transport.send(&env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcHub;
    use shmem_algorithms::abd::ShardedAbd;
    use shmem_algorithms::abd::ShardedAbdServer;
    use shmem_algorithms::multikey::ShardMap;
    use shmem_algorithms::value::ValueSpec;
    use shmem_sim::ClientId;
    use std::thread;

    #[test]
    fn serves_a_query_and_survives_garbage() {
        let hub = InProcHub::new();
        let server_ep = hub.endpoint(&[NodeId::Server(ServerId(0))]);
        let mut client_ep = hub.endpoint(&[NodeId::Client(ClientId(0))]);
        let stop = Arc::new(AtomicBool::new(false));

        let automaton = ShardedAbdServer::new(0, ValueSpec::from_bits(64.0));
        let handle = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                serve_until::<ShardedAbd, _>(automaton, ServerId(0), server_ep, stop)
            })
        };

        // Garbage payload first: must be counted, not fatal.
        client_ep
            .send(&Envelope {
                from: NodeId::Client(ClientId(0)),
                to: NodeId::Server(ServerId(0)),
                payload: vec![0xff; 9],
            })
            .unwrap();

        // Then a real phase-1 query.
        use crate::wire::WireMsg;
        use shmem_algorithms::abd::ShardedAbdMsg;
        let map = ShardMap::full(1);
        let _ = map;
        let query = ShardedAbdMsg::Query {
            rid: 1,
            keys: vec![7],
        };
        client_ep
            .send(&Envelope {
                from: NodeId::Client(ClientId(0)),
                to: NodeId::Server(ServerId(0)),
                payload: query.to_wire(),
            })
            .unwrap();

        let reply = client_ep
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("server replies");
        let msg = ShardedAbdMsg::from_wire(&reply.payload).unwrap();
        assert!(matches!(msg, ShardedAbdMsg::QueryResp { rid: 1, .. }));

        stop.store(true, Ordering::Release);
        let (_automaton, stats) = handle.join().unwrap();
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.msgs_in, 1);
        assert_eq!(stats.msgs_out, 1);
    }

    /// A pooled server: workers sharing one striped store behave as a
    /// single server — a `Store` handled by one worker is visible to a
    /// `Query` handled by another, and the pool's counters add up.
    #[test]
    fn pooled_workers_share_one_store() {
        use shmem_algorithms::abd::ShardedAbdMsg;
        use shmem_algorithms::abd::ShardedAbdServerOn;
        use shmem_algorithms::tag::Tag;
        use shmem_store::{RegStore, StoreAbd, StoreAbdBackend};

        let hub = InProcHub::new();
        let server_ep = hub.endpoint(&[NodeId::Server(ServerId(0))]);
        let mut client_ep = hub.endpoint(&[NodeId::Client(ClientId(0))]);
        let stop = Arc::new(AtomicBool::new(false));

        let store = std::sync::Arc::new(RegStore::new());
        let pool: Vec<_> = (0..4)
            .map(|_| {
                ShardedAbdServerOn::with_backend(
                    0,
                    ValueSpec::from_bits(64.0),
                    StoreAbdBackend::shared(&store),
                )
            })
            .collect();
        let handle = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || serve_shared::<StoreAbd, _>(pool, ServerId(0), server_ep, stop))
        };

        let send = |client_ep: &mut crate::transport::InProcEndpoint, msg: &ShardedAbdMsg| {
            client_ep
                .send(&Envelope {
                    from: NodeId::Client(ClientId(0)),
                    to: NodeId::Server(ServerId(0)),
                    payload: msg.to_wire(),
                })
                .unwrap();
        };
        let recv = |client_ep: &mut crate::transport::InProcEndpoint| {
            let reply = client_ep
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("server replies");
            ShardedAbdMsg::from_wire(&reply.payload).unwrap()
        };

        // Phase-2 store, then repeated phase-1 queries: whichever worker
        // picks each message up must see the stored version.
        let tag = Tag::ZERO.successor(0);
        send(
            &mut client_ep,
            &ShardedAbdMsg::Store {
                rid: 1,
                items: vec![(7, tag, 42)],
            },
        );
        assert!(matches!(
            recv(&mut client_ep),
            ShardedAbdMsg::StoreAck { rid: 1 }
        ));
        for rid in 2..10u64 {
            send(&mut client_ep, &ShardedAbdMsg::Query { rid, keys: vec![7] });
            match recv(&mut client_ep) {
                ShardedAbdMsg::QueryResp { rid: r, items } => {
                    assert_eq!(r, rid);
                    assert_eq!(items, vec![(7, tag, 42)]);
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }

        stop.store(true, Ordering::Release);
        let (pool, stats) = handle.join().unwrap();
        assert_eq!(pool.len(), 4);
        assert_eq!(stats.msgs_in, 9);
        assert_eq!(stats.msgs_out, 9);
        // Every worker sees the shared key through its own backend.
        for s in &pool {
            assert_eq!(s.entry(7), (tag, 42));
        }
    }
}
