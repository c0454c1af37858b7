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
use std::sync::mpsc;
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

/// One automaton's seat at a transport: the decode → `on_message` →
/// encode → emit step both serve loops run, and the counters it keeps.
/// `emit` is where the loops differ — straight into the transport
/// ([`serve_until`]) or onto the pool's outbox ([`serve_shared`]).
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
    let inbox: Mutex<VecDeque<Envelope>> = Mutex::new(VecDeque::new());
    let available = Condvar::new();
    let (out_tx, out_rx) = mpsc::channel::<Envelope>();

    std::thread::scope(|scope| {
        let handles: Vec<_> = automata
            .into_iter()
            .enumerate()
            .map(|(worker, automaton)| {
                let out_tx = out_tx.clone();
                let (inbox, available, stop) = (&inbox, &available, &stop);
                scope.spawn(move || {
                    // The IO thread drains this channel; if it exited
                    // first (stop raced the last handler), the message is
                    // lost like any other best-effort send.
                    let enqueue = |env| {
                        let _ = out_tx.send(env);
                    };
                    // Every worker runs on_start (per-instance init),
                    // but the pool is ONE logical server: only the
                    // first worker's start-up effects go to the wire.
                    // A protocol whose server emits on_start traffic
                    // must not have it multiplied by the pool size.
                    let mut seat = Seat::<P>::start(automaton, me, |env| {
                        assert!(
                            worker == 0,
                            "pooled server on_start effects are emitted once, \
                             by the first worker only"
                        );
                        enqueue(env);
                    });
                    loop {
                        let env = {
                            let mut q = inbox.lock().expect("inbox poisoned");
                            loop {
                                if let Some(env) = q.pop_front() {
                                    break env;
                                }
                                if stop.load(Ordering::Acquire) {
                                    return (seat.automaton, seat.stats);
                                }
                                // Timed wait so a missed notification can
                                // never outlive the stop flag.
                                q = available
                                    .wait_timeout(q, Duration::from_millis(5))
                                    .expect("inbox poisoned")
                                    .0;
                            }
                        };
                        seat.step(env, enqueue);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcHub;
    use shmem_algorithms::abd::ShardedAbd;
    use shmem_algorithms::value::ValueSpec;
    use shmem_sim::ClientId;
    use std::thread;

    /// A pooled server: workers sharing one striped store behave as a
    /// single server — a `Store` handled by one worker is visible to a
    /// `Query` handled by another, and the pool's counters add up.
    #[test]
    fn pooled_workers_share_one_store() {
        use shmem_algorithms::abd::ShardedAbdMsg;
        use shmem_algorithms::abd::ShardedAbdServerOn;
        use shmem_algorithms::tag::Tag;
        use shmem_store::{RegStore, StoreAbdBackend};

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
            thread::spawn(move || {
                serve_shared::<ShardedAbd<StoreAbdBackend>, _>(pool, ServerId(0), server_ep, stop)
            })
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

    /// One scripted sequence — a garbage payload, a `Store`, eight
    /// `Query`s — through whichever loop `serve` runs: the reply payloads
    /// in order, and the loop's counters.
    fn scripted(
        serve: impl FnOnce(crate::transport::InProcEndpoint, Arc<AtomicBool>) -> ServeStats
            + Send
            + 'static,
    ) -> (Vec<Vec<u8>>, ServeStats) {
        use shmem_algorithms::abd::ShardedAbdMsg;
        use shmem_algorithms::tag::Tag;

        let hub = InProcHub::new();
        let server_ep = hub.endpoint(&[NodeId::Server(ServerId(0))]);
        let mut client_ep = hub.endpoint(&[NodeId::Client(ClientId(0))]);
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || serve(server_ep, stop))
        };

        let store = ShardedAbdMsg::Store {
            rid: 1,
            items: vec![(7, Tag::ZERO.successor(0), 42)],
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
            // One message in flight at a time, so a pool of any size
            // answers in script order.
            let reply = client_ep
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("server replies");
            replies.push(reply.payload);
        }
        stop.store(true, Ordering::Release);
        (replies, handle.join().unwrap())
    }

    /// `serve_until` and `serve_shared` run one step: the same script
    /// draws the same replies and the same counters from the
    /// single-threaded loop, a pool of one and a pool of four.
    #[test]
    fn both_loops_answer_and_count_alike() {
        use shmem_algorithms::abd::{ShardedAbdMsg, ShardedAbdServerOn};
        use shmem_algorithms::tag::Tag;
        use shmem_store::StoreAbdBackend;
        type P = ShardedAbd<StoreAbdBackend>;

        let pool = |workers: usize| -> Vec<<P as Protocol>::Server> {
            let store = StoreAbdBackend::new();
            (0..workers)
                .map(|_| {
                    ShardedAbdServerOn::with_backend(0, ValueSpec::from_bits(64.0), store.clone())
                })
                .collect()
        };
        let single = scripted(move |ep, stop| {
            let automaton = pool(1).pop().expect("one worker");
            serve_until::<P, _>(automaton, ServerId(0), ep, stop).1
        });
        let replies: Vec<_> = single
            .0
            .iter()
            .map(|payload| ShardedAbdMsg::from_wire(payload).expect("reply parses"))
            .collect();
        assert_eq!(replies.len(), 9);
        assert_eq!(replies[0], ShardedAbdMsg::StoreAck { rid: 1 });
        let items = vec![(7, Tag::ZERO.successor(0), 42)];
        assert_eq!(replies[1], ShardedAbdMsg::QueryResp { rid: 2, items });
        let (in_, out, bad) = (single.1.msgs_in, single.1.msgs_out, single.1.decode_errors);
        assert_eq!((in_, out, bad), (9, 9, 1));
        for workers in [1, 4] {
            let pooled = scripted(move |ep, stop| {
                serve_shared::<P, _>(pool(workers), ServerId(0), ep, stop).1
            });
            assert_eq!(pooled, single, "pool of {workers}");
        }
    }
}
