//! The client side: logical protocol clients multiplexed over worker
//! threads, driven closed-loop by a deterministic load generator.
//!
//! One OS thread (a *worker*) owns one transport endpoint and a block of
//! *logical clients*, each an unchanged `P::Client` automaton plus a
//! little in-flight bookkeeping. Closed-loop means every logical client
//! has at most one operation outstanding; thousands of concurrent
//! clients cost thousands of small structs, not thousands of threads.
//!
//! Reliability is layered here, not in the protocols: the transport may
//! drop messages, so a worker retransmits an in-flight operation's last
//! send after [`LoadConfig::retransmit`] of silence (the automata dedupe
//! via their `heard` sets, so duplicates are harmless), and *retires* a
//! logical client whose operation exceeds [`LoadConfig::op_timeout`] —
//! the operation is recorded as incomplete, never resubmitted under a
//! reused nonce, and the spec checker treats it as free to have taken
//! effect at any point. That is exactly the crash-stop client model the
//! paper's algorithms are proved under.

use crate::transport::{Envelope, Transport};
use crate::wire::WireMsg;
use shmem_algorithms::multikey::{Key, MultiInv, MultiResp};
use shmem_sim::{ClientId, Ctx, Histogram, Node, NodeId, OpRecord, Protocol};
use shmem_util::DetRng;
use std::time::{Duration, Instant};

/// Load-generation parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Logical clients, total across all workers.
    pub clients: u32,
    /// Worker threads the clients are sharded over.
    pub workers: usize,
    /// Operations each logical client issues.
    pub ops_per_client: usize,
    /// Distinct keys per batched operation.
    pub batch: usize,
    /// Keyspace: operations draw from `0..keyspace`.
    pub keyspace: u64,
    /// Probability an operation is a write batch.
    pub write_ratio: f64,
    /// Deterministic seed for workloads.
    pub seed: u64,
    /// Silence after which an in-flight op's last round is retransmitted.
    pub retransmit: Duration,
    /// Deadline after which an in-flight op is abandoned and its logical
    /// client retired.
    pub op_timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            clients: 8,
            workers: 2,
            ops_per_client: 16,
            batch: 1,
            keyspace: 16,
            write_ratio: 0.5,
            seed: 1,
            // High enough that fault-free runs never retransmit (a dup
            // PreWrite after GC could resurrect a pruned share and
            // perturb exact storage accounting).
            retransmit: Duration::from_millis(500),
            op_timeout: Duration::from_secs(20),
        }
    }
}

impl LoadConfig {
    /// Deals `0..clients` round-robin over `workers` blocks (client `c`
    /// goes to block `c % workers`); empty blocks are dropped.
    pub fn client_blocks(&self) -> Vec<Vec<ClientId>> {
        let workers = self.workers.max(1);
        let mut blocks: Vec<Vec<ClientId>> = vec![Vec::new(); workers];
        for c in 0..self.clients {
            blocks[c as usize % workers].push(ClientId(c));
        }
        blocks.retain(|b| !b.is_empty());
        blocks
    }
}

/// What one worker thread produced.
pub struct WorkerReport {
    /// Per-operation invocation/response records, feedable to
    /// `project_histories` exactly like simulator traces.
    pub records: Vec<OpRecord<MultiInv, MultiResp>>,
    /// Operation latency histogram (nanoseconds, log₂ buckets).
    pub latency_ns: Histogram,
    /// Protocol messages sent (including retransmissions).
    pub msgs_sent: u64,
    /// Wire bytes sent, charged via [`Protocol::msg_wire_bytes`].
    pub wire_bytes: u64,
    /// Retransmission rounds fired.
    pub retransmits: u64,
    /// Operations completed.
    pub completed: u64,
    /// Logical clients retired on operation timeout.
    pub retired: u64,
}

enum SlotState {
    Idle,
    Busy {
        inv: MultiInv,
        invoked_ns: u64,
        last_send: Instant,
        cached: Vec<Envelope>,
    },
    Retired,
}

/// One logical client: automaton + in-flight bookkeeping.
struct Slot<P: Protocol> {
    id: ClientId,
    machine: P::Client,
    ops_left: usize,
    rng: DetRng,
    state: SlotState,
}

/// Drives a block of logical clients over `transport` until every one
/// has finished its operations (or been retired), then returns the
/// worker's records and counters.
///
/// `epoch` must be shared by every worker of a run: operation timestamps
/// are nanoseconds since it, making cross-worker real-time order valid
/// input for the atomicity checkers.
pub fn run_worker<P, T>(
    mut transport: T,
    ids: Vec<ClientId>,
    make_client: impl Fn(ClientId) -> P::Client,
    cfg: &LoadConfig,
    epoch: Instant,
) -> WorkerReport
where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
    P::Msg: WireMsg,
    T: Transport,
{
    let mut report = WorkerReport {
        records: Vec::new(),
        latency_ns: Histogram::new(),
        msgs_sent: 0,
        wire_bytes: 0,
        retransmits: 0,
        completed: 0,
        retired: 0,
    };
    let mut slots: Vec<Slot<P>> = ids
        .into_iter()
        .map(|id| Slot {
            id,
            machine: make_client(id),
            ops_left: cfg.ops_per_client,
            rng: DetRng::seed_from_u64(cfg.seed ^ (0x9e37_79b9_7f4a_7c15 ^ u64::from(id.0))),
            state: SlotState::Idle,
        })
        .collect();

    loop {
        let mut live = false;

        // Start the next operation of every idle slot (closed loop).
        for slot in &mut slots {
            if matches!(slot.state, SlotState::Idle) && slot.ops_left > 0 {
                start_op::<P, T>(slot, cfg, &mut transport, epoch, &mut report);
            }
            match slot.state {
                SlotState::Busy { .. } => live = true,
                SlotState::Idle if slot.ops_left > 0 => live = true,
                _ => {}
            }
        }
        if !live {
            break;
        }

        // Drain inbound traffic: one short blocking wait, then whatever
        // is already queued.
        let mut budget = 256;
        let mut wait = Duration::from_micros(500);
        while budget > 0 {
            match transport.recv_timeout(wait) {
                Ok(Some(env)) => {
                    on_envelope::<P, T>(&mut slots, env, &mut transport, epoch, &mut report);
                    wait = Duration::ZERO;
                    budget -= 1;
                }
                Ok(None) => break,
                Err(_) => return drain_incomplete(slots, report),
            }
        }

        // Retransmit stalled rounds; retire operations past deadline.
        let now = Instant::now();
        for slot in &mut slots {
            let SlotState::Busy {
                invoked_ns,
                last_send,
                ref cached,
                ref inv,
            } = slot.state
            else {
                continue;
            };
            let age = epoch.elapsed().as_nanos() as u64 - invoked_ns;
            if age > cfg.op_timeout.as_nanos() as u64 {
                report.records.push(OpRecord {
                    client: slot.id,
                    invoked_at: invoked_ns,
                    responded_at: None,
                    invocation: inv.clone(),
                    response: None,
                });
                report.retired += 1;
                slot.state = SlotState::Retired;
                continue;
            }
            if now.duration_since(last_send) > cfg.retransmit {
                for env in cached {
                    let _ = transport.send(env);
                }
                report.retransmits += 1;
                report.msgs_sent += cached.len() as u64;
                if let SlotState::Busy { last_send, .. } = &mut slot.state {
                    *last_send = now;
                }
            }
        }
    }
    report
}

/// Generates the next invocation for `slot`: a batch of distinct keys,
/// all-writes or all-reads (the CAS round structure requires homogeneous
/// batches).
fn next_inv(rng: &mut DetRng, cfg: &LoadConfig) -> MultiInv {
    let batch = cfg.batch.min(cfg.keyspace as usize).max(1);
    let mut keys: Vec<Key> = Vec::with_capacity(batch);
    while keys.len() < batch {
        let k = rng.gen_range(0..cfg.keyspace.max(1));
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    if rng.gen_bool(cfg.write_ratio) {
        let pairs: Vec<(Key, u64)> = keys.into_iter().map(|k| (k, rng.next_u64())).collect();
        MultiInv::writes(&pairs)
    } else {
        MultiInv::reads(&keys)
    }
}

fn start_op<P, T>(
    slot: &mut Slot<P>,
    cfg: &LoadConfig,
    transport: &mut T,
    epoch: Instant,
    report: &mut WorkerReport,
) where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
    P::Msg: WireMsg,
    T: Transport,
{
    slot.ops_left -= 1;
    let inv = next_inv(&mut slot.rng, cfg);
    let invoked_ns = epoch.elapsed().as_nanos() as u64;
    let mut ctx: Ctx<P> = Ctx::new(NodeId::Client(slot.id), invoked_ns);
    slot.machine.on_invoke(inv.clone(), &mut ctx);
    let (outbox, responses) = ctx.into_effects();
    debug_assert!(responses.is_empty(), "ops cannot complete at invocation");
    let cached = send_outbox::<P, T>(transport, slot.id, outbox, report);
    slot.state = SlotState::Busy {
        inv,
        invoked_ns,
        last_send: Instant::now(),
        cached,
    };
}

fn on_envelope<P, T>(
    slots: &mut [Slot<P>],
    env: Envelope,
    transport: &mut T,
    epoch: Instant,
    report: &mut WorkerReport,
) where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
    P::Msg: WireMsg,
    T: Transport,
{
    let NodeId::Client(to) = env.to else {
        return;
    };
    let Some(slot) = slots.iter_mut().find(|s| s.id == to) else {
        return;
    };
    // A straggler reply for an already-completed (or retired) operation
    // still reaches the automaton — protocols tolerate late deliveries —
    // but malformed payloads are dropped here, never panicked on.
    let Ok(msg) = P::Msg::from_wire(&env.payload) else {
        return;
    };
    let now_ns = epoch.elapsed().as_nanos() as u64;
    let mut ctx: Ctx<P> = Ctx::new(NodeId::Client(slot.id), now_ns);
    slot.machine.on_message(env.from, msg, &mut ctx);
    let (outbox, responses) = ctx.into_effects();
    if !outbox.is_empty() {
        let cached = send_outbox::<P, T>(transport, slot.id, outbox, report);
        if let SlotState::Busy {
            cached: c,
            last_send,
            ..
        } = &mut slot.state
        {
            *c = cached;
            *last_send = Instant::now();
        }
    }
    if let Some(resp) = responses.into_iter().next() {
        if let SlotState::Busy {
            inv, invoked_ns, ..
        } = std::mem::replace(&mut slot.state, SlotState::Idle)
        {
            report.latency_ns.record(now_ns - invoked_ns);
            report.completed += 1;
            report.records.push(OpRecord {
                client: slot.id,
                invoked_at: invoked_ns,
                responded_at: Some(now_ns),
                invocation: inv,
                response: Some(resp),
            });
        }
    }
}

fn send_outbox<P, T>(
    transport: &mut T,
    me: ClientId,
    outbox: Vec<(NodeId, P::Msg)>,
    report: &mut WorkerReport,
) -> Vec<Envelope>
where
    P: Protocol,
    P::Msg: WireMsg,
    T: Transport,
{
    let mut cached = Vec::with_capacity(outbox.len());
    for (to, msg) in outbox {
        report.msgs_sent += 1;
        report.wire_bytes += P::msg_wire_bytes(&msg);
        let env = Envelope {
            from: NodeId::Client(me),
            to,
            payload: msg.to_wire(),
        };
        // Send errors drop the message; the retransmit timer retries.
        let _ = transport.send(&env);
        cached.push(env);
    }
    cached
}

/// Transport died: record every in-flight operation as incomplete.
fn drain_incomplete<P: Protocol>(slots: Vec<Slot<P>>, mut report: WorkerReport) -> WorkerReport {
    for slot in slots {
        if let SlotState::Busy {
            inv, invoked_ns, ..
        } = slot.state
        {
            report.records.push(OpRecord {
                client: slot.id,
                invoked_at: invoked_ns,
                responded_at: None,
                invocation: inv,
                response: None,
            });
            report.retired += 1;
        }
    }
    report
}
