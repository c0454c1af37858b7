//! The trace pass: the run's undecorated rounds, then one extra round with
//! the decorators on, turned into the per-layer metrics of
//! `catalog::PER_LAYER`, plus the counted loops that have no place inside
//! a round (transport round trip, codec replay, erasure kernels, the
//! store's single-thread and scaling figures, the simulator's step cost).
//!
//! The end-to-end numbers never come from the decorated round: it pays two
//! clock reads per span, and `trace.overhead_share` says how much that
//! cost against the undecorated trials of the same run.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::net::{self, Algo, NetSpec, PhaseOut, RoundOut, Stack, TracedAbd, TracedCoded};
use crate::proc::{self, Pinned};
use crate::report::obj;
use crate::run::{self, Run};
use crate::sim_sweep;
use crate::stats::{self, Summary};
use crate::trace::replay::{replay, Replay};
use crate::trace::{op_parts, Kind, OpId, RidOf, Span, ThreadTrace, Totals, TraceCtx, NO_OP};
use shmem_algorithms::{MultiInv, MultiResp, RegInv};
use shmem_erasure::{Codec, Gf256};
use shmem_net::tcp::addr_table;
use shmem_net::wire::WireMsg;
use shmem_net::{
    Envelope, InProcHub, NetBackend, TcpClientTransport, TcpServerTransport, Transport,
};
use shmem_sim::{ClientId, NodeId, OpRecord, Protocol, ServerId};
use shmem_util::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Undecorated rounds a trace run measures however short its budget.
pub const MIN_ROUNDS: usize = 4;
/// Round-lengths of the budget kept back for the decorated round and the
/// counted loops.
const RESERVE_ROUNDS: f64 = 2.0;

/// The per-layer values of one trace pass, by metric name; anything not
/// set reads 0 (the layer does not run in this workload).
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a catalogued per-layer metric"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Values in catalog order.
    fn values(&self) -> Vec<f64> {
        PER_LAYER.iter().map(|m| self.get(m.name)).collect()
    }
}

/// What a trace pass yields.
pub struct TracePass {
    /// The undecorated rounds.
    pub run: Run,
    /// The per-layer metrics, in catalog order.
    pub values: Vec<f64>,
    /// Operations the run set out to perform, decorated round included.
    pub attempted: u64,
}

/// Runs `workload`'s trace pass under `seed` within `seconds` of `clock`
/// and writes `<out_dir>/trace-<workload>.json`.
///
/// # Errors
///
/// Unknown workload, a correctness-gate failure in any round, or an
/// unwritable span file.
pub fn trace_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    clock: Instant,
    pinned: &Pinned,
    out_dir: &Path,
) -> Result<TracePass, String> {
    let run = run::measure(workload, seed, seconds, clock, MIN_ROUNDS, RESERVE_ROUNDS)?;
    let traced_seed = seed.wrapping_add(run.rounds.len() as u64);
    let mut layers = Layers::default();
    run_layers(&run, &mut layers);
    let (attempted, ops, threads) = match net::net_spec(workload) {
        Some(spec) => match spec.algo {
            Algo::Abd => net_layers(&spec, TracedAbd, traced_seed, &run, pinned, &mut layers)?,
            Algo::Coded => net_layers(&spec, TracedCoded, traced_seed, &run, pinned, &mut layers)?,
        },
        None => (
            sim_layers(traced_seed, &run, &mut layers)?,
            Vec::new(),
            Vec::new(),
        ),
    };
    let file = trace_doc(workload, seed, &layers, ops, threads);
    std::fs::create_dir_all(out_dir)
        .and_then(|()| {
            std::fs::write(
                out_dir.join(format!("trace-{workload}.json")),
                file.to_compact(),
            )
        })
        .map_err(|e| {
            format!(
                "cannot write the span file under {}: {e}",
                out_dir.display()
            )
        })?;
    Ok(TracePass {
        values: layers.values(),
        attempted: run.attempted() + attempted,
        run,
    })
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.into_iter().collect();
    if values.is_empty() {
        0.0
    } else {
        Summary::of(&values).median
    }
}

/// The per-layer metrics that come from the undecorated rounds alone, as
/// `(name, unit, value)` — what a `--trace 0` run prints as diagnostics.
pub fn diagnostics(run: &Run) -> Vec<(&'static str, &'static str, f64)> {
    let mut layers = Layers::default();
    run_layers(run, &mut layers);
    PER_LAYER
        .iter()
        .filter(|m| layers.0.contains_key(m.name))
        .map(|m| (m.name, m.unit, layers.get(m.name)))
        .collect()
}

/// The diagnostics beside `ops_per_s` and the host's own readings, from
/// the undecorated rounds.
fn run_layers(run: &Run, l: &mut Layers) {
    l.set(
        "run.cpu_us_per_op",
        median(run.trials().map(|t| t.cpu_s * 1e6 / t.ops as f64)),
    );
    l.set(
        "run.ctx_switches_per_op",
        median(run.trials().map(|t| t.switches as f64 / t.ops as f64)),
    );
    let loaded = || run.trials().filter_map(|t| t.loaded);
    l.set(
        "run.loaded_p50_ms",
        median(loaded().map(|(_, p50, _)| p50 as f64 / 1e6)),
    );
    l.set(
        "run.loaded_p99_ms",
        median(loaded().filter_map(|(_, _, p99)| Some(p99? as f64 / 1e6))),
    );
    l.set(
        "run.loaded_peak_rss_mb",
        run.rounds
            .iter()
            .map(|r| r.rss_after_trials_mb)
            .fold(0.0, f64::max),
    );
    l.set("run.trials", run.trials().count() as f64);
    l.set(
        "host.pingpong_us",
        median(run.rounds.iter().map(|r| r.pingpong_us)),
    );
    l.set("host.disturbed_round_share", run.disturbed_round_share());
    let us = |ns: Option<u64>| Some(ns? as f64 / 1e3);
    let kinds = || run.rounds.iter().map(|r| r.unloaded_read_write_ns);
    l.set(
        "net.client.unloaded_read_us",
        median(kinds().filter_map(|(read, _)| us(read))),
    );
    l.set(
        "net.client.unloaded_write_us",
        median(kinds().filter_map(|(_, write)| us(write))),
    );
    l.set(
        "net.client.retransmits",
        run.rounds.iter().map(|r| r.retransmits as f64).sum(),
    );
}

// ------------------------------------------------------------------ net --

/// One thread's totals over the saturated trials.
struct Saturated {
    name: String,
    totals: Totals,
}

impl Saturated {
    /// Share of the thread's span time it really spent on a CPU. Spans
    /// are wall-clock intervals, and with a dozen threads on one CPU a
    /// span keeps running while its thread is preempted; the scheduler's
    /// own CPU counter says by how much. Span times are scaled by this
    /// before they are reported per message or per operation (preemption
    /// is taken to hit a thread's spans in proportion to their length).
    fn on_cpu(&self) -> f64 {
        let busy_ns = self
            .totals
            .top_level_ns
            .saturating_sub(self.totals.waiting_ns());
        (self.totals.cpu_s * 1e9 / busy_ns.max(1) as f64).min(1.0)
    }
}

/// One span kind over the threads whose name starts with `prefix`: spans
/// closed, and their total and self time in on-CPU nanoseconds.
fn total(threads: &[Saturated], prefix: &str, kind: Kind) -> (u64, f64, f64) {
    threads.iter().filter(|t| t.name.starts_with(prefix)).fold(
        (0, 0.0, 0.0),
        |(count, total_ns, self_ns), t| {
            let (agg, scale) = (t.totals.of(kind), t.on_cpu());
            (
                count + agg.count,
                total_ns + agg.total_ns as f64 * scale,
                self_ns + agg.self_ns as f64 * scale,
            )
        },
    )
}

/// The saturated trials' per-thread totals, summed over the trials.
fn saturated(trials: &[PhaseOut]) -> Vec<Saturated> {
    let mut sum: Vec<Saturated> = Vec::new();
    for (name, added) in trials.iter().flat_map(|t| &t.traced) {
        match sum.iter_mut().find(|t| t.name == *name) {
            Some(t) => {
                for (a, b) in t.totals.agg.iter_mut().zip(&added.agg) {
                    *a = a.plus(*b);
                }
                t.totals.top_level_ns += added.top_level_ns;
                t.totals.cpu_s += added.cpu_s;
            }
            None => sum.push(Saturated {
                name: name.clone(),
                totals: added.clone(),
            }),
        }
    }
    sum
}

/// Operation records by op identifier: a client's ordinal is its record's
/// rank by invocation time.
fn records_by_op<'a>(
    records: impl Iterator<Item = &'a OpRecord<MultiInv, MultiResp>>,
) -> BTreeMap<OpId, &'a OpRecord<MultiInv, MultiResp>> {
    let mut by_client: BTreeMap<u32, Vec<&OpRecord<MultiInv, MultiResp>>> = BTreeMap::new();
    for r in records {
        by_client.entry(r.client.0).or_default().push(r);
    }
    let mut out = BTreeMap::new();
    for (client, mut ops) in by_client {
        ops.sort_by_key(|r| r.invoked_at);
        for (i, r) in ops.into_iter().enumerate() {
            out.insert(((u64::from(client) + 1) << 32) | (i as u64 + 1), r);
        }
    }
    out
}

/// Share of a sampled operation's latency covered by none of its spans,
/// averaged over the sampled operations of the saturated trials: what is
/// left is queueing in channels, the kernel and the scheduler.
fn op_wait_share(threads: &[ThreadTrace], trials: &[PhaseOut]) -> f64 {
    let by_op = records_by_op(trials.iter().flat_map(|t| &t.report.records));
    let mut intervals: BTreeMap<OpId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in threads.iter().flat_map(|t| &t.spans) {
        // Time inside recv_timeout is waiting, not work.
        if s.kind != Kind::Recv && by_op.contains_key(&s.op) {
            intervals
                .entry(s.op)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let (mut shares, mut ops) = (0.0, 0usize);
    for (op, mut spans) in intervals {
        let record = by_op[&op];
        let (Some(end), start) = (record.responded_at, record.invoked_at) else {
            continue;
        };
        spans.sort_unstable();
        let (mut covered, mut frontier) = (0u64, start);
        for (s, e) in spans {
            let (s, e) = (s.max(frontier), e.min(end));
            if e > s {
                covered += e - s;
                frontier = e;
            }
        }
        shares += 1.0 - covered as f64 / (end - start).max(1) as f64;
        ops += 1;
    }
    if ops == 0 {
        0.0
    } else {
        shares / ops as f64
    }
}

/// Median of 1 000 ping-pongs of a 26-byte frame (8-byte payload) between
/// two endpoints of `backend`, microseconds.
fn transport_rtt_us(backend: NetBackend) -> f64 {
    let server_id = NodeId::Server(ServerId(0));
    let client_id = NodeId::Client(ClientId(0));
    let stop = AtomicBool::new(false);
    fn echo(mut t: impl Transport, me: NodeId, stop: &AtomicBool) {
        while !stop.load(Ordering::Acquire) {
            if let Ok(Some(env)) = t.recv_timeout(Duration::from_millis(20)) {
                let _ = t.send(&Envelope {
                    from: me,
                    to: env.from,
                    payload: env.payload,
                });
            }
        }
    }
    fn pings(mut t: impl Transport, from: NodeId, to: NodeId) -> Vec<u64> {
        let ping = Envelope {
            from,
            to,
            payload: vec![7; 8],
        };
        let mut rtts = Vec::new();
        for i in 0..1100 {
            let t0 = Instant::now();
            let _ = t.send(&ping);
            if matches!(t.recv_timeout(Duration::from_secs(2)), Ok(Some(_))) && i >= 100 {
                rtts.push(t0.elapsed().as_nanos() as u64);
            }
        }
        rtts
    }
    let rtts = std::thread::scope(|scope| {
        let stop = &stop;
        let rtts = match backend {
            NetBackend::InProc => {
                let hub = InProcHub::new();
                let (server, client) = (hub.endpoint(&[server_id]), hub.endpoint(&[client_id]));
                scope.spawn(move || echo(server, server_id, stop));
                pings(client, client_id, server_id)
            }
            NetBackend::Tcp => {
                let server = TcpServerTransport::bind("127.0.0.1:0".parse().expect("loopback"))
                    .expect("bind loopback");
                let client = TcpClientTransport::new(addr_table(vec![server.local_addr()]));
                scope.spawn(move || echo(server, server_id, stop));
                pings(client, client_id, server_id)
            }
        };
        stop.store(true, Ordering::Release);
        rtts
    });
    stats::p50(rtts).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// Mean nanoseconds of `call(i)` for `i` in `0..calls`.
fn ns_per_call(calls: usize, mut call: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..calls {
        call(i);
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// `Codec::shared(5, 4)` on 8-byte values in counted loops: nanoseconds
/// per `encode_bytes` and per `decode_bytes`, and the decode-plan cache's
/// hit rate afterwards.
fn erasure_layers(l: &mut Layers) {
    const CALLS: usize = 200_000;
    let codec = Codec::<Gf256>::shared(net::N as usize, (net::N - net::F) as usize)
        .expect("the coded workload's geometry");
    let value = 0x0123_4567_89ab_cdefu64.to_be_bytes();
    l.set(
        "erasure.encode_ns_per_call",
        ns_per_call(CALLS, |_| {
            black_box(codec.encode_bytes(black_box(&value)));
        }),
    );
    let shares: Vec<(usize, Vec<u8>)> = codec
        .encode_bytes(&value)
        .into_iter()
        .enumerate()
        .skip(1)
        .collect();
    l.set(
        "erasure.decode_ns_per_call",
        ns_per_call(CALLS, |_| {
            black_box(codec.decode_bytes(black_box(&shares), value.len()).is_ok());
        }),
    );
    l.set("erasure.plan_hit_rate", codec.stats().hit_rate());
}

/// The `shmem-store` cells no workload runs end to end: counted loops over
/// the public store types, one thread, then (unpinned) two.
fn store_layers(algo: Algo, seed: u64, pinned: &Pinned, l: &mut Layers) {
    use shmem_algorithms::backend::{AbdBackend, CasBackend, LocalAbd};
    use shmem_algorithms::Tag;
    use shmem_store::{RegStore, StoreAbdBackend, StoreCasBackend};
    use shmem_util::DetRng;

    const KEYS: u64 = 4096;
    const OPS: usize = 2_000_000;
    /// One step in four is a tag read followed by a compare-and-bump
    /// write, the rest plain loads — `store_gate`'s mix.
    fn mixed(backend: &mut impl AbdBackend, seed: u64, me: u32, ops: usize) -> f64 {
        let mut rng = DetRng::seed_from_u64(seed ^ (u64::from(me) << 20));
        let t0 = Instant::now();
        for i in 0..ops {
            let key = rng.gen_range(0..KEYS);
            let loaded = backend.load(key);
            if rng.gen_bool(0.25) {
                let tag = loaded.map_or(Tag::ZERO, |(t, _)| t).successor(me);
                black_box(backend.store_if_newer(key, tag, i as u64));
            } else {
                black_box(loaded);
            }
        }
        ops as f64 / t0.elapsed().as_secs_f64()
    }

    if algo == Algo::Coded {
        // The coded store's write path: pre_write + finalize per key.
        const ROUNDS: u64 = 32;
        let cfg = net::coded_config();
        let share = cfg.code().encode_bytes(&7u64.to_be_bytes()).swap_remove(0);
        let mut coded = StoreCasBackend::new(cfg, 0, 0);
        let t0 = Instant::now();
        for round in 1..=ROUNDS {
            for key in 0..KEYS {
                let tag = Tag::new(round, 0);
                coded.pre_write(key, tag, share.clone());
                coded.finalize(key, tag);
            }
        }
        l.set(
            "store.coded_write_ns_per_key",
            t0.elapsed().as_nanos() as f64 / (ROUNDS * KEYS) as f64,
        );
        return;
    }

    let mut shared = StoreAbdBackend::shared(&Arc::new(RegStore::new()));
    let store_t1 = mixed(&mut shared, seed, 0, OPS);
    l.set("store.ops_per_s_t1", store_t1);
    l.set(
        "store.local_ops_per_s_t1",
        mixed(&mut LocalAbd::new(), seed, 0, OPS),
    );
    // Pure loops on the populated store: reads, then writes under
    // ever-newer tags (every one takes effect).
    let mut rng = DetRng::seed_from_u64(seed);
    let keys: Vec<u64> = (0..OPS).map(|_| rng.gen_range(0..KEYS)).collect();
    l.set(
        "store.read_ns_per_call",
        ns_per_call(OPS, |i| {
            black_box(shared.load(black_box(keys[i])));
        }),
    );
    l.set(
        "store.write_ns_per_call",
        ns_per_call(OPS, |i| {
            black_box(shared.store_if_newer(keys[i], Tag::new(1 << 40 | i as u64, 0), i as u64));
        }),
    );
    // Two threads over one store, on whatever CPUs the process may use:
    // the one cell measured unpinned, and a diagnostic only — on a shared
    // 2-vCPU guest it reads what the host's scheduler did.
    pinned.release();
    let store = Arc::new(RegStore::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for me in 0..2 {
            let mut backend = StoreAbdBackend::shared(&store);
            scope.spawn(move || mixed(&mut backend, seed, me, OPS / 2));
        }
    });
    let rate_t2 = OPS as f64 / t0.elapsed().as_secs_f64();
    l.set("store.scaling_t2_over_t1", rate_t2 / store_t1);
}

/// The decorated round of a net workload, turned into layer values.
/// Returns the round's attempted operations and the span file's `ops` and
/// `threads` sections.
fn net_layers<T: Stack>(
    spec: &NetSpec,
    make: fn(Arc<TraceCtx>) -> T,
    seed: u64,
    run: &Run,
    pinned: &Pinned,
    l: &mut Layers,
) -> Result<(u64, Vec<Json>, Vec<Json>), String>
where
    <T::P as Protocol>::Msg: WireMsg + RidOf,
{
    let ctx = TraceCtx::new(Instant::now());
    let stack = make(Arc::clone(&ctx));
    let (sample, out) = run::net_round(spec, &stack, seed)?;
    drop(stack);
    let threads = ctx.threads();
    let payloads = ctx.take_payloads();

    let sat = saturated(&out.trials);
    let ops: u64 = out.trials.iter().map(|t| t.report.completed).sum();
    let tcp = spec.backend == NetBackend::Tcp;
    let replayed: Replay = replay::<<T::P as Protocol>::Msg>(&payloads);

    let (sends, send_ns, _) = total(&sat, "", Kind::Send);
    l.set("net.transport.send_ns_per_msg", per(send_ns, sends));
    l.set("net.transport.rtt_us", transport_rtt_us(spec.backend));
    l.set(
        "net.wire.encode_ns_per_msg",
        replayed.overall(|c| c.wire_encode_ns),
    );
    l.set(
        "net.wire.decode_ns_per_msg",
        replayed.overall(|c| c.wire_decode_ns),
    );
    l.set("net.wire.bytes_per_msg", replayed.overall(|c| c.bytes));
    if tcp {
        l.set(
            "net.frame.encode_ns_per_msg",
            replayed.overall(|c| c.frame_encode_ns),
        );
        l.set(
            "net.frame.decode_ns_per_msg",
            replayed.overall(|c| c.frame_decode_ns),
        );
    }

    // Serve loops. The automaton runs on the loop's own thread, so the
    // decode of the request and the encode of the answer sit in the loop's
    // self time; the replay says how much of it they are.
    let (handled, _, handle_self_ns) = total(&sat, "srv", Kind::Handle);
    let serve_wire = replayed.requests.wire_decode_ns + replayed.replies.wire_encode_ns;
    l.set(
        "net.serve.self_ns_per_msg",
        (per(handle_self_ns, handled) - serve_wire).max(0.0),
    );
    // Shares of the loops' wall clock, so raw span time, not scaled.
    let servers = || sat.iter().filter(|t| t.name.starts_with("srv"));
    let wall = |t: &Saturated| t.totals.top_level_ns.max(1) as f64;
    l.set(
        "net.serve.busy_share",
        servers()
            .map(|t| 1.0 - t.totals.waiting_ns() as f64 / wall(t))
            .fold(0.0, f64::max),
    );
    l.set(
        "net.serve.idle_poll_share",
        servers()
            .map(|t| t.totals.of(Kind::Idle).total_ns as f64)
            .sum::<f64>()
            / servers().map(wall).sum::<f64>(),
    );
    l.set("net.serve.msgs_in", out.serve.msgs_in as f64);
    l.set("net.serve.msgs_out", out.serve.msgs_out as f64);
    l.set("net.serve.decode_errors", out.serve.decode_errors as f64);

    // The client worker: everything outside recv_timeout is its own time.
    let (handled, _, handle_self_ns) = total(&sat, "cli", Kind::Handle);
    let (_, _, tick_self_ns) = total(&sat, "cli", Kind::Tick);
    let client_wire = replayed.replies.wire_decode_ns * handled as f64
        + replayed.requests.wire_encode_ns * total(&sat, "cli", Kind::Send).0 as f64;
    l.set(
        "net.client.self_ns_per_op",
        ((handle_self_ns + tick_self_ns - client_wire) / ops as f64).max(0.0),
    );
    l.set(
        "net.client.op_wait_share",
        op_wait_share(&threads, &out.trials),
    );
    l.set(
        "net.client.retransmits",
        l.get("net.client.retransmits") + sample.retransmits as f64,
    );
    l.set(
        "net.client.retired",
        out.phases().map(|p| p.report.retired as f64).sum(),
    );

    let (server_msgs, _, server_self_ns) = total(&sat, "", Kind::ServerOnMessage);
    l.set(
        "algorithms.server_ns_per_msg",
        per(server_self_ns, server_msgs),
    );
    let (client_msgs, client_ns, _) = total(&sat, "", Kind::ClientOnMessage);
    l.set("algorithms.client_ns_per_msg", per(client_ns, client_msgs));
    let (invokes, invoke_ns, _) = total(&sat, "", Kind::ClientOnInvoke);
    l.set(
        "algorithms.client_invoke_ns_per_op",
        per(invoke_ns, invokes),
    );
    l.set(
        "algorithms.metadata_bits_per_key",
        sample.metadata_bits_per_key,
    );

    let (backend_calls, backend_ns) = Kind::BACKEND.iter().fold((0, 0.0), |(calls, ns), &kind| {
        let (count, total_ns, _) = total(&sat, "", kind);
        (calls + count, ns + total_ns)
    });
    l.set("store.backend_ns_per_call", per(backend_ns, backend_calls));
    l.set(
        "store.backend_calls_per_op",
        backend_calls as f64 / ops as f64,
    );

    let process_cpu: f64 = out.trials.iter().map(|t| t.cpu_s).sum();
    let traced_cpu: f64 = sat.iter().map(|t| t.totals.cpu_s).sum();
    if tcp {
        l.set(
            "net.tcp.offthread_cpu_us_per_op",
            (process_cpu - traced_cpu).max(0.0) * 1e6 / ops as f64,
        );
    }
    let best_traced = out
        .trials
        .iter()
        .map(PhaseOut::ops_per_s)
        .fold(0.0, f64::max);
    l.set(
        "trace.overhead_share",
        1.0 - best_traced / run.reported(&END_TO_END[0]).value,
    );
    l.set("trace.attributed_cpu_share", traced_cpu / process_cpu);

    if spec.algo == Algo::Coded {
        erasure_layers(l);
    }
    store_layers(spec.algo, seed, pinned, l);
    Ok((
        sample.attempted,
        ops_section(&threads, &out),
        threads_section(&threads),
    ))
}

fn op_label(op: OpId) -> Json {
    op_parts(op).map_or(Json::Null, |(client, ordinal)| {
        Json::str(format!("c{client}.{ordinal}"))
    })
}

/// The sampled operations' own intervals.
fn ops_section(threads: &[ThreadTrace], out: &RoundOut) -> Vec<Json> {
    let kept: BTreeSet<OpId> = threads
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.op))
        .filter(|&op| op != NO_OP)
        .collect();
    records_by_op(out.phases().flat_map(|p| &p.report.records))
        .into_iter()
        .filter(|(op, _)| kept.contains(op))
        .map(|(op, r)| {
            let kind = match r.invocation.ops.first() {
                Some((_, RegInv::Write(_))) => "write",
                _ => "read",
            };
            obj(vec![
                ("op", op_label(op)),
                ("kind", Json::str(kind)),
                ("keys", Json::Num(r.invocation.ops.len() as f64)),
                ("invoked_ns", Json::Num(r.invoked_at as f64)),
                (
                    "responded_ns",
                    r.responded_at.map_or(Json::Null, |t| Json::Num(t as f64)),
                ),
            ])
        })
        .collect()
}

fn span_json(ti: usize, si: usize, s: &Span) -> Json {
    obj(vec![
        ("id", Json::str(format!("t{ti}.{si}"))),
        ("name", Json::str(s.kind.name())),
        ("start_ns", Json::Num(s.start_ns as f64)),
        ("end_ns", Json::Num(s.end_ns as f64)),
        (
            "parent",
            s.parent
                .map_or(Json::Null, |p| Json::str(format!("t{ti}.{p}"))),
        ),
        ("op", op_label(s.op)),
    ])
}

/// Per thread its whole-round totals and the whole spans of the sampled
/// operations — with [`ops_section`], everything needed to lay one
/// operation out as a waterfall (see the README).
fn threads_section(threads: &[ThreadTrace]) -> Vec<Json> {
    threads
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            let totals = Kind::ALL
                .iter()
                .filter(|&&k| t.totals.of(k).count > 0)
                .map(|&k| {
                    let a = t.totals.of(k);
                    (
                        k.name().to_string(),
                        obj(vec![
                            ("count", Json::Num(a.count as f64)),
                            ("total_ns", Json::Num(a.total_ns as f64)),
                            ("self_ns", Json::Num(a.self_ns as f64)),
                        ]),
                    )
                })
                .collect();
            let spans = t
                .spans
                .iter()
                .enumerate()
                .map(|(si, s)| span_json(ti, si, s))
                .collect();
            obj(vec![
                ("thread", Json::str(format!("t{ti}"))),
                ("name", Json::str(t.name.clone())),
                ("tid", Json::Num(f64::from(t.tid))),
                ("wall_ns", Json::Num(t.totals.wall_ns() as f64)),
                ("waiting_ns", Json::Num(t.totals.waiting_ns() as f64)),
                ("top_level_ns", Json::Num(t.totals.top_level_ns as f64)),
                ("parked_ns", Json::Num(t.totals.parked_ns as f64)),
                ("cpu_s", Json::Num(t.totals.cpu_s)),
                ("totals", Json::Obj(totals)),
                ("spans", Json::Arr(spans)),
            ])
        })
        .collect()
}

/// The span file: the layer values, then whatever operations and threads
/// the pass kept whole spans for (none outside the net workloads).
fn trace_doc(
    workload: &str,
    seed: u64,
    layers: &Layers,
    ops: Vec<Json>,
    threads: Vec<Json>,
) -> Json {
    let layers = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), Json::Num(layers.get(m.name))))
        .collect();
    obj(vec![
        ("schema", Json::str("shmem-ledger-trace/v2")),
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("layers", Json::Obj(layers)),
        ("ops", Json::Arr(ops)),
        ("threads", Json::Arr(threads)),
    ])
}

// ------------------------------------------------------------------ sim --

/// `sim-sweep`'s decorated round: the same executions stage by stage —
/// sample, build + run (fault window and drain), check — each stage
/// between two clock reads. Returns the executions it ran.
fn sim_layers(seed: u64, run: &Run, l: &mut Layers) -> Result<u64, String> {
    use shmem_algorithms::harness::Cluster;
    use shmem_algorithms::nemesis::{observe_shape, run_plan, Oracle};
    use shmem_algorithms::RegResp;
    use sim_sweep::{abd_cluster, cas_cluster, plan, plan_base};

    /// Seeds per half the staged loop runs: one saturated trial's worth.
    const STAGED_SEEDS: u64 = sim_sweep::SPEC.trial_seeds;

    #[derive(Default, Clone, Copy)]
    struct Stages {
        sample_ns: u64,
        run_ns: u64,
        check_ns: u64,
        steps: u64,
        execs: u64,
    }
    fn staged<P>(build: impl Fn() -> Cluster<P>, base: u64, into: &mut Stages) -> Result<(), String>
    where
        P: Protocol<Inv = RegInv, Resp = RegResp>,
    {
        for seed in 0..STAGED_SEEDS {
            let mut cluster = build();
            let t0 = Instant::now();
            let plan = plan(base, seed, observe_shape(&cluster));
            let t1 = Instant::now();
            let run = run_plan(&mut cluster, seed, &plan);
            let t2 = Instant::now();
            Oracle::Atomic
                .check(&run.history)
                .map_err(|v| format!("seed {seed}: {v}"))?;
            let t3 = Instant::now();
            let ledger = run.metrics.global();
            into.sample_ns += (t1 - t0).as_nanos() as u64;
            into.run_ns += (t2 - t1).as_nanos() as u64;
            into.check_ns += (t3 - t2).as_nanos() as u64;
            into.steps += ledger.delivered + ledger.dropped;
            into.execs += 1;
        }
        Ok(())
    }
    let base = plan_base(seed);
    let mut s = Stages::default();
    let cpu0 = proc::process_cpu_s();
    let t0 = Instant::now();
    staged(abd_cluster, base, &mut s)?;
    staged(cas_cluster, base, &mut s)?;
    let staged_wall = t0.elapsed().as_secs_f64();
    let staged_cpu = proc::process_cpu_s() - cpu0;
    l.set("sim.ns_per_step", per(s.run_ns as f64, s.steps));
    l.set("sim.steps_per_exec", per(s.steps as f64, s.execs));
    l.set("spec.check_ns_per_history", per(s.check_ns as f64, s.execs));
    l.set(
        "algorithms.nemesis.plan_sample_ns_per_exec",
        per(s.sample_ns as f64, s.execs),
    );
    l.set(
        "trace.overhead_share",
        1.0 - (s.execs as f64 / staged_wall) / run.reported(&END_TO_END[0]).value,
    );
    l.set(
        "trace.attributed_cpu_share",
        (s.sample_ns + s.run_ns + s.check_ns) as f64 / 1e9 / staged_cpu,
    );

    // The same seeded schedule with the metrics registry on and off.
    fn rounds(metered: bool, seed: u64) -> (u64, f64) {
        let (mut steps, t0) = (0u64, Instant::now());
        for round in 0..400u64 {
            let mut cluster = abd_cluster();
            if metered {
                cluster = cluster.metered();
            }
            for op in 0..4u64 {
                for client in 0..3u32 {
                    let inv = if client == 2 {
                        RegInv::Read
                    } else {
                        RegInv::Write(round << 8 | op << 2 | u64::from(client))
                    };
                    cluster
                        .begin(client, inv)
                        .expect("idle client accepts an operation");
                }
                steps += cluster
                    .run_seeded(seed ^ round)
                    .expect("fault-free schedule reaches quiescence");
            }
        }
        (steps, t0.elapsed().as_secs_f64())
    }
    let (plain_steps, plain_s) = rounds(false, seed);
    let (metered_steps, metered_s) = rounds(true, seed);
    if plain_steps != metered_steps {
        return Err(format!(
            "metering changed the schedule: {plain_steps} steps without, {metered_steps} with"
        ));
    }
    l.set("sim.metered_over_plain", metered_s / plain_s);
    Ok(s.execs)
}
