//! Metering is exact and never steers.
//!
//! The simulator books every send, delivery, drop and duplication into a
//! ledger row per channel on the same loop that moves the message. Three
//! properties pin that down, each over 1 000 seeds per cluster:
//!
//! 1. **Exact.** With the send log on, every channel's `sent` equals the
//!    number of logged sends on that channel, and its `delivered`,
//!    `dropped` and `duplicated` equal the trace's per-channel counts —
//!    on nemesis runs ([`run_plan`]) and on a seeded fault soup driven
//!    straight through `Sim`.
//! 2. **An observer.** The same seeded soup at `MetricsLevel::Off` and at
//!    `MetricsLevel::Full` yields identical traces, histories and world
//!    digests.
//! 3. **Mergeable across shapes.** Registries of differently sized worlds
//!    merge channel by channel, exporting the key-wise sums in `NodeId`
//!    order, whatever the merge order.
//! 4. **Storage is sampled at every point.** The soup re-reads every
//!    server into a full-width [`StorageMeter`] after each invocation and
//!    delivery; at the end it equals the world's own incremental meter:
//!    every peak and `points_observed` exactly, the per-point totals up to
//!    the rounding of a running sum.

use shmem_algorithms::harness::Cluster;
use shmem_algorithms::nemesis::{observe_shape, plan_for_seed, run_plan};
use shmem_algorithms::{
    AbdCluster, CasCluster, HashedCluster, MultiInv, RegInv, RegResp, ShardMap, ShardedAbdCluster,
    ValueSpec,
};
use shmem_sim::{
    ClientId, MetricsLevel, MetricsRegistry, Node, NodeId, Protocol, ServerId, Sim, StepInfo,
    StorageMeter,
};
use shmem_util::DetRng;
use std::collections::BTreeMap;

const SEEDS: u64 = 1_000;

type Channel = (NodeId, NodeId);

/// `[sent, delivered, dropped, duplicated]` per channel, zero rows left out.
type Counts = BTreeMap<Channel, [u64; 4]>;

fn spec() -> ValueSpec {
    ValueSpec::from_bits(64.0)
}

/// The ledgers' view of every channel.
fn ledger_counts(m: &MetricsRegistry) -> Counts {
    m.per_channel()
        .iter()
        .map(|&(ch, l)| (ch, [l.sent, l.delivered, l.dropped, l.duplicated]))
        .filter(|(_, c)| *c != [0; 4])
        .collect()
}

/// The same counts recounted from the send log and the trace.
fn recounted<P: Protocol>(sim: &Sim<P>, trace: &[StepInfo]) -> Counts {
    let mut counts = Counts::new();
    for s in sim.send_log() {
        counts.entry((s.from, s.to)).or_default()[0] += 1;
    }
    for step in trace {
        let (ch, i) = match *step {
            StepInfo::Delivered { from, to } => ((from, to), 1),
            StepInfo::Dropped { from, to } => ((from, to), 2),
            StepInfo::Duplicated { from, to } => ((from, to), 3),
            _ => continue,
        };
        counts.entry(ch).or_default()[i] += 1;
    }
    counts
}

/// Reads every server of `sim` into `meter` — the full-width sample the
/// world's per-step meter must agree with.
fn sample_all<P: Protocol>(sim: &Sim<P>, meter: &mut StorageMeter) {
    meter.observe_with(sim.server_count(), |i| {
        let s = sim.server(ServerId(i as u32));
        (
            <P::Server as Node<P>>::state_bits(s),
            <P::Server as Node<P>>::metadata_bits(s),
        )
    });
}

/// Samples `meter` after the steps that are points of the execution:
/// invocations and deliveries.
fn sample_point<P: Protocol>(sim: &Sim<P>, step: &StepInfo, meter: &mut StorageMeter) {
    if matches!(step, StepInfo::Invoked { .. } | StepInfo::Delivered { .. }) {
        sample_all(sim, meter);
    }
}

/// A seeded fault soup straight through `Sim`: invocations, `step_with`
/// deliveries, head drops and duplicates, link cuts and heals, and crashes
/// inside the `f` budget; then every link heals and the world drains
/// fairly. Returns the trace of every action that took effect, after
/// checking the world's storage meter against a full-width re-sample of
/// every point.
fn soup<P: Protocol>(
    sim: &mut Sim<P>,
    seed: u64,
    f: u32,
    inv: impl Fn(u32, u64) -> P::Inv,
) -> Vec<StepInfo> {
    let mut rng = DetRng::seed_from_u64(seed);
    let n = sim.server_count() as u32;
    let clients = sim.client_count() as u32;
    let mut meter = StorageMeter::new(n as usize);
    sample_all(sim, &mut meter);
    assert_eq!(
        sim.storage().points_observed,
        1,
        "the soup starts on a fresh world"
    );
    let mut trace = Vec::new();
    let mut crashed = 0;
    let mut next = 1u64;
    for _ in 0..60 {
        let c = rng.gen_range(0..clients);
        if rng.gen_range(0..3u32) == 0 && sim.invoke(ClientId(c), inv(c, next)).is_ok() {
            trace.push(StepInfo::Invoked {
                client: ClientId(c),
            });
            sample_all(sim, &mut meter);
            next += 1;
        }
        match rng.gen_range(0..16u32) {
            0 if crashed < f => {
                crashed += 1;
                trace.push(sim.fail(NodeId::server(rng.gen_range(0..n))));
            }
            1 => {
                let from = NodeId::client(rng.gen_range(0..clients));
                let to = NodeId::server(rng.gen_range(0..n));
                let (a, b) = if rng.gen_bool(0.5) {
                    (from, to)
                } else {
                    (to, from)
                };
                trace.push(if sim.is_cut(a, b) {
                    sim.heal_link(a, b)
                } else {
                    sim.cut_link(a, b)
                });
            }
            2..=4 => {
                let options = sim.step_options();
                if !options.is_empty() {
                    let (from, to) = options[rng.gen_range(0..options.len())];
                    let step = if rng.gen_bool(0.5) {
                        sim.drop_head(from, to)
                    } else {
                        sim.duplicate_head(from, to)
                    };
                    trace.push(step.expect("a step option has a head"));
                }
            }
            _ => {}
        }
        if let Some(step) = sim.step_with(|opts| rng.gen_range(0..opts.len())) {
            sample_point(sim, &step, &mut meter);
            trace.push(step);
        }
    }
    trace.extend(sim.heal_all_links());
    while let Some(step) = sim.step_fair() {
        sample_point(sim, &step, &mut meter);
        trace.push(step);
    }
    // The world keeps its per-point totals as a running sum of deltas, so
    // they may differ from a fresh sum in the last bits (CAS's 128/3-bit
    // shares: 213.33333333333334 against 213.33333333333331); the rest of
    // the snapshot must match exactly.
    let (got, mut want) = (sim.storage(), meter.snapshot());
    for (g, w) in [
        (got.peak_total_bits, &mut want.peak_total_bits),
        (
            got.peak_total_metadata_bits,
            &mut want.peak_total_metadata_bits,
        ),
    ] {
        assert!(
            (g - *w).abs() <= 1e-9 * w.abs(),
            "seed {seed}: running total {g} against a fresh sum's {w}"
        );
        *w = g;
    }
    assert_eq!(
        got, want,
        "seed {seed}: the per-step meter disagrees with a full-width re-sample"
    );
    trace
}

/// Client 0 writes, the others read.
fn reg_inv(client: u32, v: u64) -> RegInv {
    if client == 0 {
        RegInv::Write(v)
    } else {
        RegInv::Read
    }
}

/// The soup at `level`, with the send log on: trace, history, digest and
/// the world itself.
fn soup_at<P: Protocol>(
    mut cluster: Cluster<P>,
    level: MetricsLevel,
    seed: u64,
    inv: impl Fn(u32, u64) -> P::Inv,
) -> (Vec<StepInfo>, String, u64, Sim<P>) {
    let f = cluster.f();
    cluster.sim.set_metrics(level);
    cluster.sim.record_sends(true);
    let trace = soup(&mut cluster.sim, seed, f, inv);
    let history = format!("{:?}", cluster.sim.ops());
    let digest = cluster.sim.digest();
    (trace, history, digest, cluster.sim)
}

/// Properties 1 and 2 over the soup for one cluster kind.
fn soup_is_exact_and_unsteered<P: Protocol>(
    name: &str,
    factory: impl Fn() -> Cluster<P>,
    inv: impl Fn(u32, u64) -> P::Inv + Copy,
) {
    for seed in 0..SEEDS {
        let (trace, history, digest, _) = soup_at(factory(), MetricsLevel::Off, seed, inv);
        let (m_trace, m_history, m_digest, sim) = soup_at(factory(), MetricsLevel::Full, seed, inv);
        assert_eq!(
            trace, m_trace,
            "{name} seed {seed}: metering moved the trace"
        );
        assert_eq!(
            history, m_history,
            "{name} seed {seed}: metering moved the history"
        );
        assert_eq!(
            digest, m_digest,
            "{name} seed {seed}: metering moved the digest"
        );
        sim.audit_conservation()
            .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
        assert_eq!(
            ledger_counts(sim.metrics()),
            recounted(&sim, &m_trace),
            "{name} seed {seed}: a ledger disagrees with the send log or the trace"
        );
    }
}

/// Property 1 over nemesis runs for one single-register cluster kind.
fn nemesis_is_exact<P>(name: &str, factory: impl Fn() -> Cluster<P>)
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
{
    for seed in 0..SEEDS {
        let mut cluster = factory();
        cluster.sim.record_sends(true);
        let plan = plan_for_seed(seed, observe_shape(&cluster));
        let run = run_plan(&mut cluster, seed, &plan);
        assert_eq!(
            ledger_counts(&run.metrics),
            recounted(&cluster.sim, &run.trace),
            "{name} seed {seed}: a ledger disagrees with the send log or the trace"
        );
    }
}

#[test]
fn abd_metering_is_exact_and_never_steers() {
    let factory = || AbdCluster::new(5, 2, 3, spec());
    nemesis_is_exact("abd", factory);
    soup_is_exact_and_unsteered("abd", factory, reg_inv);
}

#[test]
fn cas_metering_is_exact_and_never_steers() {
    let factory = || CasCluster::new(5, 1, 3, spec());
    nemesis_is_exact("cas", factory);
    soup_is_exact_and_unsteered("cas", factory, reg_inv);
}

#[test]
fn casgc_metering_is_exact_and_never_steers() {
    let factory = || CasCluster::with_gc(5, 1, 1, 3, spec());
    nemesis_is_exact("casgc", factory);
    soup_is_exact_and_unsteered("casgc", factory, reg_inv);
}

#[test]
fn hashed_metering_is_exact_and_never_steers() {
    let factory = || HashedCluster::new(5, 1, 3, spec());
    nemesis_is_exact("hashed", factory);
    soup_is_exact_and_unsteered("hashed", factory, reg_inv);
}

#[test]
fn sharded_abd_metering_is_exact_and_never_steers() {
    const KEY: u64 = 7;
    soup_is_exact_and_unsteered(
        "sharded-abd",
        || ShardedAbdCluster::new(ShardMap::full(5), 2, 3, spec()),
        |client, v| match reg_inv(client, v) {
            RegInv::Write(v) => MultiInv::writes(&[(KEY, v)]),
            RegInv::Read => MultiInv::reads(&[KEY]),
        },
    );
}

/// One nemesis run's registry on an ABD world of `n` servers.
fn registry(n: u32, seed: u64) -> MetricsRegistry {
    let mut cluster = AbdCluster::new(n, (n - 1) / 2, 2, spec());
    let plan = plan_for_seed(seed, observe_shape(&cluster));
    run_plan(&mut cluster, seed, &plan).metrics
}

#[test]
fn registries_of_different_shapes_merge_channel_by_channel() {
    let (small, large) = (registry(3, 11), registry(5, 12));
    let mut expected = Counts::new();
    for part in [&small, &large] {
        for (ch, c) in ledger_counts(part) {
            let sum = expected.entry(ch).or_default();
            for (s, v) in sum.iter_mut().zip(c) {
                *s += v;
            }
        }
    }
    // The way `aggregate_metrics` folds per-seed registries, in both orders.
    let merged = |parts: [&MetricsRegistry; 2]| {
        let mut total = MetricsRegistry::new(MetricsLevel::Full, 0);
        for p in parts {
            total.merge(p);
        }
        total
    };
    let (forward, backward) = (merged([&small, &large]), merged([&large, &small]));
    assert_eq!(ledger_counts(&forward), expected);
    assert_eq!(
        forward.to_json().to_compact(),
        backward.to_json().to_compact(),
        "merge order moved the export"
    );
    assert_eq!(forward.server_sent().len(), 5);
    // The export lists exactly the summed channels, in `NodeId` order.
    let doc = forward.to_json();
    let exported: Vec<(String, String, u64)> = doc
        .get("per_channel")
        .and_then(|c| c.as_arr())
        .expect("per_channel array")
        .iter()
        .map(|c| {
            let field = |k: &str| c.get(k).and_then(|v| v.as_str()).unwrap().to_string();
            let sent = c.get("sent").and_then(|v| v.as_u64()).unwrap();
            (field("from"), field("to"), sent)
        })
        .collect();
    let want: Vec<(String, String, u64)> = expected
        .iter()
        .map(|(&(from, to), c)| (from.to_string(), to.to_string(), c[0]))
        .collect();
    assert_eq!(exported, want);
    assert!(
        want.iter().any(|(from, _, _)| from == "s4"),
        "the five-server world's channels are in the sum"
    );
}
