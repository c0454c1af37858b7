//! The schedule explorer: fans seeds across workers, runs each seed's
//! sampled fault plan, and checks the resulting history against a
//! consistency oracle.
//!
//! Seed `i` fully determines both the sampled [`FaultPlan`] (from a salted
//! stream, so plan sampling and schedule driving never share draws) and
//! the schedule, so a reported violation is a self-contained
//! `(seed, plan)` pair. Fan-out follows the probe-engine pattern: scoped
//! workers pull seed indices from a shared counter and write results into
//! index-addressed slots, so the outcome is independent of thread
//! scheduling — one worker and sixteen agree exactly.

use crate::harness::Cluster;
use crate::nemesis::driver::{run_plan, NemesisRun};
use crate::nemesis::plan::{ClusterShape, FaultPlan};
use crate::reg::{RegInv, RegResp};
use crate::value::Value;
use shmem_sim::Protocol;
use shmem_spec::history::History;
use shmem_spec::{check_atomic, check_no_fabrication, check_regular, check_safe};
use shmem_util::DetRng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Salt separating the plan-sampling RNG stream from the schedule stream.
const PLAN_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which consistency condition the explorer enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Linearizability ([`check_atomic`]).
    Atomic,
    /// Regularity ([`check_regular`]).
    Regular,
    /// Safeness ([`check_safe`]).
    Safe,
    /// Integrity ([`check_no_fabrication`]): reads may be stale or fail
    /// visibly, but a completed read returning a never-written value is a
    /// *silent corruption*. The verdict corruption schedules are judged
    /// by — hashed CAS must stay clean, plain CAS and ABD must not.
    NoSilentCorruption,
}

impl Oracle {
    /// Checks `history`, returning the violation's description if any.
    pub fn check(self, history: &History<Value>) -> Result<(), String> {
        let verdict = match self {
            Oracle::Atomic => check_atomic(history),
            Oracle::Regular => check_regular(history),
            Oracle::Safe => check_safe(history),
            Oracle::NoSilentCorruption => check_no_fabrication(history),
        };
        verdict.map(|_| ()).map_err(|v| format!("{v:?}"))
    }

    /// The oracle's stable name (artifact field).
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Atomic => "atomic",
            Oracle::Regular => "regular",
            Oracle::Safe => "safe",
            Oracle::NoSilentCorruption => "no-silent-corruption",
        }
    }

    /// Decodes [`Oracle::name`].
    ///
    /// # Errors
    ///
    /// The unknown name.
    pub fn from_name(name: &str) -> Result<Oracle, String> {
        match name {
            "atomic" => Ok(Oracle::Atomic),
            "regular" => Ok(Oracle::Regular),
            "safe" => Ok(Oracle::Safe),
            "no-silent-corruption" => Ok(Oracle::NoSilentCorruption),
            other => Err(format!("unknown oracle {other:?}")),
        }
    }
}

/// A consistency violation found by the explorer: the seed and plan that
/// reproduce it, plus what the oracle said.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The seed that drives schedule and faults.
    pub seed: u64,
    /// The fault plan (sampled, or shrunk by the caller).
    pub plan: FaultPlan,
    /// The oracle that rejected the history.
    pub oracle: Oracle,
    /// Debug rendering of the spec checker's violation.
    pub violation: String,
    /// The violating history.
    pub history: History<Value>,
}

/// The plan a given seed samples for `shape` — shared by explorer, tests,
/// and replay tooling.
pub fn plan_for_seed(seed: u64, shape: ClusterShape) -> FaultPlan {
    FaultPlan::sample(&mut DetRng::seed_from_u64(seed ^ PLAN_SALT), shape)
}

/// The corruption-armed plan a given seed samples for `shape`: the same
/// salted stream as [`plan_for_seed`] with the corruption draws appended,
/// so the crash/partition/delay base of the schedule is shared between the
/// clean and corrupt explorations of a seed.
pub fn corrupt_plan_for_seed(seed: u64, shape: ClusterShape) -> FaultPlan {
    FaultPlan::sample_corrupt(&mut DetRng::seed_from_u64(seed ^ PLAN_SALT), shape)
}

/// The shape of the cluster a factory builds, observed from an instance.
pub fn observe_shape<P: Protocol<Inv = RegInv, Resp = RegResp>>(
    cluster: &Cluster<P>,
) -> ClusterShape {
    ClusterShape {
        servers: cluster.sim.server_count() as u32,
        f: cluster.f(),
        clients: cluster.sim.client_count() as u32,
        reordering: cluster.sim.config().channel_order == shmem_sim::ChannelOrder::Any,
    }
}

/// Runs one seed end to end against a fresh cluster from `factory` and
/// returns the violation, if any.
pub fn run_seed<P, F>(factory: &F, oracle: Oracle, seed: u64) -> Option<Violation>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Cluster<P>,
{
    run_seed_with(factory, oracle, seed, plan_for_seed)
}

/// [`run_seed`] with an explicit plan sampler ([`plan_for_seed`],
/// [`corrupt_plan_for_seed`], or a test's own).
pub fn run_seed_with<P, F, S>(
    factory: &F,
    oracle: Oracle,
    seed: u64,
    sampler: S,
) -> Option<Violation>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Cluster<P>,
    S: Fn(u64, ClusterShape) -> FaultPlan,
{
    let mut cluster = factory();
    let plan = sampler(seed, observe_shape(&cluster));
    let run = run_plan(&mut cluster, seed, &plan);
    violation_of(&run, oracle, seed, &plan)
}

fn violation_of(
    run: &NemesisRun,
    oracle: Oracle,
    seed: u64,
    plan: &FaultPlan,
) -> Option<Violation> {
    oracle.check(&run.history).err().map(|violation| Violation {
        seed,
        plan: plan.clone(),
        oracle,
        violation,
        history: run.history.clone(),
    })
}

/// Explores seeds `0..seeds`, stopping at the smallest-seed violation.
///
/// Deterministic across worker counts: workers claim seeds in index order
/// from a shared counter and only skip seeds *above* the best violation
/// found so far, so every seed below the reported one is guaranteed to
/// have been checked (and found clean).
pub fn explore<P, F>(factory: &F, oracle: Oracle, seeds: u64, workers: usize) -> Option<Violation>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Cluster<P> + Sync,
{
    explore_with(factory, oracle, seeds, workers, plan_for_seed)
}

/// [`explore`] with an explicit plan sampler. Worker-count invariance
/// holds for any deterministic sampler: the sampler sees only
/// `(seed, shape)`, never thread state.
pub fn explore_with<P, F, S>(
    factory: &F,
    oracle: Oracle,
    seeds: u64,
    workers: usize,
    sampler: S,
) -> Option<Violation>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Cluster<P> + Sync,
    S: Fn(u64, ClusterShape) -> FaultPlan + Sync,
{
    let workers = workers.max(1).min(seeds.max(1) as usize);
    if workers == 1 {
        return (0..seeds).find_map(|seed| run_seed_with(factory, oracle, seed, &sampler));
    }
    let next = AtomicUsize::new(0);
    let best = AtomicU64::new(u64::MAX);
    let found: Vec<Violation> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<Violation> = Vec::new();
                    loop {
                        let seed = next.fetch_add(1, Ordering::Relaxed) as u64;
                        if seed >= seeds {
                            break;
                        }
                        if seed > best.load(Ordering::Relaxed) {
                            continue; // a smaller violating seed already won
                        }
                        if let Some(v) = run_seed_with(factory, oracle, seed, &sampler) {
                            best.fetch_min(seed, Ordering::Relaxed);
                            local.push(v);
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    found.into_iter().min_by_key(|v| v.seed)
}

/// Explores seeds `0..seeds` exhaustively and returns *every* violation,
/// in seed order. Used to assert an algorithm is clean over a budget.
pub fn sweep<P, F>(factory: &F, oracle: Oracle, seeds: u64, workers: usize) -> Vec<Violation>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Cluster<P> + Sync,
{
    sweep_with(factory, oracle, seeds, workers, plan_for_seed)
}

/// [`sweep`] with an explicit plan sampler — the corruption campaigns run
/// `sweep_with(.., corrupt_plan_for_seed)` to count silent-corruption
/// verdicts over a seed budget.
pub fn sweep_with<P, F, S>(
    factory: &F,
    oracle: Oracle,
    seeds: u64,
    workers: usize,
    sampler: S,
) -> Vec<Violation>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Cluster<P> + Sync,
    S: Fn(u64, ClusterShape) -> FaultPlan + Sync,
{
    let workers = workers.max(1).min(seeds.max(1) as usize);
    if workers == 1 {
        return (0..seeds)
            .filter_map(|seed| run_seed_with(factory, oracle, seed, &sampler))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut found: Vec<Violation> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<Violation> = Vec::new();
                    loop {
                        let seed = next.fetch_add(1, Ordering::Relaxed) as u64;
                        if seed >= seeds {
                            break;
                        }
                        local.extend(run_seed_with(factory, oracle, seed, &sampler));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    found.sort_by_key(|v| v.seed);
    found
}

/// Runs seeds `0..seeds` against fresh clusters and merges every run's
/// metrics registry into one aggregate.
///
/// Deterministic across worker counts: [`shmem_util::par::map_indexed`]
/// returns the runs' registries in seed order and the merge folds them in
/// that order. Histogram and ledger merges are associative and
/// commutative besides, so this is invariant twice over — one worker and
/// sixteen produce byte-identical
/// [`shmem_sim::MetricsRegistry::to_json`] exports.
pub fn aggregate_metrics<P, F>(
    factory: &F,
    seeds: u64,
    workers: usize,
) -> shmem_sim::MetricsRegistry
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Cluster<P> + Sync,
{
    let per_seed = shmem_util::par::map_indexed(workers, seeds as usize, |seed| {
        let seed = seed as u64;
        let mut cluster = factory();
        let plan = plan_for_seed(seed, observe_shape(&cluster));
        run_plan(&mut cluster, seed, &plan).metrics
    });
    let mut total = shmem_sim::MetricsRegistry::new(shmem_sim::MetricsLevel::Full, 0);
    for m in &per_seed {
        total.merge(m);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{AbdCluster, LossyCluster, NwbCluster};
    use crate::value::ValueSpec;

    #[test]
    fn finds_lossy_regularity_violation_quickly() {
        let factory = || LossyCluster::new(3, 1, 3, 8, ValueSpec::from_bits(64.0));
        let v = explore(&factory, Oracle::Regular, 50, 2).expect("lossy must violate");
        // Replay: the violation reproduces from (seed, plan) alone.
        let mut c = factory();
        let run = run_plan(&mut c, v.seed, &v.plan);
        assert!(Oracle::Regular.check(&run.history).is_err());
    }

    #[test]
    fn explore_is_worker_count_invariant() {
        let factory = || NwbCluster::new(3, 1, 3, ValueSpec::from_bits(64.0));
        let seq = explore(&factory, Oracle::Atomic, 120, 1);
        let par = explore(&factory, Oracle::Atomic, 120, 4);
        match (seq, par) {
            (Some(a), Some(b)) => {
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.plan, b.plan);
                assert_eq!(a.violation, b.violation);
            }
            (None, None) => {}
            (a, b) => panic!(
                "worker counts disagree: seq={:?} par={:?}",
                a.map(|v| v.seed),
                b.map(|v| v.seed)
            ),
        }
    }

    #[test]
    fn aggregate_metrics_is_worker_count_invariant() {
        let factory = || AbdCluster::new(3, 1, 3, ValueSpec::from_bits(64.0));
        let exports: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&w| aggregate_metrics(&factory, 12, w).to_json().to_compact())
            .collect();
        assert_eq!(exports[0], exports[1]);
        assert_eq!(exports[0], exports[2]);
        // The aggregate saw real traffic, not twelve empty runs.
        let total = aggregate_metrics(&factory, 12, 2);
        assert!(total.global().sent > 0);
        assert_eq!(total.ops_completed(), total.op_latency().count());
    }

    #[test]
    fn sweep_is_worker_count_invariant_at_scale() {
        // NoWriteBack violates atomicity at many seeds, so this exercises
        // the violation-collecting path (not just empty results) across a
        // seed budget large enough for real work-stealing interleavings.
        let factory = || NwbCluster::new(3, 1, 3, ValueSpec::from_bits(64.0));
        let runs: Vec<Vec<Violation>> = [1usize, 2, 4]
            .iter()
            .map(|&w| sweep(&factory, Oracle::Atomic, 300, w))
            .collect();
        assert!(
            !runs[0].is_empty(),
            "NoWriteBack should violate somewhere in 300 seeds"
        );
        for pair in runs.windows(2) {
            assert_eq!(pair[0].len(), pair[1].len());
            for (a, b) in pair[0].iter().zip(&pair[1]) {
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.plan, b.plan);
                assert_eq!(a.violation, b.violation);
            }
        }
    }

    #[test]
    fn corrupt_sweep_separates_hashed_from_plain_cas() {
        use crate::harness::{CasCluster, HashedCluster};
        // Same corrupt plans, same integrity oracle. Hashed CAS turns
        // every tampered share into a visible ReadFailed (incomplete in
        // the history — the oracle ignores it); plain CAS completes reads
        // with fabricated values somewhere in the budget.
        let hashed = || HashedCluster::new(5, 1, 3, ValueSpec::from_bits(64.0));
        let clean = sweep_with(
            &hashed,
            Oracle::NoSilentCorruption,
            60,
            2,
            corrupt_plan_for_seed,
        );
        assert!(
            clean.is_empty(),
            "hashed CAS read a fabricated value at seeds {:?}",
            clean.iter().map(|v| v.seed).collect::<Vec<_>>()
        );
        let plain = || CasCluster::new(5, 1, 3, ValueSpec::from_bits(64.0));
        let v = explore_with(
            &plain,
            Oracle::NoSilentCorruption,
            400,
            2,
            corrupt_plan_for_seed,
        )
        .expect("plain CAS must silently return a corrupted value somewhere in 400 seeds");
        assert!(!v.plan.corrupt_servers.is_empty());
    }

    #[test]
    fn corrupt_explore_is_worker_count_invariant() {
        use crate::harness::CasCluster;
        let factory = || CasCluster::new(5, 1, 3, ValueSpec::from_bits(64.0));
        let seq = explore_with(
            &factory,
            Oracle::NoSilentCorruption,
            400,
            1,
            corrupt_plan_for_seed,
        );
        let par = explore_with(
            &factory,
            Oracle::NoSilentCorruption,
            400,
            4,
            corrupt_plan_for_seed,
        );
        match (seq, par) {
            (Some(a), Some(b)) => {
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.plan, b.plan);
                assert_eq!(a.violation, b.violation);
            }
            (None, None) => panic!("expected a violation in 400 corrupt seeds"),
            (a, b) => panic!(
                "worker counts disagree: seq={:?} par={:?}",
                a.map(|v| v.seed),
                b.map(|v| v.seed)
            ),
        }
    }

    #[test]
    fn abd_clean_over_a_small_sweep() {
        let factory = || AbdCluster::new(3, 1, 3, ValueSpec::from_bits(64.0));
        let violations = sweep(&factory, Oracle::Atomic, 40, 4);
        assert!(
            violations.is_empty(),
            "ABD violated atomicity at seeds {:?}",
            violations.iter().map(|v| v.seed).collect::<Vec<_>>()
        );
    }
}
