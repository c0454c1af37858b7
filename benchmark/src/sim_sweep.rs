//! `sim-sweep`: what the simulator's users run — a one-worker nemesis
//! sweep of seeded fault schedules over the legacy single-register
//! clusters under `Oracle::Atomic`; first `AbdCluster::new(5, 2, 3)`, then
//! `CasCluster::new(5, 1, 3)`.
//!
//! An operation is one seeded execution: sample the plan, build the
//! cluster, run the fault window, drain, check. The sweep itself is the
//! program's `nemesis::sweep_with`; the benchmark owns only the two
//! closures it takes — the plan sampler, which is where `--seed` enters
//! (seed `s` of a sweep draws plan `base + s`), and the cluster factory.
//!
//! A round has the same shape as a net round. *Set-up* builds the
//! factories and sweeps the first seeds of each half; the *unloaded phase*
//! times executions of each half one by one through `run_seed`; each of
//! the [`TRIALS`] *saturated trials* sweeps further seeds of each half (the
//! counts are [`SPEC`]). A sweep returns only violations, so
//! the message, byte and storage metrics come from an *audit* outside the
//! timed regions: the first trial's executions re-run through `run_plan`
//! directly, whose `NemesisRun` carries the simulator's own ledgers.
//! `msgs_per_op` is messages sent per execution and `wire_bytes_per_op` the
//! simulator's charged wire bytes per execution. `storage_per_key_norm` is
//! the paper's storage cost, which is a worst case: the largest
//! `TotalStorage` (sum of per-server peaks) ÷ 64 any audited execution of
//! a half reached, averaged over the two halves — 5 for ABD whatever the
//! schedule, 35/3 for CAS without garbage collection once some execution
//! delivers all six writes, which a few in a hundred do. (The mean over
//! executions moves by 0.1–0.4 % with the seed, more than this metric's
//! bound; the worst case repeats exactly.)

use crate::alloc::Traffic;
use crate::net::{TRIALS, TRIAL_GROUPS, VALUE_BITS};
use crate::proc;
use shmem_algorithms::harness::Cluster;
use shmem_algorithms::nemesis::{
    observe_shape, plan_for_seed, run_plan, run_seed, sweep_with, ClusterShape, FaultPlan, Oracle,
};
use shmem_algorithms::{AbdCluster, CasCluster, RegInv, RegResp, ValueSpec};
use shmem_sim::Protocol;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The fixed execution counts of one round, per half (ABD, then CAS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimSpec {
    /// Seeds the set-up sweeps.
    pub setup_seeds: u64,
    /// Executions the unloaded phase times one by one.
    pub unloaded_execs: u64,
    /// Seeds one saturated trial sweeps.
    pub trial_seeds: u64,
    /// Of the first trial's seeds, how many the audit runs a second time:
    /// the same seeds must reproduce the same events-per-seed fingerprint.
    pub fingerprint_seeds: u64,
}

/// The workload's counts: about 2.5 seconds per round on the box the
/// ledger was defined on.
pub const SPEC: SimSpec = SimSpec {
    setup_seeds: 4_000,
    unloaded_execs: 1_000,
    trial_seeds: 3_000,
    fingerprint_seeds: 300,
};

fn spec() -> ValueSpec {
    ValueSpec::from_bits(VALUE_BITS)
}

/// The replicated half's cluster.
pub fn abd_cluster() -> AbdCluster {
    AbdCluster::new(5, 2, 3, spec())
}

/// The coded half's cluster.
pub fn cas_cluster() -> CasCluster {
    CasCluster::new(5, 1, 3, spec())
}

/// Seed `s` of a sweep under `base` draws this plan.
pub fn plan(base: u64, s: u64, shape: ClusterShape) -> FaultPlan {
    plan_for_seed(base.wrapping_add(s), shape)
}

/// Where a round's plans start: a SplitMix64 step of the round seed, so
/// consecutive seeds do not share most of their plans.
pub fn plan_base(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sweeps `seeds` plans starting at `base` over clusters from `build` on
/// one worker; returns the violations found.
pub fn sweep_half<P>(build: impl Fn() -> Cluster<P> + Sync, base: u64, seeds: u64) -> usize
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
{
    sweep_with(&build, Oracle::Atomic, seeds, 1, |s, shape| {
        plan(base, s, shape)
    })
    .len()
}

/// [`sweep_half`] that also says how long each of [`TRIAL_GROUPS`] equal
/// groups of consecutive executions took, in seconds (each is half of one
/// `ops_per_s` sample; a single thread has no ramp to drop). The sweep calls the
/// cluster factory once at the start of every execution, so the factory is
/// where the clock is read — on every `seeds / TRIAL_GROUPS`-th call.
fn sweep_half_grouped<P>(
    build: impl Fn() -> Cluster<P> + Sync,
    base: u64,
    seeds: u64,
) -> (usize, Vec<f64>)
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
{
    let group = (seeds / TRIAL_GROUPS as u64).max(1);
    let calls = AtomicU64::new(0);
    let marks = Mutex::new(Vec::with_capacity(TRIAL_GROUPS + 2));
    let mark = || marks.lock().expect("marks poisoned").push(Instant::now());
    let violations = sweep_half(
        || {
            if calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(group) {
                mark();
            }
            build()
        },
        base,
        seeds,
    );
    mark();
    let marks = marks.into_inner().expect("marks poisoned");
    let took = marks
        .windows(2)
        .take(TRIAL_GROUPS)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    (violations, took)
}

/// Times `execs` executions of each half from `first`, one by one through
/// `run_seed` and alternating the halves, so every stretch of the phase
/// holds the same mix; returns each execution's nanoseconds as
/// `(replicated, coded)` pairs, and the violations found.
fn timed_execs(first: u64, execs: u64) -> (Vec<(u64, u64)>, usize) {
    let mut violations = 0;
    let mut timed = |violation: bool, t0: Instant| {
        violations += usize::from(violation);
        t0.elapsed().as_nanos() as u64
    };
    let pairs = (0..execs)
        .map(|i| {
            let seed = first.wrapping_add(i);
            let t0 = Instant::now();
            let abd = run_seed(&abd_cluster, Oracle::Atomic, seed).is_some();
            let abd_ns = timed(abd, t0);
            let t0 = Instant::now();
            let cas = run_seed(&cas_cluster, Oracle::Atomic, seed).is_some();
            (abd_ns, timed(cas, t0))
        })
        .collect();
    (pairs, violations)
}

/// Totals of the audited executions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Audit {
    /// Executions audited.
    pub execs: u64,
    /// Messages sent.
    pub msgs: u64,
    /// Wire bytes charged.
    pub wire_bytes: u64,
    /// The worst normalized `TotalStorage` (sum of per-server peaks ÷ 64)
    /// any execution reached.
    pub storage_worst: f64,
    /// Σ trace length (every step and fault action).
    pub events: u64,
    /// XOR of final world digests.
    pub digest: u64,
}

impl Audit {
    fn merge(self, o: Audit) -> Audit {
        Audit {
            execs: self.execs + o.execs,
            msgs: self.msgs + o.msgs,
            wire_bytes: self.wire_bytes + o.wire_bytes,
            storage_worst: self.storage_worst.max(o.storage_worst),
            events: self.events + o.events,
            digest: self.digest ^ o.digest,
        }
    }
}

/// Re-runs `seeds` under `base` through `run_plan` and totals the
/// simulator's own ledgers.
pub fn audit_range<P>(
    build: &impl Fn() -> Cluster<P>,
    base: u64,
    seeds: std::ops::Range<u64>,
) -> Audit
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
{
    let mut total = Audit::default();
    for s in seeds {
        let mut cluster = build();
        let plan = plan(base, s, observe_shape(&cluster));
        let run = run_plan(&mut cluster, s, &plan);
        total = total.merge(Audit {
            execs: 1,
            msgs: run.metrics.global().sent,
            wire_bytes: run.metrics.wire_bytes(),
            storage_worst: run.storage.normalized_total(VALUE_BITS),
            events: run.trace.len() as u64,
            digest: run.final_digest,
        });
    }
    total
}

/// Audits seeds `0..seeds` of one half — running the first `twice` of them
/// twice: the same seeds must reproduce the same fingerprint.
fn audit_half<P>(
    build: impl Fn() -> Cluster<P>,
    base: u64,
    seeds: u64,
    twice: u64,
) -> Result<Audit, String>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
{
    let twice = twice.min(seeds);
    let first = audit_range(&build, base, 0..twice);
    let again = audit_range(&build, base, 0..twice);
    if first != again {
        return Err(format!(
            "the same seeds gave {first:?}, then {again:?}: the simulator is not deterministic"
        ));
    }
    Ok(first.merge(audit_range(&build, base, twice..seeds)))
}

/// One saturated trial.
#[derive(Clone, Debug, PartialEq)]
pub struct SimTrial {
    /// Executions swept.
    pub execs: u64,
    /// Executions per second of each group: the group's executions of both
    /// halves over the time both took (a coded execution is a third longer
    /// than a replicated one, so a sample always holds as many of each).
    pub group_ops_per_s: Vec<f64>,
    /// Process CPU over them, seconds.
    pub cpu_s: f64,
    /// Allocator traffic over them.
    pub alloc: Traffic,
}

/// What one round produced, through its gate.
#[derive(Clone, Debug, PartialEq)]
pub struct SimRound {
    /// Build factories + sweep the first seeds of each half, seconds.
    pub setup_s: f64,
    /// Nanoseconds of each execution timed alone, as `(replicated, coded)`
    /// pairs in the order they ran.
    pub unloaded_ns: Vec<(u64, u64)>,
    /// The saturated trials.
    pub trials: Vec<SimTrial>,
    /// `VmHWM` when the unloaded phase ended, megabytes.
    pub rss_after_unloaded_mb: f64,
    /// `VmHWM` when the last trial ended, megabytes.
    pub rss_after_trials_mb: f64,
    /// The audit of the first trial's executions, both halves.
    pub audit: Audit,
    /// The paper's storage cost over the audited executions: the worst
    /// normalized `TotalStorage` of each half, averaged over the halves.
    pub storage_per_key_norm: f64,
    /// Executions the round ran, audit excluded.
    pub attempted: u64,
}

/// One round under `seed`, gated on zero violations anywhere and on the
/// audit's fingerprint repeating.
///
/// # Errors
///
/// The gate's complaint.
pub fn run_round(spec: &SimSpec, seed: u64) -> Result<SimRound, String> {
    let base = plan_base(seed);
    let mut violations = 0;

    let t0 = Instant::now();
    let (abd, cas) = (abd_cluster, cas_cluster);
    violations += sweep_half(abd, base, spec.setup_seeds);
    violations += sweep_half(cas, base, spec.setup_seeds);
    let setup_s = t0.elapsed().as_secs_f64();

    let first = base.wrapping_add(spec.setup_seeds);
    let (unloaded_ns, unloaded_violations) = timed_execs(first, spec.unloaded_execs);
    violations += unloaded_violations;
    let rss_after_unloaded_mb = proc::peak_rss_mb();

    let trial_base =
        |t: usize| first.wrapping_add(spec.unloaded_execs + t as u64 * spec.trial_seeds);
    let trials = (0..TRIALS)
        .map(|t| {
            let cpu0 = proc::process_cpu_s();
            let alloc0 = Traffic::now();
            let (abd_violations, abd_took) =
                sweep_half_grouped(abd, trial_base(t), spec.trial_seeds);
            let (cas_violations, cas_took) =
                sweep_half_grouped(cas, trial_base(t), spec.trial_seeds);
            violations += abd_violations + cas_violations;
            let group = 2.0 * (spec.trial_seeds / TRIAL_GROUPS as u64).max(1) as f64;
            SimTrial {
                execs: 2 * spec.trial_seeds,
                group_ops_per_s: abd_took
                    .iter()
                    .zip(&cas_took)
                    .map(|(a, c)| group / (a + c))
                    .collect(),
                alloc: Traffic::now().since(alloc0),
                cpu_s: proc::process_cpu_s() - cpu0,
            }
        })
        .collect();
    let rss_after_trials_mb = proc::peak_rss_mb();
    if violations != 0 {
        return Err(format!(
            "{violations} atomicity violations in a clean sweep"
        ));
    }

    let twice = spec.fingerprint_seeds;
    let audit_abd = audit_half(abd, trial_base(0), spec.trial_seeds, twice)?;
    let audit_cas = audit_half(cas, trial_base(0), spec.trial_seeds, twice)?;
    Ok(SimRound {
        setup_s,
        unloaded_ns,
        trials,
        rss_after_unloaded_mb,
        rss_after_trials_mb,
        audit: audit_abd.merge(audit_cas),
        storage_per_key_norm: (audit_abd.storage_worst + audit_cas.storage_worst) / 2.0,
        attempted: 2 * (spec.setup_seeds + spec.unloaded_execs + TRIALS as u64 * spec.trial_seeds),
    })
}
