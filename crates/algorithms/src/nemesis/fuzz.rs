//! Coverage-guided nemesis fuzzing: mutate fault plans that discovered new
//! simulator coverage in preference to blind seed sweeping.
//!
//! The loop is the classic greybox-fuzzer shape (AFL's), transplanted onto
//! the deterministic simulator:
//!
//! 1. **Candidates** — each round proposes `batch` `(seed, plan)` pairs.
//!    With an empty corpus (or on the explore arm) a candidate is a fresh
//!    sample from the sequential seed stream; otherwise a corpus entry is
//!    picked by novelty-weighted choice and varied with a budget-preserving
//!    [`Mutator`](crate::nemesis::mutate::Mutator).
//! 2. **Execution** — every candidate runs [`run_plan`] on a fresh cluster
//!    with [`shmem_sim::Sim::set_coverage`] on, harvests its covered slots
//!    (edge coverage plus end-of-run metrics signatures), and checks the
//!    history against the [`Oracle`].
//! 3. **Reduction** — results are folded **in candidate-index order** into
//!    the global [`CoverageMap`] and the [`Corpus`]: a candidate is
//!    admitted iff it covered at least one slot the global map had not
//!    seen *and* its slot-set signature is not already in the corpus.
//!
//! # Determinism
//!
//! Candidate generation is single-threaded from one master [`DetRng`] and
//! happens *before* the round executes, so mutation choices cannot depend
//! on the timing of worker threads. Execution follows the probe-engine
//! merge pattern: workers claim candidate indices from an atomic counter
//! and write results into index-addressed slots; the reducer then folds
//! the slots in index order. Corpus, coverage map, violation list, and
//! every derived statistic are byte-identical across reruns and across
//! 1/2/4 workers.
//!
//! With `mutate` disabled the candidate stream degenerates to the plain
//! sequential seed sweep (`seed_start + i` with the seed's own sampled
//! plan), so [`fuzz`] coincides exactly with [`super::explorer::sweep`]
//! over the same seed range — the differential test the fuzzer's plumbing
//! is held to.

use crate::harness::Cluster;
use crate::nemesis::driver::run_plan;
use crate::nemesis::explorer::{
    corrupt_plan_for_seed, observe_shape, plan_for_seed, Oracle, Violation,
};
use crate::nemesis::mutate::MUTATORS;
use crate::nemesis::plan::{ClusterShape, FaultPlan};
use crate::reg::{RegInv, RegResp};
use shmem_sim::{CoverageMap, MetricsRegistry, Protocol};
use shmem_util::json::Json;
use shmem_util::DetRng;

/// Configuration of one fuzzing campaign.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Master seed for every mutation/selection choice.
    pub seed: u64,
    /// First seed of the fresh-sample stream (fresh candidate `i` uses
    /// seed `seed_start + i`). Benchmarks give the random baseline and the
    /// guided run the same stream so the comparison is apples-to-apples.
    pub seed_start: u64,
    /// Rounds to run (each proposes `batch` candidates).
    pub rounds: u32,
    /// Candidates per round.
    pub batch: u32,
    /// Worker threads for the execution phase.
    pub workers: usize,
    /// Whether to mutate corpus entries. Off = pure sequential sweep.
    pub mutate: bool,
    /// Stop at the end of the first round that found a violation.
    pub stop_on_violation: bool,
    /// Maximum corpus entries kept; admission stops when full.
    pub corpus_cap: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0,
            seed_start: 0,
            rounds: 32,
            batch: 16,
            workers: 1,
            mutate: true,
            stop_on_violation: true,
            corpus_cap: 256,
        }
    }
}

/// A plan the fuzzer proposes to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Schedule seed.
    pub seed: u64,
    /// The plan to run.
    pub plan: FaultPlan,
    /// How the candidate was produced (a [`Mutator::name`] or `"fresh"`).
    pub op: &'static str,
}

/// What one executed candidate reports back to the reducer.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The covered slots of the run, sorted.
    pub slots: Vec<u32>,
    /// Operations that completed under the candidate's faults.
    pub ops_completed: u64,
    /// The oracle's complaint, if any.
    pub violation: Option<Violation>,
}

/// A corpus entry: a plan that discovered new coverage when it ran.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Schedule seed the discovery ran under.
    pub seed: u64,
    /// The discovering plan.
    pub plan: FaultPlan,
    /// Round the entry was admitted in.
    pub round: u32,
    /// How the entry was produced.
    pub op: &'static str,
    /// Slots the entry was first to cover (its selection weight).
    pub novelty: u64,
    /// Operations that completed when the entry ran. Violations need
    /// completed operations, so live plans are better mutation substrates
    /// than plans whose faults stall the cluster outright.
    pub ops_completed: u64,
    /// Order-insensitive signature of the entry's full slot set — the
    /// dedup key.
    pub signature: u64,
}

/// The deduplicated set of coverage-discovering plans.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// The entries, in admission order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Admits `entry` unless its coverage signature is already present.
    /// Returns whether it was admitted.
    pub fn admit(&mut self, entry: CorpusEntry) -> bool {
        if self.entries.iter().any(|e| e.signature == entry.signature) {
            return false;
        }
        self.admit_unchecked(entry);
        true
    }

    /// Admits without the signature check. Exists as a seam for the
    /// mutation-testing suite (a corpus built only of `admit_unchecked`
    /// fails [`Corpus::is_deduped`]); the fuzzer itself never calls it on
    /// a duplicate.
    pub fn admit_unchecked(&mut self, entry: CorpusEntry) {
        self.entries.push(entry);
    }

    /// Whether every entry's signature is distinct — the invariant
    /// [`Corpus::admit`] maintains.
    pub fn is_deduped(&self) -> bool {
        let mut seen: Vec<u64> = self.entries.iter().map(|e| e.signature).collect();
        seen.sort_unstable();
        seen.windows(2).all(|w| w[0] != w[1])
    }

    /// Byte-stable JSON export (admission order preserved).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.entries
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("seed".into(), Json::Num(e.seed as f64)),
                        ("round".into(), Json::Num(f64::from(e.round))),
                        ("op".into(), Json::str(e.op)),
                        ("novelty".into(), Json::Num(e.novelty as f64)),
                        ("ops_completed".into(), Json::Num(e.ops_completed as f64)),
                        (
                            "signature".into(),
                            Json::str(format!("{:016x}", e.signature)),
                        ),
                        ("plan".into(), e.plan.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

/// The outcome of a fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Every violation found, in execution (candidate-index) order.
    pub violations: Vec<Violation>,
    /// The coverage-discovering corpus.
    pub corpus: Corpus,
    /// The merged coverage map.
    pub coverage: CoverageMap,
    /// Total candidates executed.
    pub executions: u64,
    /// Candidates executed up to and including the first violating one
    /// (in deterministic candidate order), if any violated.
    pub executions_to_first_violation: Option<u64>,
    /// Rounds actually run (may undershoot `rounds` on early stop).
    pub rounds_run: u32,
    /// `(executions, covered slots)` at the end of each round.
    pub coverage_curve: Vec<(u64, usize)>,
}

impl FuzzOutcome {
    /// Covered slots at the end of the campaign.
    pub fn covered(&self) -> usize {
        self.coverage.covered()
    }
}

/// Log₂ bucket of a counter (0 → 0, else ⌊log₂⌋ + 1) — the same coarse
/// bucketing the metrics histograms use, so end-of-run signatures change
/// only when a counter changes order of magnitude, not on every ±1.
fn bucket(v: u64) -> u64 {
    (64 - v.leading_zeros()) as u64
}

/// The end-of-run signature keys of a run's metrics: coarse, kind-tagged
/// summaries (message-loss volume, duplication, purges, peak queue depth,
/// stranded operations) that mark a run as interesting even when its edge
/// set looks familiar.
fn signature_keys(metrics: &MetricsRegistry) -> [u64; 5] {
    let g = metrics.global();
    [
        (1 << 8) | bucket(g.dropped),
        (2 << 8) | bucket(g.duplicated),
        (3 << 8) | bucket(g.purged),
        (4 << 8) | bucket(metrics.queue_depth().max().unwrap_or(0)),
        (5 << 8) | bucket(metrics.ops_started() - metrics.ops_completed()),
    ]
}

/// Runs one candidate on a fresh cluster with coverage on and returns its
/// slot harvest and oracle verdict. Pure in `(factory, oracle, candidate)`.
pub fn run_candidate<P, F>(factory: &F, oracle: Oracle, candidate: &Candidate) -> RunResult
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Cluster<P>,
{
    let mut cluster = factory();
    cluster.sim.set_coverage(true);
    let run = run_plan(&mut cluster, candidate.seed, &candidate.plan);
    for key in signature_keys(&run.metrics) {
        cluster.sim.record_coverage_signature(key);
    }
    let violation = oracle.check(&run.history).err().map(|violation| Violation {
        seed: candidate.seed,
        plan: candidate.plan.clone(),
        oracle,
        violation,
        history: run.history,
    });
    RunResult {
        slots: cluster.sim.coverage_hits(),
        ops_completed: run.metrics.ops_completed(),
        violation,
    }
}

/// Folds one round's results into the global coverage map, corpus, and
/// violation list, **in candidate-index order** — the single place where
/// admission decisions are made, which is what keeps the outcome invariant
/// under worker count (results arrive index-addressed, never in completion
/// order). Returns the number of globally novel slots this round.
pub fn reduce_results(
    coverage: &mut CoverageMap,
    corpus: &mut Corpus,
    violations: &mut Vec<Violation>,
    round: u32,
    corpus_cap: usize,
    candidates: &[Candidate],
    results: Vec<RunResult>,
) -> u64 {
    assert_eq!(candidates.len(), results.len(), "index-aligned by contract");
    let mut novel_total = 0;
    for (candidate, result) in candidates.iter().zip(results) {
        let novelty = coverage.admit_slots(&result.slots);
        novel_total += novelty;
        if novelty > 0 && corpus.len() < corpus_cap {
            corpus.admit(CorpusEntry {
                seed: candidate.seed,
                plan: candidate.plan.clone(),
                round,
                op: candidate.op,
                novelty,
                ops_completed: result.ops_completed,
                signature: CoverageMap::signature_of(&result.slots),
            });
        }
        violations.extend(result.violation);
    }
    novel_total
}

/// Proposes one round of candidates from the master RNG and the current
/// corpus. Single-threaded and called before any execution, so the
/// proposal stream is a pure function of `(config, corpus so far)`.
fn propose(
    rng: &mut DetRng,
    corpus: &Corpus,
    shape: ClusterShape,
    config: &FuzzConfig,
    oracle: Oracle,
    next_fresh: &mut u64,
) -> Vec<Candidate> {
    let mut out = Vec::with_capacity(config.batch as usize);
    for i in 0..config.batch {
        // A deterministic quarter of every round scans the fresh seed
        // stream, so the explorer keeps up with the plain sweep even when
        // the corpus temporarily has nothing worth mutating.
        let fresh = !config.mutate || corpus.is_empty() || i % 4 == 0;
        if fresh {
            let seed = config.seed_start + *next_fresh;
            *next_fresh += 1;
            // Integrity campaigns draw corruption-armed fresh plans — the
            // oracle is vacuous on a schedule with nothing to corrupt.
            let plan = if oracle == Oracle::NoSilentCorruption {
                corrupt_plan_for_seed(seed, shape)
            } else {
                plan_for_seed(seed, shape)
            };
            out.push(Candidate {
                seed,
                plan,
                op: "fresh",
            });
        } else {
            // Violations need faults *and* completed operations, so weight
            // parents by coverage novelty and by liveness — a plan whose
            // faults stall the cluster covers plenty but can never produce
            // a checkable history.
            let weights: Vec<u64> = corpus
                .entries()
                .iter()
                .map(|e| e.novelty.max(1) * (1 + e.ops_completed))
                .collect();
            let parent = &corpus.entries()[rng.weighted_index(&weights)];
            // Exploit arm: never Resample (that is what the fresh arm is
            // for); splice carries the most weight because recombining
            // fault schedules from two interesting plans finds violations
            // at the highest per-execution rate. Corruption perturbation
            // only enters integrity campaigns — arming a Byzantine server
            // against a crash-fault oracle would report model-breaking
            // "violations" the algorithm never promised to survive.
            let weights: [u64; 5] = if oracle == Oracle::NoSilentCorruption {
                [0, 5, 3, 2, 2]
            } else {
                [0, 5, 3, 2, 0]
            };
            let mutator = MUTATORS[rng.weighted_index(&weights)];
            let mut crng = DetRng::seed_from_u64(rng.next_u64());
            let plan = mutator.apply(&parent.plan, &mut crng, shape);
            // Mostly re-roll the schedule seed: interesting fault plans
            // generalize across workload schedules, so a good mutant is
            // worth testing against a new interleaving, not just the one
            // that made its parent interesting.
            let seed = if crng.gen_bool(0.75) {
                crng.next_u64()
            } else {
                parent.seed
            };
            out.push(Candidate {
                seed,
                plan,
                op: mutator.name(),
            });
        }
    }
    out
}

/// Executes `candidates` and returns results index-aligned with them,
/// whatever the worker count.
fn execute<P, F>(
    factory: &F,
    oracle: Oracle,
    candidates: &[Candidate],
    workers: usize,
) -> Vec<RunResult>
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Cluster<P> + Sync,
{
    shmem_util::par::map_indexed(workers, candidates.len(), |i| {
        run_candidate(factory, oracle, &candidates[i])
    })
}

/// Runs a coverage-guided fuzzing campaign against clusters from
/// `factory`. See the module docs for the loop structure and the
/// determinism contract.
pub fn fuzz<P, F>(factory: &F, oracle: Oracle, config: FuzzConfig) -> FuzzOutcome
where
    P: Protocol<Inv = RegInv, Resp = RegResp>,
    F: Fn() -> Cluster<P> + Sync,
{
    let shape = observe_shape(&factory());
    let mut rng = DetRng::seed_from_u64(config.seed);
    let mut coverage = CoverageMap::new();
    let mut corpus = Corpus::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut coverage_curve: Vec<(u64, usize)> = Vec::new();
    let mut executions = 0u64;
    let mut executions_to_first_violation = None;
    let mut next_fresh = 0u64;
    let mut rounds_run = 0;

    for round in 0..config.rounds {
        let candidates = propose(&mut rng, &corpus, shape, &config, oracle, &mut next_fresh);
        let results = execute(factory, oracle, &candidates, config.workers);
        if executions_to_first_violation.is_none() {
            if let Some(i) = results.iter().position(|r| r.violation.is_some()) {
                executions_to_first_violation = Some(executions + i as u64 + 1);
            }
        }
        executions += candidates.len() as u64;
        reduce_results(
            &mut coverage,
            &mut corpus,
            &mut violations,
            round,
            config.corpus_cap,
            &candidates,
            results,
        );
        coverage_curve.push((executions, coverage.covered()));
        rounds_run = round + 1;
        if config.stop_on_violation && !violations.is_empty() {
            break;
        }
    }

    FuzzOutcome {
        violations,
        corpus,
        coverage,
        executions,
        executions_to_first_violation,
        rounds_run,
        coverage_curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{AbdCluster, NwbCluster};
    use crate::value::ValueSpec;

    fn abd() -> impl Fn() -> AbdCluster + Sync {
        || AbdCluster::new(3, 1, 3, ValueSpec::from_bits(64.0))
    }

    fn config(rounds: u32, batch: u32, mutate: bool) -> FuzzConfig {
        FuzzConfig {
            rounds,
            batch,
            mutate,
            stop_on_violation: false,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn fuzz_is_reproducible() {
        let factory = abd();
        let run = || fuzz(&factory, Oracle::Atomic, config(4, 4, true));
        let (a, b) = (run(), run());
        assert_eq!(
            a.corpus.to_json().to_compact(),
            b.corpus.to_json().to_compact()
        );
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.coverage_curve, b.coverage_curve);
        assert_eq!(a.executions, 16);
    }

    #[test]
    fn corpus_grows_and_stays_deduped() {
        let factory = abd();
        let out = fuzz(&factory, Oracle::Atomic, config(6, 4, true));
        assert!(!out.corpus.is_empty(), "some run must discover coverage");
        assert!(out.corpus.is_deduped());
        assert!(out.covered() > 0);
        // The curve is monotone in both coordinates.
        assert!(out
            .coverage_curve
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn finds_nowriteback_violation() {
        let factory = || NwbCluster::new(3, 1, 3, ValueSpec::from_bits(64.0));
        let out = fuzz(
            &factory,
            Oracle::Atomic,
            FuzzConfig {
                rounds: 64,
                batch: 16,
                ..FuzzConfig::default()
            },
        );
        let first = out
            .executions_to_first_violation
            .expect("no-write-back must violate atomicity");
        assert!(!out.violations.is_empty());
        assert!(first <= out.executions);
        // The reported violation replays from (seed, plan) alone.
        let v = &out.violations[0];
        let mut c = factory();
        let run = run_plan(&mut c, v.seed, &v.plan);
        assert!(v.oracle.check(&run.history).is_err());
    }

    #[test]
    fn corruption_campaign_finds_silent_cas_corruption() {
        use crate::harness::CasCluster;
        let factory = || CasCluster::new(5, 1, 3, ValueSpec::from_bits(64.0));
        let out = fuzz(
            &factory,
            Oracle::NoSilentCorruption,
            FuzzConfig {
                rounds: 64,
                batch: 16,
                workers: 2,
                ..FuzzConfig::default()
            },
        );
        let v = out
            .violations
            .first()
            .expect("plain CAS must silently corrupt under the integrity campaign");
        assert!(!v.plan.corrupt_servers.is_empty());
        // Replays from (seed, plan) alone, like every other counterexample.
        let mut c = factory();
        let run = run_plan(&mut c, v.seed, &v.plan);
        assert!(v.oracle.check(&run.history).is_err());
    }

    #[test]
    fn corpus_respects_cap() {
        let factory = abd();
        let out = fuzz(
            &factory,
            Oracle::Atomic,
            FuzzConfig {
                rounds: 8,
                batch: 4,
                corpus_cap: 2,
                stop_on_violation: false,
                ..FuzzConfig::default()
            },
        );
        assert!(out.corpus.len() <= 2);
    }
}
