//! Differential and invariance tests for the coverage-guided fuzzer.
//!
//! Two contracts are held here:
//!
//! 1. **Differential** — with mutation disabled, [`fuzz`]'s candidate
//!    stream is exactly the sequential seed sweep, so it must find the
//!    *same violation set* as [`sweep`] over identical seed ranges. Any
//!    divergence means the fuzz plumbing (candidate generation, coverage
//!    instrumentation, reduction) perturbed an execution it only claims to
//!    observe.
//! 2. **Worker invariance** — corpus JSON, coverage map, and violations
//!    are byte-identical across 1/2/4 workers and across reruns, in both
//!    mutation modes. The fuzzer runs on `shmem_util::par::map_indexed`'s
//!    index-ordered merge; this test is what keeps that property from
//!    regressing.

use shmem_algorithms::harness::{AbdCluster, LossyCluster, NwbCluster};
use shmem_algorithms::nemesis::{fuzz, sweep, FuzzConfig, FuzzOutcome, Oracle};
use shmem_algorithms::value::ValueSpec;

fn no_mutation(rounds: u32, batch: u32, workers: usize) -> FuzzConfig {
    FuzzConfig {
        seed: 7,
        rounds,
        batch,
        workers,
        mutate: false,
        stop_on_violation: false,
        ..FuzzConfig::default()
    }
}

fn outcome_fingerprint(out: &FuzzOutcome) -> (String, String, Vec<(u64, String)>) {
    (
        out.corpus.to_json().to_compact(),
        out.coverage.to_json().to_compact(),
        out.violations
            .iter()
            .map(|v| (v.seed, v.plan.to_json().to_compact()))
            .collect(),
    )
}

#[test]
fn unmutated_fuzz_matches_sweep_on_nowriteback() {
    let factory = || NwbCluster::new(3, 1, 3, ValueSpec::from_bits(64.0));
    let seeds = 160u64;
    let swept = sweep(&factory, Oracle::Atomic, seeds, 2);
    let fuzzed = fuzz(&factory, Oracle::Atomic, no_mutation(10, 16, 2));
    assert_eq!(fuzzed.executions, seeds);
    assert_eq!(
        fuzzed.violations.len(),
        swept.len(),
        "fuzz(mutate=false) and sweep disagree on the violation count"
    );
    for (f, s) in fuzzed.violations.iter().zip(&swept) {
        assert_eq!(f.seed, s.seed);
        assert_eq!(f.plan, s.plan);
        assert_eq!(f.violation, s.violation);
    }
    // The known nowriteback violation (seed 149) is inside this range, so
    // the differential is non-vacuous.
    assert!(!swept.is_empty(), "expected ≥1 violation in 0..160");
    assert_eq!(
        fuzzed.executions_to_first_violation,
        Some(swept[0].seed + 1),
        "first-violation count must be the violating seed's 1-based index"
    );
}

#[test]
fn unmutated_fuzz_matches_sweep_on_lossy() {
    let factory = || LossyCluster::new(3, 1, 3, 8, ValueSpec::from_bits(64.0));
    let seeds = 48u64;
    let swept = sweep(&factory, Oracle::Regular, seeds, 2);
    let fuzzed = fuzz(&factory, Oracle::Regular, no_mutation(6, 8, 2));
    assert_eq!(fuzzed.executions, seeds);
    assert!(!swept.is_empty(), "expected ≥1 lossy violation in 0..48");
    let fuzz_seeds: Vec<u64> = fuzzed.violations.iter().map(|v| v.seed).collect();
    let sweep_seeds: Vec<u64> = swept.iter().map(|v| v.seed).collect();
    assert_eq!(fuzz_seeds, sweep_seeds);
}

#[test]
fn fuzz_is_worker_count_invariant_without_mutation() {
    let factory = || NwbCluster::new(3, 1, 3, ValueSpec::from_bits(64.0));
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| outcome_fingerprint(&fuzz(&factory, Oracle::Atomic, no_mutation(8, 12, w))))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 workers diverged");
    assert_eq!(runs[0], runs[2], "1 vs 4 workers diverged");
}

#[test]
fn fuzz_is_worker_count_invariant_with_mutation() {
    let factory = || AbdCluster::new(3, 1, 3, ValueSpec::from_bits(64.0));
    let config = |workers| FuzzConfig {
        seed: 42,
        rounds: 6,
        batch: 8,
        workers,
        mutate: true,
        stop_on_violation: false,
        ..FuzzConfig::default()
    };
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| outcome_fingerprint(&fuzz(&factory, Oracle::Atomic, config(w))))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 workers diverged");
    assert_eq!(runs[0], runs[2], "1 vs 4 workers diverged");
}

#[test]
fn fuzz_reruns_byte_identically() {
    let factory = || AbdCluster::new(3, 1, 3, ValueSpec::from_bits(64.0));
    let config = FuzzConfig {
        seed: 9,
        rounds: 5,
        batch: 8,
        workers: 2,
        mutate: true,
        stop_on_violation: false,
        ..FuzzConfig::default()
    };
    let a = fuzz(&factory, Oracle::Atomic, config);
    let b = fuzz(&factory, Oracle::Atomic, config);
    assert_eq!(outcome_fingerprint(&a), outcome_fingerprint(&b));
    assert_eq!(a.coverage_curve, b.coverage_curve);
    assert_eq!(a.rounds_run, b.rounds_run);
}

/// CI smoke: a bounded coverage-guided campaign finds the violation in
/// both broken controls.
#[test]
fn guided_fuzz_finds_both_broken_controls() {
    let nwb = || NwbCluster::new(3, 1, 3, ValueSpec::from_bits(64.0));
    let out = fuzz(
        &nwb,
        Oracle::Atomic,
        FuzzConfig {
            seed: 1,
            rounds: 40,
            batch: 16,
            workers: 2,
            ..FuzzConfig::default()
        },
    );
    assert!(
        out.executions_to_first_violation.is_some(),
        "guided fuzz missed the no-write-back atomicity violation in {} executions",
        out.executions
    );

    let lossy = || LossyCluster::new(3, 1, 3, 8, ValueSpec::from_bits(64.0));
    let out = fuzz(
        &lossy,
        Oracle::Regular,
        FuzzConfig {
            seed: 1,
            rounds: 40,
            batch: 16,
            workers: 2,
            ..FuzzConfig::default()
        },
    );
    assert!(
        out.executions_to_first_violation.is_some(),
        "guided fuzz missed the lossy regularity violation in {} executions",
        out.executions
    );
}
