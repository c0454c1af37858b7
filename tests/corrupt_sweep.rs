//! The 1000-seed corruption acceptance sweep.
//!
//! The corruption adversary's headline claim, at full budget: over one
//! thousand seeded corruption campaigns —
//!
//! * **hashed CAS** produces *zero* silent-corruption verdicts: every
//!   tampered share is caught by the digest check and surfaces as a
//!   failed (hence incomplete, hence harmless) read;
//! * **plain CAS** and **ABD** each produce at least one silent-corruption
//!   counterexample that survives ddmin shrinking — a *minimal* plan whose
//!   corrupt-server set is non-empty and still makes a completed read
//!   return a value nobody wrote;
//! * the sweep's verdict list is **byte-identical** across 1, 2, and 4
//!   explorer workers, rendered through the plans' canonical JSON — the
//!   thread count is an implementation detail, not an input.
//!
//! Together with `corrupt_differential.rs` (same verdicts across the
//! sim / in-process-net / store-backed worlds) this is the acceptance
//! gate for the corruption subsystem.

use shmem_emulation::algorithms::harness::{AbdCluster, CasCluster, HashedCluster};
use shmem_emulation::algorithms::nemesis::{
    corrupt_plan_for_seed, shrink_plan, sweep_with, Oracle, Violation,
};
use shmem_emulation::algorithms::value::ValueSpec;

const SEEDS: u64 = 1000;

/// Canonical rendering of a sweep outcome: plan JSON is exact (the corpus
/// round-trips through it), so equal strings mean equal campaigns.
fn render(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(|v| {
            format!(
                "seed={} plan={} violation={}\n",
                v.seed,
                v.plan.to_json().to_compact(),
                v.violation
            )
        })
        .collect()
}

/// Shrinks the smallest-seed violation and checks corruption is
/// load-bearing in the minimal plan.
fn assert_shrinks_to_corruption<P, F>(factory: &F, what: &str, violations: &[Violation])
where
    P: shmem_emulation::sim::Protocol<
        Inv = shmem_emulation::algorithms::reg::RegInv,
        Resp = shmem_emulation::algorithms::reg::RegResp,
    >,
    F: Fn() -> shmem_emulation::algorithms::harness::Cluster<P>,
{
    let first = violations.first().unwrap_or_else(|| {
        panic!(
            "{what}: no silent-corruption violation in {SEEDS} seeds — the adversary is toothless"
        )
    });
    let (minimal, stats) =
        shrink_plan(factory, Oracle::NoSilentCorruption, first.seed, &first.plan);
    assert!(
        !minimal.corrupt_servers.is_empty(),
        "{what}: shrinking removed every corrupt server yet the violation \
         persisted — the failure is not corruption-caused ({minimal:?})"
    );
    assert!(
        stats.candidates > 0,
        "{what}: shrink did not evaluate any candidates"
    );
}

#[test]
fn hashed_cas_is_silent_corruption_free_over_1000_seeds() {
    let factory = || HashedCluster::new(5, 1, 3, ValueSpec::from_bits(64.0));
    let violations = sweep_with(
        &factory,
        Oracle::NoSilentCorruption,
        SEEDS,
        4,
        corrupt_plan_for_seed,
    );
    assert!(
        violations.is_empty(),
        "hashed CAS returned fabricated values at seeds {:?}",
        violations.iter().map(|v| v.seed).collect::<Vec<_>>()
    );
}

#[test]
fn plain_cas_corruption_sweep_is_worker_invariant_and_shrinks() {
    let factory = || CasCluster::new(5, 1, 3, ValueSpec::from_bits(64.0));
    let runs: Vec<Vec<Violation>> = [1usize, 2, 4]
        .iter()
        .map(|&w| {
            sweep_with(
                &factory,
                Oracle::NoSilentCorruption,
                SEEDS,
                w,
                corrupt_plan_for_seed,
            )
        })
        .collect();
    let rendered: Vec<String> = runs.iter().map(|r| render(r)).collect();
    assert_eq!(rendered[0], rendered[1], "1 vs 2 workers diverged");
    assert_eq!(rendered[0], rendered[2], "1 vs 4 workers diverged");
    assert_shrinks_to_corruption(&factory, "plain CAS", &runs[0]);
}

#[test]
fn abd_corruption_sweep_finds_a_shrinkable_violation() {
    // ABD replicates values verbatim with no integrity metadata, so a
    // tampered replica is indistinguishable from a written one.
    let factory = || AbdCluster::new(5, 1, 3, ValueSpec::from_bits(64.0));
    let violations = sweep_with(
        &factory,
        Oracle::NoSilentCorruption,
        SEEDS,
        4,
        corrupt_plan_for_seed,
    );
    assert_shrinks_to_corruption(&factory, "ABD", &violations);
}
