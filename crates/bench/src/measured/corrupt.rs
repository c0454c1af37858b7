//! `tab-corrupt`: the corruption adversary's verdicts.

use crate::render::Table;
use shmem_algorithms::harness::{AbdCluster, CasCluster};
use shmem_algorithms::value::ValueSpec;

/// `tab-corrupt`: the corruption adversary's verdict table.
///
/// Each algorithm is swept over the same `seeds` corruption-armed
/// `(seed, plan)` schedules (the crash/partition/delay base of
/// `tab-nemesis` plus stored-share tampering and in-flight payload
/// tampering on at most `f` servers) and its histories are checked
/// against [`Oracle::NoSilentCorruption`]. Three numbers per row:
///
/// * **violation rate** — the fraction of campaigns where a *completed*
///   read returned a value nobody wrote. ABD and plain CAS carry no
///   integrity metadata, so a tampered replica/share is indistinguishable
///   from a written one and both rates are well above zero; hashed CAS
///   must be exactly zero.
/// * **detection rate** — the fraction of campaigns with at least one
///   read failed *loudly* by the digest check (`reads_failed_detect` in
///   the metrics export). Only hashed CAS can detect.
/// * **storage** — mean peak value-bearing and metadata storage in
///   values, and the total's ratio to plain CAS on the same schedules:
///   what the per-version digests cost. The digests are `O(λ)` *metadata*
///   (64 bits plus a tag per live version), so the overhead shows up in
///   the metadata column, not the coded-share column.
pub fn corrupt_table(seeds: u64, workers: usize) -> Table {
    use shmem_algorithms::harness::{Cluster, HashedCluster};
    use shmem_algorithms::nemesis::{corrupt_plan_for_seed, observe_shape, run_plan, Oracle};
    use shmem_algorithms::{RegInv, RegResp};

    #[derive(Clone, Copy, Default)]
    struct Tally {
        violations: u64,
        detected_runs: u64,
        detections: u64,
        peak_bits: f64,
        peak_meta_bits: f64,
    }

    /// Every per-seed field is a sum, folded in seed order (which matters
    /// for the `f64` peaks), so the tally is worker-count invariant.
    fn sweep_tally<P, F>(factory: &F, seeds: u64, workers: usize) -> Tally
    where
        P: shmem_sim::Protocol<Inv = RegInv, Resp = RegResp>,
        F: Fn() -> Cluster<P> + Sync,
    {
        shmem_util::par::map_indexed(workers, seeds as usize, |seed| {
            let seed = seed as u64;
            let mut cluster = factory();
            let plan = corrupt_plan_for_seed(seed, observe_shape(&cluster));
            let run = run_plan(&mut cluster, seed, &plan);
            let detections = run.metrics.reads_failed_detect();
            Tally {
                violations: u64::from(Oracle::NoSilentCorruption.check(&run.history).is_err()),
                detected_runs: u64::from(detections > 0),
                detections,
                peak_bits: run.storage.peak_total_bits,
                peak_meta_bits: run.storage.peak_total_metadata_bits,
            }
        })
        .into_iter()
        .fold(Tally::default(), |a, b| Tally {
            violations: a.violations + b.violations,
            detected_runs: a.detected_runs + b.detected_runs,
            detections: a.detections + b.detections,
            peak_bits: a.peak_bits + b.peak_bits,
            peak_meta_bits: a.peak_meta_bits + b.peak_meta_bits,
        })
    }

    let spec = ValueSpec::from_bits(64.0);
    let abd = sweep_tally(&|| AbdCluster::new(5, 1, 3, spec), seeds, workers);
    let cas = sweep_tally(&|| CasCluster::new(5, 1, 3, spec), seeds, workers);
    let hashed = sweep_tally(&|| HashedCluster::new(5, 1, 3, spec), seeds, workers);

    let mut t = Table::new(
        format!("Corruption adversary, n=5 f=1 clients=3, {seeds} corrupt campaigns/algorithm"),
        &[
            "algorithm",
            "seeds",
            "silent violations",
            "violation rate",
            "detected reads",
            "detection rate",
            "peak values",
            "peak metadata (values)",
            "total vs CAS",
        ],
    );
    let cas_mean = (cas.peak_bits + cas.peak_meta_bits) / seeds as f64 / 64.0;
    for (name, tally) in [("ABD", &abd), ("CAS", &cas), ("Hashed CAS", &hashed)] {
        let mean_state = tally.peak_bits / seeds as f64 / 64.0;
        let mean_meta = tally.peak_meta_bits / seeds as f64 / 64.0;
        t.push(vec![
            name.into(),
            seeds.to_string(),
            tally.violations.to_string(),
            format!("{:.3}", tally.violations as f64 / seeds as f64),
            tally.detections.to_string(),
            format!("{:.3}", tally.detected_runs as f64 / seeds as f64),
            format!("{mean_state:.2}"),
            format!("{mean_meta:.2}"),
            format!("{:.3}x", (mean_state + mean_meta) / cas_mean),
        ]);
    }
    t
}
