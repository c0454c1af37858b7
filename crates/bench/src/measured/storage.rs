//! E5/E6: measured storage of ABD, CAS and CASGC against the bounds, and
//! the CASGC gc-depth ablation.

use super::cas_f_for;
use crate::render::Table;
use shmem_algorithms::harness::{run_concurrent_workload, AbdCluster, CasCluster};
use shmem_algorithms::value::ValueSpec;
use shmem_bounds::{SystemParams, ValueDomain};
use shmem_core::audit::StorageAudit;

/// E5 + E6: measured normalized storage of ABD, CAS and CASGC under
/// `ν`-writer workloads on an `(n, f)` system, against the applicable
/// bounds.
///
/// The shape to reproduce from the paper: ABD's cost is flat in `ν`;
/// coded costs grow with `ν`; for `ν` past the crossover, replication wins.
pub fn measured_table(n: u32, f: u32, nus: &[u32], seed: u64) -> Table {
    let p = SystemParams::new(n, f).expect("valid parameters");
    let domain = ValueDomain::from_bits(64);
    let spec = ValueSpec::from_bits(64.0);
    let mut t = Table::new(
        format!("Measured storage (normalized by log2|V|), {p}"),
        &[
            "nu",
            "algorithm",
            "measured total",
            "measured max",
            "Thm B.1",
            "Thm 5.1",
            "Thm 6.5",
            "lower bounds ok",
        ],
    );
    for &nu in nus {
        // ABD: unconditional liveness; storage flat in nu.
        let mut abd = AbdCluster::new(n, f, nu + 1, spec);
        run_concurrent_workload(&mut abd, nu, 1, 2, seed).expect("abd workload");
        let abd_report = StorageAudit::new("ABD", p, domain, nu).assess(&abd.storage());

        // CAS (no GC): conditional liveness for bounded storage purposes.
        let cas_f = cas_f_for(n, f);
        let pc = SystemParams::new(n, cas_f).expect("valid");
        let mut cas = CasCluster::new(n, cas_f, nu + 1, spec);
        run_concurrent_workload(&mut cas, nu, 1, 2, seed).expect("cas workload");
        let cas_report = StorageAudit::new("CAS", pc, domain, nu)
            .unconditional_liveness(false)
            .assess(&cas.storage());

        // CASGC with delta = nu.
        let mut casgc = CasCluster::with_gc(n, cas_f, nu, nu + 1, spec);
        run_concurrent_workload(&mut casgc, nu, 1, 2, seed).expect("casgc workload");
        let casgc_report = StorageAudit::new("CASGC", pc, domain, nu)
            .unconditional_liveness(false)
            .assess(&casgc.storage());

        for report in [abd_report, cas_report, casgc_report] {
            let row_of = |b| {
                report
                    .row(b)
                    .bound_value
                    .map_or("-".to_string(), |v| format!("{v:.3}"))
            };
            t.push(vec![
                nu.to_string(),
                report.algorithm.clone(),
                format!("{:.3}", report.measured_total_normalized),
                format!("{:.3}", report.measured_max_normalized),
                row_of(shmem_bounds::Bound::SingletonB1),
                row_of(shmem_bounds::Bound::Universal51),
                row_of(shmem_bounds::Bound::MultiVersion65),
                report.lower_bounds_respected().to_string(),
            ]);
        }
    }
    t
}

/// E6 ablation: CASGC storage vs garbage-collection depth `δ` — the
/// design-choice knob DESIGN.md calls out. Lower `δ` caps storage harder
/// but narrows the concurrency window with guaranteed liveness.
pub fn gc_ablation_table(n: u32, f: u32, writers: u32, deltas: &[u32], seed: u64) -> Table {
    let spec = ValueSpec::from_bits(64.0);
    let mut t = Table::new(
        format!("CASGC gc-depth ablation, N={n}, f={f}, {writers} concurrent writers"),
        &[
            "delta",
            "peak total (normalized)",
            "peak max (normalized)",
            "vs no-GC total",
        ],
    );
    let mut nogc = CasCluster::new(n, f, writers + 1, spec);
    run_concurrent_workload(&mut nogc, writers, 1, 3, seed).expect("no-gc workload");
    let base = nogc.storage().peak_total_bits / 64.0;
    for &delta in deltas {
        let mut c = CasCluster::with_gc(n, f, delta, writers + 1, spec);
        run_concurrent_workload(&mut c, writers, 1, 3, seed).expect("casgc workload");
        let s = c.storage();
        t.push(vec![
            delta.to_string(),
            format!("{:.3}", s.peak_total_bits / 64.0),
            format!("{:.3}", s.peak_max_bits / 64.0),
            format!("{:.2}x", (s.peak_total_bits / 64.0) / base),
        ]);
    }
    t.push(vec![
        "no GC".into(),
        format!("{base:.3}"),
        format!("{:.3}", nogc.storage().peak_max_bits / 64.0),
        "1.00x".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_table_respects_bounds_and_shows_shapes() {
        let t = measured_table(5, 2, &[1, 3], 42);
        assert_eq!(t.rows.len(), 6);
        // Every row's "lower bounds ok" column is true.
        assert!(t.rows.iter().all(|r| r[7] == "true"), "{t:?}");
        // ABD's measured total is flat: same at nu=1 and nu=3.
        let abd_rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[1] == "ABD").collect();
        assert_eq!(abd_rows[0][2], abd_rows[1][2]);
        // CAS's measured total grows with nu.
        let cas_rows: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[1] == "CAS")
            .map(|r| r[2].parse().unwrap())
            .collect();
        assert!(cas_rows[0] < cas_rows[1], "{cas_rows:?}");
    }

    #[test]
    fn gc_ablation_monotone_in_delta() {
        let t = gc_ablation_table(5, 1, 3, &[0, 1, 2], 9);
        let totals: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // Larger delta keeps more versions: nondecreasing storage, and the
        // no-GC row (last) dominates.
        assert!(totals.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{totals:?}");
    }
}
