//! E7/E8: the counting arguments executed against real algorithms, and the
//! probe engine's cost on those verifiers.

use super::{abd_world, cas_f_for, cas_world};
use crate::render::Table;
use shmem_algorithms::abd::{self, Abd, AbdClient, AbdServer};
use shmem_algorithms::cas::{self, Cas, CasClient, CasConfig, CasServer};
use shmem_algorithms::value::ValueSpec;
use shmem_core::counting::{pairwise_counting, singleton_counting};
use shmem_core::multiwrite::{vector_counting, MultiWriteSetup};
use shmem_sim::{ClientId, ServerId, Sim, SimConfig};

/// E7: the counting-argument verification table — Theorem B.1's
/// `v ↦ ~S^{(v)}` map and Theorem 4.1's `(v1,v2) ↦ ~S^{(v1,v2)}` map
/// enumerated on small domains against ABD and CAS.
pub fn constraint_table(n: u32, f: u32, card: u64, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("Counting-argument verification, N={n}, f={f}, |V|={card}"),
        &[
            "algorithm",
            "map",
            "tuples",
            "injective",
            "observed bits",
            "required bits",
            "inequality",
        ],
    );
    let domain: Vec<u64> = (1..card).collect();
    let cas_f = cas_f_for(n, f);

    let s = singleton_counting(|| abd_world(n, card), ClientId(0), f, &domain);
    t.push(vec![
        "ABD".into(),
        "Thm B.1: v -> S(v)".into(),
        domain.len().to_string(),
        s.injective.to_string(),
        format!("{:.2}", s.observed_bits()),
        format!("{:.2}", s.required_bits()),
        s.inequality_holds().to_string(),
    ]);
    let pw = pairwise_counting(
        || abd_world(n, card),
        ClientId(0),
        ClientId(1),
        f,
        &domain,
        false,
        seeds,
    );
    t.push(vec![
        "ABD".into(),
        "Thm 4.1: (v1,v2) -> S".into(),
        pw.pairs.to_string(),
        pw.injective.to_string(),
        format!("{:.2}", pw.observed_bits()),
        format!("{:.2}", pw.required_bits()),
        pw.inequality_holds().to_string(),
    ]);

    let sc = singleton_counting(|| cas_world(n, cas_f, card), ClientId(0), cas_f, &domain);
    t.push(vec![
        "CAS".into(),
        "Thm B.1: v -> S(v)".into(),
        domain.len().to_string(),
        sc.injective.to_string(),
        format!("{:.2}", sc.observed_bits()),
        format!("{:.2}", sc.required_bits()),
        sc.inequality_holds().to_string(),
    ]);
    let pwc = pairwise_counting(
        || cas_world(n, cas_f, card),
        ClientId(0),
        ClientId(1),
        cas_f,
        &domain,
        false,
        seeds,
    );
    t.push(vec![
        "CAS".into(),
        "Thm 4.1: (v1,v2) -> S".into(),
        pwc.pairs.to_string(),
        pwc.injective.to_string(),
        format!("{:.2}", pwc.observed_bits()),
        format!("{:.2}", pwc.required_bits()),
        pwc.inequality_holds().to_string(),
    ]);
    t
}

/// Probe-engine instrumentation: probes issued and verdict-cache hits for
/// the counting verifiers, per worker count. The verdicts themselves are
/// bit-identical across the worker grid (asserted by
/// `crates/core/tests/engine_parity.rs`); this table reports the cost side.
pub fn probe_cache_table(n: u32, f: u32, card: u64, seeds: u64) -> Table {
    use shmem_core::counting::pairwise_counting_with;
    use shmem_core::multiwrite::vector_counting_with;
    use shmem_core::probe::ProbeEngine;

    let mut t = Table::new(
        format!("Probe engine on the counting verifiers, N={n}, f={f}, |V|={card}"),
        &[
            "verifier",
            "workers",
            "probes",
            "cache hits",
            "hit rate",
            "injective",
        ],
    );
    let domain: Vec<u64> = (1..card).collect();
    let cas_f = cas_f_for(n, f);

    let mut row = |name: &str, workers: usize, run: &dyn Fn(&ProbeEngine) -> bool| {
        let engine = ProbeEngine::with_workers(workers);
        let injective = run(&engine);
        let stats = engine.stats();
        t.push(vec![
            name.into(),
            workers.to_string(),
            stats.probes.to_string(),
            stats.hits.to_string(),
            format!("{:.2}", stats.hit_rate()),
            injective.to_string(),
        ]);
    };

    for workers in [1, 4] {
        row("Thm 4.1 pairwise (ABD)", workers, &|engine| {
            pairwise_counting_with(
                engine,
                || abd_world(n, card),
                ClientId(0),
                ClientId(1),
                f,
                &domain,
                false,
                seeds,
            )
            .injective
        });
        row("Thm 4.1 pairwise (CAS)", workers, &|engine| {
            pairwise_counting_with(
                engine,
                || cas_world(n, cas_f, card),
                ClientId(0),
                ClientId(1),
                cas_f,
                &domain,
                false,
                seeds,
            )
            .injective
        });
        row("Lemma 6.10 vectors (ABD)", workers, &|engine| {
            let setup = MultiWriteSetup::<Abd> {
                nu: 2,
                f: 2,
                is_value_dependent: abd::is_value_dependent_upstream,
            };
            let make = || {
                let spec = ValueSpec::from_cardinality(card);
                Sim::<Abd>::new(
                    SimConfig::without_gossip(),
                    (0..n).map(|_| AbdServer::new(0, spec)).collect(),
                    (0..3).map(|c| AbdClient::new(n, c)).collect(),
                )
            };
            vector_counting_with(engine, make, &setup, &domain, seeds).injective
        });
    }
    t
}

/// E8: the Section 6 staged-construction table — Lemma 6.10 profiles and
/// the Section 6.4.4 injectivity over value-vectors, for ν = 2 writers.
pub fn multiwrite_table(card: u64, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("Section 6 staged construction (nu=2, |V|={card})"),
        &["algorithm", "N", "f", "vectors", "injective", "failures"],
    );
    let domain: Vec<u64> = (1..card).collect();

    let abd_setup = MultiWriteSetup::<Abd> {
        nu: 2,
        f: 2,
        is_value_dependent: abd::is_value_dependent_upstream,
    };
    let abd_make = || {
        let spec = ValueSpec::from_cardinality(card);
        Sim::<Abd>::new(
            SimConfig::without_gossip(),
            (0..5).map(|_| AbdServer::new(0, spec)).collect(),
            (0..3).map(|c| AbdClient::new(5, c)).collect(),
        )
    };
    let r = vector_counting(abd_make, &abd_setup, &domain, seeds);
    t.push(vec![
        "ABD".into(),
        "5".into(),
        "2".into(),
        r.vectors.to_string(),
        r.injective.to_string(),
        r.failures.len().to_string(),
    ]);

    let cas_setup = MultiWriteSetup::<Cas> {
        nu: 2,
        f: 1,
        is_value_dependent: cas::is_value_dependent_upstream,
    };
    let cas_make = || {
        let cfg = CasConfig::native(5, 1, ValueSpec::from_cardinality(card));
        Sim::<Cas>::new(
            SimConfig::without_gossip(),
            (0..5)
                .map(|i| CasServer::new(cfg, ServerId(i), 0))
                .collect(),
            (0..3).map(|c| CasClient::new(cfg, c)).collect(),
        )
    };
    let rc = vector_counting(cas_make, &cas_setup, &domain, seeds);
    t.push(vec![
        "CAS".into(),
        "5".into(),
        "1".into(),
        rc.vectors.to_string(),
        rc.injective.to_string(),
        rc.failures.len().to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_table_all_injective() {
        let t = constraint_table(5, 2, 4, 2);
        assert_eq!(t.rows.len(), 4);
        assert!(t.rows.iter().all(|r| r[3] == "true"), "{t:?}");
        assert!(t.rows.iter().all(|r| r[6] == "true"), "{t:?}");
    }

    #[test]
    fn multiwrite_table_all_injective() {
        let t = multiwrite_table(4, 6);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows.iter().all(|r| r[4] == "true"), "{t:?}");
        assert!(t.rows.iter().all(|r| r[5] == "0"), "{t:?}");
    }

    #[test]
    fn probe_cache_table_reports_probes_and_identical_verdicts() {
        let t = probe_cache_table(5, 2, 4, 2);
        // 3 verifiers x 2 worker counts.
        assert_eq!(t.rows.len(), 6);
        // Every run issues probes and stays injective.
        assert!(
            t.rows.iter().all(|r| r[2].parse::<u64>().unwrap() > 0),
            "{t:?}"
        );
        assert!(t.rows.iter().all(|r| r[5] == "true"), "{t:?}");
        // Probe counts are deterministic: the 1-worker and 4-worker runs
        // of the same verifier issue exactly the same probes. Hit counts
        // can only shrink under parallelism (two workers racing on the
        // same fresh key may both miss before either inserts).
        for v in 0..3 {
            assert_eq!(t.rows[v][2], t.rows[v + 3][2], "{t:?}");
            let seq_hits: u64 = t.rows[v][3].parse().unwrap();
            let par_hits: u64 = t.rows[v + 3][3].parse().unwrap();
            assert!(par_hits <= seq_hits, "{t:?}");
        }
    }
}
