//! E7/E8: the counting arguments executed against real algorithms, and the
//! probe engine's cost on those verifiers.

use super::{abd_world, cas_f_for, cas_world};
use crate::render::Table;
use shmem_algorithms::abd::{self, Abd};
use shmem_algorithms::cas::{self, Cas};
use shmem_algorithms::value::ValueSpec;
use shmem_algorithms::{RegInv, RegResp};
use shmem_core::counting::{pairwise_counting, singleton_counting};
use shmem_core::multiwrite::{vector_counting, MultiWriteSetup, VectorCountingReport};
use shmem_sim::{ClientId, Protocol, Sim};

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
    let spec = ValueSpec::from_cardinality(card);

    /// Both maps against one algorithm: the singleton row, then the pairwise row.
    fn rows<P, F>(t: &mut Table, name: &str, make: F, f: u32, domain: &[u64], seeds: u64)
    where
        P: Protocol<Inv = RegInv, Resp = RegResp>,
        F: Fn() -> Sim<P>,
    {
        let s = singleton_counting(&make, ClientId(0), f, domain);
        t.push(vec![
            name.into(),
            "Thm B.1: v -> S(v)".into(),
            domain.len().to_string(),
            s.injective.to_string(),
            format!("{:.2}", s.observed_bits()),
            format!("{:.2}", s.required_bits()),
            s.inequality_holds().to_string(),
        ]);
        let pw = pairwise_counting(&make, ClientId(0), ClientId(1), f, domain, false, seeds);
        t.push(vec![
            name.into(),
            "Thm 4.1: (v1,v2) -> S".into(),
            pw.pairs.to_string(),
            pw.injective.to_string(),
            format!("{:.2}", pw.observed_bits()),
            format!("{:.2}", pw.required_bits()),
            pw.inequality_holds().to_string(),
        ]);
    }
    rows(&mut t, "ABD", || abd_world(n, 2, spec), f, &domain, seeds);
    let cas_f = cas_f_for(n, f);
    rows(
        &mut t,
        "CAS",
        || cas_world(n, cas_f, 2, spec),
        cas_f,
        &domain,
        seeds,
    );
    t
}

/// Probe-engine instrumentation: probes issued and verdict-cache hits for
/// the counting verifiers, one fresh engine per verifier. The verdicts
/// equal the uncached reference path's (asserted by
/// `crates/core/tests/engine_parity.rs`); this table reports the cost side.
pub fn probe_cache_table(n: u32, f: u32, card: u64, seeds: u64) -> Table {
    use shmem_core::counting::pairwise_counting_with;
    use shmem_core::multiwrite::vector_counting_with;
    use shmem_core::probe::ProbeEngine;

    let mut t = Table::new(
        format!("Probe engine on the counting verifiers, N={n}, f={f}, |V|={card}"),
        &["verifier", "probes", "cache hits", "hit rate", "injective"],
    );
    let domain: Vec<u64> = (1..card).collect();
    let spec = ValueSpec::from_cardinality(card);
    let cas_f = cas_f_for(n, f);

    let mut row = |name: &str, run: &dyn Fn(&ProbeEngine) -> bool| {
        let engine = ProbeEngine::default();
        let injective = run(&engine);
        let stats = engine.stats();
        t.push(vec![
            name.into(),
            stats.probes.to_string(),
            stats.hits.to_string(),
            format!("{:.2}", stats.hit_rate()),
            injective.to_string(),
        ]);
    };

    row("Thm 4.1 pairwise (ABD)", &|engine| {
        pairwise_counting_with(
            engine,
            || abd_world(n, 2, spec),
            ClientId(0),
            ClientId(1),
            f,
            &domain,
            false,
            seeds,
        )
        .injective
    });
    row("Thm 4.1 pairwise (CAS)", &|engine| {
        pairwise_counting_with(
            engine,
            || cas_world(n, cas_f, 2, spec),
            ClientId(0),
            ClientId(1),
            cas_f,
            &domain,
            false,
            seeds,
        )
        .injective
    });
    row("Lemma 6.10 vectors (ABD)", &|engine| {
        let setup = MultiWriteSetup::<Abd> {
            nu: 2,
            f: 2,
            is_value_dependent: abd::is_value_dependent_upstream,
        };
        let make = || abd_world(n, 3, spec);
        vector_counting_with(engine, make, &setup, &domain, seeds).injective
    });
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
    let spec = ValueSpec::from_cardinality(card);
    let mut push = |name: &str, f: u32, r: VectorCountingReport| {
        t.push(vec![
            name.into(),
            "5".into(),
            f.to_string(),
            r.vectors.to_string(),
            r.injective.to_string(),
            r.failures.len().to_string(),
        ]);
    };

    let abd_setup = MultiWriteSetup::<Abd> {
        nu: 2,
        f: 2,
        is_value_dependent: abd::is_value_dependent_upstream,
    };
    let r = vector_counting(|| abd_world(5, 3, spec), &abd_setup, &domain, seeds);
    push("ABD", abd_setup.f, r);

    let cas_setup = MultiWriteSetup::<Cas> {
        nu: 2,
        f: 1,
        is_value_dependent: cas::is_value_dependent_upstream,
    };
    let r = vector_counting(|| cas_world(5, 1, 3, spec), &cas_setup, &domain, seeds);
    push("CAS", cas_setup.f, r);
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
        // One row per verifier.
        assert_eq!(t.rows.len(), 3);
        // Every run issues probes and stays injective.
        assert!(
            t.rows.iter().all(|r| r[1].parse::<u64>().unwrap() > 0),
            "{t:?}"
        );
        assert!(t.rows.iter().all(|r| r[4] == "true"), "{t:?}");
    }
}
