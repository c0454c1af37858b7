//! `tab-nemesis`: the fault-injection explorer's verdicts.

use crate::render::Table;
use shmem_algorithms::harness::{AbdCluster, CasCluster};
use shmem_algorithms::value::ValueSpec;

/// `tab-nemesis`: the fault-injection explorer's verdict table. Each
/// algorithm is swept over the same `seeds` deterministic `(seed, plan)`
/// schedules (crashes within the `f` budget, freezes, link cuts,
/// drop/duplicate/delay) and its histories are checked against the listed
/// oracle. The broken algorithms are positive controls — the explorer
/// must find their violations and shrink them to small plans; the real
/// algorithms must come out clean over the identical schedule set.
pub fn nemesis_table(seeds: u64, workers: usize) -> Table {
    use shmem_algorithms::harness::{
        Cluster, GossipCluster, HashedCluster, LossyCluster, NwbCluster,
    };
    use shmem_algorithms::nemesis::{explore, shrink_plan, Oracle};
    use shmem_algorithms::{RegInv, RegResp};

    fn row<P, F>(
        t: &mut Table,
        name: &str,
        oracle: Oracle,
        factory: &F,
        seeds: u64,
        workers: usize,
        expect_violation: bool,
    ) where
        P: shmem_sim::Protocol<Inv = RegInv, Resp = RegResp>,
        F: Fn() -> Cluster<P> + Sync,
    {
        let found = explore(factory, oracle, seeds, workers);
        let verdict = match (&found, expect_violation) {
            (Some(_), true) => "violation (expected)",
            (None, false) => "clean",
            (Some(_), false) => "VIOLATION (unexpected!)",
            (None, true) => "MISSED (explorer too weak)",
        };
        let (seed, orig_events, shrunk_events, candidates) = match &found {
            Some(v) => {
                let (plan, stats) = shrink_plan(factory, oracle, v.seed, &v.plan);
                (
                    v.seed.to_string(),
                    v.plan.events.len().to_string(),
                    plan.events.len().to_string(),
                    stats.candidates.to_string(),
                )
            }
            None => ("—".into(), "—".into(), "—".into(), "—".into()),
        };
        t.push(vec![
            name.into(),
            format!("{oracle:?}"),
            seeds.to_string(),
            verdict.into(),
            seed,
            orig_events,
            shrunk_events,
            candidates,
        ]);
    }

    let spec = ValueSpec::from_bits(64.0);
    let mut t = Table::new(
        format!("Nemesis fault-injection sweep, n=3 f=1 clients=3, {seeds} seeds/algorithm"),
        &[
            "algorithm",
            "oracle",
            "seeds",
            "verdict",
            "first seed",
            "plan events",
            "shrunk events",
            "shrink candidates",
        ],
    );
    row(
        &mut t,
        "ABD",
        Oracle::Atomic,
        &|| AbdCluster::new(3, 1, 3, spec),
        seeds,
        workers,
        false,
    );
    row(
        &mut t,
        "ABD (gossip)",
        Oracle::Atomic,
        &|| GossipCluster::new(3, 1, 3, spec),
        seeds,
        workers,
        false,
    );
    row(
        &mut t,
        "CAS",
        Oracle::Atomic,
        &|| CasCluster::new(3, 1, 3, spec),
        seeds,
        workers,
        false,
    );
    row(
        &mut t,
        "Hashed CAS",
        Oracle::Atomic,
        &|| HashedCluster::new(3, 1, 3, spec),
        seeds,
        workers,
        false,
    );
    row(
        &mut t,
        "no-write-back",
        Oracle::Atomic,
        &|| NwbCluster::new(3, 1, 3, spec),
        seeds,
        workers,
        true,
    );
    row(
        &mut t,
        "lossy (8 bits)",
        Oracle::Regular,
        &|| LossyCluster::new(3, 1, 3, 8, spec),
        seeds,
        workers,
        true,
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nemesis_table_controls_behave() {
        // A small sweep: the positive controls must violate and shrink,
        // the full-size negative sweep lives in `figures tab-nemesis`.
        let t = nemesis_table(200, 4);
        let rows = &t.rows;
        assert_eq!(rows.len(), 6);
        for r in rows {
            let (name, verdict) = (&r[0], &r[3]);
            if name.starts_with("no-write-back") || name.starts_with("lossy") {
                assert_eq!(verdict, "violation (expected)", "{name}");
            } else {
                assert_eq!(verdict, "clean", "{name}");
            }
        }
    }
}
