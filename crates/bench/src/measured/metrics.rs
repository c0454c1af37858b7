//! `tab-metrics`: message and operation accounting from metered clusters.

use crate::render::Table;
use shmem_algorithms::harness::{run_concurrent_workload, AbdCluster, CasCluster};
use shmem_algorithms::value::ValueSpec;

/// The metrics-layer table (`tab-metrics`): message and operation
/// accounting for every correct algorithm under standard ν-writer
/// workloads, from fully metered clusters.
///
/// Every run ends with `run_to_quiescence`, so each row has already passed
/// the conservation audit; the table additionally shows the fault-free
/// invariant `sent = delivered` directly (no nemesis, nothing dropped).
/// Latency quantiles are bracketed (`lo..hi`) because the histograms are
/// log-bucketed.
pub fn metrics_table(n: u32, f: u32, nus: &[u32], seed: u64) -> Table {
    use shmem_algorithms::harness::{Cluster, GossipCluster, HashedCluster};
    use shmem_algorithms::{RegInv, RegResp};

    fn quant(h: &shmem_sim::Histogram, q: f64) -> String {
        match h.quantile_bounds(q) {
            Some((lo, hi)) if lo == hi => lo.to_string(),
            Some((lo, hi)) => format!("{lo}..{hi}"),
            None => "—".into(),
        }
    }

    fn row<P>(t: &mut Table, name: &str, mut cluster: Cluster<P>, nu: u32, seed: u64)
    where
        P: shmem_sim::Protocol<Inv = RegInv, Resp = RegResp>,
    {
        run_concurrent_workload(&mut cluster, nu, 1, 2, seed).expect("workload");
        cluster.sim.run_to_quiescence().expect("drains"); // runs the audit
        let m = cluster.metrics();
        let g = m.global();
        assert_eq!(g.sent, g.delivered, "fault-free run must deliver all");
        t.push(vec![
            name.into(),
            nu.to_string(),
            g.sent.to_string(),
            g.delivered.to_string(),
            m.wire_bytes().to_string(),
            m.ops_completed().to_string(),
            quant(m.op_latency(), 0.5),
            quant(m.op_latency(), 0.99),
            m.queue_depth().max().unwrap_or(0).to_string(),
        ]);
    }

    let spec = ValueSpec::from_bits(64.0);
    let mut t = Table::new(
        format!("Metrics layer: metered nu-writer workloads, n={n} f={f}"),
        &[
            "algorithm",
            "nu",
            "msgs sent",
            "delivered",
            "wire bytes",
            "ops done",
            "latency p50",
            "latency p99",
            "peak queue",
        ],
    );
    for &nu in nus {
        let clients = nu + 1; // nu writers + 1 reader
        row(
            &mut t,
            "ABD",
            AbdCluster::new(n, f, clients, spec).metered(),
            nu,
            seed,
        );
        row(
            &mut t,
            "ABD (gossip)",
            GossipCluster::new(n, f, clients, spec).metered(),
            nu,
            seed,
        );
        row(
            &mut t,
            "CAS",
            CasCluster::new(n, f, clients, spec).metered(),
            nu,
            seed,
        );
        row(
            &mut t,
            "Hashed CAS",
            HashedCluster::new(n, f, clients, spec).metered(),
            nu,
            seed,
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_table_rows_balance() {
        let t = metrics_table(5, 1, &[1, 2], 7);
        assert_eq!(t.rows.len(), 8); // 4 algorithms x 2 workloads
        for r in &t.rows {
            // sent == delivered is asserted inside; spot-check the rest.
            assert_eq!(r[2], r[3], "{}: sent != delivered", r[0]);
            assert!(r[5].parse::<u64>().unwrap() > 0, "{}: no ops", r[0]);
        }
        // Deterministic: same inputs, byte-identical rows.
        assert_eq!(t.rows, metrics_table(5, 1, &[1, 2], 7).rows);
    }
}
