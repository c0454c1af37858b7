//! `tab-shard`: batched quorum rounds over a sharded keyspace.

use crate::render::Table;
use shmem_algorithms::value::ValueSpec;
use shmem_bounds::SystemParams;
use shmem_sim::ServerId;

/// `tab-shard`: batched quorum rounds over a sharded multi-register
/// keyspace — the cost side of the sharding tentpole.
///
/// Sweeps cluster shape (shard count at fixed per-shard replication),
/// keyspace size, and batch size over the storage-optimal coded CAS
/// profile (`k = replicas − f`, GC depth 0). Each row runs the same
/// seeded Zipf(0.99) workload of batched writes and reads, then drains
/// to quiescence and reports:
///
/// - `msgs/op` and `wire B/op`: delivered messages and exact wire bytes
///   per *key-operation* (one key in one batch counts as one op). The
///   lockstep barrier makes a quorum round cost one message per
///   (client, server) pair regardless of how many keys it carries, so
///   both columns fall roughly linearly in the batch size.
/// - `per-key storage`: steady-state value-bearing bits per touched key,
///   normalized by `log2 |V|`, against the `ν·N/(N−f)` erasure-coding
///   bound from the catalogue (at `ν = 1`, per shard: `N = replicas`).
/// - `aggregate`: total normalized storage across all touched keys,
///   against `touched · N/(N−f)`.
///
/// With GC depth 0 and a drained cluster the measured per-key point sits
/// exactly on the bound — the table shows messages amortizing with batch
/// size while storage stays pinned to the MDS frontier.
pub fn shard_table(seed: u64) -> Table {
    use shmem_algorithms::cas::{ShardedCas, ShardedCasConfig};
    use shmem_algorithms::harness::ShardedCasCluster;
    use shmem_algorithms::multikey::ShardMap;
    use shmem_algorithms::workloads::{run_zipf_batches, ZipfKeys};
    use shmem_sim::Node;

    let spec = ValueSpec::from_bits(64.0);
    let f = 1u32;
    let mut t = Table::new(
        "Sharded keyspace, batched quorum rounds (coded CAS, f=1 per shard, 64-bit values)",
        &[
            "servers",
            "shards",
            "replicas",
            "keys",
            "batch",
            "key-ops",
            "msgs/op",
            "wire B/op",
            "per-key storage",
            "bound N/(N-f)",
            "aggregate",
            "agg bound",
            "bound ok",
        ],
    );
    for &(n, shards) in &[(5u32, 1u32), (10, 2), (15, 3)] {
        let replicas = 5u32;
        let map = ShardMap::new(n, shards, replicas);
        let p = SystemParams::new(replicas, f).expect("valid shard parameters");
        let bound = shmem_bounds::Bound::ErasureCoded
            .normalized_total(p, 1)
            .expect("coded bound is defined")
            .to_f64();
        for &keys in &[16u64, 64] {
            for &batch in &[1usize, 4, 16] {
                let cfg = ShardedCasConfig::coded(map, f, spec).with_gc(0);
                let mut cl = ShardedCasCluster::from_config(cfg, 4).metered();
                let zipf = ZipfKeys::new(keys, 0.99);
                let rounds = 3u32;
                run_zipf_batches(&mut cl, &zipf, 2, 2, batch, rounds, seed).expect("zipf workload");
                cl.sim.run_to_quiescence().expect("drains");
                let ops = u64::from(rounds) * 4 * batch as u64;
                let m = cl.metrics();
                let msgs_per_op = m.global().delivered as f64 / ops as f64;
                let wire_per_op = m.wire_bytes() as f64 / ops as f64;
                let total_bits: f64 = (0..n)
                    .map(|s| Node::<ShardedCas>::state_bits(cl.sim.server(ServerId(s))))
                    .sum();
                // Fault-free and drained: every touched key is materialized
                // on exactly its `replicas` servers.
                let touched: f64 = (0..n)
                    .map(|s| cl.sim.server(ServerId(s)).keys_held() as f64)
                    .sum::<f64>()
                    / f64::from(replicas);
                let per_key = total_bits / (touched * 64.0);
                let aggregate = total_bits / 64.0;
                let agg_bound = touched * bound;
                let ok = per_key <= bound + 1e-9 && aggregate <= agg_bound + 1e-9;
                t.push(vec![
                    n.to_string(),
                    shards.to_string(),
                    replicas.to_string(),
                    keys.to_string(),
                    batch.to_string(),
                    ops.to_string(),
                    format!("{msgs_per_op:.3}"),
                    format!("{wire_per_op:.1}"),
                    format!("{per_key:.3}"),
                    format!("{bound:.3}"),
                    format!("{aggregate:.3}"),
                    format!("{agg_bound:.3}"),
                    ok.to_string(),
                ]);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_table_batching_amortizes_messages() {
        let t = shard_table(42);
        assert_eq!(t.rows.len(), 18);
        let cell = |shards: &str, keys: &str, batch: &str, col: usize| -> f64 {
            t.rows
                .iter()
                .find(|r| r[1] == shards && r[3] == keys && r[4] == batch)
                .unwrap_or_else(|| panic!("{shards}/{keys}/{batch}"))[col]
                .parse()
                .unwrap()
        };
        // Batch 16 amortizes the quorum round. A batch that spans s shards
        // contacts s * replicas servers, so the per-key-op reduction vs the
        // unbatched baseline is batch/s: 16x on the full map, 8x at two
        // shards, 16/3 at three.
        for (shards, factor) in [("1", 16.0), ("2", 8.0), ("3", 16.0 / 3.0)] {
            let unbatched = cell(shards, "64", "1", 6);
            let batched = cell(shards, "64", "16", 6);
            assert!(
                unbatched >= factor * batched * 0.999,
                "shards={shards}: {unbatched} vs {batched}"
            );
            // Wire bytes drop too, but only by the per-message-header
            // fraction: the coded payload itself scales with the keys.
            let wire1 = cell(shards, "64", "1", 7);
            let wire16 = cell(shards, "64", "16", 7);
            assert!(wire1 > wire16, "wire {wire1} vs {wire16}");
        }
        // Storage stays pinned to the nu*N/(N-f) frontier in every cell.
        assert!(t.rows.iter().all(|r| r[12] == "true"));
        for r in &t.rows {
            let per_key: f64 = r[8].parse().unwrap();
            let bound: f64 = r[9].parse().unwrap();
            assert!((per_key - bound).abs() < 1e-6, "{per_key} vs {bound}");
        }
    }
}
