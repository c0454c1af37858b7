//! The coded shared store's storage frontier (gated by `tests/store_gate.rs`).

use shmem_algorithms::value::ValueSpec;

/// Steady-state per-key storage of the coded shared store on the paper's
/// frontier: `N = 5, f = 1`, storage-optimal code (`k = N − f`), GC depth
/// 0. Returns `(measured per-key storage, N/(N−f) bound)` — the two must
/// be *exactly* equal.
pub fn store_storage_frontier() -> (f64, f64) {
    use shmem_algorithms::backend::CasBackend;
    use shmem_algorithms::cas::ShardedCasConfig;
    use shmem_algorithms::multikey::ShardMap;
    use shmem_algorithms::tag::Tag;

    let (n, f) = (5u32, 1u32);
    let cfg = ShardedCasConfig::coded(ShardMap::full(n), f, ValueSpec::from_bits(64.0)).with_gc(0);
    let code = cfg.code();
    let keys = 64u64;
    let rounds = 3u64;

    let mut backends: Vec<shmem_store::StoreCasBackend> = (0..n)
        .map(|i| shmem_store::StoreCasBackend::new(cfg.clone(), i, 0))
        .collect();
    for key in 0..keys {
        for round in 1..=rounds {
            let tag = Tag::new(round, 0);
            let shares = code.encode_bytes(&ValueSpec::to_bytes(round * 17));
            for (i, backend) in backends.iter_mut().enumerate() {
                backend.pre_write(key, tag, shares[i].clone());
            }
            for backend in &mut backends {
                backend.finalize(key, tag);
            }
        }
    }
    let state_bits: f64 = backends
        .iter()
        .map(|b| b.total_versions() as f64 * cfg.symbol_bits())
        .sum();
    let per_key = state_bits / (keys as f64 * 64.0);
    (per_key, f64::from(n) / f64::from(n - f))
}
