//! Acceptance gate for the shared store's storage: the coded store at
//! `N = 5, f = 1` with a storage-optimal code and GC depth 0 sits
//! *exactly* on the paper's `N/(N-f)` frontier — per-key storage 1.250,
//! no slack, in every build profile. (The throughput floor — 4 threads
//! not below the sequential `LocalAbd` in the same run — is a
//! `perf_smoke` ratio.)

use shmem_bench::measured::store_storage_frontier;

#[test]
fn coded_store_sits_exactly_on_storage_frontier() {
    let (per_key, bound) = store_storage_frontier();
    assert!(
        (bound - 1.25).abs() < 1e-12,
        "N=5, f=1 bound should be 1.250, got {bound}"
    );
    assert!(
        (per_key - bound).abs() < 1e-9,
        "coded store off the N/(N-f) frontier: per-key {per_key} vs bound {bound}"
    );
}
