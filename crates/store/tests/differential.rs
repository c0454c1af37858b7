//! Sequential-reference differential tests: the store-backed protocols
//! are *byte-identical* to the legacy in-struct servers when driven
//! single-threaded.
//!
//! For each protocol over both backends (`ShardedAbd` /
//! `ShardedAbd<StoreAbdBackend>`, and likewise `ShardedCas` and
//! `ShardedHashed`) the same seeded workload and schedule drive both worlds; the [`StepInfo`] traces, the
//! op-for-op responses, and the full simulator digests (which fold in
//! every server's `Node::digest`, i.e. the backend's canonical state
//! hash) must match exactly — at batch size 1 and batch size 16, and
//! once more over a keyspace wide enough that every stripe of the store
//! holds keys, so the digest's stripe merge is compared too. Per-key
//! projections of the store-backed runs must also pass the unchanged
//! `shmem-spec` atomicity checker.

use shmem_algorithms::abd::{ShardedAbd, ShardedAbdClient, ShardedAbdServer, ShardedAbdServerOn};
use shmem_algorithms::backend::{CasBackend, LocalHashed};
use shmem_algorithms::cas::{
    ShardedCas, ShardedCasClient, ShardedCasConfig, ShardedCasServer, ShardedCasServerOn,
};
use shmem_algorithms::hashed::{
    ShardedHashed, ShardedHashedClient, ShardedHashedServer, ShardedHashedServerOn,
};
use shmem_algorithms::workloads::ZipfKeys;
use shmem_algorithms::{project_histories, Key, MultiInv, MultiResp, ShardMap, Value, ValueSpec};
use shmem_sim::{ClientId, Protocol, ServerId, Sim, SimConfig, StepInfo};
use shmem_spec::check_atomic;
use shmem_store::{StoreAbdBackend, StoreCasBackend, StoreHashedBackend};
use shmem_util::DetRng;

const SPEC: f64 = 64.0;
const N: u32 = 5;
const F: u32 = 1;
const CLIENTS: u32 = 3;
const ROUNDS: u64 = 4;
const UNIVERSE: u64 = 32;

/// Drives `sim` through `ROUNDS` rounds of concurrent batched ops (two
/// writers, one reader — homogeneous batches) under a workload and
/// schedule derived only from `seed`, then drains to quiescence.
/// Returns the step trace and the final simulator digest.
fn run_world<P>(sim: &mut Sim<P>, seed: u64, batch: usize) -> (Vec<StepInfo>, u64)
where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
{
    let zipf = ZipfKeys::new(UNIVERSE, 0.99);
    let mut workload = DetRng::seed_from_u64(seed);
    let mut sched = DetRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut trace = Vec::new();
    let mut next: Value = 0;
    for _round in 0..ROUNDS {
        for c in 0..CLIENTS {
            let keys = zipf.sample_batch(&mut workload, batch);
            let inv = if c.is_multiple_of(2) {
                let pairs: Vec<(Key, Value)> = keys
                    .iter()
                    .map(|&k| {
                        next += 1;
                        (k, next)
                    })
                    .collect();
                MultiInv::writes(&pairs)
            } else {
                MultiInv::reads(&keys)
            };
            sim.invoke(ClientId(c), inv).unwrap();
        }
        while (0..CLIENTS).any(|c| sim.has_open_op(ClientId(c))) {
            let info = sim
                .step_with(|opts| sched.gen_range(0..opts.len()))
                .expect("open ops but no deliverable step");
            trace.push(info);
            assert!(trace.len() < 1_000_000, "runaway schedule");
        }
    }
    while let Some(info) = sim.step_with(|opts| sched.gen_range(0..opts.len())) {
        trace.push(info);
    }
    (trace, sim.digest())
}

/// Runs both worlds and asserts byte-identity: traces, responses, and
/// digests; then checks the store world's per-key projections atomic.
fn assert_equivalent<L, S>(legacy: &mut Sim<L>, store: &mut Sim<S>, seed: u64, batch: usize)
where
    L: Protocol<Inv = MultiInv, Resp = MultiResp>,
    S: Protocol<Inv = MultiInv, Resp = MultiResp>,
{
    let (lt, ld) = run_world(legacy, seed, batch);
    let (st, sd) = run_world(store, seed, batch);
    assert_eq!(
        lt, st,
        "seed {seed} batch {batch}: store backend diverged from legacy trace"
    );
    assert_eq!(
        ld, sd,
        "seed {seed} batch {batch}: digest mismatch — backend state not canonical"
    );
    assert_eq!(legacy.ops().len(), store.ops().len());
    for (l, s) in legacy.ops().iter().zip(store.ops()) {
        assert_eq!(l.invoked_at, s.invoked_at, "seed {seed} batch {batch}");
        assert_eq!(l.responded_at, s.responded_at, "seed {seed} batch {batch}");
        assert_eq!(
            l.response, s.response,
            "seed {seed} batch {batch}: response mismatch"
        );
    }
    for (key, h) in project_histories(0, store.ops()) {
        assert!(
            check_atomic(&h).is_ok(),
            "seed {seed} batch {batch} key {key}: store projection not atomic"
        );
    }
}

fn abd_worlds() -> (Sim<ShardedAbd>, Sim<ShardedAbd<StoreAbdBackend>>) {
    let spec = ValueSpec::from_bits(SPEC);
    let map = ShardMap::full(N);
    let legacy = Sim::new(
        SimConfig::without_gossip(),
        (0..N).map(|_| ShardedAbdServer::new(0, spec)).collect(),
        (0..CLIENTS)
            .map(|c| ShardedAbdClient::new(map, c))
            .collect(),
    );
    let store = Sim::new(
        SimConfig::without_gossip(),
        (0..N)
            .map(|_| ShardedAbdServerOn::with_backend(0, spec, StoreAbdBackend::new()))
            .collect(),
        (0..CLIENTS)
            .map(|c| ShardedAbdClient::new(map, c))
            .collect(),
    );
    (legacy, store)
}

fn cas_worlds(cfg: &ShardedCasConfig) -> (Sim<ShardedCas>, Sim<ShardedCas<StoreCasBackend>>) {
    let legacy = Sim::new(
        SimConfig::without_gossip(),
        (0..N)
            .map(|i| ShardedCasServer::new(cfg.clone(), ServerId(i), 0))
            .collect(),
        (0..CLIENTS)
            .map(|c| ShardedCasClient::new(cfg.clone(), c))
            .collect(),
    );
    let store = Sim::new(
        SimConfig::without_gossip(),
        (0..N)
            .map(|i| {
                ShardedCasServerOn::with_backend(
                    cfg.clone(),
                    ServerId(i),
                    StoreCasBackend::new(cfg.clone(), i, 0),
                )
            })
            .collect(),
        (0..CLIENTS)
            .map(|c| ShardedCasClient::new(cfg.clone(), c))
            .collect(),
    );
    (legacy, store)
}

/// The two hashed worlds, plus a handle on each store-world server's
/// store (for looking at it from outside the simulator).
fn hashed_worlds(
    cfg: &ShardedCasConfig,
) -> (
    Sim<ShardedHashed>,
    Sim<ShardedHashed<StoreHashedBackend>>,
    Vec<StoreHashedBackend>,
) {
    let backends: Vec<StoreHashedBackend> = (0..N)
        .map(|i| StoreHashedBackend::new(cfg.clone(), i, 0))
        .collect();
    let legacy = Sim::new(
        SimConfig::without_gossip(),
        (0..N)
            .map(|i| ShardedHashedServer::new(cfg.clone(), ServerId(i), 0))
            .collect(),
        (0..CLIENTS)
            .map(|c| ShardedHashedClient::new(cfg.clone(), c))
            .collect(),
    );
    let store = Sim::new(
        SimConfig::without_gossip(),
        (0..N)
            .map(|i| {
                ShardedHashedServerOn::with_backend(
                    cfg.clone(),
                    ServerId(i),
                    backends[i as usize].clone(),
                )
            })
            .collect(),
        (0..CLIENTS)
            .map(|c| ShardedHashedClient::new(cfg.clone(), c))
            .collect(),
    );
    (legacy, store, backends)
}

#[test]
fn store_abd_matches_legacy_batch_1_and_16() {
    for batch in [1usize, 16] {
        for seed in 0..4u64 {
            let (mut legacy, mut store) = abd_worlds();
            assert_equivalent(&mut legacy, &mut store, seed, batch);
        }
    }
}

#[test]
fn store_cas_matches_legacy_batch_1_and_16() {
    let cfg = ShardedCasConfig::native(ShardMap::full(N), F, ValueSpec::from_bits(SPEC));
    for batch in [1usize, 16] {
        for seed in 0..4u64 {
            let (mut legacy, mut store) = cas_worlds(&cfg);
            assert_equivalent(&mut legacy, &mut store, seed, batch);
        }
    }
}

#[test]
fn store_cas_matches_legacy_under_gc() {
    let cfg = ShardedCasConfig::native(ShardMap::full(N), F, ValueSpec::from_bits(SPEC)).with_gc(0);
    for seed in 0..4u64 {
        let (mut legacy, mut store) = cas_worlds(&cfg);
        assert_equivalent(&mut legacy, &mut store, seed, 4);
    }
}

#[test]
fn store_hashed_matches_legacy_batch_1_and_16() {
    let cfg = ShardedCasConfig::native(ShardMap::full(N), F, ValueSpec::from_bits(SPEC));
    for batch in [1usize, 16] {
        for seed in 0..4u64 {
            let (mut legacy, mut store, _) = hashed_worlds(&cfg);
            assert_equivalent(&mut legacy, &mut store, seed, batch);
        }
    }
}

/// Writes every key of `0..keys` once, in batches of 16, draining each
/// write to quiescence (so every server has seen it) on a fixed schedule
/// — the same steps in either world.
fn preload<P>(sim: &mut Sim<P>, keys: u64)
where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
{
    for base in (0..keys).step_by(16) {
        let pairs: Vec<(Key, Value)> = (base..base + 16).map(|k| (k, 1_000 + k)).collect();
        sim.invoke(ClientId(0), MultiInv::writes(&pairs)).unwrap();
        while sim.step_with(|_| 0).is_some() {}
        assert!(!sim.has_open_op(ClientId(0)));
    }
}

/// The stripe merge: with 256 keys preloaded every stripe of every
/// server's store is populated (asserted, not assumed), so the digests
/// compared afterwards are digests of a 64-way merge — shares, finalize
/// labels and the hash side-table alike — against the reference's one
/// map.
#[test]
fn store_hashed_matches_legacy_with_every_stripe_populated() {
    const WIDE: u64 = 256;
    let cfg = ShardedCasConfig::native(ShardMap::full(N), F, ValueSpec::from_bits(SPEC)).with_gc(0);
    let (mut legacy, mut store, backends) = hashed_worlds(&cfg);
    preload(&mut legacy, WIDE);
    preload(&mut store, WIDE);
    for (i, backend) in backends.iter().enumerate() {
        let held = backend.store().per_stripe(LocalHashed::keys_held);
        assert!(
            held.iter().all(|&keys| keys > 0),
            "server {i}: a stripe is empty after the preload: {held:?}"
        );
    }
    assert_equivalent(&mut legacy, &mut store, 7, 16);
}
