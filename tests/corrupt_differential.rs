//! Corruption differential: one adversary definition, three layers,
//! identical per-key verdicts.
//!
//! The corruption adversary exists at three seams — the simulator tampers
//! *stored* server state (`Sim::corrupt_server_state`), the net layer
//! tampers *in-flight* frames post-codec (`CorruptingTransport`), and the
//! store-backed server tampers the *serving* path
//! (`CorruptingBackend`). All three bottom out in the same `shmem-util`
//! tamper primitives with the same salt, so the same plan — corrupt
//! server 0, leave the rest honest — must produce the same per-key
//! verdict map in every world, at batch 1 and batch 16:
//!
//! * **plain CAS**: every key ends `Silent` — a completed read returned a
//!   value nobody wrote, and nothing in the protocol noticed;
//! * **hashed CAS**: every key ends `Detected` — tampered shares decode
//!   to values whose digest mismatches the announced hash, the read fails
//!   loudly, and no fabricated value is ever returned.
//!
//! The workloads saturate every key with enough reads that the verdict
//! per key is determined by the protocol, not by which quorum a
//! particular read happened to draw.

use shmem_algorithms::cas::{
    ShardedCas, ShardedCasClient, ShardedCasConfig, ShardedCasServer, ShardedCasServerOn,
};
use shmem_algorithms::corrupt::modes;
use shmem_algorithms::hashed::{
    ShardedHashed, ShardedHashedClient, ShardedHashedServer, ShardedHashedServerOn,
};
use shmem_algorithms::{project_histories, Key, MultiInv, MultiResp, RegResp, ShardMap, ValueSpec};
use shmem_erasure::CodeError;
use shmem_net::{LoadConfig, NetAlgorithm, NetBackend, NetCluster, NetCorruption, NetScenario};
use shmem_sim::{ClientId, OpRecord, Protocol, ServerId, Sim, SimConfig};
use shmem_spec::check_no_fabrication;
use shmem_store::{CorruptingBackend, StoreCasBackend, StoreHashedBackend};
use shmem_util::DetRng;
use std::collections::BTreeMap;

const N: u32 = 5;
const F: u32 = 1;
const KEYSPACE: u64 = 16;
/// The one Byzantine server. Index 0 on purpose: readers assemble decode
/// sets in server order, so the corrupt share is used whenever server 0
/// makes the quorum.
const CORRUPT_SERVER: u32 = 0;
/// One salt across all three worlds — the tamper primitives are
/// deterministic in `(salt, key)`, so this is what "the same plan" means.
const SALT: u64 = 0x00DD_5A17;
/// Read passes over the keyspace in the sim world (two readers each).
const READ_ROUNDS: usize = 5;

fn value_spec() -> ValueSpec {
    ValueSpec::from_bits(64.0)
}

fn cas_config() -> ShardedCasConfig {
    ShardedCasConfig::native(ShardMap::full(N), F, value_spec())
}

/// Per-key outcome of a corrupted run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KeyVerdict {
    /// Every completed read of the key returned a written value and no
    /// read failed an integrity check.
    Clean,
    /// At least one read failed with `IntegrityMismatch` and no completed
    /// read returned a fabricated value — corruption happened and was
    /// caught.
    Detected,
    /// A completed read returned a value nobody wrote — corruption
    /// happened and nothing noticed.
    Silent,
}

/// Classifies every touched key. `Silent` wins over `Detected`: a key
/// where some reads were caught and another fabrication still completed
/// is a safety violation, not a success story.
fn verdicts(records: &[OpRecord<MultiInv, MultiResp>]) -> BTreeMap<Key, KeyVerdict> {
    let mut out: BTreeMap<Key, KeyVerdict> = BTreeMap::new();
    for (key, history) in project_histories(0, records) {
        let verdict = if check_no_fabrication(&history).is_err() {
            KeyVerdict::Silent
        } else {
            KeyVerdict::Clean
        };
        out.insert(key, verdict);
    }
    for record in records {
        let Some(resp) = &record.response else {
            continue;
        };
        for (key, r) in &resp.ops {
            if matches!(r, RegResp::ReadFailed(CodeError::IntegrityMismatch)) {
                let v = out.entry(*key).or_insert(KeyVerdict::Detected);
                if *v == KeyVerdict::Clean {
                    *v = KeyVerdict::Detected;
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------- sim --

fn drain<P>(sim: &mut Sim<P>, sched: &mut DetRng)
where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
{
    let mut steps = 0u64;
    while sim
        .step_with(|opts| sched.gen_range(0..opts.len()))
        .is_some()
    {
        steps += 1;
        assert!(steps < 1_000_000, "runaway schedule");
    }
}

/// The sim world: write every key, tamper server 0's stored state once
/// (every key's newest finalized share), then read every key
/// `2 × READ_ROUNDS` times under a seeded random schedule.
fn run_sim<P>(sim: &mut Sim<P>, batch: usize, seed: u64) -> BTreeMap<Key, KeyVerdict>
where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
{
    let keys: Vec<Key> = (0..KEYSPACE).collect();
    let batch = batch.min(keys.len()).max(1);
    let mut values = DetRng::seed_from_u64(seed);
    let mut sched = DetRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for chunk in keys.chunks(batch) {
        let pairs: Vec<(Key, u64)> = chunk.iter().map(|&k| (k, values.next_u64())).collect();
        sim.invoke(ClientId(0), MultiInv::writes(&pairs)).unwrap();
        drain(sim, &mut sched);
    }
    sim.corrupt_server_state(ServerId(CORRUPT_SERVER), modes::BITFLIP, SALT)
        .expect("server 0 holds finalized versions to tamper");
    for _ in 0..READ_ROUNDS {
        for chunk in keys.chunks(batch) {
            sim.invoke(ClientId(1), MultiInv::reads(chunk)).unwrap();
            sim.invoke(ClientId(2), MultiInv::reads(chunk)).unwrap();
            drain(sim, &mut sched);
        }
    }
    verdicts(sim.ops())
}

fn sim_cas(batch: usize, seed: u64) -> BTreeMap<Key, KeyVerdict> {
    let cfg = cas_config();
    let mut sim: Sim<ShardedCas> = Sim::new(
        SimConfig::without_gossip(),
        (0..N)
            .map(|i| ShardedCasServer::new(cfg.clone(), ServerId(i), 0))
            .collect(),
        (0..3)
            .map(|c| ShardedCasClient::new(cfg.clone(), c))
            .collect(),
    );
    run_sim(&mut sim, batch, seed)
}

fn sim_hashed(batch: usize, seed: u64) -> BTreeMap<Key, KeyVerdict> {
    let cfg = cas_config();
    let mut sim: Sim<ShardedHashed> = Sim::new(
        SimConfig::without_gossip(),
        (0..N)
            .map(|i| ShardedHashedServer::new(cfg.clone(), ServerId(i), 0))
            .collect(),
        (0..3)
            .map(|c| ShardedHashedClient::new(cfg.clone(), c))
            .collect(),
    );
    run_sim(&mut sim, batch, seed)
}

// ---------------------------------------------------------------- net --

fn net_load(batch: usize, seed: u64) -> LoadConfig {
    LoadConfig {
        clients: 8,
        workers: 4,
        // Batch-1 ops touch one key each, so they need more of them to
        // saturate every key with reads.
        ops_per_client: if batch >= KEYSPACE as usize { 16 } else { 64 },
        batch,
        keyspace: KEYSPACE,
        write_ratio: 0.5,
        seed,
        ..LoadConfig::default()
    }
}

/// The net world: the same unmodified servers, with server 0's transport
/// wrapped in an armed [`CorruptingTransport`] by the harness.
fn net_world(algorithm: NetAlgorithm, batch: usize, seed: u64) -> BTreeMap<Key, KeyVerdict> {
    let mut scenario = NetScenario::new(algorithm, NetBackend::InProc);
    scenario.corrupt = Some(NetCorruption::new(vec![CORRUPT_SERVER], SALT));
    scenario.load = net_load(batch, seed);
    let outcome = scenario.run();
    assert_eq!(
        outcome.report.retired,
        0,
        "{} batch {batch}: corruption must not stall operations",
        algorithm.name()
    );
    let expected = u64::from(scenario.load.clients) * scenario.load.ops_per_client as u64;
    assert_eq!(outcome.report.completed, expected);
    verdicts(&outcome.report.records)
}

// -------------------------------------------------------------- store --

/// The store world: every server is one automaton over a striped store,
/// behind a [`CorruptingBackend`] that is armed on server 0 only.
fn store_cas_world(batch: usize, seed: u64) -> BTreeMap<Key, KeyVerdict> {
    let cfg = cas_config();
    let servers = (0..N)
        .map(|i| {
            let store = StoreCasBackend::new(cfg.clone(), i, 0);
            let mut backend = CorruptingBackend::new(store, SALT);
            backend.arm(i == CORRUPT_SERVER);
            ShardedCasServerOn::with_backend(cfg.clone(), ServerId(i), backend)
        })
        .collect();
    let cluster = NetCluster::<ShardedCas<CorruptingBackend<StoreCasBackend>>>::start(
        NetBackend::InProc,
        servers,
    );
    let load = net_load(batch, seed);
    let client_cfg = cfg.clone();
    let handle = cluster.spawn_load(&load, move |id| {
        ShardedCasClient::new(client_cfg.clone(), id.0)
    });
    let report = handle.join();
    cluster.shutdown();
    assert_eq!(report.retired, 0, "store cas batch {batch}: stalled ops");
    verdicts(&report.records)
}

fn store_hashed_world(batch: usize, seed: u64) -> BTreeMap<Key, KeyVerdict> {
    let cfg = cas_config();
    let servers = (0..N)
        .map(|i| {
            let store = StoreHashedBackend::new(cfg.clone(), i, 0);
            let mut backend = CorruptingBackend::new(store, SALT);
            backend.arm(i == CORRUPT_SERVER);
            ShardedHashedServerOn::with_backend(cfg.clone(), ServerId(i), backend)
        })
        .collect();
    let cluster = NetCluster::<ShardedHashed<CorruptingBackend<StoreHashedBackend>>>::start(
        NetBackend::InProc,
        servers,
    );
    let load = net_load(batch, seed);
    let client_cfg = cfg.clone();
    let handle = cluster.spawn_load(&load, move |id| {
        ShardedHashedClient::new(client_cfg.clone(), id.0)
    });
    let report = handle.join();
    cluster.shutdown();
    assert_eq!(report.retired, 0, "store hashed batch {batch}: stalled ops");
    verdicts(&report.records)
}

// -------------------------------------------------------------- tests --

fn assert_identical(
    what: &str,
    batch: usize,
    sim: &BTreeMap<Key, KeyVerdict>,
    net: &BTreeMap<Key, KeyVerdict>,
    store: &BTreeMap<Key, KeyVerdict>,
) {
    assert_eq!(sim, net, "{what} batch {batch}: sim vs net verdicts differ");
    assert_eq!(
        sim, store,
        "{what} batch {batch}: sim vs store verdicts differ"
    );
}

#[test]
fn plain_cas_is_silently_corrupted_identically_in_every_world() {
    for batch in [1usize, 16] {
        let sim = sim_cas(batch, 0xCA5 ^ batch as u64);
        let net = net_world(NetAlgorithm::Cas, batch, 0xCA5 ^ batch as u64);
        let store = store_cas_world(batch, 0xCA5 ^ batch as u64);
        assert_identical("cas", batch, &sim, &net, &store);
        assert!(
            sim.values().any(|&v| v == KeyVerdict::Silent),
            "batch {batch}: plain CAS under a corrupt server must fabricate \
             somewhere — the adversary has no teeth ({sim:?})"
        );
        assert!(
            sim.values().all(|&v| v != KeyVerdict::Detected),
            "batch {batch}: plain CAS has no integrity checks to trip ({sim:?})"
        );
    }
}

#[test]
fn hashed_cas_detects_identically_in_every_world() {
    for batch in [1usize, 16] {
        let sim = sim_hashed(batch, 0x4A54 ^ batch as u64);
        let net = net_world(NetAlgorithm::Hashed, batch, 0x4A54 ^ batch as u64);
        let store = store_hashed_world(batch, 0x4A54 ^ batch as u64);
        assert_identical("hashed", batch, &sim, &net, &store);
        assert!(
            sim.values().all(|&v| v != KeyVerdict::Silent)
                && net.values().all(|&v| v != KeyVerdict::Silent)
                && store.values().all(|&v| v != KeyVerdict::Silent),
            "batch {batch}: hashed CAS returned a fabricated value ({sim:?})"
        );
        assert!(
            sim.values().any(|&v| v == KeyVerdict::Detected),
            "batch {batch}: corruption never engaged — the run proves nothing ({sim:?})"
        );
    }
}
