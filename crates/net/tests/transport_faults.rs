//! Transport fault injection: kill/restart servers mid-load, sever
//! pooled connections, and starve quorums — the net layer must degrade
//! exactly like the paper's crash-stop model. Operations complete (when
//! a quorum survives) or surface as incomplete (when it does not);
//! *never* do the recorded histories violate atomicity.
//!
//! These tests drive [`NetCluster`] directly rather than through
//! [`shmem_net::NetScenario`] because fault injection needs the cluster
//! handle while the load is in flight.

use shmem_algorithms::abd::{ShardedAbd, ShardedAbdClient, ShardedAbdServer};
use shmem_algorithms::cas::{ShardedCas, ShardedCasClient, ShardedCasConfig, ShardedCasServer};
use shmem_algorithms::multikey::{project_histories, ShardMap};
use shmem_algorithms::value::ValueSpec;
use shmem_net::{LoadConfig, NetBackend, NetCluster};
use shmem_sim::ServerId;
use shmem_spec::check_atomic;
use std::thread;
use std::time::Duration;

const N: u32 = 5;
const F: u32 = 1;

fn load(clients: u32, ops: usize) -> LoadConfig {
    LoadConfig {
        clients,
        workers: 3,
        ops_per_client: ops,
        batch: 2,
        keyspace: 24,
        write_ratio: 0.5,
        seed: 0xFA_017,
        // Short retransmit so rounds stalled by a fault recover quickly.
        retransmit: Duration::from_millis(100),
        op_timeout: Duration::from_secs(20),
    }
}

fn abd_cluster(backend: NetBackend) -> NetCluster<ShardedAbd> {
    let spec = ValueSpec::from_bits(64.0);
    let servers = (0..N).map(|_| ShardedAbdServer::new(0, spec)).collect();
    NetCluster::start(backend, servers)
}

fn cas_cluster(backend: NetBackend) -> (NetCluster<ShardedCas>, ShardedCasConfig) {
    let cfg = ShardedCasConfig::native(ShardMap::full(N), F, ValueSpec::from_bits(64.0));
    let servers = (0..N)
        .map(|i| ShardedCasServer::new(cfg.clone(), ServerId(i), 0))
        .collect();
    (NetCluster::start(backend, servers), cfg)
}

fn assert_all_atomic(
    records: &[shmem_sim::OpRecord<
        shmem_algorithms::multikey::MultiInv,
        shmem_algorithms::multikey::MultiResp,
    >],
) {
    let histories = project_histories(0, records);
    assert!(!histories.is_empty(), "no keys touched — vacuous check");
    for (key, h) in histories {
        if let Err(v) = check_atomic(&h) {
            panic!("key {key}: atomicity violation under faults: {v}");
        }
    }
}

/// Killing one server (within `f = 1`) and restarting it mid-load must
/// be invisible to correctness — every operation completes against the
/// surviving quorum, the restarted server rejoins on a fresh port with
/// its durable state, and every per-key history stays atomic.
#[test]
fn tcp_load_survives_server_kill_and_restart() {
    let (mut cluster, cfg) = cas_cluster(NetBackend::Tcp);
    let lc = load(12, 80);
    let handle = cluster.spawn_load(&lc, move |id| ShardedCasClient::new(cfg.clone(), id.0));

    thread::sleep(Duration::from_millis(20));
    cluster.kill_server(0);
    thread::sleep(Duration::from_millis(60));
    cluster.restart_server(0);

    let report = handle.join();
    assert_eq!(report.retired, 0, "quorum never lost, nothing may retire");
    assert_eq!(
        report.completed,
        u64::from(lc.clients) * lc.ops_per_client as u64
    );
    assert_all_atomic(&report.records);
    cluster.shutdown();
}

/// The permanent-crash cell: a server killed at `kill` and never
/// restarted is exactly the `f = 1` crash the algorithms are proved
/// against — the load finishes against the survivors.
fn permanent_crash_cell(mut cluster: NetCluster<ShardedAbd>, kill: usize) {
    let lc = load(10, 60);
    let map = ShardMap::full(N);
    let handle = cluster.spawn_load(&lc, move |id| ShardedAbdClient::new(map, id.0));

    thread::sleep(Duration::from_millis(20));
    cluster.kill_server(kill);

    let report = handle.join();
    assert_eq!(report.retired, 0);
    assert_eq!(
        report.completed,
        u64::from(lc.clients) * lc.ops_per_client as u64
    );
    assert_all_atomic(&report.records);
    cluster.shutdown();
}

#[test]
fn tcp_load_tolerates_permanent_server_crash() {
    permanent_crash_cell(abd_cluster(NetBackend::Tcp), N as usize - 1);
}

/// Severing every pooled connection mid-load forces the reconnect path:
/// the pool re-reads the address table, reconnects within its bounded
/// retry/backoff budget, and the load completes with no correctness
/// wobble. The grown connect counter is the proof the path ran.
#[test]
fn tcp_load_reconnects_after_connection_sever() {
    let cluster = abd_cluster(NetBackend::Tcp);
    let map = ShardMap::full(N);
    let lc = load(12, 80);
    let handle = cluster.spawn_load(&lc, move |id| ShardedAbdClient::new(map, id.0));

    thread::sleep(Duration::from_millis(20));
    let before = handle.connects();
    handle.sever_connections();
    // The closed loop keeps sending, so reconnection happens within the
    // first post-sever send; this sleep only gives it wall-clock room.
    thread::sleep(Duration::from_millis(60));
    let after = handle.connects();
    assert!(
        after > before,
        "pool never reconnected: {before} connects before sever, {after} after"
    );
    handle.sever_connections();

    let report = handle.join();
    assert_eq!(report.retired, 0, "reconnection must rescue every op");
    assert_eq!(
        report.completed,
        u64::from(lc.clients) * lc.ops_per_client as u64
    );
    assert_all_atomic(&report.records);
    cluster.shutdown();
}

/// Starving the quorum (two crashes under `f = 1` CAS) must stall, not
/// corrupt: in-flight operations retire as incomplete after the op
/// deadline and the recorded prefix stays atomic. This is the
/// "complete or surface incomplete — never a spec violation" contract.
#[test]
fn quorum_starvation_retires_cleanly_without_violation() {
    let (mut cluster, cfg) = cas_cluster(NetBackend::Tcp);
    let cfg_for_clients = cfg.clone();
    let mut lc = load(8, 40);
    lc.op_timeout = Duration::from_millis(700);
    let handle = cluster.spawn_load(&lc, move |id| {
        ShardedCasClient::new(cfg_for_clients.clone(), id.0)
    });

    thread::sleep(Duration::from_millis(30));
    // Native CAS at N = 5, f = 1 needs a quorum of 4; three survivors
    // cannot host one, so everything in flight from here stalls.
    cluster.kill_server(0);
    cluster.kill_server(1);

    let report = handle.join();
    assert!(
        report.retired > 0,
        "starved quorum should have retired stalled clients"
    );
    // Retired clients never reuse their nonce, so completed + retired
    // accounts for every record exactly once.
    assert_eq!(
        report.records.len() as u64,
        report.completed + report.retired
    );
    assert_all_atomic(&report.records);
    cluster.shutdown();
}

/// The same fault repertoire over the in-process backend: dropping a
/// route is an unplugged cable, and the surviving quorum carries the
/// load. Guards against the fault tolerance being a TCP-only accident.
#[test]
fn inproc_load_tolerates_dropped_server_route() {
    permanent_crash_cell(abd_cluster(NetBackend::InProc), 2);
}
