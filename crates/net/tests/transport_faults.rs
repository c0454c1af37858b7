//! Transport fault injection: kill/restart servers mid-load, sever
//! pooled connections, and starve quorums — the net layer must degrade
//! exactly like the paper's crash-stop model. Operations complete (when
//! a quorum survives) or surface as incomplete (when it does not);
//! *never* do the recorded histories violate atomicity.
//!
//! These tests drive [`NetCluster`] directly rather than through
//! [`shmem_net::NetScenario`] because fault injection needs the cluster
//! handle while the load is in flight; the overload test goes one level
//! lower, to the hub and the two loops, because it needs to hold an
//! endpoint that nobody serves.

use shmem_algorithms::abd::{ShardedAbd, ShardedAbdClient, ShardedAbdServer};
use shmem_algorithms::cas::{ShardedCas, ShardedCasClient, ShardedCasConfig, ShardedCasServer};
use shmem_algorithms::multikey::{project_histories, ShardMap};
use shmem_algorithms::value::ValueSpec;
use shmem_net::client::run_worker;
use shmem_net::{
    serve_until, InProcHub, LoadConfig, LoadHandle, NetBackend, NetCluster, Transport,
};
use shmem_sim::{ClientId, NodeId, ServerId};
use shmem_spec::check_atomic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const N: u32 = 5;
const F: u32 = 1;
/// How long a broken run may take to fail a wait; never a schedule.
const DEADLINE: Duration = Duration::from_secs(20);

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

/// Waits until `ready` holds, failing the test if `deadline` passes first.
fn wait_for(what: &str, deadline: Duration, mut ready: impl FnMut() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(
            start.elapsed() < deadline,
            "gave up after {deadline:?} waiting for {what}"
        );
        thread::yield_now();
    }
}

/// Waits until each of `pools` TCP client pools has connected to all `N`
/// servers: every worker's first fan-out is out, so the load is in flight.
fn wait_until_connected(handle: &LoadHandle, pools: usize) {
    let connects = pools as u64 * u64::from(N);
    wait_for("every pool to connect", DEADLINE, || {
        handle.connects() >= connects
    });
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

    wait_until_connected(&handle, lc.workers);
    // `kill_server` returns once the server's loop has stopped and its
    // connections are reset, so the restart follows an observed crash.
    cluster.kill_server(0);
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

/// The permanent-crash cell: servers killed at `kills` and never
/// restarted are exactly the crashes the algorithms are proved against
/// while a quorum survives — the load finishes against the survivors.
fn permanent_crash_cell(mut cluster: NetCluster<ShardedAbd>, kills: &[usize]) {
    let lc = load(10, 60);
    let map = ShardMap::full(N);
    let handle = cluster.spawn_load(&lc, move |id| ShardedAbdClient::new(map, id.0));

    // An in-process load has no pools: it is in flight once spawned.
    let pools = if cluster.addrs().is_some() {
        lc.workers
    } else {
        0
    };
    wait_until_connected(&handle, pools);
    for &kill in kills {
        cluster.kill_server(kill);
    }

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
    permanent_crash_cell(abd_cluster(NetBackend::Tcp), &[N as usize - 1]);
}

/// ABD's majority quorum survives two of five crashes: the pools drop
/// frames for both dead servers without stalling on them.
#[test]
fn tcp_load_tolerates_two_permanent_server_crashes() {
    permanent_crash_cell(abd_cluster(NetBackend::Tcp), &[0, 3]);
}

/// Severing every pooled connection mid-load forces the reconnect path:
/// the pool re-reads the address table, redials the live servers, and
/// the load completes with no correctness wobble. The grown connect
/// counter is the proof the path ran.
#[test]
fn tcp_load_reconnects_after_connection_sever() {
    let cluster = abd_cluster(NetBackend::Tcp);
    let map = ShardMap::full(N);
    let lc = load(12, 80);
    let handle = cluster.spawn_load(&lc, move |id| ShardedAbdClient::new(map, id.0));

    // Sever as soon as every pool is connected, while each worker still
    // has nearly all of its operations to run.
    wait_until_connected(&handle, lc.workers);
    let before = handle.connects();
    handle.sever_connections();
    // The closed loop keeps sending (or retransmitting), so the first
    // post-sever send reconnects.
    wait_for("a pool to reconnect", DEADLINE, || {
        handle.connects() > before
    });
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

    wait_until_connected(&handle, lc.workers);
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
    permanent_crash_cell(abd_cluster(NetBackend::InProc), &[2]);
}

/// Overload: a server whose endpoint exists but is never served is a
/// queue nobody drains. Its inbox fills to the bound and stays there —
/// the excess is dropped newest-first and counted — while the four
/// served servers carry every operation to completion.
#[test]
fn unserved_inbox_stops_at_its_bound_and_the_load_completes() {
    // `transport.rs`' private `INBOX_BOUND`.
    const INBOX_BOUND: u64 = 65_536;
    let hub = InProcHub::new();
    let stop = Arc::new(AtomicBool::new(false));
    let served: Vec<_> = (0..N - 1)
        .map(|i| {
            let (endpoint, stop) = (hub.endpoint(&[NodeId::Server(ServerId(i))]), stop.clone());
            let automaton = ShardedAbdServer::new(0, ValueSpec::from_bits(64.0));
            thread::spawn(move || {
                serve_until::<ShardedAbd, _>(automaton, ServerId(i), endpoint, stop)
            })
        })
        .collect();
    let mut unserved = hub.endpoint(&[NodeId::Server(ServerId(N - 1))]);

    // Two messages per operation reach every server, so a little over
    // half the bound in operations overfills the fifth inbox.
    let lc = LoadConfig {
        clients: 64,
        workers: 1,
        ops_per_client: 520,
        batch: 1,
        keyspace: 4096,
        ..load(0, 0)
    };
    let ids: Vec<ClientId> = (0..lc.clients).map(ClientId).collect();
    let nodes: Vec<NodeId> = ids.iter().map(|&c| NodeId::Client(c)).collect();
    let map = ShardMap::full(N);
    let report = run_worker::<ShardedAbd, _>(
        hub.endpoint(&nodes),
        ids,
        |id| ShardedAbdClient::new(map, id.0),
        &lc,
        Instant::now(),
    );
    stop.store(true, Ordering::Release);
    for server in served {
        server.join().expect("server thread panicked");
    }

    assert_eq!(report.retired, 0, "four of five is a quorum");
    assert_eq!(
        report.completed,
        u64::from(lc.clients) * lc.ops_per_client as u64
    );
    assert_all_atomic(&report.records);
    // Every fan-out addresses all N servers, retransmissions included.
    let sent_to_unserved = report.msgs_sent / u64::from(N);
    assert!(sent_to_unserved > INBOX_BOUND, "{sent_to_unserved} sent");
    assert_eq!(unserved.dropped(), sent_to_unserved - INBOX_BOUND);
    let mut held = 0;
    while unserved.recv_timeout(Duration::ZERO).unwrap().is_some() {
        held += 1;
    }
    assert_eq!(held, INBOX_BOUND, "depth never passed the bound");
}
