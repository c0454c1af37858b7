//! Cluster orchestration: spin up server loops and client workers over
//! a chosen backend, run a load, collect histories and storage probes.
//!
//! [`NetCluster`] is the generic machinery (start/kill/restart servers,
//! spawn a load, sever connections); [`NetScenario`] is the convenient
//! front door the tests and the `tab-net` table use — pick an algorithm,
//! a backend, and a [`LoadConfig`], get a [`NetOutcome`] whose histories
//! feed the same `shmem-spec` checkers the simulator uses.

use crate::client::{run_worker, LoadConfig, WorkerReport};
use crate::corrupt::{CorruptingTransport, NetCorruption};
use crate::error::NetError;
use crate::serve::serve_until;
use crate::tcp::{addr_table, AddrTable, PoolFaults, TcpClientTransport, TcpServerTransport};
use crate::transport::InProcHub;
use crate::wire::WireMsg;
use shmem_algorithms::abd::{ShardedAbd, ShardedAbdClient, ShardedAbdServer};
use shmem_algorithms::cas::{ShardedCas, ShardedCasClient, ShardedCasConfig, ShardedCasServer};
use shmem_algorithms::hashed::{ShardedHashed, ShardedHashedClient, ShardedHashedServer};
use shmem_algorithms::multikey::{project_histories, Key, MultiInv, MultiResp, ShardMap};
use shmem_algorithms::value::{Value, ValueSpec};
use shmem_sim::{ClientId, Histogram, Node, NodeId, OpRecord, Protocol, ServerId};
use shmem_spec::{check_atomic, History, Violation};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Which emulation algorithm a net run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetAlgorithm {
    /// Sharded multi-writer ABD (replicated).
    Abd,
    /// Sharded CAS with the native (`k = r − 2f`) code.
    Cas,
    /// Sharded CAS with the storage-optimal (`k = r − f`) code and GC —
    /// the configuration whose steady-state storage meets the paper's
    /// `N/(N−f)` bound exactly.
    CodedCas,
    /// Sharded hashed-CAS (announce-then-write interlock).
    Hashed,
}

impl NetAlgorithm {
    /// Short table/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            NetAlgorithm::Abd => "abd",
            NetAlgorithm::Cas => "cas",
            NetAlgorithm::CodedCas => "coded-cas",
            NetAlgorithm::Hashed => "hashed",
        }
    }

    /// Parses a table/CLI name.
    pub fn parse(s: &str) -> Option<NetAlgorithm> {
        use NetAlgorithm::{Abd, Cas, CodedCas, Hashed};
        [Abd, Cas, CodedCas, Hashed]
            .into_iter()
            .find(|a| a.name() == s)
    }
}

/// Which transport backend carries the messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetBackend {
    /// In-process channel routing (no frames, no sockets) — the
    /// differential baseline.
    InProc,
    /// Real TCP over loopback with framing and a reconnecting pool.
    Tcp,
}

impl NetBackend {
    /// Short table/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            NetBackend::InProc => "inproc",
            NetBackend::Tcp => "tcp",
        }
    }
}

enum BackendState {
    InProc(InProcHub),
    /// The servers' current addresses, shared with every client pool.
    Tcp(AddrTable),
}

impl BackendState {
    fn fresh(backend: NetBackend) -> BackendState {
        match backend {
            NetBackend::InProc => BackendState::InProc(InProcHub::new()),
            NetBackend::Tcp => BackendState::Tcp(addr_table(Vec::new())),
        }
    }
}

/// A live server incarnation: its stop flag and its thread, which
/// returns the automaton.
type Incarnation<S> = (Arc<AtomicBool>, JoinHandle<S>);

struct ServerSlot<P: Protocol> {
    running: Option<Incarnation<P::Server>>,
    /// The automaton of a killed server, retained for restart (the
    /// durable-storage crash model: state survives, volatile connections
    /// do not).
    parked: Option<P::Server>,
}

/// A running cluster of server event loops over one backend.
pub struct NetCluster<P: Protocol> {
    backend: BackendState,
    servers: Vec<ServerSlot<P>>,
    epoch: Instant,
    /// Byzantine corruption policy: listed servers send through a
    /// [`CorruptingTransport`] armed with the policy's salt.
    corrupt: Option<NetCorruption>,
}

/// A load in flight: worker joins plus fault handles.
pub struct LoadHandle {
    joins: Vec<JoinHandle<WorkerReport>>,
    faults: Vec<PoolFaults>,
    started: Instant,
}

/// Aggregated outcome of one load.
#[derive(Default)]
pub struct NetRunReport {
    /// All workers' operation records, usable with `project_histories`.
    pub records: Vec<OpRecord<MultiInv, MultiResp>>,
    /// Merged operation latency histogram (nanoseconds).
    pub latency_ns: Histogram,
    /// Protocol messages sent by clients (incl. retransmissions).
    pub msgs_sent: u64,
    /// Client wire bytes, via `Protocol::msg_wire_bytes`.
    pub wire_bytes: u64,
    /// Retransmission rounds fired.
    pub retransmits: u64,
    /// Completed operations.
    pub completed: u64,
    /// Logical clients retired on op timeout.
    pub retired: u64,
    /// Wall-clock duration of the load.
    pub wall: Duration,
}

impl NetRunReport {
    /// Completed operations per second.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Per-key single-register histories, exactly as the simulator
    /// harness builds them.
    pub fn histories(&self, initial: Value) -> BTreeMap<Key, History<Value>> {
        project_histories(initial, &self.records)
    }

    /// Runs the atomicity checker over every per-key projection.
    ///
    /// # Errors
    ///
    /// The first `(key, violation)` found, if any.
    pub fn check_atomic_all(&self, initial: Value) -> Result<usize, (Key, Violation)> {
        let mut checked = 0;
        for (key, history) in self.histories(initial) {
            if let Err(v) = check_atomic(&history) {
                return Err((key, v));
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// Latency quantile upper bound in microseconds.
    pub fn latency_us(&self, q: f64) -> f64 {
        self.latency_ns
            .quantile_bounds(q)
            .map_or(0.0, |(_, hi)| hi as f64 / 1_000.0)
    }
}

impl<P> NetCluster<P>
where
    P: Protocol<Inv = MultiInv, Resp = MultiResp>,
    P::Msg: WireMsg,
    P::Server: Send + 'static,
    P::Client: Send + 'static,
{
    /// Starts one event loop ([`serve_until`]) per automaton over
    /// `backend`, each on its own thread.
    pub fn start(backend: NetBackend, automata: Vec<P::Server>) -> NetCluster<P> {
        NetCluster::over(BackendState::fresh(backend), automata, None)
    }

    /// The one constructor: `automata` launched over `backend`, every
    /// server listed in `corrupt` sending its frames through an armed
    /// [`CorruptingTransport`] that tampers value-bearing payloads
    /// deterministically in the policy's salt. Honest servers (and every
    /// server when `corrupt` is `None`) behave byte-identically to an
    /// unwrapped cluster.
    fn over(
        backend: BackendState,
        automata: Vec<P::Server>,
        corrupt: Option<NetCorruption>,
    ) -> NetCluster<P> {
        let mut cluster = NetCluster {
            backend,
            servers: Vec::new(),
            epoch: Instant::now(),
            corrupt,
        };
        for (i, automaton) in automata.into_iter().enumerate() {
            cluster.servers.push(ServerSlot {
                running: None,
                parked: Some(automaton),
            });
            cluster.launch(i);
        }
        cluster
    }

    /// (Re)launches server `i` from its parked automaton: one
    /// [`serve_until`] thread over a fresh transport.
    fn launch(&mut self, i: usize) {
        let automaton = self.servers[i]
            .parked
            .take()
            .expect("server automaton not parked");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let me = ServerId(i as u32);
        // Byzantine servers keep lying across restarts: the policy arms
        // every incarnation of their transport.
        let salt = self
            .corrupt
            .as_ref()
            .filter(|c| c.applies_to(me.0))
            .map(|c| c.salt);
        let join = match &self.backend {
            BackendState::InProc(hub) => {
                let ep = hub.endpoint(&[NodeId::Server(me)]);
                let ep = CorruptingTransport::<_, P>::new(ep, salt);
                thread::spawn(move || serve_until::<P, _>(automaton, me, ep, stop).0)
            }
            BackendState::Tcp(table) => {
                let transport = TcpServerTransport::bind("127.0.0.1:0".parse().unwrap())
                    .expect("bind loopback");
                let addr = transport.local_addr();
                let mut t = table.lock().expect("addr table poisoned");
                if t.len() <= i {
                    t.resize(i + 1, addr);
                }
                // A restart lands on a fresh ephemeral port; publishing
                // it here is what makes reconnecting pools find the new
                // incarnation.
                t[i] = addr;
                drop(t);
                let transport = CorruptingTransport::<_, P>::new(transport, salt);
                thread::spawn(move || serve_until::<P, _>(automaton, me, transport, stop).0)
            }
        };
        self.servers[i].running = Some((flag, join));
    }

    /// The TCP address table (TCP backend only).
    pub fn addrs(&self) -> Option<Vec<SocketAddr>> {
        match &self.backend {
            BackendState::Tcp(table) => Some(table.lock().expect("addr table poisoned").clone()),
            BackendState::InProc(_) => None,
        }
    }

    /// Kills server `i`: stops its loop and drops its transport, which hands over what it had
    /// queued (TCP connections then reset; an in-proc route is gone first). Its automaton state
    /// is retained for [`NetCluster::restart_server`].
    pub fn kill_server(&mut self, i: usize) {
        if let BackendState::InProc(hub) = &self.backend {
            hub.drop_route(NodeId::Server(ServerId(i as u32)));
        }
        if let Some((stop, join)) = self.servers[i].running.take() {
            stop.store(true, Ordering::Release);
            self.servers[i].parked = Some(join.join().expect("server thread panicked"));
        }
    }

    /// Restarts a killed server with its retained state, on a fresh
    /// ephemeral port under TCP.
    pub fn restart_server(&mut self, i: usize) {
        assert!(
            self.servers[i].parked.is_some(),
            "restart_server on a live server"
        );
        self.launch(i);
    }

    /// Spawns a closed-loop load of `cfg.clients` logical clients.
    pub fn spawn_load(
        &self,
        cfg: &LoadConfig,
        make_client: impl Fn(ClientId) -> P::Client + Send + Sync + 'static,
    ) -> LoadHandle {
        let make_client = Arc::new(make_client);
        let mut joins = Vec::new();
        let mut faults = Vec::new();
        let epoch = self.epoch;
        for block in cfg.client_blocks() {
            let (cfg, make_client) = (cfg.clone(), Arc::clone(&make_client));
            joins.push(match &self.backend {
                BackendState::InProc(hub) => {
                    let ids: Vec<NodeId> = block.iter().map(|&c| NodeId::Client(c)).collect();
                    let ep = hub.endpoint(&ids);
                    thread::spawn(move || {
                        run_worker::<P, _>(ep, block, |id| make_client(id), &cfg, epoch)
                    })
                }
                BackendState::Tcp(table) => {
                    let pool = TcpClientTransport::new(Arc::clone(table));
                    faults.push(pool.faults());
                    thread::spawn(move || {
                        run_worker::<P, _>(pool, block, |id| make_client(id), &cfg, epoch)
                    })
                }
            });
        }
        LoadHandle {
            joins,
            faults,
            started: Instant::now(),
        }
    }

    /// Stops every server and returns each server's automaton (for
    /// storage probes).
    pub fn shutdown(mut self) -> Vec<P::Server> {
        for i in 0..self.servers.len() {
            self.kill_server(i);
        }
        self.servers
            .into_iter()
            .map(|s| s.parked.expect("automaton parked at shutdown"))
            .collect()
    }
}

impl LoadHandle {
    /// Severs every pooled client connection (TCP backend; no-op for
    /// in-proc loads, which have no connections to cut).
    pub fn sever_connections(&self) {
        for f in &self.faults {
            f.sever_all();
        }
    }

    /// Total successful pool connects across workers (grows on
    /// reconnection — the fault tests' observable).
    pub fn connects(&self) -> u64 {
        self.faults.iter().map(|f| f.connects()).sum()
    }

    /// Waits for every worker and aggregates.
    pub fn join(self) -> NetRunReport {
        let mut report = NetRunReport::default();
        for join in self.joins {
            let w = join.join().expect("worker thread panicked");
            report.records.extend(w.records);
            report.latency_ns.merge(&w.latency_ns);
            report.msgs_sent += w.msgs_sent;
            report.wire_bytes += w.wire_bytes;
            report.retransmits += w.retransmits;
            report.completed += w.completed;
            report.retired += w.retired;
        }
        report.wall = self.started.elapsed();
        report
    }
}

/// A complete, declarative net experiment.
#[derive(Clone, Debug)]
pub struct NetScenario {
    /// The algorithm under test.
    pub algorithm: NetAlgorithm,
    /// The transport backend.
    pub backend: NetBackend,
    /// Servers.
    pub n: u32,
    /// Failure tolerance (per shard).
    pub f: u32,
    /// Shards; `1` means every server covers every key
    /// ([`ShardMap::full`]).
    pub shards: u32,
    /// Replicas per shard (ignored when `shards == 1`).
    pub replicas: u32,
    /// Register initial value.
    pub initial: Value,
    /// Settle time between the last response and the storage probe:
    /// clients complete on quorum acknowledgements, so trailing finalize
    /// rounds are still in flight when the load joins, and steady-state
    /// storage is only meaningful after they land.
    pub drain: Duration,
    /// The load to generate.
    pub load: LoadConfig,
    /// Byzantine corruption policy: listed servers tamper the
    /// value-bearing payloads they send (see [`NetCorruption`]).
    pub corrupt: Option<NetCorruption>,
}

impl NetScenario {
    /// A 5-server, `f = 1`, unsharded scenario — the differential tests'
    /// default geometry.
    pub fn new(algorithm: NetAlgorithm, backend: NetBackend) -> NetScenario {
        NetScenario {
            algorithm,
            backend,
            n: 5,
            f: 1,
            shards: 1,
            replicas: 5,
            initial: 0,
            drain: Duration::from_millis(300),
            load: LoadConfig::default(),
            corrupt: None,
        }
    }

    /// The key placement this scenario uses.
    pub fn map(&self) -> ShardMap {
        if self.shards <= 1 {
            ShardMap::full(self.n)
        } else {
            ShardMap::new(self.n, self.shards, self.replicas)
        }
    }

    fn value_spec(&self) -> ValueSpec {
        ValueSpec::from_bits(64.0)
    }

    fn cas_config(&self) -> ShardedCasConfig {
        let map = self.map();
        match self.algorithm {
            NetAlgorithm::Cas => ShardedCasConfig::native(map, self.f, self.value_spec()),
            NetAlgorithm::CodedCas => {
                ShardedCasConfig::coded(map, self.f, self.value_spec()).with_gc(0)
            }
            NetAlgorithm::Hashed => ShardedCasConfig::native(map, self.f, self.value_spec()),
            NetAlgorithm::Abd => unreachable!("ABD has no CAS config"),
        }
    }

    /// Runs the scenario to completion: start servers, run the load,
    /// drain, shut down, probe storage.
    pub fn run(&self) -> NetOutcome {
        let initial = self.initial;
        match self.algorithm {
            NetAlgorithm::Abd => {
                let (map, spec) = (self.map(), self.value_spec());
                self.run_on::<ShardedAbd>(
                    |_| ShardedAbdServer::new(initial, spec),
                    move |id| ShardedAbdClient::new(map, id.0),
                    None,
                )
            }
            NetAlgorithm::Cas | NetAlgorithm::CodedCas => {
                let (cfg, client_cfg) = (self.cas_config(), self.cas_config());
                self.run_on::<ShardedCas>(
                    |i| ShardedCasServer::new(cfg.clone(), ServerId(i), initial),
                    move |id| ShardedCasClient::new(client_cfg.clone(), id.0),
                    Some(|s| s.keys_held()),
                )
            }
            NetAlgorithm::Hashed => {
                let (cfg, client_cfg) = (self.cas_config(), self.cas_config());
                self.run_on::<ShardedHashed>(
                    |i| ShardedHashedServer::new(cfg.clone(), ServerId(i), initial),
                    move |id| ShardedHashedClient::new(client_cfg.clone(), id.0),
                    Some(|s| s.cas().keys_held()),
                )
            }
        }
    }

    /// [`NetScenario::run`] once the algorithm's types are known.
    /// `keys_held` counts a server's materialized keys (CAS variants
    /// only — ABD's per-key storage is trivially `N`).
    fn run_on<P>(
        &self,
        server: impl Fn(u32) -> P::Server,
        client: impl Fn(ClientId) -> P::Client + Send + Sync + 'static,
        keys_held: Option<fn(&P::Server) -> usize>,
    ) -> NetOutcome
    where
        P: Protocol<Inv = MultiInv, Resp = MultiResp>,
        P::Msg: WireMsg,
        P::Server: Send + 'static,
        P::Client: Send + 'static,
    {
        let automata = (0..self.n).map(server).collect();
        let backend = BackendState::fresh(self.backend);
        let cluster = NetCluster::<P>::over(backend, automata, self.corrupt.clone());
        let report = cluster.spawn_load(&self.load, client).join();
        thread::sleep(self.drain);
        let automata = cluster.shutdown();
        NetOutcome {
            report,
            state_bits: automata.iter().map(Node::<P>::state_bits).sum(),
            touched_keys: keys_held.map(|held| {
                let touched: usize = automata.iter().map(held).sum();
                touched as f64 / f64::from(self.map().replicas())
            }),
        }
    }
}

/// Serves one server of `scenario` on `addr` until the process dies —
/// the `shmem-server` binary's engine. `announce` receives the actually
/// bound address (useful with port 0) before the loop starts.
///
/// # Errors
///
/// [`NetError::Io`] if binding fails.
pub fn serve_forever(
    scenario: &NetScenario,
    index: u32,
    addr: SocketAddr,
    announce: impl FnOnce(SocketAddr),
) -> Result<(), NetError> {
    let stop = Arc::new(AtomicBool::new(false));
    let me = ServerId(index);
    let transport = TcpServerTransport::bind(addr)?;
    announce(transport.local_addr());
    match scenario.algorithm {
        NetAlgorithm::Abd => {
            let s = ShardedAbdServer::new(scenario.initial, ValueSpec::from_bits(64.0));
            serve_until::<ShardedAbd, _>(s, me, transport, stop);
        }
        NetAlgorithm::Cas | NetAlgorithm::CodedCas => {
            let s = ShardedCasServer::new(scenario.cas_config(), me, scenario.initial);
            serve_until::<ShardedCas, _>(s, me, transport, stop);
        }
        NetAlgorithm::Hashed => {
            let s = ShardedHashedServer::new(scenario.cas_config(), me, scenario.initial);
            serve_until::<ShardedHashed, _>(s, me, transport, stop);
        }
    }
    Ok(())
}

/// Runs `scenario.load` against externally-started TCP servers at
/// `addrs` — the `shmem-client` binary's engine. No storage probe (the
/// server states live in other processes); the returned report still
/// carries everything the atomicity checkers need.
pub fn run_remote(scenario: &NetScenario, addrs: Vec<SocketAddr>) -> NetRunReport {
    // A cluster of no servers: the load only needs the address table.
    let backend = BackendState::Tcp(addr_table(addrs));
    let load = &scenario.load;
    match scenario.algorithm {
        NetAlgorithm::Abd => {
            let map = scenario.map();
            NetCluster::<ShardedAbd>::over(backend, Vec::new(), None)
                .spawn_load(load, move |id| ShardedAbdClient::new(map, id.0))
        }
        NetAlgorithm::Cas | NetAlgorithm::CodedCas => {
            let cfg = scenario.cas_config();
            NetCluster::<ShardedCas>::over(backend, Vec::new(), None)
                .spawn_load(load, move |id| ShardedCasClient::new(cfg.clone(), id.0))
        }
        NetAlgorithm::Hashed => {
            let cfg = scenario.cas_config();
            NetCluster::<ShardedHashed>::over(backend, Vec::new(), None)
                .spawn_load(load, move |id| ShardedHashedClient::new(cfg.clone(), id.0))
        }
    }
    .join()
}

/// A finished scenario: the load report plus a storage probe over the
/// final server states.
pub struct NetOutcome {
    /// The aggregated load report.
    pub report: NetRunReport,
    /// Total value-bearing server storage, in bits.
    pub state_bits: f64,
    /// Keys with materialized state, normalized by replication (CAS
    /// variants only — ABD's per-key storage is trivially `N`).
    pub touched_keys: Option<f64>,
}

impl NetOutcome {
    /// Steady-state storage per touched key, normalized by the 64-bit
    /// value size — directly comparable to the paper's `N/(N−f)` bound.
    pub fn per_key_storage(&self) -> Option<f64> {
        let touched = self.touched_keys?;
        if touched == 0.0 {
            return None;
        }
        Some(self.state_bits / (touched * 64.0))
    }
}
