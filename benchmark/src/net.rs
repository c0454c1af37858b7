//! The three net workloads' machinery: which automata run (a [`Stack`]),
//! how one *round* is driven — servers through `serve_until`, the one
//! closed-loop load generator through `run_worker`, both called directly
//! over the stack's transport — and the correctness gate every round
//! passes.
//!
//! A round is a fresh cluster taken through set-up (build, bind, spawn,
//! connect, preload), an unloaded phase of one logical client, and
//! [`TRIALS`] saturated trials of [`CLIENTS`] logical clients, each phase
//! under a fresh `ClientId` range. Undecorated stacks hand the program its
//! own transports and automata; the decorated twins wrap every seam in the
//! `trace` decorators. The same [`run_round`] drives both.

use crate::alloc::Traffic;
use crate::proc;
use crate::trace::{RidOf, TimedBackend, TimedNode, TimedTransport, Totals, TraceCtx};
use shmem_algorithms::abd::{
    ShardedAbd, ShardedAbdClient, ShardedAbdMsg, ShardedAbdServer, ShardedAbdServerOn,
};
use shmem_algorithms::backend::{LocalAbd, LocalCas};
use shmem_algorithms::cas::{
    ShardedCas, ShardedCasClient, ShardedCasConfig, ShardedCasMsg, ShardedCasServer,
    ShardedCasServerOn,
};
use shmem_algorithms::{
    project_histories, Key, MultiInv, MultiResp, RegInv, RegResp, ShardMap, Value, ValueSpec,
};
use shmem_net::client::run_worker;
use shmem_net::tcp::addr_table;
use shmem_net::wire::WireMsg;
use shmem_net::{
    serve_until, Envelope, InProcHub, LoadConfig, NetBackend, NetError, ServeStats,
    TcpClientTransport, TcpServerTransport, Transport, WorkerReport,
};
use shmem_sim::{ClientId, Node, NodeId, OpRecord, Protocol, ServerId};
use shmem_spec::check_atomic;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Servers.
pub const N: u32 = 5;
/// Tolerated server failures.
pub const F: u32 = 1;
/// Value size in bits.
pub const VALUE_BITS: f64 = 64.0;
/// Logical closed-loop clients of the preload and of every saturated
/// trial.
pub const CLIENTS: u32 = 64;
/// Saturated trials per round.
pub const TRIALS: usize = 4;
/// Equal groups a saturated trial's completions are cut into, in the order
/// they completed; each group that is kept is one `ops_per_s` sample, so a
/// disturbance of the host shorter than a trial spoils a sample or two,
/// not the trial.
pub const TRIAL_GROUPS: usize = 6;
/// Settle time between the last response and the storage probe (trailing
/// finalize rounds are still in flight when the load returns).
const DRAIN: Duration = Duration::from_millis(300);
/// Pause between the phases of a round: long enough on loopback for every
/// straggler of the finished phase to land before the next one starts (a
/// coded read must not overlap the tail of a preload write of its key).
/// Both pauses are [`proc::busy_wait`]s, not sleeps.
const SETTLE: Duration = Duration::from_millis(50);

fn spec() -> ValueSpec {
    ValueSpec::from_bits(VALUE_BITS)
}

fn map() -> ShardMap {
    ShardMap::full(N)
}

/// The storage-optimal CAS configuration: `k = N − f`, GC depth 0.
pub fn coded_config() -> ShardedCasConfig {
    ShardedCasConfig::coded(map(), F, spec()).with_gc(0)
}

/// Which automata a net workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// `ShardedAbd`, single-loop servers.
    Abd,
    /// Storage-optimal `ShardedCas`, single-loop servers.
    Coded,
}

/// A net workload: automata, transport, and the fixed operation counts of
/// one round. The counts are constants sized once so that a round takes
/// about three seconds on the box the ledger was defined on; they are
/// never derived from a clock, so both sides of a later comparison do
/// identical work per round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetSpec {
    /// The automata.
    pub algo: Algo,
    /// In-process hub or TCP loopback.
    pub backend: NetBackend,
    /// Distinct keys per invocation.
    pub batch: usize,
    /// Keys operations draw from.
    pub keyspace: u64,
    /// Share of writes in the unloaded and saturated phases.
    pub write_ratio: f64,
    /// Write invocations per preload client: [`CLIENTS`] × this × `batch`
    /// key writes, one per key of the keyspace.
    pub preload_ops_per_client: usize,
    /// Sequential invocations of the unloaded phase's one client.
    pub unloaded_ops: usize,
    /// Invocations per logical client in a saturated trial.
    pub trial_ops_per_client: usize,
}

/// The net workload called `name`.
pub fn net_spec(name: &str) -> Option<NetSpec> {
    Some(match name {
        "tcp-abd-mixed" => NetSpec {
            algo: Algo::Abd,
            backend: NetBackend::Tcp,
            batch: 1,
            keyspace: 8192,
            write_ratio: 0.5,
            preload_ops_per_client: 128,
            unloaded_ops: 1500,
            trial_ops_per_client: 60,
        },
        "inproc-abd-mixed" => NetSpec {
            algo: Algo::Abd,
            backend: NetBackend::InProc,
            batch: 1,
            keyspace: 16384,
            write_ratio: 0.5,
            preload_ops_per_client: 256,
            unloaded_ops: 1500,
            trial_ops_per_client: 200,
        },
        // Reads never overlap writes, so GC depth 0 never fails a read and
        // storage sits exactly on the paper's N/(N−f).
        "tcp-coded-read-b16" => NetSpec {
            algo: Algo::Coded,
            backend: NetBackend::Tcp,
            batch: 16,
            keyspace: 32768,
            write_ratio: 0.0,
            preload_ops_per_client: 32,
            unloaded_ops: 1000,
            trial_ops_per_client: 16,
        },
        _ => return None,
    })
}

impl NetSpec {
    /// Drained storage per key the gate insists on: `N` replicated,
    /// `N/(N−f)` coded.
    pub fn expected_storage(&self) -> f64 {
        match self.algo {
            Algo::Abd => f64::from(N),
            Algo::Coded => f64::from(N) / f64::from(N - F),
        }
    }
}

/// One closed-loop phase: `clients` logical clients with ids from
/// `first_client`, driven by `load`.
#[derive(Clone, Debug)]
pub struct Phase {
    /// The phase's first `ClientId`; ranges of a round never overlap, so
    /// a straggler addressed to a finished phase reaches no automaton.
    pub first_client: u32,
    /// Logical clients.
    pub clients: u32,
    /// What `run_worker` is given.
    pub load: LoadConfig,
}

impl Phase {
    /// Invocations the phase sets out to perform.
    pub fn attempted(&self) -> u64 {
        u64::from(self.clients) * self.load.ops_per_client as u64
    }
}

/// The generated inputs of one round — the only thing the program ever
/// sees of `--seed`.
#[derive(Clone, Debug)]
pub struct RoundPlan {
    /// All-writes load that fills the keyspace.
    pub preload: Phase,
    /// One logical client, the workload's mix.
    pub unloaded: Phase,
    /// [`TRIALS`] saturated trials, the workload's mix.
    pub trials: Vec<Phase>,
}

impl RoundPlan {
    /// Every phase, in the order it runs.
    pub fn phases(&self) -> impl Iterator<Item = &Phase> {
        [&self.preload, &self.unloaded]
            .into_iter()
            .chain(&self.trials)
    }
}

/// The plan of the round seeded `seed`.
pub fn plan(spec: &NetSpec, seed: u64) -> RoundPlan {
    let mut next_client = 0;
    let mut index = 0u64;
    let mut phase = |clients: u32, ops_per_client: usize, write_ratio: f64| {
        let first_client = next_client;
        next_client += clients;
        index += 1;
        Phase {
            first_client,
            clients,
            load: LoadConfig {
                clients,
                workers: 1,
                ops_per_client,
                batch: spec.batch,
                keyspace: spec.keyspace,
                write_ratio,
                seed: seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                retransmit: Duration::from_millis(500),
                op_timeout: Duration::from_secs(20),
            },
        }
    };
    RoundPlan {
        preload: phase(CLIENTS, spec.preload_ops_per_client, 1.0),
        unloaded: phase(1, spec.unloaded_ops, spec.write_ratio),
        trials: (0..TRIALS)
            .map(|_| phase(CLIENTS, spec.trial_ops_per_client, spec.write_ratio))
            .collect(),
    }
}

/// A protocol the net layer can carry and the trace can follow.
pub trait NetProtocol:
    Protocol<
    Inv = MultiInv,
    Resp = MultiResp,
    Msg: WireMsg + RidOf + Send,
    Server: Send + 'static,
    Client: Send + 'static,
>
{
}

impl<P> NetProtocol for P where
    P: Protocol<
        Inv = MultiInv,
        Resp = MultiResp,
        Msg: WireMsg + RidOf + Send,
        Server: Send + 'static,
        Client: Send + 'static,
    >
{
}

/// Which automata and transports a round runs on: the program's own, or
/// the same behind the trace decorators.
pub trait Stack {
    /// The protocol marker the automata run under.
    type P: NetProtocol;
    /// What a raw transport becomes before the program's loops get it.
    type Wire<T: Transport + 'static>: Transport + 'static;

    /// A fresh automaton for server `index`.
    fn server(&self, index: u32) -> <Self::P as Protocol>::Server;

    /// A fresh client automaton.
    fn client(&self, id: ClientId) -> <Self::P as Protocol>::Client;

    /// Hands `transport` over, decorated or not.
    fn wire<T: Transport + 'static>(&self, transport: T) -> Self::Wire<T>;

    /// Keys with materialized state at `server` (the one probe `Node<P>`
    /// does not offer).
    fn keys_held(&self, server: &<Self::P as Protocol>::Server) -> usize;

    /// The trace context of a decorated stack.
    fn tracer(&self) -> Option<&Arc<TraceCtx>> {
        None
    }
}

/// `ShardedAbd`: replicated, sequential in-struct backend.
pub struct Abd;

impl Stack for Abd {
    type P = ShardedAbd;
    type Wire<T: Transport + 'static> = T;

    fn server(&self, _index: u32) -> ShardedAbdServer {
        ShardedAbdServer::new(0, spec())
    }

    fn client(&self, id: ClientId) -> ShardedAbdClient {
        ShardedAbdClient::new(map(), id.0)
    }

    fn wire<T: Transport + 'static>(&self, transport: T) -> T {
        transport
    }

    fn keys_held(&self, server: &ShardedAbdServer) -> usize {
        server.keys_held()
    }
}

/// `ShardedCas` on the storage frontier ([`coded_config`]).
pub struct Coded;

impl Stack for Coded {
    type P = ShardedCas;
    type Wire<T: Transport + 'static> = T;

    fn server(&self, index: u32) -> ShardedCasServer {
        ShardedCasServer::new(coded_config(), ServerId(index), 0)
    }

    fn client(&self, id: ClientId) -> ShardedCasClient {
        ShardedCasClient::new(coded_config(), id.0)
    }

    fn wire<T: Transport + 'static>(&self, transport: T) -> T {
        transport
    }

    fn keys_held(&self, server: &ShardedCasServer) -> usize {
        server.keys_held()
    }
}

/// Declares the decorated twin of a stack: a protocol marker whose server
/// is `TimedNode<…ServerOn<TimedBackend<B>>>` and whose client is
/// `TimedNode<…Client>` — installed exactly as
/// `tests/corrupt_differential.rs` installs `CorruptStoreCas` — and the
/// struct that will implement [`Stack`] for it.
macro_rules! traced_stack {
    ($(#[$doc:meta])* $stack:ident, $marker:ident, $msg:ty, $server:ty, $client:ty) => {
        #[doc = concat!("Protocol marker of [`", stringify!($stack), "`].")]
        pub struct $marker;

        impl Protocol for $marker {
            type Msg = $msg;
            type Inv = MultiInv;
            type Resp = MultiResp;
            type Server = TimedNode<$server>;
            type Client = TimedNode<$client>;

            fn msg_wire_bytes(msg: &$msg) -> u64 {
                msg.wire_bytes()
            }
        }

        $(#[$doc])*
        pub struct $stack(pub Arc<TraceCtx>);

        impl $stack {
            fn timed<T>(&self, inner: T) -> TimedNode<T> {
                TimedNode::new(inner, Arc::clone(&self.0))
            }

            fn backend<B>(&self, inner: B) -> TimedBackend<B> {
                TimedBackend::new(inner, Arc::clone(&self.0))
            }
        }
    };
}

traced_stack!(
    /// [`Abd`] with every seam decorated.
    TracedAbd,
    TracedAbdProtocol,
    ShardedAbdMsg,
    ShardedAbdServerOn<TimedBackend<LocalAbd>>,
    ShardedAbdClient
);

impl Stack for TracedAbd {
    type P = TracedAbdProtocol;
    type Wire<T: Transport + 'static> = TimedTransport<T>;

    fn server(&self, _index: u32) -> <TracedAbdProtocol as Protocol>::Server {
        let backend = self.backend(LocalAbd::new());
        self.timed(ShardedAbdServerOn::with_backend(0, spec(), backend))
    }

    fn client(&self, id: ClientId) -> TimedNode<ShardedAbdClient> {
        self.timed(ShardedAbdClient::new(map(), id.0))
    }

    fn wire<T: Transport + 'static>(&self, transport: T) -> TimedTransport<T> {
        TimedTransport::new(transport, Arc::clone(&self.0))
    }

    fn keys_held(&self, server: &<TracedAbdProtocol as Protocol>::Server) -> usize {
        server.inner().keys_held()
    }

    fn tracer(&self) -> Option<&Arc<TraceCtx>> {
        Some(&self.0)
    }
}

traced_stack!(
    /// [`Coded`] with every seam decorated.
    TracedCoded,
    TracedCodedProtocol,
    ShardedCasMsg,
    ShardedCasServerOn<TimedBackend<LocalCas>>,
    ShardedCasClient
);

impl Stack for TracedCoded {
    type P = TracedCodedProtocol;
    type Wire<T: Transport + 'static> = TimedTransport<T>;

    fn server(&self, index: u32) -> <TracedCodedProtocol as Protocol>::Server {
        let cfg = coded_config();
        let backend = self.backend(LocalCas::new(cfg.clone(), index, 0));
        self.timed(ShardedCasServerOn::with_backend(
            cfg,
            ServerId(index),
            backend,
        ))
    }

    fn client(&self, id: ClientId) -> TimedNode<ShardedCasClient> {
        self.timed(ShardedCasClient::new(coded_config(), id.0))
    }

    fn wire<T: Transport + 'static>(&self, transport: T) -> TimedTransport<T> {
        TimedTransport::new(transport, Arc::clone(&self.0))
    }

    fn keys_held(&self, server: &<TracedCodedProtocol as Protocol>::Server) -> usize {
        server.inner().keys_held()
    }

    fn tracer(&self) -> Option<&Arc<TraceCtx>> {
        Some(&self.0)
    }
}

/// Lends a transport to one `run_worker` call, so that one client
/// endpoint — and, over TCP, its connections — serves every phase of a
/// round. Pure forwarding: the program's own transport does all the work.
struct Lent<'a, T>(&'a mut T);

impl<T: Transport> Transport for Lent<'_, T> {
    fn send(&mut self, env: &Envelope) -> Result<(), NetError> {
        self.0.send(env)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, NetError> {
        self.0.recv_timeout(timeout)
    }
}

/// What one phase produced, with the process-wide readings taken around
/// it.
pub struct PhaseOut {
    /// The load generator's report: records and counters.
    pub report: WorkerReport,
    /// Allocator traffic of the whole process over the phase.
    pub alloc: Traffic,
    /// Process CPU seconds over the phase.
    pub cpu_s: f64,
    /// Voluntary context switches over the phase, every thread.
    pub switches: u64,
    /// Decorated stacks only: what every traced thread added to its span
    /// totals and CPU clock over the phase, by thread name.
    pub traced: Vec<(String, Totals)>,
}

impl PhaseOut {
    /// When the phase's last response arrived, in seconds since the
    /// round's epoch.
    pub fn ended_s(&self) -> f64 {
        let last = self
            .report
            .records
            .iter()
            .filter_map(|r| r.responded_at)
            .max();
        last.unwrap_or(0) as f64 / 1e9
    }

    /// Completed operations per second from the phase's first invocation
    /// to its last response, exact `OpRecord` nanoseconds.
    pub fn ops_per_s(&self) -> f64 {
        let first = self.report.records.iter().map(|r| r.invoked_at).min();
        let wall_s = self.ended_s() - first.unwrap_or(0) as f64 / 1e9;
        self.report.completed as f64 / wall_s
    }

    /// Invocation-to-response nanoseconds of every completed operation,
    /// with whether it was a write.
    pub fn latencies(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.report.records.iter().filter_map(|r| {
            let write = matches!(r.invocation.ops.first(), Some((_, RegInv::Write(_))));
            Some((r.responded_at? - r.invoked_at, write))
        })
    }
}

/// What one round produced, before judgement.
pub struct RoundOut {
    /// Nothing → warm loaded system, seconds: build automata, bind and
    /// spawn servers, connect, preload — the round's start to the
    /// preload's last response.
    pub setup_s: f64,
    /// The preload (inside `setup_s`).
    pub preload: PhaseOut,
    /// The unloaded phase.
    pub unloaded: PhaseOut,
    /// The saturated trials.
    pub trials: Vec<PhaseOut>,
    /// `VmHWM` when the unloaded phase ended, megabytes.
    pub rss_after_unloaded_mb: f64,
    /// `VmHWM` when the last trial ended, megabytes.
    pub rss_after_trials_mb: f64,
    /// Σ `Node::state_bits` after drain and shutdown.
    pub state_bits: f64,
    /// Σ `Node::metadata_bits` after drain and shutdown.
    pub metadata_bits: f64,
    /// Σ keys with materialized state, over servers.
    pub keys_held: usize,
    /// Σ server loop counters.
    pub serve: ServeStats,
}

impl RoundOut {
    /// Every phase, in the order it ran.
    pub fn phases(&self) -> impl Iterator<Item = &PhaseOut> {
        [&self.preload, &self.unloaded]
            .into_iter()
            .chain(&self.trials)
    }

    /// Keys touched, normalized by replication.
    pub fn touched_keys(&self) -> f64 {
        self.keys_held as f64 / f64::from(N)
    }

    /// The paper's normalized storage cost: Σ state bits ÷ (touched keys ×
    /// value bits).
    pub fn storage_per_key_norm(&self) -> f64 {
        self.state_bits / (self.touched_keys() * VALUE_BITS)
    }
}

type ServerJoin<P> = JoinHandle<(<P as Protocol>::Server, ServeStats)>;

fn spawn_server<S: Stack, T: Transport + 'static>(
    stack: &S,
    index: u32,
    transport: T,
    stop: &Arc<AtomicBool>,
) -> ServerJoin<S::P> {
    let automaton = stack.server(index);
    let transport = stack.wire(transport);
    let (stop, tracer) = (Arc::clone(stop), stack.tracer().cloned());
    let name = format!("srv{index}");
    thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            if let Some(ctx) = &tracer {
                ctx.name_thread(&name);
            }
            let served = serve_until::<S::P, _>(automaton, ServerId(index), transport, stop);
            if let Some(ctx) = &tracer {
                ctx.park();
            }
            served
        })
        .expect("spawn server thread")
}

/// Runs `phase` through `run_worker` on the calling thread, over the lent
/// client transport, with the process-wide readings around it, and lets
/// [`SETTLE`] pass before returning.
fn drive<S: Stack, T: Transport>(
    stack: &S,
    wire: &mut T,
    phase: &Phase,
    epoch: Instant,
) -> PhaseOut {
    let before = stack.tracer().map(|ctx| {
        // Whole spans of three operations of every eighth client.
        let keep_every = (phase.load.ops_per_client / 3).max(1) as u32;
        ctx.begin_phase(
            phase.first_client,
            phase.clients,
            phase.load.ops_per_client,
            keep_every,
        );
        ctx.name_thread("cli0");
        ctx.totals()
    });
    let ids: Vec<ClientId> = (phase.first_client..phase.first_client + phase.clients)
        .map(ClientId)
        .collect();
    let switches0 = proc::voluntary_switches();
    let cpu0 = proc::process_cpu_s();
    let alloc0 = Traffic::now();
    let report = run_worker::<S::P, _>(Lent(wire), ids, |id| stack.client(id), &phase.load, epoch);
    let cpu_s = proc::process_cpu_s() - cpu0;
    let traced = match (stack.tracer(), before) {
        (Some(ctx), Some(before)) => {
            ctx.park();
            ctx.totals()
                .into_iter()
                .map(|(name, after)| {
                    let earlier = before.iter().find(|(n, _)| *n == name);
                    let added = earlier.map_or_else(|| after.clone(), |(_, b)| after.since(b));
                    (name, added)
                })
                .collect()
        }
        _ => Vec::new(),
    };
    // An operation completes on its fastest N − f replies; the pause lets
    // the slowest server's land and be handled, so the allocator window
    // closes over every message of the phase however the threads raced.
    proc::busy_wait(SETTLE);
    let alloc = Traffic::now().since(alloc0);
    let switches = proc::voluntary_switches().saturating_sub(switches0);
    PhaseOut {
        report,
        alloc,
        cpu_s,
        switches,
        traced,
    }
}

/// The phases of one round over an already connected client transport:
/// preload (ending the set-up clock started at `t0`), unloaded phase,
/// saturated trials.
fn drive_round<S: Stack, T: Transport>(
    stack: &S,
    mut wire: T,
    plan: &RoundPlan,
    t0: Instant,
) -> RoundOut {
    let preload = drive(stack, &mut wire, &plan.preload, t0);
    let setup_s = preload.ended_s();
    let unloaded = drive(stack, &mut wire, &plan.unloaded, t0);
    let rss_after_unloaded_mb = proc::peak_rss_mb();
    let trials = plan
        .trials
        .iter()
        .map(|phase| drive(stack, &mut wire, phase, t0))
        .collect();
    RoundOut {
        setup_s,
        preload,
        unloaded,
        trials,
        rss_after_unloaded_mb,
        rss_after_trials_mb: proc::peak_rss_mb(),
        state_bits: 0.0,
        metadata_bits: 0.0,
        keys_held: 0,
        serve: ServeStats::default(),
    }
}

/// One round of `plan` on a fresh cluster of `stack` over `backend`:
/// set-up, unloaded phase, saturated trials, then — outside every timed
/// region — drain, shutdown and the storage probe. Operation records are
/// stamped from the round's start (the trace context's epoch on a
/// decorated stack, so spans and records share a clock).
pub fn run_round<S: Stack>(stack: &S, backend: NetBackend, plan: &RoundPlan) -> RoundOut {
    let t0 = stack.tracer().map_or_else(Instant::now, |ctx| ctx.epoch());
    let stop = Arc::new(AtomicBool::new(false));
    let mut servers: Vec<ServerJoin<S::P>> = Vec::new();
    let mut out = match backend {
        NetBackend::InProc => {
            let hub = InProcHub::new();
            for i in 0..N {
                let endpoint = hub.endpoint(&[NodeId::Server(ServerId(i))]);
                servers.push(spawn_server(stack, i, endpoint, &stop));
            }
            let clients: Vec<NodeId> = plan
                .phases()
                .flat_map(|p| p.first_client..p.first_client + p.clients)
                .map(|c| NodeId::Client(ClientId(c)))
                .collect();
            drive_round(stack, stack.wire(hub.endpoint(&clients)), plan, t0)
        }
        NetBackend::Tcp => {
            let mut addrs = Vec::new();
            for i in 0..N {
                let transport = TcpServerTransport::bind("127.0.0.1:0".parse().expect("loopback"))
                    .expect("bind loopback");
                addrs.push(transport.local_addr());
                servers.push(spawn_server(stack, i, transport, &stop));
            }
            let pool = TcpClientTransport::new(addr_table(addrs));
            drive_round(stack, stack.wire(pool), plan, t0)
        }
    };
    proc::busy_wait(DRAIN);
    stop.store(true, Ordering::Release);
    // The loops notice within one 10 ms poll; wait for them without idling.
    proc::spin_until(|| servers.iter().all(JoinHandle::is_finished));
    let mut automata = Vec::new();
    for join in servers {
        let (automaton, stats) = join.join().expect("server thread panicked");
        out.serve = out.serve.merge(stats);
        automata.push(automaton);
    }
    out.state_bits = automata.iter().map(Node::<S::P>::state_bits).sum();
    out.metadata_bits = automata.iter().map(Node::<S::P>::metadata_bits).sum();
    out.keys_held = automata.iter().map(|s| stack.keys_held(s)).sum();
    out
}

/// The correctness gate of a round: every operation completed, no client
/// retired, no read failed, every read of a preloaded key returned a value
/// the preload wrote to it (and of an untouched key the initial value),
/// every per-key history atomic, server and client message counts agree,
/// and the drained storage sits on the workload's expected value (`N`
/// replicated, `N/(N−f)` coded) to 1e-9.
///
/// Returns the operations the round was to perform, preload included — all
/// of which completed.
///
/// # Errors
///
/// A description of the first check that failed.
pub fn judge(spec: &NetSpec, plan: &RoundPlan, out: &RoundOut) -> Result<u64, String> {
    let attempted: u64 = plan.phases().map(Phase::attempted).sum();
    let records = || out.phases().flat_map(|p| &p.report.records);
    let retired: u64 = out.phases().map(|p| p.report.retired).sum();
    let completed: u64 = out.phases().map(|p| p.report.completed).sum();
    let unanswered = records().filter(|r| r.response.is_none()).count() as u64;
    if retired != 0 || unanswered != 0 {
        return Err(format!(
            "{retired} clients retired, {unanswered} operations never answered"
        ));
    }
    if completed != attempted {
        return Err(format!("{completed} of {attempted} operations completed"));
    }

    // What a read may return: a value some write of the round gave its
    // key, or the initial value as long as the preload never wrote the key.
    let mut written: HashMap<Key, Vec<Value>> = HashMap::new();
    let writes_of = |phase: &PhaseOut, into: &mut HashMap<Key, Vec<Value>>| {
        for record in &phase.report.records {
            for &(key, inv) in &record.invocation.ops {
                if let RegInv::Write(v) = inv {
                    into.entry(key).or_default().push(v);
                }
            }
        }
    };
    writes_of(&out.preload, &mut written);
    let preloaded: HashSet<Key> = written.keys().copied().collect();
    for phase in [&out.unloaded].into_iter().chain(&out.trials) {
        writes_of(phase, &mut written);
    }
    for record in records() {
        let Some(resp) = &record.response else {
            continue;
        };
        for &(key, r) in &resp.ops {
            match r {
                RegResp::WriteAck => {}
                RegResp::ReadFailed(e) => {
                    return Err(format!("read of key {key} failed: {e:?}"));
                }
                RegResp::ReadValue(v) => {
                    let known = written.get(&key).is_some_and(|vs| vs.contains(&v))
                        || (v == 0 && !preloaded.contains(&key));
                    if !known {
                        return Err(format!(
                            "read of key {key} returned {v}, which nobody wrote to it"
                        ));
                    }
                }
            }
        }
    }

    let all: Vec<OpRecord<MultiInv, MultiResp>> = records().cloned().collect();
    let histories = project_histories(0, &all);
    for (key, history) in &histories {
        check_atomic(history).map_err(|v| format!("key {key} is not atomic: {v:?}"))?;
    }

    let msgs_sent: u64 = out.phases().map(|p| p.report.msgs_sent).sum();
    let retransmits: u64 = out.phases().map(|p| p.report.retransmits).sum();
    if retransmits == 0 && (out.serve.msgs_in != msgs_sent || out.serve.msgs_out != msgs_sent) {
        return Err(format!(
            "message counts disagree: clients sent {msgs_sent}, servers received {} and answered {}",
            out.serve.msgs_in, out.serve.msgs_out
        ));
    }
    if out.serve.decode_errors != 0 {
        return Err(format!("{} undecodable payloads", out.serve.decode_errors));
    }
    let (storage, expected) = (out.storage_per_key_norm(), spec.expected_storage());
    if (storage - expected).abs() > 1e-9 {
        return Err(format!(
            "storage per key {storage} is off the expected {expected}"
        ));
    }
    Ok(attempted)
}
