//! The simulated world: nodes, channels, the step relation, failures and
//! the adversary controls the lower-bound proofs need.
//!
//! The module is layered:
//!
//! * [`mod@self`] — the [`Sim`] type, construction, and world-level docs;
//! * `state` — node state access, storage metering, digests, observation;
//! * `channels` — the step relation: delivery, scheduling, invocations;
//! * `table` — the structure-of-arrays channel table and message arena the
//!   step relation runs on;
//! * `adversary` — crash/recover and freeze/unfreeze controls;
//! * `faults` — nemesis primitives: message drop, duplication, delay,
//!   directed link cuts and partitions with heal;
//! * `corrupt` — corruption-adversary primitives: stored-state tampering
//!   and in-flight payload tampering behind protocol opt-in hooks;
//! * `fork` — cheap structural-sharing clones and the [`Snapshot`] /
//!   [`Point`] handle API;
//! * `error` — [`RunError`] and [`SendRecord`].
//!
//! # Forking
//!
//! Every bulky field of [`Sim`] (the server and client automata vectors,
//! the channel table with its message arena, operation history, send log,
//! storage meter) sits behind an [`Arc`], so `Sim::clone` is a handful of
//! reference-count bumps regardless of world size. Cold-path mutation
//! goes through [`Arc::make_mut`], which copies only the structure
//! actually touched — and only when it is still shared with another fork
//! (copy-on-write). The delivery loop instead claims unique ownership of
//! the three hot structures (node vectors + channel table) once per fork
//! via the `hot_owned` flag and then mutates them in place with no
//! refcount traffic at all (see `channels.rs`).
//! The proof machinery forks the world at every point of an `α^{(v1,v2)}`
//! execution, so this is the difference between `O(points · world)` and
//! `O(points + touched-state)` for a whole search.
//!
//! # The hot loop
//!
//! The step relation is allocation-free in steady state: messages live in
//! a slab arena with free-list reuse (`table`), channel queues are
//! intrusive lists threaded through the arena, scheduler scans walk a
//! maintained bitset of non-empty channel rows, and the per-event
//! outbox/response buffers are recycled scratch vectors on [`Sim`]. The
//! world digest is maintained incrementally at each mutation site rather
//! than recomputed by a full walk (see `state.rs`).

mod adversary;
mod audit;
mod channels;
mod corrupt;
mod cover;
mod error;
mod faults;
mod fork;
mod state;
mod table;

pub use error::{RunError, SendRecord};
pub use fork::{Point, Snapshot};

use crate::config::SimConfig;
use crate::coverage::CoverageMap;
use crate::ids::{ClientId, NodeId};
use crate::meter::StorageMeter;
use crate::metrics::{MetricsLevel, MetricsRegistry};
use crate::node::{Ctx, Node, Protocol};
use crate::trace::{OpRecord, TrafficCounters};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use table::ChannelTable;

/// A complete simulated system at a point of an execution.
///
/// `Sim` is cheaply forkable (`Clone`): the proof machinery clones the world
/// at a point `P` and extends the copy — exactly the paper's "extension of
/// `α_i`" constructions. Clones share state structurally and copy on first
/// write (see the [module docs](self)).
///
/// # Examples
///
/// A two-node ping-pong (see the crate tests for full protocols):
///
/// ```
/// use shmem_sim::{Ctx, Node, NodeId, Protocol, Sim, SimConfig, hash_of};
///
/// struct Ping;
/// impl Protocol for Ping {
///     type Msg = u32;
///     type Inv = ();
///     type Resp = u32;
///     type Server = Counter;
///     type Client = Asker;
/// }
/// #[derive(Clone, Default)]
/// struct Counter(u32);
/// impl Node<Ping> for Counter {
///     fn on_message(&mut self, from: NodeId, m: u32, ctx: &mut Ctx<Ping>) {
///         self.0 += m;
///         ctx.send(from, self.0);
///     }
///     fn digest(&self) -> u64 { hash_of(&self.0) }
/// }
/// #[derive(Clone, Default)]
/// struct Asker;
/// impl Node<Ping> for Asker {
///     fn on_invoke(&mut self, _: (), ctx: &mut Ctx<Ping>) {
///         ctx.send(NodeId::server(0), 7);
///     }
///     fn on_message(&mut self, _: NodeId, m: u32, ctx: &mut Ctx<Ping>) {
///         ctx.respond(m);
///     }
///     fn digest(&self) -> u64 { 0 }
/// }
///
/// let mut sim = Sim::<Ping>::new(
///     SimConfig::default(),
///     vec![Counter::default()],
///     vec![Asker::default()],
/// );
/// sim.invoke(shmem_sim::ClientId(0), ()).unwrap();
/// let resp = sim.run_until_op_completes(shmem_sim::ClientId(0)).unwrap();
/// assert_eq!(resp, 7);
/// ```
pub struct Sim<P: Protocol> {
    pub(super) config: SimConfig,
    /// All server automata behind one `Arc`: construction is two
    /// allocations instead of one per node, and a delivery touches one
    /// contiguous vector. A fork's first node mutation copies the vector.
    pub(super) servers: Arc<Vec<P::Server>>,
    pub(super) clients: Arc<Vec<P::Client>>,
    pub(in crate::world) channels: Arc<ChannelTable<P::Msg>>,
    pub(super) failed: BTreeSet<NodeId>,
    pub(super) frozen: BTreeSet<NodeId>,
    pub(super) cut_links: BTreeSet<(NodeId, NodeId)>,
    /// `failed ∪ frozen` as a flat mask indexed by [`Sim::node_slot`] —
    /// what the per-step eligibility scan reads instead of two `BTreeSet`
    /// lookups per channel.
    pub(super) blocked: Vec<bool>,
    /// How many mask entries are set; zero selects the scheduler's
    /// fault-free fast path.
    pub(super) blocked_count: u32,
    /// Whether this world has proven itself the *unique* owner of the
    /// three hot-path allocations (`servers`, `clients`, `channels`), so
    /// the delivery loop may reach their payloads without per-step
    /// refcount traffic (see [`Sim::deliver_row`]'s safety comment).
    ///
    /// Set by [`Sim::new`] (freshly built `Arc`s are unique) and by the
    /// delivery loop after it unshares all three; cleared — on *both*
    /// worlds — by `Sim::clone`, the only place the hot `Arc`s are ever
    /// cloned. Atomic only so `clone(&self)` can clear it on its source;
    /// every access uses `Relaxed` because the flag is always read and
    /// written under a borrow that already excludes the racing writer.
    pub(super) hot_owned: std::sync::atomic::AtomicBool,
    pub(super) now: u64,
    pub(super) rr_cursor: u64,
    pub(super) open_ops: BTreeMap<ClientId, usize>,
    pub(super) ops: Arc<Vec<OpRecord<P::Inv, P::Resp>>>,
    pub(super) meter: Arc<StorageMeter>,
    /// Observation points that changed no peak, not yet booked into the
    /// shared meter — deferring them keeps the per-step sample from
    /// unsharing the meter `Arc` when nothing moved. Flushed whenever the
    /// meter is next unshared anyway; reads add it to `points_observed`.
    pub(super) meter_pending_ticks: u64,
    /// `None` at [`MetricsLevel::Off`], so unmetered worlds pay nothing —
    /// not even a refcount bump on fork.
    pub(super) metrics: Option<Arc<MetricsRegistry>>,
    /// The registry's level cached inline so the hot-path hooks branch on
    /// a local byte instead of dereferencing the `Arc`. Kept in sync by
    /// construction and [`Sim::set_metrics`].
    pub(super) metrics_level: MetricsLevel,
    /// `None` when coverage is off (the default), mirroring `metrics`.
    pub(super) coverage: Option<Arc<CoverageMap>>,
    /// Cached inline so the hot-path hooks branch on a local bool instead
    /// of checking the `Option`. Kept in sync by construction and
    /// [`Sim::set_coverage`].
    pub(super) coverage_on: bool,
    pub(super) send_log: Option<Arc<Vec<SendRecord<P::Msg>>>>,
    pub(super) traffic: TrafficCounters,
    /// Sum of the *clean* digest components (see `state.rs`): per-node and
    /// per-channel components whose caches are current, plus the
    /// failed/frozen/cut components, which are always maintained eagerly.
    pub(super) digest_acc: u64,
    /// Cached per-node digest components, indexed by [`Sim::node_slot`] —
    /// valid only where `node_dirty` is false.
    pub(super) node_comp: Vec<u64>,
    pub(super) node_dirty: Vec<bool>,
    /// Reusable buffers for the per-event [`Ctx`] and scheduler scans —
    /// the step relation allocates nothing in steady state. Scratch state
    /// is empty between steps and excluded from `Clone`.
    pub(super) scratch_outbox: Vec<(NodeId, P::Msg)>,
    pub(super) scratch_resp: Vec<P::Resp>,
    pub(super) scratch_options: Vec<(NodeId, NodeId)>,
    pub(super) scratch_weighted: Vec<((NodeId, NodeId), usize)>,
}

impl<P: Protocol> Sim<P> {
    /// Builds a world and runs every node's `on_start`.
    pub fn new(
        config: SimConfig,
        mut servers: Vec<P::Server>,
        mut clients: Vec<P::Client>,
    ) -> Sim<P> {
        let n = servers.len();
        let slots = n + clients.len();
        // Run `on_start` on the still-unshared vectors — no per-node
        // `Arc::make_mut` — stashing each node's effects for application
        // once the world exists. Applying all effects after all `on_start`s
        // enqueues the same messages in the same order as interleaving.
        let mut startup: Vec<(NodeId, Ctx<P>)> = Vec::new();
        for (i, s) in servers.iter_mut().enumerate() {
            let id = NodeId::server(i as u32);
            let mut ctx: Ctx<P> = Ctx::new(id, 0);
            <P::Server as Node<P>>::on_start(s, &mut ctx);
            if ctx.has_effects() {
                startup.push((id, ctx));
            }
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let id = NodeId::client(i as u32);
            let mut ctx: Ctx<P> = Ctx::new(id, 0);
            <P::Client as Node<P>>::on_start(c, &mut ctx);
            if ctx.has_effects() {
                startup.push((id, ctx));
            }
        }
        let mut sim = Sim {
            config,
            servers: Arc::new(servers),
            clients: Arc::new(clients),
            channels: Arc::new(ChannelTable::mesh(
                n as u32,
                (slots - n) as u32,
                config.server_gossip,
            )),
            failed: BTreeSet::new(),
            frozen: BTreeSet::new(),
            cut_links: BTreeSet::new(),
            blocked: vec![false; slots],
            blocked_count: 0,
            hot_owned: std::sync::atomic::AtomicBool::new(true),
            now: 0,
            rr_cursor: 0,
            open_ops: BTreeMap::new(),
            ops: Arc::new(Vec::new()),
            meter: Arc::new(StorageMeter::new(n)),
            meter_pending_ticks: 0,
            metrics: None,
            metrics_level: MetricsLevel::Off,
            coverage: config.coverage.then(|| Arc::new(CoverageMap::new())),
            coverage_on: config.coverage,
            send_log: None,
            traffic: TrafficCounters::default(),
            // Every node starts with a stale (dirty) digest component, so
            // nothing is hashed until a digest is actually requested.
            digest_acc: 0,
            node_comp: vec![0; slots],
            node_dirty: vec![true; slots],
            scratch_outbox: Vec::new(),
            scratch_resp: Vec::new(),
            scratch_options: Vec::new(),
            scratch_weighted: Vec::new(),
        };
        sim.set_metrics(config.metrics);
        for (id, ctx) in startup {
            sim.apply_effects(id, ctx);
        }
        sim.sample_meter_full();
        sim
    }

    /// The configuration the world was built with.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// The current step index — the "point" number of the execution.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Flat index of `node` into the block mask and digest caches:
    /// servers first, then clients.
    #[inline]
    pub(super) fn node_slot(&self, node: NodeId) -> usize {
        match node {
            NodeId::Server(s) => s.0 as usize,
            NodeId::Client(c) => self.servers.len() + c.0 as usize,
        }
    }

    /// Re-derives `blocked[node]` from the authoritative sets after a
    /// fail/recover/freeze/unfreeze transition.
    pub(super) fn refresh_blocked(&mut self, node: NodeId) {
        let slot = self.node_slot(node);
        let now_blocked = self.failed.contains(&node) || self.frozen.contains(&node);
        if self.blocked[slot] != now_blocked {
            self.blocked[slot] = now_blocked;
            if now_blocked {
                self.blocked_count += 1;
            } else {
                self.blocked_count -= 1;
            }
        }
    }
}

impl<P: Protocol> fmt::Debug for Sim<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sim {{ step {}, {} servers, {} clients, {} in flight, {} failed, {} frozen, {} cut \
             links }}",
            self.now,
            self.servers.len(),
            self.clients.len(),
            self.total_in_flight(),
            self.failed.len(),
            self.frozen.len(),
            self.cut_links.len()
        )
    }
}

#[cfg(test)]
mod tests;
