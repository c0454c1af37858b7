//! The trace pass: spans recorded from the benchmark's own files, around
//! the calls into each layer.
//!
//! Three decorators sit at the program's public seams —
//! [`TimedTransport`] on `Transport`, [`TimedNode`] on `Node<P>`,
//! [`TimedBackend`] on `AbdBackend`/`CasBackend` — and write into one
//! [`TraceCtx`] per traced round. A span is `(name, start, end, parent,
//! op)`: the parent is the span open on the same thread when it started,
//! and the op identifier `(client, that client's op ordinal)` is shared by
//! every span an operation causes, on the client thread and on all five
//! servers, so one operation can be laid out as a waterfall.
//!
//! Every span is folded into its thread's per-kind totals (count, time,
//! self time = time minus children) as it closes; only the spans of a
//! sample of operations are also kept whole, which bounds memory and the
//! size of `out/trace-<workload>.json`.

mod backend;
mod node;
pub mod replay;
mod transport;

pub use backend::TimedBackend;
pub use node::{RidOf, TimedNode};
pub use transport::{rid_of_payload, TimedTransport};

use crate::proc;
use shmem_net::Envelope;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// `(client + 1) << 32 | ordinal`; ordinals start at 1. [`NO_OP`] marks a
/// span no operation is known to have caused.
pub type OpId = u64;

/// The op identifier of spans outside any operation.
pub const NO_OP: OpId = 0;

/// Of the sampled ordinals, only those of every this-many-th client are
/// kept whole.
const KEEP_CLIENT_STRIDE: u32 = 8;

fn op_id(client: u32, ordinal: u32) -> OpId {
    ((u64::from(client) + 1) << 32) | u64::from(ordinal)
}

/// Splits an [`OpId`] back into `(client, ordinal)`.
pub fn op_parts(op: OpId) -> Option<(u32, u32)> {
    (op != NO_OP).then(|| (((op >> 32) - 1) as u32, op as u32))
}

/// What a span measures. The variants are this repo's layer boundaries as
/// seen from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// `recv_timeout` that returned a message (waiting included).
    Recv,
    /// `recv_timeout` that timed out.
    Idle,
    /// `Transport::send`.
    Send,
    /// From a `recv_timeout` that returned a message to the next
    /// `recv_timeout` call: the loop handling that message.
    Handle,
    /// The same interval after a `recv_timeout` that returned nothing (or
    /// from a loop's first `send`): timers, retransmit scans, starting
    /// operations.
    Tick,
    /// Server `Node::on_message`.
    ServerOnMessage,
    /// Client `Node::on_message`.
    ClientOnMessage,
    /// Client `Node::on_invoke`.
    ClientOnInvoke,
    /// `AbdBackend::load`.
    Load,
    /// `AbdBackend::store_if_newer`.
    StoreIfNewer,
    /// `CasBackend::max_finalized`.
    MaxFinalized,
    /// `CasBackend::pre_write`.
    PreWrite,
    /// `CasBackend::finalize`.
    Finalize,
    /// `CasBackend::read_get`.
    ReadGet,
}

impl Kind {
    /// Every kind, in declaration order.
    pub const ALL: [Kind; 14] = [
        Kind::Recv,
        Kind::Idle,
        Kind::Send,
        Kind::Handle,
        Kind::Tick,
        Kind::ServerOnMessage,
        Kind::ClientOnMessage,
        Kind::ClientOnInvoke,
        Kind::Load,
        Kind::StoreIfNewer,
        Kind::MaxFinalized,
        Kind::PreWrite,
        Kind::Finalize,
        Kind::ReadGet,
    ];

    /// The backend-call kinds (the `store` layer).
    pub const BACKEND: [Kind; 6] = [
        Kind::Load,
        Kind::StoreIfNewer,
        Kind::MaxFinalized,
        Kind::PreWrite,
        Kind::Finalize,
        Kind::ReadGet,
    ];

    /// The span name written to the trace file: `layer.what`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Recv => "transport.recv",
            Kind::Idle => "transport.idle_poll",
            Kind::Send => "transport.send",
            Kind::Handle => "loop.handle",
            Kind::Tick => "loop.tick",
            Kind::ServerOnMessage => "algorithms.server.on_message",
            Kind::ClientOnMessage => "algorithms.client.on_message",
            Kind::ClientOnInvoke => "algorithms.client.on_invoke",
            Kind::Load => "store.load",
            Kind::StoreIfNewer => "store.store_if_newer",
            Kind::MaxFinalized => "store.max_finalized",
            Kind::PreWrite => "store.pre_write",
            Kind::Finalize => "store.finalize",
            Kind::ReadGet => "store.read_get",
        }
    }

    /// Whether this is one of the two loop-level kinds a
    /// [`TimedTransport`] leaves open between `recv_timeout` calls.
    fn is_loop(self) -> bool {
        matches!(self, Kind::Handle | Kind::Tick)
    }
}

/// Totals of one span kind on one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Σ (end − start), nanoseconds.
    pub total_ns: u64,
    /// Σ (end − start − time covered by child spans), nanoseconds.
    pub self_ns: u64,
}

impl Agg {
    /// Componentwise difference: what was added since `earlier`.
    #[must_use]
    pub fn since(self, earlier: Agg) -> Agg {
        Agg {
            count: self.count - earlier.count,
            total_ns: self.total_ns - earlier.total_ns,
            self_ns: self.self_ns - earlier.self_ns,
        }
    }

    /// Componentwise sum.
    #[must_use]
    pub fn plus(self, other: Agg) -> Agg {
        Agg {
            count: self.count + other.count,
            total_ns: self.total_ns + other.total_ns,
            self_ns: self.self_ns + other.self_ns,
        }
    }
}

/// One span kept whole (sampled operations only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was measured.
    pub kind: Kind,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index, in the same thread's span list, of the span that was open
    /// when this one started.
    pub parent: Option<u32>,
    /// The operation that caused it.
    pub op: OpId,
}

#[derive(Clone)]
struct Open {
    kind: Kind,
    start_ns: u64,
    op: OpId,
    child_ns: u64,
    kept: Option<u32>,
}

/// The running totals of one thread: what a phase boundary snapshots and
/// differences.
#[derive(Clone, Debug, PartialEq)]
pub struct Totals {
    /// Per-kind totals, indexed by `Kind as usize`.
    pub agg: [Agg; Kind::ALL.len()],
    /// Σ time of the spans that had no parent. On a transport-owning
    /// thread these are the loop-level kinds (`recv`, `idle_poll`,
    /// `handle`, `tick`), which tile the thread's wall clock.
    pub top_level_ns: u64,
    /// Σ time between a [`TraceCtx::park`] and the next span: the thread
    /// was outside its loop.
    pub parked_ns: u64,
    /// First span start.
    pub first_ns: u64,
    /// Last span end.
    pub last_ns: u64,
    /// Thread CPU seconds at the last reading.
    pub cpu_s: f64,
}

impl Totals {
    /// Totals for `kind`.
    pub fn of(&self, kind: Kind) -> Agg {
        self.agg[kind as usize]
    }

    /// First span start to last span end, less the time parked,
    /// nanoseconds (0 before any span).
    pub fn wall_ns(&self) -> u64 {
        self.last_ns
            .saturating_sub(self.first_ns)
            .saturating_sub(self.parked_ns)
    }

    /// Time inside `recv_timeout`, whether or not a message came.
    pub fn waiting_ns(&self) -> u64 {
        self.of(Kind::Recv).total_ns + self.of(Kind::Idle).total_ns
    }

    /// What was added since `earlier` (a snapshot of the same thread).
    #[must_use]
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut agg = self.agg;
        for (a, e) in agg.iter_mut().zip(&earlier.agg) {
            *a = a.since(*e);
        }
        Totals {
            agg,
            top_level_ns: self.top_level_ns - earlier.top_level_ns,
            parked_ns: self.parked_ns - earlier.parked_ns,
            first_ns: earlier.last_ns.max(self.first_ns),
            last_ns: self.last_ns,
            cpu_s: self.cpu_s - earlier.cpu_s,
        }
    }
}

/// Everything recorded on one thread.
#[derive(Clone)]
pub struct ThreadTrace {
    /// `srv0`…`srv4`, `cli0`, or `thread-<tid>` for a thread nobody named.
    pub name: String,
    /// Kernel thread id.
    pub tid: u32,
    /// Thread CPU seconds when it recorded its first span.
    pub cpu_start_s: f64,
    /// The running totals.
    pub totals: Totals,
    /// Whole spans of sampled operations, in start order.
    pub spans: Vec<Span>,
    stack: Vec<Open>,
    parked_at: Option<u64>,
}

impl ThreadTrace {
    fn note_start(&mut self, start_ns: u64) {
        self.totals.first_ns = self.totals.first_ns.min(start_ns);
        if self.stack.is_empty() {
            if let Some(parked) = self.parked_at.take() {
                self.totals.parked_ns += start_ns.saturating_sub(parked);
            }
        }
    }
}

/// The sampling and rid tables of the load phase now running. Client ids
/// are fresh per phase, so the tables are indexed from the phase's first.
struct PhaseTables {
    first_client: u32,
    keep_every: u32,
    /// Per client: ordinal of the operation it last invoked.
    current: Vec<AtomicU32>,
    /// Per client, per phase nonce: the ordinal of the operation the nonce
    /// belongs to (0 = not yet sent). Written by the client thread before
    /// the first message carrying the nonce leaves; the message itself
    /// orders the write before any server's read.
    rid_ord: Vec<Vec<AtomicU32>>,
}

impl PhaseTables {
    fn index(&self, client: u32) -> Option<usize> {
        let i = client.checked_sub(self.first_client)? as usize;
        (i < self.current.len()).then_some(i)
    }
}

/// The shared state of one traced round.
pub struct TraceCtx {
    id: u64,
    epoch: Instant,
    threads: Mutex<Vec<Arc<Mutex<ThreadTrace>>>>,
    phase: RwLock<PhaseTables>,
    payloads: Mutex<Vec<Envelope>>,
}

static NEXT_CTX: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's trace in the context it last recorded into.
    static LOCAL: RefCell<Option<(u64, Arc<Mutex<ThreadTrace>>)>> = const { RefCell::new(None) };
}

impl TraceCtx {
    /// A context whose timestamps count from `epoch` — pass the epoch the
    /// load generator stamps `OpRecord`s with, so spans and records share
    /// a clock. No operation is attributed until [`TraceCtx::begin_phase`].
    pub fn new(epoch: Instant) -> Arc<TraceCtx> {
        Arc::new(TraceCtx {
            id: NEXT_CTX.fetch_add(1, Ordering::Relaxed),
            epoch,
            threads: Mutex::new(Vec::new()),
            phase: RwLock::new(PhaseTables {
                first_client: 0,
                keep_every: 1,
                current: Vec::new(),
                rid_ord: Vec::new(),
            }),
            payloads: Mutex::new(Vec::new()),
        })
    }

    /// The instant spans (and the load generator's `OpRecord`s) count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the trace epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A load phase starts: `clients` logical clients with ids from
    /// `first_client`, each issuing `ops_per_client` operations (at most
    /// three quorum phases per operation), of which every `keep_every`-th
    /// ordinal of every eighth client is kept whole.
    /// Call between phases, while the servers are quiet: a straggler of the
    /// phase before resolves to [`NO_OP`] from here on.
    pub fn begin_phase(
        &self,
        first_client: u32,
        clients: u32,
        ops_per_client: usize,
        keep_every: u32,
    ) {
        let rids = 3 * ops_per_client + 2;
        *self.phase.write().expect("phase tables poisoned") = PhaseTables {
            first_client,
            keep_every: keep_every.max(1),
            current: (0..clients).map(|_| AtomicU32::new(0)).collect(),
            rid_ord: (0..clients)
                .map(|_| (0..rids).map(|_| AtomicU32::new(0)).collect())
                .collect(),
        };
    }

    /// Whether spans of `op` are kept whole.
    pub fn keeps(&self, op: OpId) -> bool {
        op_parts(op).is_some_and(|(client, ordinal)| {
            let phase = self.phase.read().expect("phase tables poisoned");
            ordinal % phase.keep_every == 0
                && phase
                    .index(client)
                    .is_some_and(|i| (i as u32).is_multiple_of(KEEP_CLIENT_STRIDE))
        })
    }

    fn with_local<R>(&self, f: impl FnOnce(&mut ThreadTrace) -> R) -> R {
        let trace = LOCAL.with(|slot| {
            let mut slot = slot.borrow_mut();
            match &*slot {
                Some((id, trace)) if *id == self.id => Arc::clone(trace),
                _ => {
                    let tid = proc::thread_id();
                    let cpu = proc::task_cpu_s(tid).unwrap_or(0.0);
                    let trace = Arc::new(Mutex::new(ThreadTrace {
                        name: format!("thread-{tid}"),
                        tid,
                        cpu_start_s: cpu,
                        totals: Totals {
                            agg: [Agg::default(); Kind::ALL.len()],
                            top_level_ns: 0,
                            parked_ns: 0,
                            first_ns: u64::MAX,
                            last_ns: 0,
                            cpu_s: 0.0,
                        },
                        spans: Vec::new(),
                        stack: Vec::new(),
                        parked_at: None,
                    }));
                    self.threads
                        .lock()
                        .expect("trace registry poisoned")
                        .push(Arc::clone(&trace));
                    *slot = Some((self.id, Arc::clone(&trace)));
                    trace
                }
            }
        });
        let mut guard = trace.lock().expect("thread trace poisoned");
        f(&mut guard)
    }

    /// Names the calling thread in the trace (and registers it, reading
    /// its CPU clock, if this is its first contact with the context).
    pub fn name_thread(&self, name: &str) {
        self.with_local(|t| t.name = name.to_string());
    }

    /// Every traced thread's running totals, by thread name, with the CPU
    /// clock of each thread that is still alive read now. Called from the
    /// coordinating thread at phase boundaries, while the servers idle.
    pub fn totals(&self) -> Vec<(String, Totals)> {
        self.threads
            .lock()
            .expect("trace registry poisoned")
            .iter()
            .map(|trace| {
                let mut t = trace.lock().expect("thread trace poisoned");
                if let Some(cpu) = proc::task_cpu_s(t.tid) {
                    t.totals.cpu_s = cpu - t.cpu_start_s;
                }
                (t.name.clone(), t.totals.clone())
            })
            .collect()
    }

    /// Opens a span on the calling thread, now.
    pub fn open(&self, kind: Kind, op: OpId) {
        self.open_at(kind, op, self.now_ns());
    }

    /// Opens a span on the calling thread at `start_ns` (a clock reading
    /// the caller already took, so adjacent spans can share an edge). A
    /// span opened under [`NO_OP`] inherits the operation of the span it
    /// nests in.
    pub fn open_at(&self, kind: Kind, op: OpId, start_ns: u64) {
        self.with_local(|t| {
            t.note_start(start_ns);
            let op = if op == NO_OP {
                t.stack.last().map_or(NO_OP, |p| p.op)
            } else {
                op
            };
            let kept = self.keeps(op).then(|| {
                t.spans.push(Span {
                    kind,
                    start_ns,
                    end_ns: start_ns,
                    parent: t.stack.last().and_then(|p| p.kept),
                    op,
                });
                (t.spans.len() - 1) as u32
            });
            t.stack.push(Open {
                kind,
                start_ns,
                op,
                child_ns: 0,
                kept,
            });
        });
    }

    /// Closes the innermost open span of the calling thread, which must be
    /// of `kind`, now.
    pub fn close(&self, kind: Kind) {
        let end_ns = self.now_ns();
        self.with_local(|t| {
            let open = t.stack.pop().expect("close without an open span");
            assert_eq!(open.kind, kind, "spans must nest");
            Self::fold(t, &open, end_ns);
        });
    }

    fn fold(t: &mut ThreadTrace, open: &Open, end_ns: u64) {
        let dur = end_ns - open.start_ns;
        let agg = &mut t.totals.agg[open.kind as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        match t.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => t.totals.top_level_ns += dur,
        }
        if let Some(i) = open.kept {
            t.spans[i as usize].end_ns = end_ns;
        }
        t.totals.last_ns = end_ns;
    }

    /// Whether the calling thread has a span open.
    pub fn in_span(&self) -> bool {
        self.with_local(|t| !t.stack.is_empty())
    }

    /// Closes the calling thread's open loop-level span (`loop.handle` or
    /// `loop.tick`), if that is what is innermost, at `end_ns`.
    pub fn close_loop_at(&self, end_ns: u64) {
        self.with_local(|t| {
            if t.stack.last().is_some_and(|o| o.kind.is_loop()) {
                let open = t.stack.pop().expect("just seen");
                Self::fold(t, &open, end_ns);
            }
        });
    }

    /// The calling thread leaves its loop (a `run_worker` call returned):
    /// closes the loop-level span left open, and books the time until the
    /// thread's next span as parked instead of as a hole in its tiling.
    pub fn park(&self) {
        let now = self.now_ns();
        self.close_loop_at(now);
        self.with_local(|t| {
            debug_assert!(t.stack.is_empty(), "parked inside a span");
            t.parked_at = Some(now);
        });
    }

    /// Records a childless span after the fact (its kind and operation
    /// may only be known once it has ended, as with `recv_timeout`).
    pub fn leaf(&self, kind: Kind, start_ns: u64, end_ns: u64, op: OpId) {
        let keep = self.keeps(op);
        self.with_local(|t| {
            t.note_start(start_ns);
            let dur = end_ns - start_ns;
            let agg = &mut t.totals.agg[kind as usize];
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur;
            let parent = match t.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur;
                    p.kept
                }
                None => {
                    t.totals.top_level_ns += dur;
                    None
                }
            };
            if keep {
                t.spans.push(Span {
                    kind,
                    start_ns,
                    end_ns,
                    parent,
                    op,
                });
            }
            t.totals.last_ns = end_ns;
        });
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, kind: Kind, op: OpId) -> SpanGuard<'_> {
        self.open(kind, op);
        SpanGuard { ctx: self, kind }
    }

    /// A client starts its next operation: advances its ordinal.
    pub fn begin_op(&self, client: u32) -> OpId {
        let phase = self.phase.read().expect("phase tables poisoned");
        match phase.index(client) {
            Some(i) => op_id(client, phase.current[i].fetch_add(1, Ordering::Relaxed) + 1),
            None => NO_OP,
        }
    }

    /// A client sends a message under phase nonce `rid`: binds the nonce
    /// to the client's current operation (first binding wins, so a
    /// retransmission keeps the original).
    pub fn bind_rid(&self, client: u32, rid: u64) -> OpId {
        let phase = self.phase.read().expect("phase tables poisoned");
        let Some(i) = phase.index(client) else {
            return NO_OP;
        };
        let Some(slot) = phase.rid_ord[i].get(rid as usize) else {
            return NO_OP;
        };
        let ordinal = phase.current[i].load(Ordering::Relaxed);
        let bound = match slot.compare_exchange(0, ordinal, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => ordinal,
            Err(earlier) => earlier,
        };
        if bound == 0 {
            NO_OP
        } else {
            op_id(client, bound)
        }
    }

    /// The operation phase nonce `rid` of `client` belongs to.
    pub fn op_of_rid(&self, client: u32, rid: u64) -> OpId {
        let phase = self.phase.read().expect("phase tables poisoned");
        phase
            .index(client)
            .and_then(|i| phase.rid_ord[i].get(rid as usize))
            .map(|slot| slot.load(Ordering::Relaxed))
            .filter(|&ordinal| ordinal != 0)
            .map_or(NO_OP, |ordinal| op_id(client, ordinal))
    }

    /// Hands a transport's sampled envelopes over for replay.
    pub fn keep_payloads(&self, sample: Vec<Envelope>) {
        self.payloads
            .lock()
            .expect("payload sample poisoned")
            .extend(sample);
    }

    /// Takes the sampled envelopes (every decorated `send` contributes,
    /// so each sampled message appears once).
    pub fn take_payloads(&self) -> Vec<Envelope> {
        std::mem::take(&mut self.payloads.lock().expect("payload sample poisoned"))
    }

    /// Every thread's trace. Call after the traced threads have been
    /// joined.
    pub fn threads(&self) -> Vec<ThreadTrace> {
        self.threads
            .lock()
            .expect("trace registry poisoned")
            .iter()
            .map(|t| t.lock().expect("thread trace poisoned").clone())
            .collect()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    ctx: &'a TraceCtx,
    kind: Kind,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.ctx.close(self.kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let ctx = TraceCtx::new(Instant::now());
        ctx.begin_phase(0, 1, 4, 1);
        ctx.name_thread("t");
        let op = ctx.begin_op(0);
        {
            let _outer = ctx.span(Kind::Handle, op);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = ctx.span(Kind::ServerOnMessage, NO_OP);
                std::thread::sleep(Duration::from_millis(3));
            }
        }
        let t = ctx.threads().pop().unwrap();
        let (outer, inner) = (
            t.totals.of(Kind::Handle),
            t.totals.of(Kind::ServerOnMessage),
        );
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 3_000_000 && outer.self_ns >= 2_000_000);
        assert_eq!(t.totals.top_level_ns, outer.total_ns);
        // The child inherited the op and points at its parent.
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, op);
        assert_eq!(op_parts(op), Some((0, 1)));
    }

    #[test]
    fn rids_bind_to_the_operation_that_first_sent_them() {
        let ctx = TraceCtx::new(Instant::now());
        // Clients 64..80; ordinal 2 of clients 64 and 72 is kept.
        ctx.begin_phase(64, 16, 4, 2);
        assert_eq!(ctx.op_of_rid(65, 1), NO_OP);
        let first = ctx.begin_op(65);
        assert_eq!(ctx.bind_rid(65, 1), first);
        assert_eq!(ctx.bind_rid(65, 2), first);
        let second = ctx.begin_op(65);
        assert_eq!(ctx.bind_rid(65, 3), second);
        // A retransmission of rid 2 after the next op began stays put.
        assert_eq!(ctx.bind_rid(65, 2), first);
        assert_eq!(ctx.op_of_rid(65, 3), second);
        assert_eq!(ctx.op_of_rid(64, 3), NO_OP);
        // Outside the phase's client range nothing resolves.
        assert_eq!(ctx.begin_op(3), NO_OP);
        assert_eq!(ctx.op_of_rid(80, 0), NO_OP);
        assert!(!ctx.keeps(first) && !ctx.keeps(second) && !ctx.keeps(NO_OP));
        ctx.begin_op(72);
        assert!(ctx.keeps(ctx.begin_op(72)));
        // A new phase forgets the old one's clients.
        ctx.begin_phase(80, 1, 4, 1);
        assert_eq!(ctx.op_of_rid(65, 3), NO_OP);
    }

    #[test]
    fn parked_time_is_not_a_hole_in_the_tiling() {
        let ctx = TraceCtx::new(Instant::now());
        ctx.open(Kind::Tick, NO_OP);
        std::thread::sleep(Duration::from_millis(1));
        ctx.park();
        assert!(!ctx.in_span());
        std::thread::sleep(Duration::from_millis(5));
        ctx.open(Kind::Tick, NO_OP);
        std::thread::sleep(Duration::from_millis(1));
        ctx.park();
        let totals = ctx.totals().pop().unwrap().1;
        assert_eq!(totals.of(Kind::Tick).count, 2);
        assert!(totals.parked_ns >= 5_000_000);
        assert_eq!(totals.wall_ns(), totals.top_level_ns);
    }
}
