//! The Attiya–Bar-Noy–Dolev (ABD) replication algorithm \[3\], in its
//! multi-writer multi-reader form.
//!
//! * **Write**: query a majority for the highest tag; pick the successor
//!   tag; store `(tag, value)` at a majority.
//! * **Read**: query a majority for the highest `(tag, value)`; write that
//!   pair back to a majority; return the value.
//!
//! Servers hold exactly one `(tag, value)` pair, so per-server storage is
//! `log2|V|` bits of value plus `o(log|V|)` of tag metadata — the
//! replication cost the paper's Figure 1 plots as `f + 1` (on a minimal
//! replica set) and that Theorem 6.5 shows is optimal once the number of
//! active writes reaches `f + 1`.
//!
//! ABD sends no server-to-server messages, so it is a member of the
//! Theorem 4.1 (no-gossip) algorithm class.

use crate::backend::{AbdBackend, LocalAbd};
use crate::multikey::{Key, MultiInv, MultiResp, ShardMap, KEY_WIRE_BYTES, RID_WIRE_BYTES};
use crate::reg::{RegInv, RegResp};
use crate::tag::Tag;
use crate::value::{Value, ValueSpec};
use shmem_sim::{hash_of, Ctx, Node, NodeId, Protocol};
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

/// Protocol marker for ABD.
pub struct Abd;

impl Protocol for Abd {
    type Msg = AbdMsg;
    type Inv = RegInv;
    type Resp = RegResp;
    type Server = AbdServer;
    type Client = AbdClient;

    fn corrupt_server(server: &mut AbdServer, mode: u8, salt: u64) -> bool {
        server.corrupt(mode, salt)
    }

    fn corrupt_msg(msg: &mut AbdMsg, salt: u64) -> bool {
        corrupt_abd_msg(msg, salt)
    }
}

/// ABD wire messages. `rid` is a per-client phase nonce; stale responses
/// are discarded by nonce mismatch.
#[derive(Clone, Debug, PartialEq)]
pub enum AbdMsg {
    /// Phase 1: ask a server for its current `(tag, value)`.
    Query {
        /// Phase nonce.
        rid: u64,
    },
    /// Server's phase-1 reply.
    QueryResp {
        /// Echoed nonce.
        rid: u64,
        /// The server's current tag.
        tag: Tag,
        /// The server's current value.
        value: Value,
    },
    /// Phase 2: store `(tag, value)` (write propagation or read
    /// write-back).
    Store {
        /// Phase nonce.
        rid: u64,
        /// Tag to store.
        tag: Tag,
        /// Value to store.
        value: Value,
    },
    /// Server's phase-2 acknowledgement.
    StoreAck {
        /// Echoed nonce.
        rid: u64,
    },
}

/// Whether an ABD message is *value-dependent* in the sense of the paper's
/// Definition 6.4: its content depends on the value being written. Only
/// `Store` carries the value; queries and acks are metadata. ABD writes
/// send value-dependent messages in exactly one phase (the second), so ABD
/// satisfies Assumption 3.
pub fn is_value_dependent(msg: &AbdMsg) -> bool {
    matches!(
        msg,
        AbdMsg::Store { .. } | AbdMsg::QueryResp { .. } // responses echo the stored value
    )
}

/// Value-dependence restricted to client-to-server traffic (what the
/// Section 6 construction withholds): only `Store`.
pub fn is_value_dependent_upstream(msg: &AbdMsg) -> bool {
    matches!(msg, AbdMsg::Store { .. })
}

/// In-flight corruption for the ABD repertoire: tamper the carried value
/// of the value-bearing messages, leave routing, nonces and tags intact.
/// Queries and acks carry no corruptible payload.
pub(crate) fn corrupt_abd_msg(msg: &mut AbdMsg, salt: u64) -> bool {
    match msg {
        AbdMsg::QueryResp { value, .. } | AbdMsg::Store { value, .. } => {
            *value = shmem_util::tamper_value(*value, salt, 0);
            true
        }
        AbdMsg::Query { .. } | AbdMsg::StoreAck { .. } => false,
    }
}

/// An ABD server: stores the highest-tagged `(tag, value)` pair seen.
#[derive(Clone, Debug)]
pub struct AbdServer {
    tag: Tag,
    value: Value,
    spec: ValueSpec,
}

impl AbdServer {
    /// A server initialized to the register's initial value.
    pub fn new(initial: Value, spec: ValueSpec) -> AbdServer {
        AbdServer {
            tag: Tag::ZERO,
            value: initial,
            spec,
        }
    }

    /// The currently stored tag (white-box access for audits).
    pub fn tag(&self) -> Tag {
        self.tag
    }

    /// The currently stored value.
    pub fn value(&self) -> Value {
        self.value
    }

    /// Corruption-adversary entry point: fabricate the stored pair —
    /// tamper the value and forge a higher tag (writer
    /// [`crate::corrupt::FORGED_WRITER`]) so the fabrication wins the
    /// reader's max-tag fold. Replication holds exactly one version, so
    /// all modes collapse to this one attack.
    pub fn corrupt(&mut self, _mode: u8, salt: u64) -> bool {
        self.tag = self.tag.successor(crate::corrupt::FORGED_WRITER);
        self.value = shmem_util::tamper_value(self.value, salt, 0);
        true
    }
}

impl<P> Node<P> for AbdServer
where
    P: Protocol<Msg = AbdMsg, Inv = RegInv, Resp = RegResp>,
{
    fn on_message(&mut self, from: NodeId, msg: AbdMsg, ctx: &mut Ctx<P>) {
        match msg {
            AbdMsg::Query { rid } => ctx.send(
                from,
                AbdMsg::QueryResp {
                    rid,
                    tag: self.tag,
                    value: self.value,
                },
            ),
            AbdMsg::Store { rid, tag, value } => {
                if tag > self.tag {
                    self.tag = tag;
                    self.value = value;
                }
                ctx.send(from, AbdMsg::StoreAck { rid });
            }
            AbdMsg::QueryResp { .. } | AbdMsg::StoreAck { .. } => {
                // Servers never receive responses; tolerate and ignore.
            }
        }
    }

    fn state_bits(&self) -> f64 {
        // One value of the domain: log2 |V| bits.
        self.spec.bits
    }

    fn metadata_bits(&self) -> f64 {
        Tag::BITS
    }

    fn digest(&self) -> u64 {
        hash_of(&(self.tag, self.value))
    }
}

/// Which phase an ABD client is in. The per-phase response sets live in
/// reusable buffers on [`AbdClient`], so an operation allocates nothing in
/// steady state (the old `BTreeMap`/`BTreeSet` paid a node allocation per
/// phase on the simulator's hot loop).
#[derive(Clone, Copy, Debug)]
enum Phase {
    Idle,
    Query { op: RegInv },
    Store { reply: RegResp },
}

/// An ABD client; acts as writer or reader depending on the invocation.
#[derive(Clone, Debug)]
pub struct AbdClient {
    n: u32,
    majority: u32,
    me: u32,
    rid: u64,
    phase: Phase,
    /// Phase-1 responses: `(server, tag, value)`, deduplicated by server,
    /// cleared at each phase transition.
    responses: Vec<(u32, Tag, Value)>,
    /// Phase-2 acknowledging servers, deduplicated, cleared per phase.
    acks: Vec<u32>,
}

impl AbdClient {
    /// A client for an `n`-server cluster. `me` is the client's id, used to
    /// break tag ties between concurrent writers.
    pub fn new(n: u32, me: u32) -> AbdClient {
        AbdClient {
            n,
            majority: n / 2 + 1,
            me,
            rid: 0,
            phase: Phase::Idle,
            // Sized for every server responding, so a phase never grows
            // them mid-operation.
            responses: Vec::with_capacity(n as usize),
            acks: Vec::with_capacity(n as usize),
        }
    }
}

impl<P> Node<P> for AbdClient
where
    P: Protocol<Msg = AbdMsg, Inv = RegInv, Resp = RegResp>,
{
    fn on_invoke(&mut self, inv: RegInv, ctx: &mut Ctx<P>) {
        assert!(
            matches!(self.phase, Phase::Idle),
            "client invoked while an operation is in flight"
        );
        self.rid += 1;
        self.responses.clear();
        self.phase = Phase::Query { op: inv };
        ctx.broadcast_to_servers(self.n, AbdMsg::Query { rid: self.rid });
    }

    fn on_message(&mut self, from: NodeId, msg: AbdMsg, ctx: &mut Ctx<P>) {
        let server = match from.as_server() {
            Some(s) => s.0,
            None => return, // clients only talk to servers
        };
        match (self.phase, msg) {
            (Phase::Query { op }, AbdMsg::QueryResp { rid, tag, value }) if rid == self.rid => {
                if self.responses.iter().any(|&(s, _, _)| s == server) {
                    return; // duplicated delivery of a server's reply
                }
                self.responses.push((server, tag, value));
                if self.responses.len() as u32 == self.majority {
                    let &(_, max_tag, max_value) = self
                        .responses
                        .iter()
                        .max_by_key(|&&(_, t, _)| t)
                        .expect("majority is nonempty");
                    let (tag, value, reply) = match op {
                        RegInv::Write(v) => (max_tag.successor(self.me), v, RegResp::WriteAck),
                        RegInv::Read => (max_tag, max_value, RegResp::ReadValue(max_value)),
                    };
                    self.rid += 1;
                    self.acks.clear();
                    self.phase = Phase::Store { reply };
                    ctx.broadcast_to_servers(
                        self.n,
                        AbdMsg::Store {
                            rid: self.rid,
                            tag,
                            value,
                        },
                    );
                }
            }
            (Phase::Store { reply }, AbdMsg::StoreAck { rid }) if rid == self.rid => {
                if self.acks.contains(&server) {
                    return; // duplicated ack
                }
                self.acks.push(server);
                if self.acks.len() as u32 == self.majority {
                    self.phase = Phase::Idle;
                    self.rid += 1;
                    ctx.respond(reply);
                }
            }
            _ => {} // stale or out-of-phase message
        }
    }

    fn digest(&self) -> u64 {
        // The response/ack sets are semantically unordered (behavior
        // depends only on membership), so canonicalize by server id —
        // arrival order must not distinguish digests.
        let canonical: (Vec<(u32, Tag, Value)>, Vec<u32>) = match self.phase {
            Phase::Idle => (Vec::new(), Vec::new()),
            Phase::Query { .. } => {
                let mut r = self.responses.clone();
                r.sort_unstable_by_key(|&(s, _, _)| s);
                (r, Vec::new())
            }
            Phase::Store { .. } => {
                let mut a = self.acks.clone();
                a.sort_unstable();
                (Vec::new(), a)
            }
        };
        let phase_bits = match self.phase {
            Phase::Idle => (0u8, None, None),
            Phase::Query { op } => (1, Some(op), None),
            Phase::Store { reply } => (2, None, Some(reply)),
        };
        hash_of(&(
            self.me,
            self.rid,
            phase_bits.0,
            format!("{:?}{:?}", phase_bits.1, phase_bits.2),
            canonical,
        ))
    }
}

/// Protocol marker for sharded multi-register ABD.
///
/// The single-register automaton generalized to a keyspace: servers hold
/// a per-key `(tag, value)` map (sparse — an absent key reads as the
/// initial value under [`Tag::ZERO`]), and clients run both ABD phases for
/// a whole batch of keys at once, coalescing each round into one message
/// per (client, server) pair. With [`ShardMap::full`] and batch size 1 the
/// message flow is step-isomorphic to legacy [`Abd`].
///
/// The parameter is the [`AbdBackend`] the servers keep their state in:
/// the sequential in-struct map by default, a store shared between worker
/// threads or a decorator where a caller names one. Messages, clients and
/// hooks are the same for every backend.
pub struct ShardedAbd<B = LocalAbd>(PhantomData<fn() -> B>);

impl<B> Protocol for ShardedAbd<B>
where
    B: AbdBackend + Clone + std::fmt::Debug + 'static,
{
    type Msg = ShardedAbdMsg;
    type Inv = MultiInv;
    type Resp = MultiResp;
    type Server = ShardedAbdServerOn<B>;
    type Client = ShardedAbdClient;

    fn msg_wire_bytes(msg: &ShardedAbdMsg) -> u64 {
        msg.wire_bytes()
    }

    fn corrupt_server(server: &mut ShardedAbdServerOn<B>, mode: u8, salt: u64) -> bool {
        server.backend_mut().corrupt(mode, salt)
    }

    fn corrupt_msg(msg: &mut ShardedAbdMsg, salt: u64) -> bool {
        match msg {
            ShardedAbdMsg::QueryResp { items, .. } | ShardedAbdMsg::Store { items, .. } => {
                for (key, _, value) in items.iter_mut() {
                    *value = shmem_util::tamper_value(*value, salt, *key);
                }
                !items.is_empty()
            }
            ShardedAbdMsg::Query { .. } | ShardedAbdMsg::StoreAck { .. } => false,
        }
    }
}

/// Batched ABD wire messages: the legacy repertoire with per-key payload
/// vectors. `rid` is the per-client phase nonce, exactly as in [`AbdMsg`].
#[derive(Clone, Debug, PartialEq)]
pub enum ShardedAbdMsg {
    /// Phase 1: ask a server for its `(tag, value)` of every listed key.
    Query {
        /// Phase nonce.
        rid: u64,
        /// The keys this server covers for the batch.
        keys: Vec<Key>,
    },
    /// Server's phase-1 reply, one entry per queried key.
    QueryResp {
        /// Echoed nonce.
        rid: u64,
        /// `(key, tag, value)` for every queried key.
        items: Vec<(Key, Tag, Value)>,
    },
    /// Phase 2: store every listed `(key, tag, value)`.
    Store {
        /// Phase nonce.
        rid: u64,
        /// The batch's versions for this server's keys.
        items: Vec<(Key, Tag, Value)>,
    },
    /// Server's phase-2 acknowledgement, covering every key of the
    /// [`ShardedAbdMsg::Store`] it answers.
    StoreAck {
        /// Echoed nonce.
        rid: u64,
    },
}

impl ShardedAbdMsg {
    /// Exact serialized size: nonce plus per-entry payload. This is what
    /// the metrics ledger charges (via [`Protocol::msg_wire_bytes`]), so
    /// `wire_bytes` reflects the batched encoding rather than the enum's
    /// in-memory footprint.
    pub fn wire_bytes(&self) -> u64 {
        const ITEM: u64 = KEY_WIRE_BYTES + Tag::WIRE_BYTES + ValueSpec::VALUE_BYTES as u64;
        match self {
            ShardedAbdMsg::Query { keys, .. } => {
                RID_WIRE_BYTES + KEY_WIRE_BYTES * keys.len() as u64
            }
            ShardedAbdMsg::QueryResp { items, .. } | ShardedAbdMsg::Store { items, .. } => {
                RID_WIRE_BYTES + ITEM * items.len() as u64
            }
            ShardedAbdMsg::StoreAck { .. } => RID_WIRE_BYTES,
        }
    }
}

/// A sharded ABD server: the highest-tagged `(tag, value)` per key it has
/// been asked to store. Sparse — untouched keys cost nothing and read as
/// `(Tag::ZERO, initial)`.
///
/// Generic over the [`AbdBackend`] holding the per-key state, so the same
/// automaton runs against the sequential in-struct map ([`LocalAbd`], the
/// default) or a store shared between threads (`shmem-store`).
#[derive(Clone, Debug)]
pub struct ShardedAbdServerOn<B> {
    initial: Value,
    spec: ValueSpec,
    backend: B,
}

/// The sequential reference server — the default everywhere in the repo.
pub type ShardedAbdServer = ShardedAbdServerOn<LocalAbd>;

impl ShardedAbdServerOn<LocalAbd> {
    /// A server whose every key starts at the register initial value.
    pub fn new(initial: Value, spec: ValueSpec) -> ShardedAbdServer {
        ShardedAbdServerOn::with_backend(initial, spec, LocalAbd::new())
    }
}

impl<B: AbdBackend> ShardedAbdServerOn<B> {
    /// A server over an explicit backend (possibly shared with others).
    pub fn with_backend(initial: Value, spec: ValueSpec, backend: B) -> ShardedAbdServerOn<B> {
        ShardedAbdServerOn {
            initial,
            spec,
            backend,
        }
    }

    /// The `(tag, value)` the server would report for `key`.
    pub fn entry(&self, key: Key) -> (Tag, Value) {
        self.backend.load(key).unwrap_or((Tag::ZERO, self.initial))
    }

    /// Number of keys with materialized (written) state.
    pub fn keys_held(&self) -> usize {
        self.backend.keys_held()
    }

    /// The state backend (for store-level assertions in tests).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access — the corruption adversary's seam into the
    /// server's stored state.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

impl<P, B> Node<P> for ShardedAbdServerOn<B>
where
    P: Protocol<Msg = ShardedAbdMsg, Inv = MultiInv, Resp = MultiResp>,
    B: AbdBackend + Clone + std::fmt::Debug,
{
    fn on_message(&mut self, from: NodeId, msg: ShardedAbdMsg, ctx: &mut Ctx<P>) {
        match msg {
            ShardedAbdMsg::Query { rid, keys } => {
                let items = keys
                    .iter()
                    .map(|&k| {
                        let (t, v) = self.entry(k);
                        (k, t, v)
                    })
                    .collect();
                ctx.send(from, ShardedAbdMsg::QueryResp { rid, items });
            }
            ShardedAbdMsg::Store { rid, items } => {
                for (key, tag, value) in items {
                    self.backend.store_if_newer(key, tag, value);
                }
                ctx.send(from, ShardedAbdMsg::StoreAck { rid });
            }
            ShardedAbdMsg::QueryResp { .. } | ShardedAbdMsg::StoreAck { .. } => {}
        }
    }

    fn state_bits(&self) -> f64 {
        // One domain value per materialized key.
        self.backend.keys_held() as f64 * self.spec.bits
    }

    fn metadata_bits(&self) -> f64 {
        self.backend.keys_held() as f64 * (Tag::BITS + 64.0) // tag + key name
    }

    fn digest(&self) -> u64 {
        self.backend.digest_with(self.initial)
    }
}

/// Which phase a sharded ABD client is in. Both phases run as *lockstep
/// barriers*: phase 2 starts only when every key of the batch has reached
/// its shard majority, so each phase costs exactly one message per
/// (client, server) pair regardless of batch size.
#[derive(Clone, Debug)]
enum ShardedPhase {
    Idle,
    Query {
        op: MultiInv,
        /// Servers whose reply was already counted (dedup under
        /// duplication faults).
        heard: BTreeSet<u32>,
        /// Per key: responses counted, highest tag, its value.
        acc: BTreeMap<Key, (u32, Tag, Value)>,
    },
    Store {
        reply: MultiResp,
        heard: BTreeSet<u32>,
        /// Per key: store-acks counted.
        acks: BTreeMap<Key, u32>,
    },
}

/// A sharded ABD client: batched writer/reader over a [`ShardMap`].
#[derive(Clone, Debug)]
pub struct ShardedAbdClient {
    map: ShardMap,
    me: u32,
    rid: u64,
    phase: ShardedPhase,
}

impl ShardedAbdClient {
    /// A client for the given placement; `me` breaks tag ties.
    ///
    /// # Panics
    ///
    /// Panics unless shard majorities are failure-minority quorums
    /// (`replicas >= 1`; the caller picks `replicas > 2f`).
    pub fn new(map: ShardMap, me: u32) -> ShardedAbdClient {
        ShardedAbdClient {
            map,
            me,
            rid: 0,
            phase: ShardedPhase::Idle,
        }
    }

    /// One coalesced round: for each server (in canonical 0..n order) the
    /// batch keys it covers, skipping servers with none.
    fn per_server_keys(&self, op: &MultiInv) -> Vec<(u32, Vec<Key>)> {
        let mut out: Vec<(u32, Vec<Key>)> = Vec::new();
        for server in 0..self.map.n() {
            let keys: Vec<Key> = op.keys().filter(|&k| self.map.covers(server, k)).collect();
            if !keys.is_empty() {
                out.push((server, keys));
            }
        }
        out
    }
}

impl<P> Node<P> for ShardedAbdClient
where
    P: Protocol<Msg = ShardedAbdMsg, Inv = MultiInv, Resp = MultiResp>,
{
    fn on_invoke(&mut self, inv: MultiInv, ctx: &mut Ctx<P>) {
        assert!(
            matches!(self.phase, ShardedPhase::Idle),
            "client invoked while an operation is in flight"
        );
        inv.assert_well_formed();
        self.rid += 1;
        let acc = inv.keys().map(|k| (k, (0, Tag::ZERO, 0))).collect();
        for (server, keys) in self.per_server_keys(&inv) {
            ctx.send(
                NodeId::server(server),
                ShardedAbdMsg::Query {
                    rid: self.rid,
                    keys,
                },
            );
        }
        self.phase = ShardedPhase::Query {
            op: inv,
            heard: BTreeSet::new(),
            acc,
        };
    }

    fn on_message(&mut self, from: NodeId, msg: ShardedAbdMsg, ctx: &mut Ctx<P>) {
        let server = match from.as_server() {
            Some(s) => s.0,
            None => return,
        };
        let majority = self.map.majority();
        match (&mut self.phase, msg) {
            (ShardedPhase::Query { heard, acc, .. }, ShardedAbdMsg::QueryResp { rid, items })
                if rid == self.rid =>
            {
                if !heard.insert(server) {
                    return; // duplicated delivery of a server's reply
                }
                for (key, tag, value) in items {
                    if let Some(e) = acc.get_mut(&key) {
                        e.0 += 1;
                        // `>=` so the seeded (ZERO, 0) placeholder is
                        // overwritten by a genuine ZERO-tagged initial.
                        if tag >= e.1 {
                            e.1 = tag;
                            e.2 = value;
                        }
                    }
                }
                if acc.values().all(|&(count, _, _)| count >= majority) {
                    // Barrier reached: every key has its shard majority.
                    let ShardedPhase::Query { op, acc, .. } =
                        std::mem::replace(&mut self.phase, ShardedPhase::Idle)
                    else {
                        unreachable!("matched Query above");
                    };
                    let mut decided: Vec<(Key, Tag, Value)> = Vec::with_capacity(op.ops.len());
                    let mut reply = MultiResp {
                        ops: Vec::with_capacity(op.ops.len()),
                    };
                    for &(key, inv) in &op.ops {
                        let (_, max_tag, max_value) = acc[&key];
                        let (tag, value, resp) = match inv {
                            RegInv::Write(v) => (max_tag.successor(self.me), v, RegResp::WriteAck),
                            RegInv::Read => (max_tag, max_value, RegResp::ReadValue(max_value)),
                        };
                        decided.push((key, tag, value));
                        reply.ops.push((key, resp));
                    }
                    self.rid += 1;
                    for (server, keys) in self.per_server_keys(&op) {
                        let items = decided
                            .iter()
                            .filter(|&&(k, _, _)| keys.contains(&k))
                            .copied()
                            .collect();
                        ctx.send(
                            NodeId::server(server),
                            ShardedAbdMsg::Store {
                                rid: self.rid,
                                items,
                            },
                        );
                    }
                    self.phase = ShardedPhase::Store {
                        reply,
                        heard: BTreeSet::new(),
                        acks: op.keys().map(|k| (k, 0)).collect(),
                    };
                }
            }
            (ShardedPhase::Store { heard, acks, .. }, ShardedAbdMsg::StoreAck { rid })
                if rid == self.rid =>
            {
                if !heard.insert(server) {
                    return; // duplicated ack
                }
                let map = self.map;
                for (&key, count) in acks.iter_mut() {
                    if map.covers(server, key) {
                        *count += 1;
                    }
                }
                if acks.values().all(|&count| count >= majority) {
                    let ShardedPhase::Store { reply, .. } =
                        std::mem::replace(&mut self.phase, ShardedPhase::Idle)
                    else {
                        unreachable!("matched Store above");
                    };
                    self.rid += 1;
                    ctx.respond(reply);
                }
            }
            _ => {} // stale or out-of-phase message
        }
    }

    fn digest(&self) -> u64 {
        let phase_tag = match &self.phase {
            ShardedPhase::Idle => 0u8,
            ShardedPhase::Query { .. } => 1,
            ShardedPhase::Store { .. } => 2,
        };
        // BTreeMap/BTreeSet debug-print in canonical key order, so arrival
        // order cannot distinguish digests.
        hash_of(&(self.me, self.rid, phase_tag, format!("{:?}", self.phase)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_sim::{ClientId, ServerId, Sim, SimConfig};

    fn cluster(n: u32, clients: u32) -> Sim<Abd> {
        let spec = ValueSpec::from_bits(64.0);
        Sim::new(
            SimConfig::without_gossip(),
            (0..n).map(|_| AbdServer::new(0, spec)).collect(),
            (0..clients).map(|c| AbdClient::new(n, c)).collect(),
        )
    }

    #[test]
    fn write_then_read() {
        let mut sim = cluster(5, 2);
        sim.invoke(ClientId(0), RegInv::Write(42)).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(0)).unwrap(),
            RegResp::WriteAck
        );
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(42)
        );
    }

    #[test]
    fn read_of_initial_value() {
        let mut sim = cluster(3, 1);
        sim.invoke(ClientId(0), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(0)).unwrap(),
            RegResp::ReadValue(0)
        );
    }

    #[test]
    fn tolerates_minority_failures() {
        let mut sim = cluster(5, 2);
        sim.fail_last_servers(2);
        sim.invoke(ClientId(0), RegInv::Write(7)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(7)
        );
    }

    #[test]
    fn stuck_under_majority_failures() {
        let mut sim = cluster(5, 1);
        sim.fail_last_servers(3);
        sim.invoke(ClientId(0), RegInv::Write(7)).unwrap();
        assert!(sim.run_until_op_completes(ClientId(0)).is_err());
    }

    #[test]
    fn sequential_writes_monotone_tags() {
        let mut sim = cluster(3, 1);
        for v in 1..=4 {
            sim.invoke(ClientId(0), RegInv::Write(v)).unwrap();
            sim.run_until_op_completes(ClientId(0)).unwrap();
        }
        let t = sim.server(ServerId(0)).tag();
        assert_eq!(t.seq, 4);
        assert_eq!(sim.server(ServerId(0)).value(), 4);
    }

    #[test]
    fn storage_is_one_value_per_server() {
        let mut sim = cluster(5, 1);
        sim.invoke(ClientId(0), RegInv::Write(9)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        let snap = sim.storage();
        assert_eq!(snap.per_server_peak_bits, vec![64.0; 5]);
        assert_eq!(snap.peak_total_bits, 5.0 * 64.0);
    }

    #[test]
    fn read_write_back_propagates() {
        // A read that observes a value from a partially-propagated write
        // writes it back to a majority, making it stable.
        let mut sim = cluster(3, 3);
        sim.invoke(ClientId(0), RegInv::Write(5)).unwrap();
        // Deliver the write's query round fully, then its store to server 0
        // only; then freeze the writer mid-write.
        for s in 0..3 {
            sim.deliver_one(NodeId::client(0), NodeId::server(s))
                .unwrap();
            sim.deliver_one(NodeId::server(s), NodeId::client(0))
                .unwrap();
        }
        sim.deliver_one(NodeId::client(0), NodeId::server(0))
            .unwrap();
        sim.freeze(NodeId::client(0));
        // A read must find v=5 (server 0) and write it back before
        // returning; a subsequent read then also returns 5 (atomicity).
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        let r1 = sim.run_until_op_completes(ClientId(1)).unwrap();
        if r1 == RegResp::ReadValue(5) {
            sim.invoke(ClientId(2), RegInv::Read).unwrap();
            assert_eq!(
                sim.run_until_op_completes(ClientId(2)).unwrap(),
                RegResp::ReadValue(5)
            );
        } else {
            // The read legitimately missed the in-flight write.
            assert_eq!(r1, RegResp::ReadValue(0));
        }
    }

    fn sharded(map: ShardMap, clients: u32) -> Sim<ShardedAbd> {
        let spec = ValueSpec::from_bits(64.0);
        Sim::new(
            SimConfig::without_gossip(),
            (0..map.n())
                .map(|_| ShardedAbdServer::new(0, spec))
                .collect(),
            (0..clients)
                .map(|c| ShardedAbdClient::new(map, c))
                .collect(),
        )
    }

    #[test]
    fn sharded_batched_write_then_read() {
        let mut sim = sharded(ShardMap::full(5), 2);
        sim.invoke(ClientId(0), MultiInv::writes(&[(1, 11), (2, 22), (9, 99)]))
            .unwrap();
        let resp = sim.run_until_op_completes(ClientId(0)).unwrap();
        assert_eq!(resp.ops.len(), 3);
        assert!(resp.ops.iter().all(|(_, r)| *r == RegResp::WriteAck));
        sim.invoke(ClientId(1), MultiInv::reads(&[2, 9, 7]))
            .unwrap();
        let resp = sim.run_until_op_completes(ClientId(1)).unwrap();
        assert_eq!(resp.get(2), Some(&RegResp::ReadValue(22)));
        assert_eq!(resp.get(9), Some(&RegResp::ReadValue(99)));
        // Untouched key reads the initial value.
        assert_eq!(resp.get(7), Some(&RegResp::ReadValue(0)));
    }

    #[test]
    fn sharded_mixed_batch_and_tag_discipline() {
        let mut sim = sharded(ShardMap::full(3), 1);
        sim.invoke(ClientId(0), MultiInv::writes(&[(4, 40)]))
            .unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        // A mixed batch: overwrite key 4, read key 4's neighbor.
        sim.invoke(
            ClientId(0),
            MultiInv {
                ops: vec![(4, RegInv::Write(41)), (5, RegInv::Read)],
            },
        )
        .unwrap();
        let resp = sim.run_until_op_completes(ClientId(0)).unwrap();
        assert_eq!(resp.get(4), Some(&RegResp::WriteAck));
        assert_eq!(resp.get(5), Some(&RegResp::ReadValue(0)));
        sim.run_to_quiescence().unwrap();
        // Tags grow per key: key 4 was written twice.
        assert_eq!(sim.server(ServerId(0)).entry(4).0.seq, 2);
        assert_eq!(sim.server(ServerId(0)).entry(4).1, 41);
    }

    #[test]
    fn sharded_placement_restricts_traffic_to_the_shard() {
        // Disjoint shards on 6 servers: keys of shard 0 never touch
        // servers 3..6.
        let map = ShardMap::new(6, 2, 3);
        let mut sim = sharded(map, 1);
        let key = (0..100u64).find(|&k| map.shard_of(k) == 0).unwrap();
        sim.invoke(ClientId(0), MultiInv::writes(&[(key, 7)]))
            .unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.run_to_quiescence().unwrap();
        for s in 0..3 {
            assert_eq!(sim.server(ServerId(s)).entry(key).1, 7, "server {s}");
        }
        for s in 3..6 {
            assert_eq!(sim.server(ServerId(s)).keys_held(), 0, "server {s}");
        }
    }

    #[test]
    fn sharded_tolerates_minority_failures_per_shard() {
        let mut sim = sharded(ShardMap::full(5), 1);
        sim.fail_last_servers(2);
        sim.invoke(ClientId(0), MultiInv::writes(&[(1, 10), (2, 20)]))
            .unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(0), MultiInv::reads(&[1, 2])).unwrap();
        let resp = sim.run_until_op_completes(ClientId(0)).unwrap();
        assert_eq!(resp.get(1), Some(&RegResp::ReadValue(10)));
        assert_eq!(resp.get(2), Some(&RegResp::ReadValue(20)));
    }

    #[test]
    fn sharded_batch_messages_are_coalesced() {
        // A batch of B keys on one shard costs exactly the single-key
        // message count: 4 messages per contacted server.
        for batch in [1usize, 4, 16] {
            let mut sim = sharded(ShardMap::full(5), 1);
            let pairs: Vec<(Key, Value)> = (0..batch as u64).map(|k| (k, k + 100)).collect();
            sim.invoke(ClientId(0), MultiInv::writes(&pairs)).unwrap();
            sim.run_until_op_completes(ClientId(0)).unwrap();
            sim.run_to_quiescence().unwrap();
            let t = sim.traffic();
            assert_eq!(t.client_to_server, 10, "batch {batch}"); // query + store
            assert_eq!(t.server_to_client, 10, "batch {batch}"); // resp + ack
        }
    }

    #[test]
    fn sharded_wire_bytes_scale_with_batch() {
        let q1 = ShardedAbdMsg::Query {
            rid: 1,
            keys: vec![1],
        }
        .wire_bytes();
        let q4 = ShardedAbdMsg::Query {
            rid: 1,
            keys: vec![1, 2, 3, 4],
        }
        .wire_bytes();
        assert_eq!(q1, 16);
        assert_eq!(q4, 40);
        let s = ShardedAbdMsg::Store {
            rid: 1,
            items: vec![(1, Tag::new(1, 0), 7), (2, Tag::new(1, 0), 8)],
        };
        assert_eq!(s.wire_bytes(), 8 + 2 * 28);
        assert_eq!(ShardedAbdMsg::StoreAck { rid: 1 }.wire_bytes(), 8);
    }

    #[test]
    fn stale_responses_ignored() {
        // Drive a client through overlapping phases and ensure rid
        // filtering keeps it consistent: the client must still finish.
        let mut sim = cluster(5, 1);
        sim.invoke(ClientId(0), RegInv::Write(3)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        // Leftover messages (acks beyond majority) get delivered now.
        sim.run_to_quiescence().unwrap();
        sim.invoke(ClientId(0), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(0)).unwrap(),
            RegResp::ReadValue(3)
        );
    }
}
