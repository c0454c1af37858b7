//! A CAS variant with a *hash announcement* phase — the algorithm class of
//! references \[2, 15\] (PoWerStore, AWE) that Section 6.5's conjecture
//! addresses.
//!
//! Those Byzantine-tolerant protocols send information about the value in
//! **two** phases: an early phase carries a short hash (for client
//! verification), a later phase carries the codeword symbols. Both
//! messages are *value-dependent* in the sense of Definition 6.4, so
//! Assumption 3(b) fails and Theorem 6.5 does not apply as stated — even
//! though the hash phase carries only `O(λ)` bits, far less than
//! `Θ(log|V|)`. The paper conjectures the bound still holds for this
//! class.
//!
//! `HashedCas` reproduces the *structure* (we simulate crash faults only,
//! so the hash is used as an integrity check on decode, not as a Byzantine
//! defence): write = query → announce `h(v)` → pre-write symbols →
//! finalize. The Assumption 3(b) checker in `shmem-core` detects its two
//! value-dependent phases.

use crate::backend::{HashedBackend, LocalHashed};
use crate::cas::{
    CasConfig, CasMsg, CasServer, ShardedCas, ShardedCasClient, ShardedCasConfig, ShardedCasMsg,
    ShardedCasServerOn,
};
use crate::multikey::{Key, MultiInv, MultiResp, KEY_WIRE_BYTES, RID_WIRE_BYTES};
use crate::reg::{RegInv, RegResp};
use crate::tag::Tag;
use crate::value::{Value, ValueSpec};
use shmem_erasure::CodeError;
use shmem_sim::{hash_of, Ctx, Node, NodeId, Protocol, ServerId};
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

/// Protocol marker for hashed CAS.
pub struct HashedCas;

impl Protocol for HashedCas {
    type Msg = HashedMsg;
    type Inv = RegInv;
    type Resp = RegResp;
    type Server = HashedServer;
    type Client = HashedClient;

    fn corrupt_server(server: &mut HashedServer, mode: u8, salt: u64) -> bool {
        server.corrupt(mode, salt)
    }

    fn corrupt_msg(msg: &mut HashedMsg, salt: u64) -> bool {
        match msg {
            HashedMsg::Cas(m) => crate::cas::corrupt_cas_msg(m, salt),
            HashedMsg::ReadResp {
                share: Some(share), ..
            } => shmem_util::tamper_bytes(share, salt, 0),
            // Hash announcements and attached digests are integrity
            // metadata; the adversary corrupts data, not the checksums
            // guarding it.
            _ => false,
        }
    }

    fn count_detections(resp: &RegResp) -> u64 {
        crate::corrupt::detections_in_reg(resp)
    }
}

/// Wire messages: the CAS repertoire plus the hash announcement.
#[derive(Clone, Debug, PartialEq)]
pub enum HashedMsg {
    /// A plain CAS message.
    Cas(CasMsg),
    /// The extra phase: announce `h(value)` for `tag` (value-dependent!).
    HashAnnounce {
        /// Phase nonce.
        rid: u64,
        /// The version being written.
        tag: Tag,
        /// The value's digest.
        digest: u64,
    },
    /// Acknowledge a hash announcement.
    HashAck {
        /// Echoed nonce.
        rid: u64,
    },
    /// A read reply: the plain CAS [`CasMsg::ReadResp`] with the server's
    /// stored digest for the requested tag attached, so the reader can
    /// verify the decoded value before returning it.
    ReadResp {
        /// Echoed nonce.
        rid: u64,
        /// This server's symbol for the tag, if it holds one.
        share: Option<Vec<u8>>,
        /// The announced `h(value)` for the tag, if this server heard the
        /// announcement (`Tag::ZERO` reads serve the initial value's
        /// digest, seeded at startup).
        digest: Option<u64>,
    },
}

/// Whether a message is value-dependent on the client-to-server path —
/// note **two** kinds qualify, unlike plain CAS.
pub fn is_value_dependent_upstream(msg: &HashedMsg) -> bool {
    match msg {
        HashedMsg::Cas(m) => crate::cas::is_value_dependent_upstream(m),
        HashedMsg::HashAnnounce { .. } => true,
        // Server-to-client only: value-bearing, but downstream.
        HashedMsg::ReadResp { .. } => false,
        HashedMsg::HashAck { .. } => false,
    }
}

/// The value digest used in announcements.
pub fn value_digest(v: Value) -> u64 {
    hash_of(&("hashed-cas-digest", v))
}

/// A hashed-CAS server: a CAS server plus a store of announced hashes.
#[derive(Clone, Debug)]
pub struct HashedServer {
    inner: CasServer,
    hashes: BTreeMap<Tag, u64>,
}

impl HashedServer {
    /// Server `index`, initialized like a CAS server.
    pub fn new(cfg: CasConfig, index: ServerId, initial: Value) -> HashedServer {
        let mut hashes = BTreeMap::new();
        hashes.insert(Tag::ZERO, value_digest(initial));
        HashedServer {
            inner: CasServer::new(cfg, index, initial),
            hashes,
        }
    }

    /// The announced hash for a tag, if any.
    pub fn hash_of(&self, tag: Tag) -> Option<u64> {
        self.hashes.get(&tag).copied()
    }

    /// Corruption-adversary entry point: tamper the wrapped CAS server's
    /// coded slot only — the announced hashes are the integrity metadata
    /// the adversary must not forge.
    pub fn corrupt(&mut self, mode: u8, salt: u64) -> bool {
        self.inner.corrupt(mode, salt)
    }
}

impl Node<HashedCas> for HashedServer {
    fn on_message(&mut self, from: NodeId, msg: HashedMsg, ctx: &mut Ctx<HashedCas>) {
        match msg {
            HashedMsg::Cas(inner) => {
                // Run the CAS server and translate its replies. Replies
                // to a `ReadGet` get the stored digest for the requested
                // tag attached, so the reader can verify what it decodes.
                let read_tag = match &inner {
                    CasMsg::ReadGet { tag, .. } => Some(*tag),
                    _ => None,
                };
                let mut cas_ctx: Ctx<crate::cas::Cas> = Ctx::new(ctx.me(), ctx.now());
                self.inner.on_message(from, inner, &mut cas_ctx);
                let (outbox, _) = cas_ctx.into_effects();
                for (to, m) in outbox {
                    match (m, read_tag) {
                        (CasMsg::ReadResp { rid, share }, Some(tag)) => ctx.send(
                            to,
                            HashedMsg::ReadResp {
                                rid,
                                share,
                                digest: self.hashes.get(&tag).copied(),
                            },
                        ),
                        (m, _) => ctx.send(to, HashedMsg::Cas(m)),
                    }
                }
            }
            HashedMsg::HashAnnounce { rid, tag, digest } => {
                self.hashes.insert(tag, digest);
                ctx.send(from, HashedMsg::HashAck { rid });
            }
            HashedMsg::HashAck { .. } | HashedMsg::ReadResp { .. } => {}
        }
    }

    fn state_bits(&self) -> f64 {
        self.inner.state_bits()
    }

    fn metadata_bits(&self) -> f64 {
        // Hashes are O(lambda) metadata: 64 bits each plus a tag.
        self.inner.metadata_bits() + self.hashes.len() as f64 * (64.0 + Tag::BITS)
    }

    fn digest(&self) -> u64 {
        hash_of(&(self.inner.digest(), &self.hashes))
    }
}

#[derive(Clone, Debug)]
enum Phase {
    Idle,
    WriteQuery {
        value: Value,
        tags: BTreeMap<u32, Tag>,
    },
    Announce {
        value: Value,
        tag: Tag,
        acks: BTreeSet<u32>,
    },
    PreWrite {
        tag: Tag,
        acks: BTreeSet<u32>,
    },
    Finalize {
        acks: BTreeSet<u32>,
    },
    ReadQuery {
        tags: BTreeMap<u32, Tag>,
    },
    ReadGet {
        responses: BTreeSet<u32>,
        shares: BTreeMap<u32, Vec<u8>>,
        /// Stored digests attached to the replies — the integrity
        /// evidence the decoded value is checked against.
        digests: BTreeMap<u32, u64>,
    },
}

/// A hashed-CAS client.
#[derive(Clone, Debug)]
pub struct HashedClient {
    cfg: CasConfig,
    me: u32,
    rid: u64,
    phase: Phase,
}

impl HashedClient {
    /// A client for the given configuration.
    pub fn new(cfg: CasConfig, me: u32) -> HashedClient {
        HashedClient {
            cfg,
            me,
            rid: 0,
            phase: Phase::Idle,
        }
    }

    fn broadcast_cas(&self, ctx: &mut Ctx<HashedCas>, msg: CasMsg) {
        for i in 0..self.cfg.n {
            ctx.send(NodeId::server(i), HashedMsg::Cas(msg.clone()));
        }
    }
}

impl Node<HashedCas> for HashedClient {
    fn on_invoke(&mut self, inv: RegInv, ctx: &mut Ctx<HashedCas>) {
        assert!(matches!(self.phase, Phase::Idle), "operation already open");
        self.rid += 1;
        match inv {
            RegInv::Write(value) => {
                self.phase = Phase::WriteQuery {
                    value,
                    tags: BTreeMap::new(),
                };
                self.broadcast_cas(ctx, CasMsg::QueryTag { rid: self.rid });
            }
            RegInv::Read => {
                self.phase = Phase::ReadQuery {
                    tags: BTreeMap::new(),
                };
                self.broadcast_cas(ctx, CasMsg::QueryTag { rid: self.rid });
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: HashedMsg, ctx: &mut Ctx<HashedCas>) {
        let server = match from.as_server() {
            Some(s) => s.0,
            None => return,
        };
        let q = self.cfg.quorum();
        match (&mut self.phase, msg) {
            (
                Phase::WriteQuery { value, tags },
                HashedMsg::Cas(CasMsg::QueryTagResp { rid, tag }),
            ) if rid == self.rid => {
                tags.insert(server, tag);
                if tags.len() as u32 == q {
                    let max = tags.values().max().copied().unwrap_or(Tag::ZERO);
                    let tag = max.successor(self.me);
                    let value = *value;
                    self.rid += 1;
                    // Value-dependent phase #1: the hash announcement.
                    for i in 0..self.cfg.n {
                        ctx.send(
                            NodeId::server(i),
                            HashedMsg::HashAnnounce {
                                rid: self.rid,
                                tag,
                                digest: value_digest(value),
                            },
                        );
                    }
                    self.phase = Phase::Announce {
                        value,
                        tag,
                        acks: BTreeSet::new(),
                    };
                }
            }
            (Phase::Announce { value, tag, acks }, HashedMsg::HashAck { rid })
                if rid == self.rid =>
            {
                acks.insert(server);
                if acks.len() as u32 == q {
                    let (value, tag) = (*value, *tag);
                    let shares = self.cfg.code().encode_bytes(&ValueSpec::to_bytes(value));
                    self.rid += 1;
                    // Value-dependent phase #2: the codeword symbols.
                    for (i, share) in shares.into_iter().enumerate() {
                        ctx.send(
                            NodeId::server(i as u32),
                            HashedMsg::Cas(CasMsg::PreWrite {
                                rid: self.rid,
                                tag,
                                share,
                            }),
                        );
                    }
                    self.phase = Phase::PreWrite {
                        tag,
                        acks: BTreeSet::new(),
                    };
                }
            }
            (Phase::PreWrite { tag, acks }, HashedMsg::Cas(CasMsg::PreAck { rid }))
                if rid == self.rid =>
            {
                acks.insert(server);
                if acks.len() as u32 == q {
                    let tag = *tag;
                    self.rid += 1;
                    self.broadcast_cas(ctx, CasMsg::Finalize { rid: self.rid, tag });
                    self.phase = Phase::Finalize {
                        acks: BTreeSet::new(),
                    };
                }
            }
            (Phase::Finalize { acks }, HashedMsg::Cas(CasMsg::FinAck { rid }))
                if rid == self.rid =>
            {
                acks.insert(server);
                if acks.len() as u32 == q {
                    self.phase = Phase::Idle;
                    self.rid += 1;
                    ctx.respond(RegResp::WriteAck);
                }
            }
            (Phase::ReadQuery { tags }, HashedMsg::Cas(CasMsg::QueryTagResp { rid, tag }))
                if rid == self.rid =>
            {
                tags.insert(server, tag);
                if tags.len() as u32 == q {
                    let t = tags.values().max().copied().unwrap_or(Tag::ZERO);
                    self.rid += 1;
                    self.broadcast_cas(
                        ctx,
                        CasMsg::ReadGet {
                            rid: self.rid,
                            tag: t,
                        },
                    );
                    self.phase = Phase::ReadGet {
                        responses: BTreeSet::new(),
                        shares: BTreeMap::new(),
                        digests: BTreeMap::new(),
                    };
                }
            }
            (
                Phase::ReadGet {
                    responses,
                    shares,
                    digests,
                    ..
                },
                HashedMsg::ReadResp { rid, share, digest },
            ) if rid == self.rid => {
                responses.insert(server);
                if let Some(s) = share {
                    shares.insert(server, s);
                }
                if let Some(d) = digest {
                    digests.insert(server, d);
                }
                if responses.len() as u32 >= q && shares.len() as u32 >= self.cfg.k {
                    let picked: Vec<(usize, Vec<u8>)> = shares
                        .iter()
                        .take(self.cfg.k as usize)
                        .map(|(&i, s)| (i as usize, s.clone()))
                        .collect();
                    let decoded = self
                        .cfg
                        .code()
                        .decode_bytes(&picked, ValueSpec::VALUE_BYTES);
                    // The detection step: the decoded value must match
                    // every digest the responders stored for the tag —
                    // and at least one responder must have carried one
                    // (quorum intersection with the announce round
                    // guarantees that in every corruption-free run).
                    let verdict = match decoded {
                        Ok(bytes) => {
                            let value = ValueSpec::from_bytes(&bytes);
                            let expected = value_digest(value);
                            if !digests.is_empty() && digests.values().all(|&d| d == expected) {
                                RegResp::ReadValue(value)
                            } else {
                                RegResp::ReadFailed(CodeError::IntegrityMismatch)
                            }
                        }
                        Err(e) => RegResp::ReadFailed(e),
                    };
                    self.phase = Phase::Idle;
                    self.rid += 1;
                    ctx.respond(verdict);
                }
            }
            _ => {}
        }
    }

    fn digest(&self) -> u64 {
        let phase_tag = match &self.phase {
            Phase::Idle => 0u8,
            Phase::WriteQuery { .. } => 1,
            Phase::Announce { .. } => 2,
            Phase::PreWrite { .. } => 3,
            Phase::Finalize { .. } => 4,
            Phase::ReadQuery { .. } => 5,
            Phase::ReadGet { .. } => 6,
        };
        hash_of(&(self.me, self.rid, phase_tag, format!("{:?}", self.phase)))
    }
}

/// Protocol marker for sharded, batched hashed CAS.
///
/// The multi-key analogue of [`HashedCas`]: the underlying rounds are
/// [`ShardedCas`]'s, and every write batch gets one extra batched
/// hash-announcement round between tag query and pre-write — still one
/// message per (client, server) pair, carrying `(key, tag, h(v))` for
/// every covered key.
///
/// The parameter is the [`HashedBackend`] the servers keep their state
/// in ([`LocalHashed`] by default); see [`crate::abd::ShardedAbd`].
pub struct ShardedHashed<B = LocalHashed>(PhantomData<fn() -> B>);

impl<B> Protocol for ShardedHashed<B>
where
    B: HashedBackend + Clone + std::fmt::Debug + 'static,
{
    type Msg = ShardedHashedMsg;
    type Inv = MultiInv;
    type Resp = MultiResp;
    type Server = ShardedHashedServerOn<B>;
    type Client = ShardedHashedClient;

    fn msg_wire_bytes(msg: &ShardedHashedMsg) -> u64 {
        msg.wire_bytes()
    }

    fn corrupt_server(server: &mut ShardedHashedServerOn<B>, mode: u8, salt: u64) -> bool {
        server.backend_mut().corrupt(mode, salt)
    }

    fn corrupt_msg(msg: &mut ShardedHashedMsg, salt: u64) -> bool {
        match msg {
            ShardedHashedMsg::Cas(m) => crate::cas::corrupt_sharded_cas_msg(m, salt),
            ShardedHashedMsg::ReadResp { items, .. } => {
                let mut tampered = false;
                for (key, share, _digest) in items.iter_mut() {
                    // Shares are fair game; the attached digests are
                    // integrity metadata and stay untouched.
                    if let Some(share) = share {
                        tampered |= shmem_util::tamper_bytes(share, salt, *key);
                    }
                }
                tampered
            }
            ShardedHashedMsg::HashAnnounce { .. } | ShardedHashedMsg::HashAck { .. } => false,
        }
    }

    fn count_detections(resp: &MultiResp) -> u64 {
        crate::corrupt::detections_in_multi(resp)
    }
}

/// Batched hashed-CAS wire messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardedHashedMsg {
    /// A plain sharded-CAS message.
    Cas(ShardedCasMsg),
    /// Batched hash announcement: `(key, tag, h(value))` per covered key
    /// (value-dependent!).
    HashAnnounce {
        /// Phase nonce.
        rid: u64,
        /// The versions being written, with their value digests.
        items: Vec<(Key, Tag, u64)>,
    },
    /// Acknowledge a hash-announcement batch.
    HashAck {
        /// Echoed nonce.
        rid: u64,
    },
    /// A batched read reply: the plain [`ShardedCasMsg::ReadResp`] with
    /// each key's stored digest for the requested tag attached, so the
    /// reader can verify what it decodes per key.
    ReadResp {
        /// Echoed nonce.
        rid: u64,
        /// Per key: this server's symbol for the requested tag (if held)
        /// and the announced `h(value)` for that tag (if heard).
        items: Vec<(Key, Option<Vec<u8>>, Option<u64>)>,
    },
}

impl ShardedHashedMsg {
    /// Exact serialized size (digest charged at 8 bytes per item).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            ShardedHashedMsg::Cas(m) => m.wire_bytes(),
            ShardedHashedMsg::HashAnnounce { items, .. } => {
                RID_WIRE_BYTES + (KEY_WIRE_BYTES + Tag::WIRE_BYTES + 8) * items.len() as u64
            }
            ShardedHashedMsg::HashAck { .. } => RID_WIRE_BYTES,
            ShardedHashedMsg::ReadResp { items, .. } => {
                RID_WIRE_BYTES
                    + items
                        .iter()
                        .map(|(_, share, digest)| {
                            KEY_WIRE_BYTES
                                + 1
                                + share.as_ref().map_or(0, |s| s.len() as u64)
                                + 1
                                + digest.map_or(0, |_| 8)
                        })
                        .sum::<u64>()
            }
        }
    }
}

/// Whether a sharded hashed-CAS message is value-dependent on the
/// client-to-server path — as in the single-register variant, two kinds
/// qualify.
pub fn sharded_is_value_dependent_upstream(msg: &ShardedHashedMsg) -> bool {
    match msg {
        ShardedHashedMsg::Cas(m) => matches!(m, ShardedCasMsg::PreWrite { .. }),
        ShardedHashedMsg::HashAnnounce { .. } => true,
        // Server-to-client only: value-bearing, but downstream.
        ShardedHashedMsg::ReadResp { .. } => false,
        ShardedHashedMsg::HashAck { .. } => false,
    }
}

/// A sharded hashed-CAS server: a sharded CAS server plus announced
/// hashes per `(key, tag)` — both held in the [`HashedBackend`], so the
/// same automaton runs against the sequential in-struct state
/// ([`LocalHashed`], the default) or a store shared between threads.
#[derive(Clone, Debug)]
pub struct ShardedHashedServerOn<B> {
    inner: ShardedCasServerOn<B>,
}

/// The sequential reference server — the default everywhere in the repo.
pub type ShardedHashedServer = ShardedHashedServerOn<LocalHashed>;

impl ShardedHashedServerOn<LocalHashed> {
    /// Server `index`, initialized like a sharded CAS server.
    pub fn new(cfg: ShardedCasConfig, index: ServerId, initial: Value) -> ShardedHashedServer {
        let backend = LocalHashed::new(cfg.clone(), index.0, initial);
        ShardedHashedServerOn::with_backend(cfg, index, backend)
    }
}

impl<B: HashedBackend> ShardedHashedServerOn<B> {
    /// A server over an explicit backend (possibly shared with others).
    pub fn with_backend(
        cfg: ShardedCasConfig,
        index: ServerId,
        backend: B,
    ) -> ShardedHashedServerOn<B> {
        ShardedHashedServerOn {
            inner: ShardedCasServerOn::with_backend(cfg, index, backend),
        }
    }

    /// The announced hash for `(key, tag)`, if any.
    pub fn hash_of(&self, key: Key, tag: Tag) -> Option<u64> {
        self.inner.backend().get_hash(key, tag)
    }

    /// The wrapped sharded CAS server.
    pub fn cas(&self) -> &ShardedCasServerOn<B> {
        &self.inner
    }

    /// Mutable backend access — the corruption adversary's seam into the
    /// server's stored state.
    pub fn backend_mut(&mut self) -> &mut B {
        self.inner.backend_mut()
    }
}

impl<P, B> Node<P> for ShardedHashedServerOn<B>
where
    P: Protocol<Msg = ShardedHashedMsg, Inv = MultiInv, Resp = MultiResp>,
    B: HashedBackend + Clone + std::fmt::Debug,
{
    fn on_message(&mut self, from: NodeId, msg: ShardedHashedMsg, ctx: &mut Ctx<P>) {
        match msg {
            ShardedHashedMsg::Cas(inner) => {
                // Replies to a `ReadGet` get each key's stored digest for
                // its requested tag attached, so the reader can verify
                // what it decodes.
                let read_tags: Option<BTreeMap<Key, Tag>> = match &inner {
                    ShardedCasMsg::ReadGet { items, .. } => Some(items.iter().copied().collect()),
                    _ => None,
                };
                let mut cas_ctx: Ctx<ShardedCas> = Ctx::new(ctx.me(), ctx.now());
                self.inner.on_message(from, inner, &mut cas_ctx);
                let (outbox, _) = cas_ctx.into_effects();
                for (to, m) in outbox {
                    match (m, &read_tags) {
                        (ShardedCasMsg::ReadResp { rid, items }, Some(tags)) => {
                            let items = items
                                .into_iter()
                                .map(|(key, share)| {
                                    let digest = tags
                                        .get(&key)
                                        .and_then(|&t| self.inner.backend().get_hash(key, t));
                                    (key, share, digest)
                                })
                                .collect();
                            ctx.send(to, ShardedHashedMsg::ReadResp { rid, items });
                        }
                        (m, _) => ctx.send(to, ShardedHashedMsg::Cas(m)),
                    }
                }
            }
            ShardedHashedMsg::HashAnnounce { rid, items } => {
                for (key, tag, digest) in items {
                    self.inner.backend_mut().put_hash(key, tag, digest);
                }
                ctx.send(from, ShardedHashedMsg::HashAck { rid });
            }
            ShardedHashedMsg::HashAck { .. } | ShardedHashedMsg::ReadResp { .. } => {}
        }
    }

    fn state_bits(&self) -> f64 {
        Node::<ShardedCas>::state_bits(&self.inner)
    }

    fn metadata_bits(&self) -> f64 {
        Node::<ShardedCas>::metadata_bits(&self.inner)
            + self.inner.backend().hash_count() as f64 * (64.0 + Tag::BITS)
    }

    fn digest(&self) -> u64 {
        self.inner.backend().hashed_digest_with(self.inner.index())
    }
}

/// The announce interlock: while waiting for hash acks, the inner CAS
/// client's pre-write messages are held back.
#[derive(Clone, Debug)]
enum AnnounceGate {
    Open,
    Waiting {
        heard: BTreeSet<u32>,
        acks: BTreeMap<Key, u32>,
        held: Vec<(NodeId, ShardedCasMsg)>,
    },
}

/// A sharded hashed-CAS client: drives a [`ShardedCasClient`] and splices
/// a batched hash-announcement round in front of every pre-write round.
#[derive(Clone, Debug)]
pub struct ShardedHashedClient {
    cfg: ShardedCasConfig,
    inner: ShardedCasClient,
    /// Nonce for announce rounds (disjoint use from the inner client's).
    rid: u64,
    /// `h(v)` per key of the in-flight write batch.
    digests: BTreeMap<Key, u64>,
    /// Stored digests attached to read replies, per key — the integrity
    /// evidence each decoded value is checked against. Cleared when the
    /// batch completes (and at the next invocation).
    read_digests: BTreeMap<Key, Vec<u64>>,
    gate: AnnounceGate,
}

impl ShardedHashedClient {
    /// A client for the given configuration; `me` breaks tag ties.
    pub fn new(cfg: ShardedCasConfig, me: u32) -> ShardedHashedClient {
        ShardedHashedClient {
            inner: ShardedCasClient::new(cfg.clone(), me),
            cfg,
            rid: 0,
            digests: BTreeMap::new(),
            read_digests: BTreeMap::new(),
            gate: AnnounceGate::Open,
        }
    }

    /// The detection step for a completed batch: every key read back must
    /// match every digest its responders stored for the tag, and at least
    /// one responder must have carried one (quorum intersection with the
    /// announce round guarantees that in every corruption-free run; the
    /// `Tag::ZERO` digest is seeded at startup). Failing keys degrade to
    /// `ReadFailed(IntegrityMismatch)` — detection, not a wrong value.
    fn verify_reads(&mut self, mut resp: MultiResp) -> MultiResp {
        for (key, r) in resp.ops.iter_mut() {
            if let RegResp::ReadValue(value) = *r {
                let expected = value_digest(value);
                let ds = self.read_digests.get(key).map_or(&[][..], Vec::as_slice);
                if ds.is_empty() || ds.iter().any(|&d| d != expected) {
                    *r = RegResp::ReadFailed(CodeError::IntegrityMismatch);
                }
            }
        }
        self.read_digests.clear();
        resp
    }

    /// Forwards inner-client effects, diverting pre-write rounds through
    /// the announce gate.
    fn route_effects<P>(
        &mut self,
        outbox: Vec<(NodeId, ShardedCasMsg)>,
        responses: Vec<MultiResp>,
        ctx: &mut Ctx<P>,
    ) where
        P: Protocol<Msg = ShardedHashedMsg, Inv = MultiInv, Resp = MultiResp>,
    {
        let prewrite = outbox
            .iter()
            .any(|(_, m)| matches!(m, ShardedCasMsg::PreWrite { .. }));
        if prewrite {
            // Value-dependent phase #1: announce digests along the same
            // (server, keys) fan-out the held pre-writes will use.
            self.rid += 1;
            let mut acks: BTreeMap<Key, u32> = BTreeMap::new();
            for (to, m) in &outbox {
                let ShardedCasMsg::PreWrite { items, .. } = m else {
                    continue;
                };
                let announce = items
                    .iter()
                    .map(|&(key, tag, _)| {
                        acks.entry(key).or_insert(0);
                        (key, tag, self.digests[&key])
                    })
                    .collect();
                ctx.send(
                    *to,
                    ShardedHashedMsg::HashAnnounce {
                        rid: self.rid,
                        items: announce,
                    },
                );
            }
            self.gate = AnnounceGate::Waiting {
                heard: BTreeSet::new(),
                acks,
                held: outbox,
            };
        } else {
            for (to, m) in outbox {
                ctx.send(to, ShardedHashedMsg::Cas(m));
            }
        }
        for resp in responses {
            ctx.respond(resp);
        }
    }
}

impl<P> Node<P> for ShardedHashedClient
where
    P: Protocol<Msg = ShardedHashedMsg, Inv = MultiInv, Resp = MultiResp>,
{
    fn on_invoke(&mut self, inv: MultiInv, ctx: &mut Ctx<P>) {
        self.read_digests.clear();
        self.digests = inv
            .ops
            .iter()
            .filter_map(|&(k, i)| match i {
                RegInv::Write(v) => Some((k, value_digest(v))),
                RegInv::Read => None,
            })
            .collect();
        let mut cas_ctx: Ctx<ShardedCas> = Ctx::new(ctx.me(), ctx.now());
        self.inner.on_invoke(inv, &mut cas_ctx);
        let (outbox, responses) = cas_ctx.into_effects();
        self.route_effects(outbox, responses, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: ShardedHashedMsg, ctx: &mut Ctx<P>) {
        match msg {
            ShardedHashedMsg::HashAck { rid } if rid == self.rid => {
                let AnnounceGate::Waiting { heard, acks, .. } = &mut self.gate else {
                    return;
                };
                let Some(server) = from.as_server() else {
                    return;
                };
                if !heard.insert(server.0) {
                    return;
                }
                for (&key, count) in acks.iter_mut() {
                    if self.cfg.map.covers(server.0, key) {
                        *count += 1;
                    }
                }
                let q = self.cfg.quorum();
                if acks.values().all(|&count| count >= q) {
                    let AnnounceGate::Waiting { held, .. } =
                        std::mem::replace(&mut self.gate, AnnounceGate::Open)
                    else {
                        unreachable!("matched Waiting above");
                    };
                    // Value-dependent phase #2: release the symbols.
                    for (to, m) in held {
                        ctx.send(to, ShardedHashedMsg::Cas(m));
                    }
                }
            }
            ShardedHashedMsg::Cas(inner) => {
                let mut cas_ctx: Ctx<ShardedCas> = Ctx::new(ctx.me(), ctx.now());
                self.inner.on_message(from, inner, &mut cas_ctx);
                let (outbox, responses) = cas_ctx.into_effects();
                self.route_effects(outbox, responses, ctx);
            }
            ShardedHashedMsg::ReadResp { rid, items } => {
                // Bank the integrity evidence (from covering servers
                // only, matching the inner client's share filter), then
                // feed the shares to the inner client as the plain CAS
                // reply it expects; verify whatever completes.
                let Some(server) = from.as_server() else {
                    return;
                };
                let mut stripped = Vec::with_capacity(items.len());
                for (key, share, digest) in items {
                    if let Some(d) = digest {
                        if self.cfg.map.covers(server.0, key) {
                            self.read_digests.entry(key).or_default().push(d);
                        }
                    }
                    stripped.push((key, share));
                }
                let mut cas_ctx: Ctx<ShardedCas> = Ctx::new(ctx.me(), ctx.now());
                self.inner.on_message(
                    from,
                    ShardedCasMsg::ReadResp {
                        rid,
                        items: stripped,
                    },
                    &mut cas_ctx,
                );
                let (outbox, responses) = cas_ctx.into_effects();
                let responses = responses
                    .into_iter()
                    .map(|r| self.verify_reads(r))
                    .collect();
                self.route_effects(outbox, responses, ctx);
            }
            ShardedHashedMsg::HashAck { .. } | ShardedHashedMsg::HashAnnounce { .. } => {}
        }
    }

    fn digest(&self) -> u64 {
        let gate_tag = match &self.gate {
            AnnounceGate::Open => 0u8,
            AnnounceGate::Waiting { .. } => 1,
        };
        hash_of(&(
            Node::<ShardedCas>::digest(&self.inner),
            self.rid,
            gate_tag,
            format!("{:?}", self.gate),
            &self.read_digests,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multikey::ShardMap;
    use shmem_sim::{ClientId, Sim, SimConfig};

    fn cluster(n: u32, f: u32, clients: u32) -> Sim<HashedCas> {
        let cfg = CasConfig::native(n, f, ValueSpec::from_bits(64.0));
        Sim::new(
            SimConfig::without_gossip(),
            (0..n)
                .map(|i| HashedServer::new(cfg, ServerId(i), 0))
                .collect(),
            (0..clients).map(|c| HashedClient::new(cfg, c)).collect(),
        )
    }

    #[test]
    fn write_then_read() {
        let mut sim = cluster(5, 1, 2);
        sim.invoke(ClientId(0), RegInv::Write(987654321)).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(0)).unwrap(),
            RegResp::WriteAck
        );
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(987654321)
        );
    }

    #[test]
    fn hash_is_stored_alongside_shares() {
        let mut sim = cluster(5, 1, 1);
        sim.invoke(ClientId(0), RegInv::Write(42)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.run_to_quiescence().unwrap();
        let tag = Tag::new(1, 0);
        for s in 0..5 {
            assert_eq!(
                sim.server(ServerId(s)).hash_of(tag),
                Some(value_digest(42)),
                "server {s}"
            );
        }
    }

    #[test]
    fn two_value_dependent_message_kinds() {
        assert!(is_value_dependent_upstream(&HashedMsg::HashAnnounce {
            rid: 1,
            tag: Tag::new(1, 0),
            digest: 9,
        }));
        assert!(is_value_dependent_upstream(&HashedMsg::Cas(
            CasMsg::PreWrite {
                rid: 1,
                tag: Tag::new(1, 0),
                share: vec![1],
            }
        )));
        assert!(!is_value_dependent_upstream(&HashedMsg::Cas(
            CasMsg::QueryTag { rid: 1 }
        )));
        assert!(!is_value_dependent_upstream(&HashedMsg::HashAck { rid: 1 }));
    }

    #[test]
    fn tolerates_f_failures() {
        let mut sim = cluster(5, 1, 2);
        sim.fail_last_servers(1);
        sim.invoke(ClientId(0), RegInv::Write(5)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(5)
        );
    }

    #[test]
    fn histories_atomic() {
        use shmem_spec::history::{History, OpKind};
        let mut sim = cluster(5, 1, 3);
        sim.invoke(ClientId(0), RegInv::Write(1)).unwrap();
        sim.invoke(ClientId(1), RegInv::Write(2)).unwrap();
        sim.invoke(ClientId(2), RegInv::Read).unwrap();
        while (0..3).any(|c| sim.has_open_op(ClientId(c))) {
            sim.step_fair().expect("progress");
        }
        let mut h = History::new(0u64);
        for op in sim.ops() {
            let kind = match op.invocation {
                RegInv::Write(v) => OpKind::Write(v),
                RegInv::Read => OpKind::Read,
            };
            let id = h.begin(op.client.0, kind, op.invoked_at);
            if let Some(t) = op.responded_at {
                h.complete(id, t, op.response.and_then(RegResp::read_value));
            }
        }
        assert!(shmem_spec::check_atomic(&h).is_ok());
    }

    fn sharded_cluster(map: ShardMap, f: u32, clients: u32) -> Sim<ShardedHashed> {
        let cfg = ShardedCasConfig::native(map, f, ValueSpec::from_bits(64.0));
        Sim::new(
            SimConfig::without_gossip(),
            (0..map.n())
                .map(|i| ShardedHashedServer::new(cfg.clone(), ServerId(i), 0))
                .collect(),
            (0..clients)
                .map(|c| ShardedHashedClient::new(cfg.clone(), c))
                .collect(),
        )
    }

    #[test]
    fn sharded_batched_write_then_read() {
        let mut sim = sharded_cluster(ShardMap::new(6, 2, 3), 1, 2);
        let keys: Vec<Key> = (0..8).collect();
        let writes: Vec<(Key, Value)> = keys.iter().map(|&k| (k, 1000 + k as Value)).collect();
        sim.invoke(ClientId(0), MultiInv::writes(&writes)).unwrap();
        let resp = sim.run_until_op_completes(ClientId(0)).unwrap();
        assert!(resp.ops.iter().all(|(_, r)| *r == RegResp::WriteAck));
        sim.invoke(ClientId(1), MultiInv::reads(&keys)).unwrap();
        let resp = sim.run_until_op_completes(ClientId(1)).unwrap();
        for &k in &keys {
            assert_eq!(resp.get(k), Some(&RegResp::ReadValue(1000 + k as Value)));
        }
    }

    #[test]
    fn sharded_hashes_announced_per_key() {
        let map = ShardMap::full(5);
        let mut sim = sharded_cluster(map, 1, 1);
        sim.invoke(ClientId(0), MultiInv::writes(&[(7, 70), (8, 80)]))
            .unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.run_to_quiescence().unwrap();
        for s in 0..5 {
            let server = sim.server(ServerId(s));
            assert_eq!(server.hash_of(7, Tag::new(1, 0)), Some(value_digest(70)));
            assert_eq!(server.hash_of(8, Tag::new(1, 0)), Some(value_digest(80)));
        }
    }

    #[test]
    fn sharded_two_value_dependent_message_kinds() {
        assert!(sharded_is_value_dependent_upstream(
            &ShardedHashedMsg::HashAnnounce {
                rid: 1,
                items: vec![(3, Tag::new(1, 0), 9)],
            }
        ));
        assert!(sharded_is_value_dependent_upstream(&ShardedHashedMsg::Cas(
            ShardedCasMsg::PreWrite {
                rid: 1,
                items: vec![(3, Tag::new(1, 0), vec![1])],
            }
        )));
        assert!(!sharded_is_value_dependent_upstream(
            &ShardedHashedMsg::Cas(ShardedCasMsg::QueryTag {
                rid: 1,
                keys: vec![3],
            })
        ));
        assert!(!sharded_is_value_dependent_upstream(
            &ShardedHashedMsg::HashAck { rid: 1 }
        ));
    }

    #[test]
    fn sharded_announce_precedes_symbols_on_the_wire() {
        // The announce gate must hold pre-writes back until a quorum of
        // hash acks: drive a write step by step and check no server holds
        // a symbol for the new tag before it holds the hash.
        let mut sim = sharded_cluster(ShardMap::full(5), 1, 1);
        sim.invoke(ClientId(0), MultiInv::writes(&[(1, 11)]))
            .unwrap();
        let tag = Tag::new(1, 0);
        loop {
            for s in 0..5 {
                let server = sim.server(ServerId(s));
                if server.cas().versions_held(1) > 1 {
                    assert!(
                        server.hash_of(1, tag).is_some(),
                        "server {s} holds a symbol for {tag} without its hash"
                    );
                }
            }
            if !sim.has_open_op(ClientId(0)) {
                break;
            }
            sim.step_fair().expect("progress");
        }
    }
}
