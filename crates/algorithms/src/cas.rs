//! Coded Atomic Storage (CAS) \[5, 6\] and its garbage-collected variant
//! CASGC.
//!
//! CAS replaces ABD's full-value replication with Reed–Solomon codeword
//! symbols: for an `[N, k]` code with `k ≤ N − 2f`, every quorum of
//! `q = ⌈(N+k)/2⌉` servers intersects every other in at least `k` servers,
//! so a reader that locates a finalized tag is guaranteed to find `k`
//! symbols of it.
//!
//! * **Write**: query `q` servers for the highest finalized tag; pick the
//!   successor; send each server its codeword symbol (*pre-write*); after
//!   `q` pre-acks, send a *finalize* label; after `q` fin-acks, return.
//! * **Read**: query `q` servers for the highest finalized tag `t*`;
//!   request symbols of `t*` (servers record the fin label as they answer —
//!   the read's write-back); decode once `k` symbols arrive and `q` servers
//!   have answered.
//!
//! Servers accumulate one symbol of `log2|V|/k` bits per concurrent
//! version — the `ν·N/k` storage the paper's Section 2.3 discusses. With
//! [`CasConfig::gc_depth`] `= δ` (CASGC), only the `δ + 1` newest finalized
//! versions are retained, capping storage at the price of conditional
//! liveness (reads are guaranteed only while write concurrency is `≤ δ`).

use crate::backend::{CasBackend, LocalCas};
use crate::multikey::{Key, MultiInv, MultiResp, ShardMap, KEY_WIRE_BYTES, RID_WIRE_BYTES};
use crate::reg::{RegInv, RegResp};
use crate::tag::Tag;
use crate::value::{Value, ValueSpec};
use shmem_erasure::{Codec, Gf256};
use shmem_sim::{hash_of, Ctx, Node, NodeId, Protocol, ServerId};
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::sync::Arc;

/// Protocol marker for CAS/CASGC.
pub struct Cas;

impl Protocol for Cas {
    type Msg = CasMsg;
    type Inv = RegInv;
    type Resp = RegResp;
    type Server = CasServer;
    type Client = CasClient;

    fn corrupt_server(server: &mut CasServer, mode: u8, salt: u64) -> bool {
        server.corrupt(mode, salt)
    }

    fn corrupt_msg(msg: &mut CasMsg, salt: u64) -> bool {
        corrupt_cas_msg(msg, salt)
    }
}

/// In-flight corruption for the CAS repertoire: tamper the coded-share
/// payload of the value-bearing messages (`PreWrite` upstream, `ReadResp`
/// downstream), leave routing, nonces and tags intact. The other kinds
/// carry no corruptible payload.
pub(crate) fn corrupt_cas_msg(msg: &mut CasMsg, salt: u64) -> bool {
    match msg {
        CasMsg::PreWrite { share, .. } => shmem_util::tamper_bytes(share, salt, 0),
        CasMsg::ReadResp {
            share: Some(share), ..
        } => shmem_util::tamper_bytes(share, salt, 0),
        _ => false,
    }
}

/// Static CAS parameters shared by servers and clients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CasConfig {
    /// Number of servers.
    pub n: u32,
    /// Failure tolerance.
    pub f: u32,
    /// Code dimension `k` (symbols needed to decode), `1 ≤ k ≤ N − 2f`.
    pub k: u32,
    /// CASGC garbage-collection depth `δ`: keep the `δ + 1` newest
    /// finalized versions. `None` = plain CAS (no GC).
    pub gc_depth: Option<u32>,
    /// The value domain, for storage accounting.
    pub spec: ValueSpec,
}

impl CasConfig {
    /// Validated constructor with the native dimension `k = N − 2f`.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < N` (CAS requires a failure minority).
    pub fn native(n: u32, f: u32, spec: ValueSpec) -> CasConfig {
        assert!(2 * f < n, "CAS requires 2f < N, got N={n}, f={f}");
        CasConfig {
            n,
            f,
            k: n - 2 * f,
            gc_depth: None,
            spec,
        }
    }

    /// Overrides the code dimension.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ N − 2f`.
    pub fn with_k(mut self, k: u32) -> CasConfig {
        assert!(
            k >= 1 && k + 2 * self.f <= self.n,
            "CAS needs 1 <= k <= N - 2f"
        );
        self.k = k;
        self
    }

    /// Enables CASGC with depth `delta`.
    pub fn with_gc(mut self, delta: u32) -> CasConfig {
        self.gc_depth = Some(delta);
        self
    }

    /// The quorum size `q = ⌈(N + k)/2⌉`.
    pub fn quorum(&self) -> u32 {
        (self.n + self.k).div_ceil(2)
    }

    /// The `[N, k]` slab codec this configuration uses. The handle is
    /// memoized process-wide by `(N, k)`: the generator, encode plan and
    /// decode-plan cache are built once and shared across every server,
    /// client and operation of the geometry.
    ///
    /// # Panics
    ///
    /// Never panics for a validated configuration.
    pub fn code(&self) -> Arc<Codec<Gf256>> {
        Codec::shared(self.n as usize, self.k as usize)
            .expect("validated CAS parameters form a legal code")
    }

    /// Bits one codeword symbol carries: `log2|V| / k`.
    pub fn symbol_bits(&self) -> f64 {
        self.spec.bits / self.k as f64
    }
}

/// CAS wire messages. `rid` is a per-client phase nonce.
#[derive(Clone, Debug, PartialEq)]
pub enum CasMsg {
    /// Ask for the server's highest *finalized* tag.
    QueryTag {
        /// Phase nonce.
        rid: u64,
    },
    /// Reply to [`CasMsg::QueryTag`].
    QueryTagResp {
        /// Echoed nonce.
        rid: u64,
        /// Highest finalized tag at the server.
        tag: Tag,
    },
    /// Store one codeword symbol for `tag` (value-dependent message).
    PreWrite {
        /// Phase nonce.
        rid: u64,
        /// The version being written.
        tag: Tag,
        /// This server's codeword symbol.
        share: Vec<u8>,
    },
    /// Acknowledge a pre-write.
    PreAck {
        /// Echoed nonce.
        rid: u64,
    },
    /// Mark `tag` finalized (metadata-only message).
    Finalize {
        /// Phase nonce.
        rid: u64,
        /// The version to finalize.
        tag: Tag,
    },
    /// Acknowledge a finalize.
    FinAck {
        /// Echoed nonce.
        rid: u64,
    },
    /// Read request: finalize `tag` and return its symbol if held.
    ReadGet {
        /// Phase nonce.
        rid: u64,
        /// The version the reader is assembling.
        tag: Tag,
    },
    /// Reply to [`CasMsg::ReadGet`].
    ReadResp {
        /// Echoed nonce.
        rid: u64,
        /// This server's symbol for the tag, if it holds one.
        share: Option<Vec<u8>>,
    },
}

/// Whether a CAS message is *value-dependent* (Definition 6.4). Only the
/// pre-write carries codeword symbols upstream; queries, finalize labels
/// and acks are metadata. CAS writes send value-dependent messages in
/// exactly one phase (the pre-write), so CAS satisfies Assumption 3 — this
/// is why Theorem 6.5's bound applies to it.
pub fn is_value_dependent(msg: &CasMsg) -> bool {
    matches!(msg, CasMsg::PreWrite { .. } | CasMsg::ReadResp { .. })
}

/// Value-dependence restricted to client-to-server traffic (what the
/// Section 6 construction withholds): only `PreWrite`.
pub fn is_value_dependent_upstream(msg: &CasMsg) -> bool {
    matches!(msg, CasMsg::PreWrite { .. })
}

/// A CAS server: a store of `(tag → symbol)` plus finalize labels.
#[derive(Clone, Debug)]
pub struct CasServer {
    cfg: CasConfig,
    shares: BTreeMap<Tag, Vec<u8>>,
    finalized: BTreeSet<Tag>,
}

impl CasServer {
    /// Server `index` of a cluster, initialized with its symbol of the
    /// register's initial value under tag [`Tag::ZERO`] (finalized).
    pub fn new(cfg: CasConfig, index: ServerId, initial: Value) -> CasServer {
        let shares = cfg.code().encode_bytes(&ValueSpec::to_bytes(initial));
        let mut map = BTreeMap::new();
        map.insert(Tag::ZERO, shares[index.0 as usize].clone());
        CasServer {
            cfg,
            shares: map,
            finalized: [Tag::ZERO].into(),
        }
    }

    /// Number of coded versions currently held.
    pub fn versions_held(&self) -> usize {
        self.shares.len()
    }

    /// Highest finalized tag.
    pub fn max_finalized(&self) -> Tag {
        self.finalized
            .iter()
            .next_back()
            .copied()
            .unwrap_or(Tag::ZERO)
    }

    fn garbage_collect(&mut self) {
        let Some(delta) = self.cfg.gc_depth else {
            return;
        };
        // Keep symbols for the δ+1 newest finalized tags and anything newer
        // (still-unfinalized in-flight versions).
        let keep_from = self.finalized.iter().rev().nth(delta as usize).copied();
        if let Some(cutoff) = keep_from {
            self.shares.retain(|&t, _| t >= cutoff);
        }
    }

    /// Corruption-adversary entry point: tamper the coded slot in `mode`
    /// (see [`crate::corrupt::modes`]). `FORGE_TAG` is degraded to
    /// `BITFLIP` here: the legacy single-register reader retries a read
    /// whose tag yields too few symbols, so a forged tag starves it into
    /// its GC-starvation panic instead of producing a verdict — the
    /// forgery attack is meaningful for the batched readers, which fail
    /// the key and move on.
    pub fn corrupt(&mut self, mode: u8, salt: u64) -> bool {
        let mode = match mode % crate::corrupt::modes::COUNT {
            crate::corrupt::modes::FORGE_TAG => crate::corrupt::modes::BITFLIP,
            m => m,
        };
        crate::corrupt::corrupt_coded_slot(&mut self.shares, &mut self.finalized, mode, salt, 0)
    }
}

impl Node<Cas> for CasServer {
    fn on_message(&mut self, from: NodeId, msg: CasMsg, ctx: &mut Ctx<Cas>) {
        match msg {
            CasMsg::QueryTag { rid } => ctx.send(
                from,
                CasMsg::QueryTagResp {
                    rid,
                    tag: self.max_finalized(),
                },
            ),
            CasMsg::PreWrite { rid, tag, share } => {
                self.shares.entry(tag).or_insert(share);
                self.garbage_collect();
                ctx.send(from, CasMsg::PreAck { rid });
            }
            CasMsg::Finalize { rid, tag } => {
                self.finalized.insert(tag);
                self.garbage_collect();
                ctx.send(from, CasMsg::FinAck { rid });
            }
            CasMsg::ReadGet { rid, tag } => {
                // The read's write-back: answering the request finalizes
                // the tag at this server.
                self.finalized.insert(tag);
                self.garbage_collect();
                ctx.send(
                    from,
                    CasMsg::ReadResp {
                        rid,
                        share: self.shares.get(&tag).cloned(),
                    },
                );
            }
            CasMsg::QueryTagResp { .. }
            | CasMsg::PreAck { .. }
            | CasMsg::FinAck { .. }
            | CasMsg::ReadResp { .. } => {}
        }
    }

    fn state_bits(&self) -> f64 {
        // Each retained version costs one codeword symbol: log2|V| / k.
        self.shares.len() as f64 * self.cfg.symbol_bits()
    }

    fn metadata_bits(&self) -> f64 {
        (self.shares.len() + self.finalized.len()) as f64 * Tag::BITS
    }

    fn digest(&self) -> u64 {
        hash_of(&(&self.shares, &self.finalized))
    }
}

/// Which phase a CAS client is in.
#[derive(Clone, Debug)]
enum Phase {
    Idle,
    /// Writer querying for the highest finalized tag.
    WriteQuery {
        value: Value,
        tags: BTreeMap<u32, Tag>,
    },
    /// Writer waiting for pre-write acks.
    PreWrite {
        tag: Tag,
        acks: BTreeSet<u32>,
    },
    /// Writer waiting for finalize acks.
    Finalize {
        acks: BTreeSet<u32>,
    },
    /// Reader querying for the highest finalized tag.
    ReadQuery {
        tags: BTreeMap<u32, Tag>,
        retries: u32,
    },
    /// Reader assembling symbols of `tag`.
    ReadGet {
        tag: Tag,
        responses: BTreeSet<u32>,
        shares: BTreeMap<u32, Vec<u8>>,
        retries: u32,
    },
}

/// A CAS client; acts as writer or reader depending on the invocation.
#[derive(Clone, Debug)]
pub struct CasClient {
    cfg: CasConfig,
    me: u32,
    rid: u64,
    phase: Phase,
}

impl CasClient {
    /// Maximum read restarts before the client gives up (a read can race
    /// CASGC garbage collection; CASGC liveness is conditional).
    pub const MAX_READ_RETRIES: u32 = 64;

    /// A client for the given cluster configuration; `me` is the client id
    /// used for tag tie-breaks.
    pub fn new(cfg: CasConfig, me: u32) -> CasClient {
        CasClient {
            cfg,
            me,
            rid: 0,
            phase: Phase::Idle,
        }
    }

    fn begin_read_query(&mut self, retries: u32, ctx: &mut Ctx<Cas>) {
        self.rid += 1;
        self.phase = Phase::ReadQuery {
            tags: BTreeMap::new(),
            retries,
        };
        ctx.broadcast_to_servers(self.cfg.n, CasMsg::QueryTag { rid: self.rid });
    }
}

impl Node<Cas> for CasClient {
    fn on_invoke(&mut self, inv: RegInv, ctx: &mut Ctx<Cas>) {
        assert!(
            matches!(self.phase, Phase::Idle),
            "client invoked while an operation is in flight"
        );
        match inv {
            RegInv::Write(value) => {
                self.rid += 1;
                self.phase = Phase::WriteQuery {
                    value,
                    tags: BTreeMap::new(),
                };
                ctx.broadcast_to_servers(self.cfg.n, CasMsg::QueryTag { rid: self.rid });
            }
            RegInv::Read => self.begin_read_query(0, ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: CasMsg, ctx: &mut Ctx<Cas>) {
        let server = match from.as_server() {
            Some(s) => s.0,
            None => return,
        };
        let q = self.cfg.quorum();
        match (&mut self.phase, msg) {
            (Phase::WriteQuery { value, tags }, CasMsg::QueryTagResp { rid, tag })
                if rid == self.rid =>
            {
                tags.insert(server, tag);
                if tags.len() as u32 == q {
                    let max = tags.values().max().copied().unwrap_or(Tag::ZERO);
                    let tag = max.successor(self.me);
                    let value = *value;
                    let shares = self.cfg.code().encode_bytes(&ValueSpec::to_bytes(value));
                    self.rid += 1;
                    for (i, share) in shares.into_iter().enumerate() {
                        ctx.send(
                            NodeId::server(i as u32),
                            CasMsg::PreWrite {
                                rid: self.rid,
                                tag,
                                share,
                            },
                        );
                    }
                    self.phase = Phase::PreWrite {
                        tag,
                        acks: BTreeSet::new(),
                    };
                }
            }
            (Phase::PreWrite { tag, acks }, CasMsg::PreAck { rid }) if rid == self.rid => {
                acks.insert(server);
                if acks.len() as u32 == q {
                    let tag = *tag;
                    self.rid += 1;
                    ctx.broadcast_to_servers(self.cfg.n, CasMsg::Finalize { rid: self.rid, tag });
                    self.phase = Phase::Finalize {
                        acks: BTreeSet::new(),
                    };
                }
            }
            (Phase::Finalize { acks }, CasMsg::FinAck { rid }) if rid == self.rid => {
                acks.insert(server);
                if acks.len() as u32 == q {
                    self.phase = Phase::Idle;
                    self.rid += 1;
                    ctx.respond(RegResp::WriteAck);
                }
            }
            (Phase::ReadQuery { tags, retries }, CasMsg::QueryTagResp { rid, tag })
                if rid == self.rid =>
            {
                tags.insert(server, tag);
                if tags.len() as u32 == q {
                    let t = tags.values().max().copied().unwrap_or(Tag::ZERO);
                    let retries = *retries;
                    self.rid += 1;
                    ctx.broadcast_to_servers(
                        self.cfg.n,
                        CasMsg::ReadGet {
                            rid: self.rid,
                            tag: t,
                        },
                    );
                    self.phase = Phase::ReadGet {
                        tag: t,
                        responses: BTreeSet::new(),
                        shares: BTreeMap::new(),
                        retries,
                    };
                }
            }
            (
                Phase::ReadGet {
                    tag,
                    responses,
                    shares,
                    retries,
                },
                CasMsg::ReadResp { rid, share },
            ) if rid == self.rid => {
                responses.insert(server);
                if let Some(s) = share {
                    shares.insert(server, s);
                }
                let enough_responses = responses.len() as u32 >= q;
                let decodable = shares.len() as u32 >= self.cfg.k;
                if enough_responses && decodable {
                    let picked: Vec<(usize, Vec<u8>)> = shares
                        .iter()
                        .take(self.cfg.k as usize)
                        .map(|(&i, s)| (i as usize, s.clone()))
                        .collect();
                    let decoded = self
                        .cfg
                        .code()
                        .decode_bytes(&picked, ValueSpec::VALUE_BYTES);
                    let _ = tag;
                    self.phase = Phase::Idle;
                    self.rid += 1;
                    match decoded {
                        Ok(bytes) => ctx.respond(RegResp::ReadValue(ValueSpec::from_bytes(&bytes))),
                        // Corrupted or inconsistent symbols: fail the read
                        // rather than panic the client automaton.
                        Err(e) => ctx.respond(RegResp::ReadFailed(e)),
                    }
                } else if responses.len() as u32 == self.cfg.n && !decodable {
                    // Every server answered but the symbols were garbage
                    // collected under us: restart the read (CASGC's
                    // conditional liveness).
                    let r = *retries + 1;
                    assert!(
                        r <= Self::MAX_READ_RETRIES,
                        "read starved by garbage collection {r} times"
                    );
                    self.begin_read_query(r, ctx);
                }
            }
            _ => {}
        }
    }

    fn digest(&self) -> u64 {
        let phase_tag = match &self.phase {
            Phase::Idle => 0u8,
            Phase::WriteQuery { .. } => 1,
            Phase::PreWrite { .. } => 2,
            Phase::Finalize { .. } => 3,
            Phase::ReadQuery { .. } => 4,
            Phase::ReadGet { .. } => 5,
        };
        hash_of(&(self.me, self.rid, phase_tag, format!("{:?}", self.phase)))
    }
}

/// Protocol marker for sharded multi-register CAS.
///
/// Each shard is an independent `(replicas, f)` CAS instance: servers keep
/// a per-key `(tag → symbol)` store plus finalize labels, and clients run
/// the write (query → pre-write → finalize) and read (query → get) rounds
/// for a whole batch of keys at once, one message per (client, server)
/// pair per round. Batches must be *homogeneous* (all writes or all
/// reads) — the two CAS flows have different round structures.
///
/// Unlike legacy CASGC clients, sharded reads do not restart when garbage
/// collection races them; an undecodable key surfaces as
/// [`RegResp::ReadFailed`] for that key alone.
///
/// The parameter is the [`CasBackend`] the servers keep their state in
/// ([`LocalCas`] by default); see [`crate::abd::ShardedAbd`].
pub struct ShardedCas<B = LocalCas>(PhantomData<fn() -> B>);

impl<B> Protocol for ShardedCas<B>
where
    B: CasBackend + Clone + std::fmt::Debug + 'static,
{
    type Msg = ShardedCasMsg;
    type Inv = MultiInv;
    type Resp = MultiResp;
    type Server = ShardedCasServerOn<B>;
    type Client = ShardedCasClient;

    fn msg_wire_bytes(msg: &ShardedCasMsg) -> u64 {
        msg.wire_bytes()
    }

    fn corrupt_server(server: &mut ShardedCasServerOn<B>, mode: u8, salt: u64) -> bool {
        server.backend_mut().corrupt(mode, salt)
    }

    fn corrupt_msg(msg: &mut ShardedCasMsg, salt: u64) -> bool {
        corrupt_sharded_cas_msg(msg, salt)
    }
}

/// In-flight corruption for the batched CAS repertoire: tamper every
/// key's coded-share payload (deterministically per key), leave routing,
/// nonces and tags intact.
pub(crate) fn corrupt_sharded_cas_msg(msg: &mut ShardedCasMsg, salt: u64) -> bool {
    match msg {
        ShardedCasMsg::PreWrite { items, .. } => {
            let mut tampered = false;
            for (key, _, share) in items.iter_mut() {
                tampered |= shmem_util::tamper_bytes(share, salt, *key);
            }
            tampered
        }
        ShardedCasMsg::ReadResp { items, .. } => {
            let mut tampered = false;
            for (key, share) in items.iter_mut() {
                if let Some(share) = share {
                    tampered |= shmem_util::tamper_bytes(share, salt, *key);
                }
            }
            tampered
        }
        _ => false,
    }
}

/// Static sharded-CAS parameters: a placement plus the per-shard code.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedCasConfig {
    /// Key → shard → server placement.
    pub map: ShardMap,
    /// Per-shard failure tolerance.
    pub f: u32,
    /// Per-shard code dimension (`replicas` total shares, `k` to decode).
    pub k: u32,
    /// CASGC depth, per key: keep the `δ + 1` newest finalized versions.
    pub gc_depth: Option<u32>,
    /// The value domain.
    pub spec: ValueSpec,
}

impl ShardedCasConfig {
    /// The fault-tolerant profile: `k = replicas − 2f`, the legacy CAS
    /// dimension applied within each shard.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < replicas`.
    pub fn native(map: ShardMap, f: u32, spec: ValueSpec) -> ShardedCasConfig {
        let r = map.replicas();
        assert!(2 * f < r, "CAS requires 2f < replicas, got {r}, f={f}");
        ShardedCasConfig {
            map,
            f,
            k: r - 2 * f,
            gc_depth: None,
            spec,
        }
    }

    /// The storage-optimal MDS profile: `k = replicas − f`, so one
    /// finalized version costs exactly `replicas/(replicas − f)` values —
    /// the `ν·N/(N−f)` point of the paper's bound catalogue. The price is
    /// conditional liveness: quorums of `⌈(2·replicas − f)/2⌉` servers
    /// leave no slack for crashes during a round, so this profile is for
    /// measuring the storage frontier, not for surviving faults mid-write.
    ///
    /// # Panics
    ///
    /// Panics unless `f < replicas`.
    pub fn coded(map: ShardMap, f: u32, spec: ValueSpec) -> ShardedCasConfig {
        let r = map.replicas();
        assert!(f < r, "code dimension needs f < replicas, got {r}, f={f}");
        ShardedCasConfig {
            map,
            f,
            k: r - f,
            gc_depth: None,
            spec,
        }
    }

    /// Enables per-key garbage collection with depth `delta`.
    pub fn with_gc(mut self, delta: u32) -> ShardedCasConfig {
        self.gc_depth = Some(delta);
        self
    }

    /// Per-shard quorum `q = ⌈(replicas + k)/2⌉`.
    pub fn quorum(&self) -> u32 {
        (self.map.replicas() + self.k).div_ceil(2)
    }

    /// The per-shard `[replicas, k]` codec, memoized process-wide — every
    /// shard of the geometry shares one generator and decode-plan cache.
    ///
    /// # Panics
    ///
    /// Never panics for a validated configuration.
    pub fn code(&self) -> Arc<Codec<Gf256>> {
        Codec::shared(self.map.replicas() as usize, self.k as usize)
            .expect("validated sharded-CAS parameters form a legal code")
    }

    /// Bits one codeword symbol carries: `log2|V| / k`.
    pub fn symbol_bits(&self) -> f64 {
        self.spec.bits / self.k as f64
    }
}

/// Batched CAS wire messages: the legacy repertoire with per-key payload
/// vectors.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardedCasMsg {
    /// Ask for the highest finalized tag of every listed key.
    QueryTag {
        /// Phase nonce.
        rid: u64,
        /// The keys this server covers for the batch.
        keys: Vec<Key>,
    },
    /// Reply to [`ShardedCasMsg::QueryTag`].
    QueryTagResp {
        /// Echoed nonce.
        rid: u64,
        /// Highest finalized tag per queried key.
        items: Vec<(Key, Tag)>,
    },
    /// Store one codeword symbol per key (the value-dependent round).
    PreWrite {
        /// Phase nonce.
        rid: u64,
        /// `(key, tag, this server's symbol)` per key.
        items: Vec<(Key, Tag, Vec<u8>)>,
    },
    /// Acknowledge a pre-write batch.
    PreAck {
        /// Echoed nonce.
        rid: u64,
    },
    /// Mark every listed `(key, tag)` finalized.
    Finalize {
        /// Phase nonce.
        rid: u64,
        /// Versions to finalize.
        items: Vec<(Key, Tag)>,
    },
    /// Acknowledge a finalize batch.
    FinAck {
        /// Echoed nonce.
        rid: u64,
    },
    /// Read request: finalize each `(key, tag)` and return held symbols.
    ReadGet {
        /// Phase nonce.
        rid: u64,
        /// The versions the reader is assembling.
        items: Vec<(Key, Tag)>,
    },
    /// Reply to [`ShardedCasMsg::ReadGet`].
    ReadResp {
        /// Echoed nonce.
        rid: u64,
        /// Per key: this server's symbol for the requested tag, if held.
        items: Vec<(Key, Option<Vec<u8>>)>,
    },
}

impl ShardedCasMsg {
    /// Exact serialized size: nonce plus per-entry payload (shares at
    /// their real byte length, options at one presence byte).
    pub fn wire_bytes(&self) -> u64 {
        const KT: u64 = KEY_WIRE_BYTES + Tag::WIRE_BYTES;
        match self {
            ShardedCasMsg::QueryTag { keys, .. } => {
                RID_WIRE_BYTES + KEY_WIRE_BYTES * keys.len() as u64
            }
            ShardedCasMsg::QueryTagResp { items, .. }
            | ShardedCasMsg::Finalize { items, .. }
            | ShardedCasMsg::ReadGet { items, .. } => RID_WIRE_BYTES + KT * items.len() as u64,
            ShardedCasMsg::PreWrite { items, .. } => {
                RID_WIRE_BYTES
                    + items
                        .iter()
                        .map(|(_, _, share)| KT + share.len() as u64)
                        .sum::<u64>()
            }
            ShardedCasMsg::ReadResp { items, .. } => {
                RID_WIRE_BYTES
                    + items
                        .iter()
                        .map(|(_, share)| {
                            KEY_WIRE_BYTES + 1 + share.as_ref().map_or(0, |s| s.len() as u64)
                        })
                        .sum::<u64>()
            }
            ShardedCasMsg::PreAck { .. } | ShardedCasMsg::FinAck { .. } => RID_WIRE_BYTES,
        }
    }
}

/// A sharded CAS server: a lazily materialized key slot per touched
/// key. An untouched key logically holds its initial-value symbol under
/// [`Tag::ZERO`] (finalized); the slot springs into existence — seeded
/// with exactly that symbol — the first time a message names the key.
///
/// Generic over the [`CasBackend`] holding the per-key slots, so the same
/// automaton runs against the sequential in-struct map ([`LocalCas`], the
/// default) or a store shared between threads (`shmem-store`).
#[derive(Clone, Debug)]
pub struct ShardedCasServerOn<B> {
    cfg: ShardedCasConfig,
    me: u32,
    backend: B,
}

/// The sequential reference server — the default everywhere in the repo.
pub type ShardedCasServer = ShardedCasServerOn<LocalCas>;

impl ShardedCasServerOn<LocalCas> {
    /// Server `index`, initialized so every key of its shards reads as the
    /// register initial value.
    pub fn new(cfg: ShardedCasConfig, index: ServerId, initial: Value) -> ShardedCasServer {
        let backend = LocalCas::new(cfg.clone(), index.0, initial);
        ShardedCasServerOn::with_backend(cfg, index, backend)
    }
}

impl<B: CasBackend> ShardedCasServerOn<B> {
    /// A server over an explicit backend (possibly shared with others).
    /// The backend must be seeded for the same `cfg` and server index.
    pub fn with_backend(
        cfg: ShardedCasConfig,
        index: ServerId,
        backend: B,
    ) -> ShardedCasServerOn<B> {
        ShardedCasServerOn {
            cfg,
            me: index.0,
            backend,
        }
    }

    /// Coded versions currently held for `key` (0 for untouched keys).
    pub fn versions_held(&self, key: Key) -> usize {
        self.backend.versions_held(key)
    }

    /// Highest finalized tag for `key`.
    pub fn max_finalized(&self, key: Key) -> Tag {
        self.backend.max_finalized(key)
    }

    /// Number of keys with materialized state.
    pub fn keys_held(&self) -> usize {
        self.backend.keys_held()
    }

    /// This server's index in the placement.
    pub fn index(&self) -> u32 {
        self.me
    }

    /// The state backend (for store-level assertions in tests).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access (the hashed layer stores announced hashes
    /// through this).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

impl<P, B> Node<P> for ShardedCasServerOn<B>
where
    P: Protocol<Msg = ShardedCasMsg, Inv = MultiInv, Resp = MultiResp>,
    B: CasBackend + Clone + std::fmt::Debug,
{
    fn on_message(&mut self, from: NodeId, msg: ShardedCasMsg, ctx: &mut Ctx<P>) {
        match msg {
            ShardedCasMsg::QueryTag { rid, keys } => {
                let items = keys
                    .iter()
                    .map(|&k| (k, self.backend.max_finalized(k)))
                    .collect();
                ctx.send(from, ShardedCasMsg::QueryTagResp { rid, items });
            }
            ShardedCasMsg::PreWrite { rid, items } => {
                for (key, tag, share) in items {
                    // Out-of-shard keys are silently ignored by the backend.
                    self.backend.pre_write(key, tag, share);
                }
                ctx.send(from, ShardedCasMsg::PreAck { rid });
            }
            ShardedCasMsg::Finalize { rid, items } => {
                for (key, tag) in items {
                    self.backend.finalize(key, tag);
                }
                ctx.send(from, ShardedCasMsg::FinAck { rid });
            }
            ShardedCasMsg::ReadGet { rid, items } => {
                let mut replies = Vec::with_capacity(items.len());
                for (key, tag) in items {
                    // The read's write-back: answering finalizes the tag.
                    // Out-of-shard keys are omitted from the reply rather
                    // than answered with junk.
                    let Some(share) = self.backend.read_get(key, tag) else {
                        continue;
                    };
                    replies.push((key, share));
                }
                ctx.send(
                    from,
                    ShardedCasMsg::ReadResp {
                        rid,
                        items: replies,
                    },
                );
            }
            ShardedCasMsg::QueryTagResp { .. }
            | ShardedCasMsg::PreAck { .. }
            | ShardedCasMsg::FinAck { .. }
            | ShardedCasMsg::ReadResp { .. } => {}
        }
    }

    fn state_bits(&self) -> f64 {
        self.backend.total_versions() as f64 * self.cfg.symbol_bits()
    }

    fn metadata_bits(&self) -> f64 {
        let tags = self.backend.total_tags();
        tags as f64 * Tag::BITS + self.backend.keys_held() as f64 * 64.0 // + key names
    }

    fn digest(&self) -> u64 {
        self.backend.digest_with(self.me)
    }
}

/// Which phase a sharded CAS client is in. Every phase is a lockstep
/// barrier over all batch keys, mirroring the sharded ABD structure.
#[derive(Clone, Debug)]
enum ShardedCasPhase {
    Idle,
    /// Writer querying finalized tags. `acc`: per key, responses counted
    /// and the highest tag seen.
    WriteQuery {
        op: MultiInv,
        heard: BTreeSet<u32>,
        acc: BTreeMap<Key, (u32, Tag)>,
    },
    /// Writer waiting for pre-write acks on `decided` versions.
    PreWrite {
        decided: Vec<(Key, Tag)>,
        heard: BTreeSet<u32>,
        acks: BTreeMap<Key, u32>,
    },
    /// Writer waiting for finalize acks.
    Finalize {
        decided: Vec<(Key, Tag)>,
        heard: BTreeSet<u32>,
        acks: BTreeMap<Key, u32>,
    },
    /// Reader querying finalized tags.
    ReadQuery {
        op: MultiInv,
        heard: BTreeSet<u32>,
        acc: BTreeMap<Key, (u32, Tag)>,
    },
    /// Reader assembling symbols: per key, responses counted and symbols
    /// by responding server.
    ReadGet {
        targets: Vec<(Key, Tag)>,
        heard: BTreeSet<u32>,
        responses: BTreeMap<Key, u32>,
        shares: BTreeMap<Key, BTreeMap<u32, Vec<u8>>>,
    },
}

/// A sharded CAS client; batches must be homogeneous (all writes or all
/// reads).
#[derive(Clone, Debug)]
pub struct ShardedCasClient {
    cfg: ShardedCasConfig,
    me: u32,
    rid: u64,
    phase: ShardedCasPhase,
}

impl ShardedCasClient {
    /// A client for the given configuration; `me` breaks tag ties.
    pub fn new(cfg: ShardedCasConfig, me: u32) -> ShardedCasClient {
        ShardedCasClient {
            cfg,
            me,
            rid: 0,
            phase: ShardedCasPhase::Idle,
        }
    }

    /// The batch keys each server covers, in canonical server order.
    fn per_server_keys(map: &ShardMap, keys: &[Key]) -> Vec<(u32, Vec<Key>)> {
        let mut out: Vec<(u32, Vec<Key>)> = Vec::new();
        for server in 0..map.n() {
            let mine: Vec<Key> = keys
                .iter()
                .copied()
                .filter(|&k| map.covers(server, k))
                .collect();
            if !mine.is_empty() {
                out.push((server, mine));
            }
        }
        out
    }

    /// Sends one tagged-item round: each server gets the `(key, tag)`
    /// pairs it covers, wrapped by `build`.
    fn send_tagged_round(
        &self,
        ctx: &mut Ctx<impl Protocol<Msg = ShardedCasMsg, Inv = MultiInv, Resp = MultiResp>>,
        decided: &[(Key, Tag)],
        build: impl Fn(u64, Vec<(Key, Tag)>) -> ShardedCasMsg,
    ) {
        let keys: Vec<Key> = decided.iter().map(|&(k, _)| k).collect();
        for (server, mine) in Self::per_server_keys(&self.cfg.map, &keys) {
            let items = decided
                .iter()
                .filter(|&&(k, _)| mine.contains(&k))
                .copied()
                .collect();
            ctx.send(NodeId::server(server), build(self.rid, items));
        }
    }
}

impl<P> Node<P> for ShardedCasClient
where
    P: Protocol<Msg = ShardedCasMsg, Inv = MultiInv, Resp = MultiResp>,
{
    fn on_invoke(&mut self, inv: MultiInv, ctx: &mut Ctx<P>) {
        assert!(
            matches!(self.phase, ShardedCasPhase::Idle),
            "client invoked while an operation is in flight"
        );
        inv.assert_well_formed();
        let writes = inv
            .ops
            .iter()
            .filter(|(_, i)| matches!(i, RegInv::Write(_)))
            .count();
        assert!(
            writes == 0 || writes == inv.ops.len(),
            "sharded CAS batches must be homogeneous (all writes or all reads)"
        );
        self.rid += 1;
        let acc: BTreeMap<Key, (u32, Tag)> = inv.keys().map(|k| (k, (0, Tag::ZERO))).collect();
        let keys: Vec<Key> = inv.keys().collect();
        for (server, mine) in Self::per_server_keys(&self.cfg.map, &keys) {
            ctx.send(
                NodeId::server(server),
                ShardedCasMsg::QueryTag {
                    rid: self.rid,
                    keys: mine,
                },
            );
        }
        self.phase = if writes > 0 {
            ShardedCasPhase::WriteQuery {
                op: inv,
                heard: BTreeSet::new(),
                acc,
            }
        } else {
            ShardedCasPhase::ReadQuery {
                op: inv,
                heard: BTreeSet::new(),
                acc,
            }
        };
    }

    fn on_message(&mut self, from: NodeId, msg: ShardedCasMsg, ctx: &mut Ctx<P>) {
        let server = match from.as_server() {
            Some(s) => s.0,
            None => return,
        };
        let q = self.cfg.quorum();
        match (&mut self.phase, msg) {
            (
                ShardedCasPhase::WriteQuery { heard, acc, .. },
                ShardedCasMsg::QueryTagResp { rid, items },
            ) if rid == self.rid => {
                if !heard.insert(server) {
                    return;
                }
                for (key, tag) in items {
                    if let Some(e) = acc.get_mut(&key) {
                        e.0 += 1;
                        e.1 = e.1.max(tag);
                    }
                }
                if acc.values().all(|&(count, _)| count >= q) {
                    let ShardedCasPhase::WriteQuery { op, acc, .. } =
                        std::mem::replace(&mut self.phase, ShardedCasPhase::Idle)
                    else {
                        unreachable!("matched WriteQuery above");
                    };
                    let code = self.cfg.code();
                    let map = self.cfg.map;
                    let mut decided: Vec<(Key, Tag)> = Vec::with_capacity(op.ops.len());
                    let mut shares_by_key: BTreeMap<Key, Vec<Vec<u8>>> = BTreeMap::new();
                    for &(key, inv) in &op.ops {
                        let RegInv::Write(value) = inv else {
                            unreachable!("write batches are homogeneous");
                        };
                        let tag = acc[&key].1.successor(self.me);
                        decided.push((key, tag));
                        shares_by_key.insert(key, code.encode_bytes(&ValueSpec::to_bytes(value)));
                    }
                    self.rid += 1;
                    let keys: Vec<Key> = decided.iter().map(|&(k, _)| k).collect();
                    for (server, mine) in Self::per_server_keys(&map, &keys) {
                        let items = decided
                            .iter()
                            .filter(|&&(k, _)| mine.contains(&k))
                            .map(|&(k, t)| {
                                let pos = map
                                    .position_for_key(server, k)
                                    .expect("per_server_keys only lists covered keys");
                                (k, t, shares_by_key[&k][pos as usize].clone())
                            })
                            .collect();
                        ctx.send(
                            NodeId::server(server),
                            ShardedCasMsg::PreWrite {
                                rid: self.rid,
                                items,
                            },
                        );
                    }
                    let acks = decided.iter().map(|&(k, _)| (k, 0)).collect();
                    self.phase = ShardedCasPhase::PreWrite {
                        decided,
                        heard: BTreeSet::new(),
                        acks,
                    };
                }
            }
            (ShardedCasPhase::PreWrite { heard, acks, .. }, ShardedCasMsg::PreAck { rid })
                if rid == self.rid =>
            {
                if !heard.insert(server) {
                    return;
                }
                let map = self.cfg.map;
                for (&key, count) in acks.iter_mut() {
                    if map.covers(server, key) {
                        *count += 1;
                    }
                }
                if acks.values().all(|&count| count >= q) {
                    let ShardedCasPhase::PreWrite { decided, .. } =
                        std::mem::replace(&mut self.phase, ShardedCasPhase::Idle)
                    else {
                        unreachable!("matched PreWrite above");
                    };
                    self.rid += 1;
                    self.send_tagged_round(ctx, &decided, |rid, items| ShardedCasMsg::Finalize {
                        rid,
                        items,
                    });
                    let acks = decided.iter().map(|&(k, _)| (k, 0)).collect();
                    self.phase = ShardedCasPhase::Finalize {
                        decided,
                        heard: BTreeSet::new(),
                        acks,
                    };
                }
            }
            (ShardedCasPhase::Finalize { heard, acks, .. }, ShardedCasMsg::FinAck { rid })
                if rid == self.rid =>
            {
                if !heard.insert(server) {
                    return;
                }
                let map = self.cfg.map;
                for (&key, count) in acks.iter_mut() {
                    if map.covers(server, key) {
                        *count += 1;
                    }
                }
                if acks.values().all(|&count| count >= q) {
                    let ShardedCasPhase::Finalize { decided, .. } =
                        std::mem::replace(&mut self.phase, ShardedCasPhase::Idle)
                    else {
                        unreachable!("matched Finalize above");
                    };
                    self.rid += 1;
                    ctx.respond(MultiResp {
                        ops: decided
                            .iter()
                            .map(|&(k, _)| (k, RegResp::WriteAck))
                            .collect(),
                    });
                }
            }
            (
                ShardedCasPhase::ReadQuery { heard, acc, .. },
                ShardedCasMsg::QueryTagResp { rid, items },
            ) if rid == self.rid => {
                if !heard.insert(server) {
                    return;
                }
                for (key, tag) in items {
                    if let Some(e) = acc.get_mut(&key) {
                        e.0 += 1;
                        e.1 = e.1.max(tag);
                    }
                }
                if acc.values().all(|&(count, _)| count >= q) {
                    let ShardedCasPhase::ReadQuery { op, acc, .. } =
                        std::mem::replace(&mut self.phase, ShardedCasPhase::Idle)
                    else {
                        unreachable!("matched ReadQuery above");
                    };
                    let targets: Vec<(Key, Tag)> = op.keys().map(|k| (k, acc[&k].1)).collect();
                    self.rid += 1;
                    self.send_tagged_round(ctx, &targets, |rid, items| ShardedCasMsg::ReadGet {
                        rid,
                        items,
                    });
                    let responses = targets.iter().map(|&(k, _)| (k, 0)).collect();
                    let shares = targets.iter().map(|&(k, _)| (k, BTreeMap::new())).collect();
                    self.phase = ShardedCasPhase::ReadGet {
                        targets,
                        heard: BTreeSet::new(),
                        responses,
                        shares,
                    };
                }
            }
            (
                ShardedCasPhase::ReadGet {
                    heard,
                    responses,
                    shares,
                    ..
                },
                ShardedCasMsg::ReadResp { rid, items },
            ) if rid == self.rid => {
                if !heard.insert(server) {
                    return;
                }
                let map = self.cfg.map;
                for (key, share) in items {
                    // Only covering servers hold decodable positions for
                    // a key; an echo from any other server must count
                    // toward neither the quorum nor the share pool.
                    if !map.covers(server, key) {
                        continue;
                    }
                    if let Some(count) = responses.get_mut(&key) {
                        *count += 1;
                    }
                    if let (Some(by_server), Some(s)) = (shares.get_mut(&key), share) {
                        by_server.insert(server, s);
                    }
                }
                if responses.values().all(|&count| count >= q) {
                    let ShardedCasPhase::ReadGet {
                        targets, shares, ..
                    } = std::mem::replace(&mut self.phase, ShardedCasPhase::Idle)
                    else {
                        unreachable!("matched ReadGet above");
                    };
                    let code = self.cfg.code();
                    let map = self.cfg.map;
                    let k_dim = self.cfg.k as usize;
                    self.rid += 1;
                    let ops = targets
                        .iter()
                        .map(|&(key, _)| {
                            let picked: Vec<(usize, Vec<u8>)> = shares[&key]
                                .iter()
                                .filter_map(|(&s, share)| {
                                    // Coverage is enforced at insertion;
                                    // filter (rather than unwrap) keeps
                                    // hostile input panic-free even so.
                                    let pos = map.position_for_key(s, key)?;
                                    Some((pos as usize, share.clone()))
                                })
                                .take(k_dim)
                                .collect();
                            let resp = match code.decode_bytes(&picked, ValueSpec::VALUE_BYTES) {
                                Ok(bytes) => RegResp::ReadValue(ValueSpec::from_bytes(&bytes)),
                                // Symbols collected under us (GC race) or
                                // corrupted: fail this key's read alone.
                                Err(e) => RegResp::ReadFailed(e),
                            };
                            (key, resp)
                        })
                        .collect();
                    ctx.respond(MultiResp { ops });
                }
            }
            _ => {} // stale or out-of-phase message
        }
    }

    fn digest(&self) -> u64 {
        let phase_tag = match &self.phase {
            ShardedCasPhase::Idle => 0u8,
            ShardedCasPhase::WriteQuery { .. } => 1,
            ShardedCasPhase::PreWrite { .. } => 2,
            ShardedCasPhase::Finalize { .. } => 3,
            ShardedCasPhase::ReadQuery { .. } => 4,
            ShardedCasPhase::ReadGet { .. } => 5,
        };
        hash_of(&(self.me, self.rid, phase_tag, format!("{:?}", self.phase)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_sim::{ClientId, Sim, SimConfig};

    fn cluster(n: u32, f: u32, gc: Option<u32>, clients: u32) -> Sim<Cas> {
        let mut cfg = CasConfig::native(n, f, ValueSpec::from_bits(64.0));
        if let Some(d) = gc {
            cfg = cfg.with_gc(d);
        }
        Sim::new(
            SimConfig::without_gossip(),
            (0..n)
                .map(|i| CasServer::new(cfg, ServerId(i), 0))
                .collect(),
            (0..clients).map(|c| CasClient::new(cfg, c)).collect(),
        )
    }

    #[test]
    fn quorum_arithmetic() {
        let cfg = CasConfig::native(5, 1, ValueSpec::from_bits(64.0));
        assert_eq!(cfg.k, 3);
        assert_eq!(cfg.quorum(), 4);
        // Two quorums of 4 out of 5 intersect in >= 3 = k servers.
        let cfg21 = CasConfig::native(21, 10, ValueSpec::from_bits(64.0));
        assert_eq!(cfg21.k, 1);
        assert_eq!(cfg21.quorum(), 11);
        let wide = CasConfig::native(9, 2, ValueSpec::from_bits(64.0));
        assert_eq!(wide.k, 5);
        assert_eq!(wide.quorum(), 7);
    }

    #[test]
    #[should_panic(expected = "2f < N")]
    fn rejects_majority_failures() {
        let _ = CasConfig::native(4, 2, ValueSpec::from_bits(64.0));
    }

    #[test]
    fn write_then_read() {
        let mut sim = cluster(5, 1, None, 2);
        sim.invoke(ClientId(0), RegInv::Write(123456789)).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(0)).unwrap(),
            RegResp::WriteAck
        );
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(123456789)
        );
    }

    #[test]
    fn read_of_initial_value() {
        let mut sim = cluster(5, 1, None, 1);
        sim.invoke(ClientId(0), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(0)).unwrap(),
            RegResp::ReadValue(0)
        );
    }

    #[test]
    fn tolerates_f_failures() {
        let mut sim = cluster(7, 2, None, 2);
        sim.fail_last_servers(2);
        sim.invoke(ClientId(0), RegInv::Write(77)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(1), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(1)).unwrap(),
            RegResp::ReadValue(77)
        );
    }

    #[test]
    fn storage_grows_with_ungarbage_collected_versions() {
        let mut sim = cluster(5, 1, None, 1);
        for v in 1..=4 {
            sim.invoke(ClientId(0), RegInv::Write(v)).unwrap();
            sim.run_until_op_completes(ClientId(0)).unwrap();
            sim.run_to_quiescence().unwrap();
        }
        // Initial + 4 writes, never collected: 5 versions per server, each
        // 64/3 bits.
        let per_server = sim.server(ServerId(0)).versions_held();
        assert_eq!(per_server, 5);
        let bits = sim.storage().peak_total_bits;
        assert!((bits - 5.0 * 5.0 * 64.0 / 3.0).abs() < 1e-6, "bits={bits}");
    }

    #[test]
    fn gc_caps_retained_versions() {
        let mut sim = cluster(5, 1, Some(1), 1);
        for v in 1..=6 {
            sim.invoke(ClientId(0), RegInv::Write(v)).unwrap();
            sim.run_until_op_completes(ClientId(0)).unwrap();
            sim.run_to_quiescence().unwrap();
        }
        // δ = 1: at most 2 finalized versions retained.
        assert!(sim.server(ServerId(0)).versions_held() <= 2);
        // And the latest value is still readable.
        sim.invoke(ClientId(0), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(0)).unwrap(),
            RegResp::ReadValue(6)
        );
    }

    #[test]
    fn codec_handle_is_memoized_per_geometry() {
        let cfg = CasConfig::native(5, 1, ValueSpec::from_bits(64.0));
        assert!(Arc::ptr_eq(&cfg.code(), &cfg.code()));
        // A different geometry gets its own codec.
        let other = CasConfig::native(7, 2, ValueSpec::from_bits(64.0));
        assert!(!Arc::ptr_eq(&cfg.code(), &other.code()));
    }

    #[test]
    fn corrupted_share_fails_read_without_panicking() {
        use shmem_erasure::CodeError;
        let mut sim = cluster(5, 1, None, 1);
        // Truncate one stored symbol of the initial value: the reader's
        // picked set becomes ragged and must fail to decode.
        sim.server_mut(ServerId(0))
            .shares
            .get_mut(&Tag::ZERO)
            .expect("initial share present")
            .pop();
        sim.invoke(ClientId(0), RegInv::Read).unwrap();
        assert_eq!(
            sim.run_until_op_completes(ClientId(0)).unwrap(),
            RegResp::ReadFailed(CodeError::LengthMismatch)
        );
    }

    #[test]
    fn corrupted_share_surfaces_as_operation_failed_in_harness() {
        use crate::harness::CasCluster;
        use shmem_sim::RunError;
        let mut c = CasCluster::new(5, 1, 1, ValueSpec::from_bits(64.0));
        c.sim
            .server_mut(ServerId(0))
            .shares
            .get_mut(&Tag::ZERO)
            .expect("initial share present")
            .pop();
        match c.read(0) {
            Err(RunError::OperationFailed { client, detail }) => {
                assert_eq!(client, ClientId(0));
                assert!(detail.contains("length"), "unexpected detail: {detail}");
            }
            other => panic!("expected OperationFailed, got {other:?}"),
        }
    }

    #[test]
    fn coded_storage_cheaper_than_replication_at_low_concurrency() {
        // One version in flight: CAS total = N/k * |v| < N * |v| (ABD).
        let mut sim = cluster(9, 2, Some(0), 1);
        sim.invoke(ClientId(0), RegInv::Write(5)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.run_to_quiescence().unwrap();
        let total = sim.storage().peak_total_bits;
        // k = 5: peak is at most 2 versions * 9 servers * 64/5 bits.
        assert!(total <= 2.0 * 9.0 * 64.0 / 5.0 + 1e-9, "total={total}");
        assert!(total < 9.0 * 64.0, "coded beats replication: {total}");
    }

    fn sharded(cfg: &ShardedCasConfig, clients: u32) -> Sim<ShardedCas> {
        Sim::new(
            SimConfig::without_gossip(),
            (0..cfg.map.n())
                .map(|i| ShardedCasServer::new(cfg.clone(), ServerId(i), 0))
                .collect(),
            (0..clients)
                .map(|c| ShardedCasClient::new(cfg.clone(), c))
                .collect(),
        )
    }

    #[test]
    fn sharded_config_arithmetic() {
        let map = ShardMap::new(6, 2, 3);
        let spec = ValueSpec::from_bits(64.0);
        let native = ShardedCasConfig::native(map, 1, spec);
        assert_eq!(native.k, 1);
        assert_eq!(native.quorum(), 2);
        let coded = ShardedCasConfig::coded(map, 1, spec);
        assert_eq!(coded.k, 2);
        assert_eq!(coded.quorum(), 3);
        assert!((coded.symbol_bits() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn sharded_batched_write_then_read() {
        let map = ShardMap::new(6, 2, 3);
        let cfg = ShardedCasConfig::native(map, 1, ValueSpec::from_bits(64.0));
        let mut sim = sharded(&cfg, 2);
        let keys: Vec<Key> = (0..10).collect();
        let writes: Vec<(Key, Value)> = keys.iter().map(|&k| (k, 500 + k as Value)).collect();
        sim.invoke(ClientId(0), MultiInv::writes(&writes)).unwrap();
        let resp = sim.run_until_op_completes(ClientId(0)).unwrap();
        assert!(resp.ops.iter().all(|(_, r)| *r == RegResp::WriteAck));
        sim.invoke(ClientId(1), MultiInv::reads(&keys)).unwrap();
        let resp = sim.run_until_op_completes(ClientId(1)).unwrap();
        for &k in &keys {
            assert_eq!(resp.get(k), Some(&RegResp::ReadValue(500 + k as Value)));
        }
    }

    #[test]
    fn sharded_unwritten_keys_read_initial() {
        let map = ShardMap::full(5);
        let cfg = ShardedCasConfig::native(map, 1, ValueSpec::from_bits(64.0));
        let mut sim = sharded(&cfg, 1);
        sim.invoke(ClientId(0), MultiInv::reads(&[3, 77, 12345]))
            .unwrap();
        let resp = sim.run_until_op_completes(ClientId(0)).unwrap();
        for &k in &[3u64, 77, 12345] {
            assert_eq!(resp.get(k), Some(&RegResp::ReadValue(0)), "key {k}");
        }
    }

    #[test]
    fn sharded_rounds_are_coalesced() {
        // A write batch of B keys on one shard costs exactly the
        // single-key message count: 6 messages per contacted server
        // (query/pre-write/finalize, each with a reply).
        for batch in [1u64, 4, 16] {
            let map = ShardMap::full(5);
            let cfg = ShardedCasConfig::native(map, 1, ValueSpec::from_bits(64.0));
            let mut sim = sharded(&cfg, 1);
            let writes: Vec<(Key, Value)> = (0..batch).map(|k| (k, k + 9)).collect();
            sim.invoke(ClientId(0), MultiInv::writes(&writes)).unwrap();
            sim.run_until_op_completes(ClientId(0)).unwrap();
            sim.run_to_quiescence().unwrap();
            let t = sim.traffic();
            assert_eq!(t.client_to_server, 15, "batch {batch}");
            assert_eq!(t.server_to_client, 15, "batch {batch}");
        }
    }

    #[test]
    fn sharded_gc_caps_versions_per_key() {
        let map = ShardMap::full(3);
        let cfg = ShardedCasConfig::native(map, 1, ValueSpec::from_bits(64.0)).with_gc(0);
        let mut sim = sharded(&cfg, 1);
        for round in 0..5 {
            sim.invoke(ClientId(0), MultiInv::writes(&[(1, round), (2, round)]))
                .unwrap();
            sim.run_until_op_completes(ClientId(0)).unwrap();
        }
        sim.run_to_quiescence().unwrap();
        for s in 0..3 {
            let server = sim.server(ServerId(s));
            // δ = 0: only the newest finalized version survives per key.
            assert!(server.versions_held(1) <= 1, "server {s}");
            assert!(server.versions_held(2) <= 1, "server {s}");
            assert_eq!(server.max_finalized(1).seq, 5);
        }
    }

    #[test]
    fn sharded_coded_profile_storage_matches_mds_point() {
        // k = replicas − f with GC depth 0: steady-state total storage per
        // key is replicas · |v|/k = |v| · N/(N−f) — the ErasureCoded bound.
        let map = ShardMap::full(5);
        let cfg = ShardedCasConfig::coded(map, 1, ValueSpec::from_bits(64.0)).with_gc(0);
        assert_eq!(cfg.k, 4);
        let mut sim = sharded(&cfg, 1);
        sim.invoke(ClientId(0), MultiInv::writes(&[(1, 11), (2, 22)]))
            .unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.run_to_quiescence().unwrap();
        let total: f64 = (0..5)
            .map(|s| Node::<ShardedCas>::state_bits(sim.server(ServerId(s))))
            .sum();
        let per_key = 64.0 * 5.0 / 4.0; // ν·N/(N−f) at ν = 1
        assert!((total - 2.0 * per_key).abs() < 1e-9, "total={total}");
    }

    #[test]
    fn sharded_wire_bytes_count_payload() {
        let m = ShardedCasMsg::QueryTag {
            rid: 1,
            keys: vec![1, 2],
        };
        assert_eq!(m.wire_bytes(), 8 + 2 * 8);
        let m = ShardedCasMsg::PreWrite {
            rid: 1,
            items: vec![
                (1, Tag::new(1, 0), vec![0; 2]),
                (2, Tag::new(1, 0), vec![0; 2]),
            ],
        };
        assert_eq!(m.wire_bytes(), 8 + 2 * (8 + 12 + 2));
        let m = ShardedCasMsg::ReadResp {
            rid: 1,
            items: vec![(1, Some(vec![0; 2])), (2, None)],
        };
        assert_eq!(m.wire_bytes(), 8 + (8 + 1 + 2) + (8 + 1));
        assert_eq!(ShardedCasMsg::FinAck { rid: 1 }.wire_bytes(), 8);
    }

    #[test]
    fn sharded_tolerates_f_failures_per_shard_native() {
        let map = ShardMap::new(6, 2, 3);
        let cfg = ShardedCasConfig::native(map, 1, ValueSpec::from_bits(64.0));
        let mut sim = sharded(&cfg, 2);
        // Crash one server in each shard: {0,1,2} loses 2, {3,4,5} loses 5.
        sim.fail(shmem_sim::NodeId::server(2));
        sim.fail(shmem_sim::NodeId::server(5));
        let keys: Vec<Key> = (0..8).collect();
        let writes: Vec<(Key, Value)> = keys.iter().map(|&k| (k, k as Value + 1)).collect();
        sim.invoke(ClientId(0), MultiInv::writes(&writes)).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        sim.invoke(ClientId(1), MultiInv::reads(&keys)).unwrap();
        let resp = sim.run_until_op_completes(ClientId(1)).unwrap();
        for &k in &keys {
            assert_eq!(resp.get(k), Some(&RegResp::ReadValue(k as Value + 1)));
        }
    }

    #[test]
    fn sharded_projected_histories_atomic() {
        use shmem_util::DetRng;
        let map = ShardMap::new(6, 2, 3);
        let cfg = ShardedCasConfig::native(map, 1, ValueSpec::from_bits(64.0));
        for seed in 0..4 {
            let mut sim = sharded(&cfg, 3);
            let mut rng = DetRng::seed_from_u64(seed);
            for round in 0..3u64 {
                sim.invoke(
                    ClientId(0),
                    MultiInv::writes(&[(1, round * 10), (2, round * 10 + 1)]),
                )
                .unwrap();
                sim.invoke(ClientId(1), MultiInv::writes(&[(1, round * 10 + 5)]))
                    .unwrap();
                sim.invoke(ClientId(2), MultiInv::reads(&[1, 2])).unwrap();
                while (0..3).any(|c| sim.has_open_op(ClientId(c))) {
                    sim.step_with(|opts| rng.gen_range(0..opts.len()))
                        .expect("progress");
                }
            }
            for (key, h) in crate::multikey::project_histories(0, sim.ops()) {
                assert!(
                    shmem_spec::check_atomic(&h).is_ok(),
                    "seed {seed}, key {key}: non-atomic projection"
                );
            }
        }
    }

    /// Regression: a server addressed for a key outside its shards (possible
    /// over a real network, where clients are not trusted to route
    /// correctly) must ignore the key, not panic.
    #[test]
    fn sharded_server_ignores_out_of_shard_keys() {
        let map = ShardMap::new(6, 2, 3);
        let cfg = ShardedCasConfig::native(map, 1, ValueSpec::from_bits(64.0));
        let mut server = ShardedCasServer::new(cfg.clone(), ServerId(0), 0);
        let mine = (0..100).find(|&k| map.covers(0, k)).unwrap();
        let foreign = (0..100).find(|&k| !map.covers(0, k)).unwrap();
        let from = NodeId::client(9);
        let t = Tag::new(1, 9);

        let mut ctx: Ctx<ShardedCas> = Ctx::new(NodeId::server(0), 0);
        server.on_message(
            from,
            ShardedCasMsg::PreWrite {
                rid: 1,
                items: vec![
                    (foreign, t, vec![0xAA]),
                    (mine, t, vec![0x11; cfg.symbol_bits() as usize / 8]),
                ],
            },
            &mut ctx,
        );
        let (out, _) = ctx.into_effects();
        assert!(matches!(out[0].1, ShardedCasMsg::PreAck { rid: 1 }));
        assert_eq!(server.versions_held(mine), 2); // initial + prewritten
        assert_eq!(server.versions_held(foreign), 0); // skipped, no slot

        let mut ctx: Ctx<ShardedCas> = Ctx::new(NodeId::server(0), 1);
        server.on_message(
            from,
            ShardedCasMsg::Finalize {
                rid: 2,
                items: vec![(foreign, t), (mine, t)],
            },
            &mut ctx,
        );
        let (out, _) = ctx.into_effects();
        assert!(matches!(out[0].1, ShardedCasMsg::FinAck { rid: 2 }));
        assert_eq!(server.max_finalized(mine), t);
        assert_eq!(server.max_finalized(foreign), Tag::ZERO);

        let mut ctx: Ctx<ShardedCas> = Ctx::new(NodeId::server(0), 2);
        server.on_message(
            from,
            ShardedCasMsg::ReadGet {
                rid: 3,
                items: vec![(foreign, t), (mine, t)],
            },
            &mut ctx,
        );
        let (out, _) = ctx.into_effects();
        let ShardedCasMsg::ReadResp { rid: 3, ref items } = out[0].1 else {
            panic!("expected ReadResp, got {:?}", out[0].1);
        };
        // The out-of-shard key is omitted, not answered with junk.
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, mine);
    }

    /// Regression: a `ReadResp` echo from a server that does not cover the
    /// key must count toward neither the read quorum nor the share pool —
    /// previously it counted toward the quorum and then panicked when its
    /// (nonexistent) codeword position was looked up.
    #[test]
    fn sharded_reader_ignores_noncovering_read_responses() {
        let map = ShardMap::new(6, 2, 3);
        let cfg = ShardedCasConfig::native(map, 1, ValueSpec::from_bits(64.0));
        let q = cfg.quorum(); // 2 of 3 replicas
        assert_eq!(q, 2);
        let key: Key = (0..100).find(|&k| map.covers(0, k)).unwrap();
        let covering: Vec<u32> = map.servers_of_key(key).collect();
        let outsider = (0..map.n()).find(|&s| !covering.contains(&s)).unwrap();

        let mut client = ShardedCasClient::new(cfg.clone(), 0);
        let mut ctx: Ctx<ShardedCas> = Ctx::new(NodeId::client(0), 0);
        client.on_invoke(MultiInv::reads(&[key]), &mut ctx);
        let (out, _) = ctx.into_effects();
        assert_eq!(out.len(), covering.len());

        // Advance past the tag query: a quorum reports Tag::ZERO.
        for &s in covering.iter().take(q as usize) {
            let mut ctx: Ctx<ShardedCas> = Ctx::new(NodeId::client(0), 1);
            client.on_message(
                NodeId::server(s),
                ShardedCasMsg::QueryTagResp {
                    rid: 1,
                    items: vec![(key, Tag::ZERO)],
                },
                &mut ctx,
            );
            let (out, resp) = ctx.into_effects();
            assert!(resp.is_empty());
            let _ = out;
        }

        // A non-covering server echoes a share it cannot legally hold.
        let mut ctx: Ctx<ShardedCas> = Ctx::new(NodeId::client(0), 2);
        client.on_message(
            NodeId::server(outsider),
            ShardedCasMsg::ReadResp {
                rid: 2,
                items: vec![(key, Some(vec![0xEE, 0xEE]))],
            },
            &mut ctx,
        );
        let (out, resp) = ctx.into_effects();
        assert!(
            out.is_empty() && resp.is_empty(),
            "echo must not complete a quorum"
        );

        // Genuine covering replies with the initial-value shares complete
        // the read and decode to the initial value — untainted.
        let encoded = cfg.code().encode_bytes(&ValueSpec::to_bytes(0));
        let mut done = Vec::new();
        for &s in covering.iter().take(q as usize) {
            let pos = map.position_for_key(s, key).unwrap() as usize;
            let mut ctx: Ctx<ShardedCas> = Ctx::new(NodeId::client(0), 3);
            client.on_message(
                NodeId::server(s),
                ShardedCasMsg::ReadResp {
                    rid: 2,
                    items: vec![(key, Some(encoded[pos].clone()))],
                },
                &mut ctx,
            );
            let (_, resp) = ctx.into_effects();
            done.extend(resp);
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].get(key), Some(&RegResp::ReadValue(0)));
    }
}
