//! The server-state seam: the sharded server automata are generic over a
//! *backend* holding their per-key state, so the same protocol logic runs
//! against the in-struct `BTreeMap` state (the sequential reference) or a
//! store shared between threads (`shmem-store`, which stripes these same
//! reference backends under locks).
//!
//! The traits mirror exactly the state transitions the legacy servers
//! performed inline; the `Local*` implementations in this module *are*
//! that legacy code, moved verbatim. A backend must preserve two
//! invariants the rest of the repo leans on:
//!
//! * **Tag-ordered merge**: `store_if_newer` / `pre_write` races resolve
//!   to the maximum MWMR tag, never to a torn or stale interleaving.
//! * **Digest equality**: `digest_with` hashes the same canonical
//!   structure the legacy servers hashed, so a store-backed server is
//!   byte-identical (StepInfo traces *and* digests) to the reference in
//!   single-threaded runs — the differential tests gate on this.

use crate::cas::ShardedCasConfig;
use crate::multikey::Key;
use crate::tag::Tag;
use crate::value::{Value, ValueSpec};
use shmem_sim::hash_of;
use std::collections::{BTreeMap, BTreeSet};

/// Per-key state of a sharded ABD server.
///
/// An absent key logically holds `(Tag::ZERO, initial)`; the backend only
/// materializes keys that have been stored with a tag above `Tag::ZERO`.
pub trait AbdBackend {
    /// The materialized `(tag, value)` for `key`, if any.
    fn load(&self, key: Key) -> Option<(Tag, Value)>;

    /// Stores `(tag, value)` iff `tag` exceeds the key's current tag
    /// (absent = `Tag::ZERO`). Returns whether the store took effect.
    fn store_if_newer(&mut self, key: Key, tag: Tag, value: Value) -> bool;

    /// Number of keys with materialized state.
    fn keys_held(&self) -> usize;

    /// Digest over `(initial, entries)` — must hash the same canonical
    /// shape as the legacy in-struct server.
    fn digest_with(&self, initial: Value) -> u64;

    /// Corruption-adversary entry point: tamper the stored value-bearing
    /// state in `mode` (see [`crate::corrupt::modes`]), deterministically
    /// in `salt`, and report whether anything changed. Only a backend that
    /// owns its state outright can be tampered in place; the default — a
    /// store shared between worker threads, a decorator — refuses.
    fn corrupt(&mut self, mode: u8, salt: u64) -> bool {
        let _ = (mode, salt);
        false
    }
}

/// Per-key state of a sharded CAS server: coded shares by tag plus
/// finalize labels, with lazy materialization and per-key GC.
pub trait CasBackend {
    /// Highest finalized tag for `key` (`Tag::ZERO` when untouched).
    /// Must not materialize the key.
    fn max_finalized(&self, key: Key) -> Tag;

    /// Stores one codeword symbol for `(key, tag)` (first writer wins),
    /// materializing the key's slot and applying GC. Out-of-shard keys
    /// are ignored.
    fn pre_write(&mut self, key: Key, tag: Tag, share: Vec<u8>);

    /// Marks `(key, tag)` finalized, materializing and GCing. Ignores
    /// out-of-shard keys.
    fn finalize(&mut self, key: Key, tag: Tag);

    /// The read's write-back: finalize `(key, tag)`, GC, then fetch the
    /// symbol. Outer `None` = out-of-shard (the server omits the key from
    /// its reply); inner `None` = the symbol is not held.
    #[allow(clippy::option_option)]
    fn read_get(&mut self, key: Key, tag: Tag) -> Option<Option<Vec<u8>>>;

    /// Coded versions held for `key` (0 when untouched).
    fn versions_held(&self, key: Key) -> usize;

    /// Number of keys with materialized state.
    fn keys_held(&self) -> usize;

    /// Total coded versions across all keys (for `state_bits`).
    fn total_versions(&self) -> usize;

    /// Total stored tags (shares + finalize labels) across all keys.
    fn total_tags(&self) -> usize;

    /// Digest over `(me, [(key, shares, finalized)])` in key order — the
    /// legacy canonical shape.
    fn digest_with(&self, me: u32) -> u64;

    /// Corruption-adversary entry point, as [`AbdBackend::corrupt`]: the
    /// default refuses. Announced hashes ([`HashedBackend`]) are integrity
    /// metadata and never in reach.
    fn corrupt(&mut self, mode: u8, salt: u64) -> bool {
        let _ = (mode, salt);
        false
    }
}

/// A CAS backend that additionally stores announced value hashes per
/// `(key, tag)` — the hashed-CAS extension.
pub trait HashedBackend: CasBackend {
    /// Records an announced hash (last announcement wins, matching the
    /// legacy unconditional insert — no shard check).
    fn put_hash(&mut self, key: Key, tag: Tag, digest: u64);

    /// The announced hash for `(key, tag)`, if any.
    fn get_hash(&self, key: Key, tag: Tag) -> Option<u64>;

    /// Number of stored hashes.
    fn hash_count(&self) -> usize;

    /// Digest over `(cas_digest, hashes)` — the legacy canonical shape.
    fn hashed_digest_with(&self, me: u32) -> u64;
}

/// A reference backend that can be reassembled from key-disjoint parts.
///
/// `shmem-store` partitions one server's keys over several instances of a
/// `Local*` backend; digests must still hash the canonical whole, so the
/// parts are absorbed into one instance and that instance's own
/// `digest_with` runs — the canonical shape stays written once.
pub trait Absorb: Clone {
    /// Copies every key `part` has materialized into `self`. The two must
    /// come from identical constructor arguments and hold disjoint keys.
    fn absorb(&mut self, part: &Self);
}

/// The sequential reference ABD backend: the legacy in-struct `BTreeMap`.
#[derive(Clone, Debug, Default)]
pub struct LocalAbd {
    entries: BTreeMap<Key, (Tag, Value)>,
}

impl LocalAbd {
    /// An empty backend (every key at its initial value).
    pub fn new() -> LocalAbd {
        LocalAbd::default()
    }
}

impl Absorb for LocalAbd {
    fn absorb(&mut self, part: &LocalAbd) {
        self.entries.extend(&part.entries);
    }
}

impl AbdBackend for LocalAbd {
    fn load(&self, key: Key) -> Option<(Tag, Value)> {
        self.entries.get(&key).copied()
    }

    fn store_if_newer(&mut self, key: Key, tag: Tag, value: Value) -> bool {
        let cur = self.entries.get(&key).map_or(Tag::ZERO, |&(t, _)| t);
        if tag > cur {
            self.entries.insert(key, (tag, value));
            true
        } else {
            false
        }
    }

    fn keys_held(&self) -> usize {
        self.entries.len()
    }

    fn digest_with(&self, initial: Value) -> u64 {
        hash_of(&(initial, &self.entries))
    }

    /// Fabricates every materialized
    /// entry, deterministically in `salt`. Replication has no stale
    /// versions or shares to play with, so all modes collapse to the one
    /// attack that matters: tamper the value and forge a higher tag
    /// (writer [`crate::corrupt::FORGED_WRITER`]) so the fabrication wins
    /// the reader's max-tag fold. Refuses when nothing is materialized.
    fn corrupt(&mut self, _mode: u8, salt: u64) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        for (&key, entry) in self.entries.iter_mut() {
            entry.0 = entry.0.successor(crate::corrupt::FORGED_WRITER);
            entry.1 = shmem_util::tamper_value(entry.1, salt, key);
        }
        true
    }
}

/// Per-key CAS state: symbols by tag plus finalize labels.
#[derive(Clone, Debug)]
struct KeySlot {
    shares: BTreeMap<Tag, Vec<u8>>,
    finalized: BTreeSet<Tag>,
}

/// The sequential reference CAS backend: lazily materialized [`KeySlot`]s
/// in a `BTreeMap`, exactly the legacy in-struct state.
#[derive(Clone, Debug)]
pub struct LocalCas {
    cfg: ShardedCasConfig,
    me: u32,
    /// `encode(initial)[pos]` for each in-shard position, computed once.
    initial_share_by_pos: Vec<Vec<u8>>,
    slots: BTreeMap<Key, KeySlot>,
}

impl LocalCas {
    /// Backend for server `me`, seeded so every key of its shards reads
    /// as the register initial value.
    pub fn new(cfg: ShardedCasConfig, me: u32, initial: Value) -> LocalCas {
        let initial_share_by_pos = cfg.code().encode_bytes(&ValueSpec::to_bytes(initial));
        LocalCas {
            cfg,
            me,
            initial_share_by_pos,
            slots: BTreeMap::new(),
        }
    }

    /// The key's slot, or `None` for keys outside this server's shards.
    /// Out-of-shard keys can arrive over a real network (a confused or
    /// malicious client), so they must be ignorable, not a panic.
    fn slot(&mut self, key: Key) -> Option<&mut KeySlot> {
        let pos = self.cfg.map.position_for_key(self.me, key)?;
        let initial = &self.initial_share_by_pos[pos as usize];
        Some(self.slots.entry(key).or_insert_with(|| KeySlot {
            shares: [(Tag::ZERO, initial.clone())].into(),
            finalized: [Tag::ZERO].into(),
        }))
    }

    fn gc(cfg: &ShardedCasConfig, slot: &mut KeySlot) {
        let Some(delta) = cfg.gc_depth else {
            return;
        };
        // Keep symbols for the δ+1 newest finalized tags and anything
        // newer (still-unfinalized in-flight versions).
        let keep_from = slot.finalized.iter().rev().nth(delta as usize).copied();
        if let Some(cutoff) = keep_from {
            slot.shares.retain(|&t, _| t >= cutoff);
        }
    }
}

impl Absorb for LocalCas {
    fn absorb(&mut self, part: &LocalCas) {
        self.slots
            .extend(part.slots.iter().map(|(&key, slot)| (key, slot.clone())));
    }
}

impl CasBackend for LocalCas {
    fn max_finalized(&self, key: Key) -> Tag {
        self.slots
            .get(&key)
            .and_then(|s| s.finalized.iter().next_back().copied())
            .unwrap_or(Tag::ZERO)
    }

    fn pre_write(&mut self, key: Key, tag: Tag, share: Vec<u8>) {
        let cfg = self.cfg.clone();
        let Some(slot) = self.slot(key) else {
            return;
        };
        slot.shares.entry(tag).or_insert(share);
        Self::gc(&cfg, slot);
    }

    fn finalize(&mut self, key: Key, tag: Tag) {
        let cfg = self.cfg.clone();
        let Some(slot) = self.slot(key) else {
            return;
        };
        slot.finalized.insert(tag);
        Self::gc(&cfg, slot);
    }

    fn read_get(&mut self, key: Key, tag: Tag) -> Option<Option<Vec<u8>>> {
        let cfg = self.cfg.clone();
        let slot = self.slot(key)?;
        slot.finalized.insert(tag);
        Self::gc(&cfg, slot);
        Some(slot.shares.get(&tag).cloned())
    }

    fn versions_held(&self, key: Key) -> usize {
        self.slots.get(&key).map_or(0, |s| s.shares.len())
    }

    fn keys_held(&self) -> usize {
        self.slots.len()
    }

    fn total_versions(&self) -> usize {
        self.slots.values().map(|s| s.shares.len()).sum()
    }

    fn total_tags(&self) -> usize {
        self.slots
            .values()
            .map(|s| s.shares.len() + s.finalized.len())
            .sum()
    }

    fn digest_with(&self, me: u32) -> u64 {
        type SlotView<'a> = (Key, &'a BTreeMap<Tag, Vec<u8>>, &'a BTreeSet<Tag>);
        let canonical: Vec<SlotView<'_>> = self
            .slots
            .iter()
            .map(|(&k, s)| (k, &s.shares, &s.finalized))
            .collect();
        hash_of(&(me, canonical))
    }

    /// Tampers every materialized key
    /// slot in `mode` (see [`crate::corrupt::modes`]), deterministically
    /// in `(salt, key)`. Refuses when no slot holds a corruptible
    /// finalized version.
    fn corrupt(&mut self, mode: u8, salt: u64) -> bool {
        let mut tampered = false;
        for (&key, slot) in self.slots.iter_mut() {
            tampered |= crate::corrupt::corrupt_coded_slot(
                &mut slot.shares,
                &mut slot.finalized,
                mode,
                salt,
                key,
            );
        }
        tampered
    }
}

/// The sequential reference hashed-CAS backend: [`LocalCas`] plus the
/// legacy `BTreeMap` of announced hashes.
#[derive(Clone, Debug)]
pub struct LocalHashed {
    cas: LocalCas,
    hashes: BTreeMap<(Key, Tag), u64>,
    /// `h(initial)`, served for `Tag::ZERO` lookups that miss the map:
    /// every key starts at the initial value without an announcement, and
    /// keeping the fallback out of `hashes` leaves `hashed_digest_with`
    /// (and the lazily-materialized canonical shape) unchanged.
    initial_digest: u64,
}

impl LocalHashed {
    /// Backend for server `me`, seeded like [`LocalCas`].
    pub fn new(cfg: ShardedCasConfig, me: u32, initial: Value) -> LocalHashed {
        LocalHashed {
            cas: LocalCas::new(cfg, me, initial),
            hashes: BTreeMap::new(),
            initial_digest: crate::hashed::value_digest(initial),
        }
    }
}

impl Absorb for LocalHashed {
    fn absorb(&mut self, part: &LocalHashed) {
        self.cas.absorb(&part.cas);
        self.hashes.extend(&part.hashes);
    }
}

impl CasBackend for LocalHashed {
    fn max_finalized(&self, key: Key) -> Tag {
        self.cas.max_finalized(key)
    }
    fn pre_write(&mut self, key: Key, tag: Tag, share: Vec<u8>) {
        self.cas.pre_write(key, tag, share);
    }
    fn finalize(&mut self, key: Key, tag: Tag) {
        self.cas.finalize(key, tag);
    }
    fn read_get(&mut self, key: Key, tag: Tag) -> Option<Option<Vec<u8>>> {
        self.cas.read_get(key, tag)
    }
    fn versions_held(&self, key: Key) -> usize {
        self.cas.versions_held(key)
    }
    fn keys_held(&self) -> usize {
        self.cas.keys_held()
    }
    fn total_versions(&self) -> usize {
        self.cas.total_versions()
    }
    fn total_tags(&self) -> usize {
        self.cas.total_tags()
    }
    fn digest_with(&self, me: u32) -> u64 {
        self.cas.digest_with(me)
    }
    /// Tampers the coded slots only — the announced hashes are integrity
    /// metadata the adversary must not forge (that is the whole detection
    /// premise).
    fn corrupt(&mut self, mode: u8, salt: u64) -> bool {
        self.cas.corrupt(mode, salt)
    }
}

impl HashedBackend for LocalHashed {
    fn put_hash(&mut self, key: Key, tag: Tag, digest: u64) {
        self.hashes.insert((key, tag), digest);
    }

    fn get_hash(&self, key: Key, tag: Tag) -> Option<u64> {
        self.hashes.get(&(key, tag)).copied().or_else(|| {
            // Tag::ZERO is never announced — every key implicitly starts
            // at the initial value, whose digest is seeded at startup.
            (tag == Tag::ZERO).then_some(self.initial_digest)
        })
    }

    fn hash_count(&self) -> usize {
        self.hashes.len()
    }

    fn hashed_digest_with(&self, me: u32) -> u64 {
        hash_of(&(self.cas.digest_with(me), &self.hashes))
    }
}
