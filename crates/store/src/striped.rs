//! [`Striped`]: one server's keys partitioned over a fixed array of
//! mutex-guarded sequential reference backends, and [`Handle`], the
//! per-thread handle that implements the backend traits over it.
//!
//! Every per-key transition is the reference's own (`LocalAbd` /
//! `LocalCas` / `LocalHashed`, unchanged), run under the lock of the
//! stripe that owns the key — so a transition is atomic because it is
//! one critical section, and racing `store_if_newer` / `pre_write` calls
//! resolve exactly like the same calls in some sequential order.
//! Whole-store digests absorb the stripes into one temporary reference
//! backend and call *its* digest: the canonical shape, the seed slot and
//! the gc rule are written once, in `shmem_algorithms::backend`.

use shmem_algorithms::backend::{
    AbdBackend, Absorb, CasBackend, HashedBackend, LocalAbd, LocalCas, LocalHashed,
};
use shmem_algorithms::cas::ShardedCasConfig;
use shmem_algorithms::multikey::Key;
use shmem_algorithms::tag::Tag;
use shmem_algorithms::value::Value;
use std::sync::{Arc, Mutex, MutexGuard};

/// log₂ of the stripe count: 64 stripes keep two to eight threads off
/// each other's locks on a uniform keyspace.
const STRIPE_BITS: u32 = 6;

/// A store shared by any number of threads: `2^STRIPE_BITS` instances of
/// the sequential backend `B`, each behind its own lock, each owning the
/// keys that hash to it.
pub struct Striped<B> {
    stripes: Box<[Mutex<B>]>,
}

/// The shared replicated-register store of one emulated server.
pub type RegStore = Striped<LocalAbd>;
/// The shared coded store of one emulated server.
pub type CodedStore = Striped<LocalCas>;

impl<B> Striped<B> {
    /// A store whose every stripe starts as a copy of `empty`.
    pub fn of(empty: B) -> Striped<B>
    where
        B: Clone,
    {
        Striped {
            stripes: (0..1usize << STRIPE_BITS)
                .map(|_| Mutex::new(empty.clone()))
                .collect(),
        }
    }

    fn lock(stripe: &Mutex<B>) -> MutexGuard<'_, B> {
        stripe
            .lock()
            .expect("a thread panicked inside a backend transition")
    }

    /// The stripe owning `key`, locked: everything done through the guard
    /// is one critical section.
    fn stripe(&self, key: Key) -> MutexGuard<'_, B> {
        // Fibonacci hashing: the top bits of the product spread both
        // sequential and strided keys over all stripes.
        let i = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - STRIPE_BITS);
        Self::lock(&self.stripes[i as usize])
    }

    /// Every stripe, locked — always in stripe order, and per-key calls
    /// hold only one, so this cannot deadlock. A point-in-time view of the
    /// whole store.
    fn all(&self) -> Vec<MutexGuard<'_, B>> {
        self.stripes.iter().map(Self::lock).collect()
    }

    /// `f` of every stripe, in stripe order, at one instant.
    pub fn per_stripe<R>(&self, f: impl Fn(&B) -> R) -> Vec<R> {
        self.all().iter().map(|b| f(b)).collect()
    }

    fn sum(&self, f: impl Fn(&B) -> usize) -> usize {
        self.per_stripe(f).into_iter().sum()
    }

    /// The stripes absorbed into one sequential backend.
    fn whole(&self) -> B
    where
        B: Absorb,
    {
        let all = self.all();
        let mut whole = B::clone(&all[0]);
        for part in &all[1..] {
            whole.absorb(part);
        }
        whole
    }
}

impl RegStore {
    /// An empty store (every key at its initial value).
    pub fn new() -> RegStore {
        Striped::of(LocalAbd::new())
    }
}

impl Default for RegStore {
    fn default() -> RegStore {
        RegStore::new()
    }
}

/// One thread's handle on a [`Striped`] store; a clone is a sibling on
/// the same store. Implements whichever backend traits `B` does, so it
/// plugs into `ShardedAbdServerOn` / `ShardedCasServerOn` /
/// `ShardedHashedServerOn` and the unchanged automata run against state
/// that other threads' handles share.
pub struct Handle<B>(Arc<Striped<B>>);

/// [`AbdBackend`] over a shared [`RegStore`].
pub type StoreAbdBackend = Handle<LocalAbd>;
/// [`CasBackend`] over a shared [`CodedStore`].
pub type StoreCasBackend = Handle<LocalCas>;
/// [`HashedBackend`] over a shared store of [`LocalHashed`] stripes.
pub type StoreHashedBackend = Handle<LocalHashed>;

impl<B> Handle<B> {
    /// A handle on `store`.
    pub fn shared(store: &Arc<Striped<B>>) -> Handle<B> {
        Handle(Arc::clone(store))
    }

    /// The shared store.
    pub fn store(&self) -> &Arc<Striped<B>> {
        &self.0
    }
}

impl StoreAbdBackend {
    /// A handle on a fresh store.
    pub fn new() -> StoreAbdBackend {
        Handle(Arc::new(RegStore::new()))
    }
}

impl Default for StoreAbdBackend {
    fn default() -> StoreAbdBackend {
        StoreAbdBackend::new()
    }
}

impl StoreCasBackend {
    /// A handle for server `me` on a fresh store, seeded like
    /// [`LocalCas::new`].
    pub fn new(cfg: ShardedCasConfig, me: u32, initial: Value) -> StoreCasBackend {
        Handle(Arc::new(Striped::of(LocalCas::new(cfg, me, initial))))
    }
}

impl StoreHashedBackend {
    /// A handle for server `me` on a fresh store, seeded like
    /// [`LocalHashed::new`].
    pub fn new(cfg: ShardedCasConfig, me: u32, initial: Value) -> StoreHashedBackend {
        Handle(Arc::new(Striped::of(LocalHashed::new(cfg, me, initial))))
    }
}

impl<B> Clone for Handle<B> {
    fn clone(&self) -> Handle<B> {
        Handle(Arc::clone(&self.0))
    }
}

impl<B> std::fmt::Debug for Handle<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle").finish_non_exhaustive()
    }
}

impl<B: AbdBackend + Absorb> AbdBackend for Handle<B> {
    fn load(&self, key: Key) -> Option<(Tag, Value)> {
        self.0.stripe(key).load(key)
    }

    fn store_if_newer(&mut self, key: Key, tag: Tag, value: Value) -> bool {
        self.0.stripe(key).store_if_newer(key, tag, value)
    }

    fn keys_held(&self) -> usize {
        self.0.sum(B::keys_held)
    }

    fn digest_with(&self, initial: Value) -> u64 {
        self.0.whole().digest_with(initial)
    }
}

impl<B: CasBackend + Absorb> CasBackend for Handle<B> {
    fn max_finalized(&self, key: Key) -> Tag {
        self.0.stripe(key).max_finalized(key)
    }

    fn pre_write(&mut self, key: Key, tag: Tag, share: Vec<u8>) {
        self.0.stripe(key).pre_write(key, tag, share);
    }

    fn finalize(&mut self, key: Key, tag: Tag) {
        self.0.stripe(key).finalize(key, tag);
    }

    fn read_get(&mut self, key: Key, tag: Tag) -> Option<Option<Vec<u8>>> {
        self.0.stripe(key).read_get(key, tag)
    }

    fn versions_held(&self, key: Key) -> usize {
        self.0.stripe(key).versions_held(key)
    }

    fn keys_held(&self) -> usize {
        self.0.sum(B::keys_held)
    }

    fn total_versions(&self) -> usize {
        self.0.sum(B::total_versions)
    }

    fn total_tags(&self) -> usize {
        self.0.sum(B::total_tags)
    }

    fn digest_with(&self, me: u32) -> u64 {
        self.0.whole().digest_with(me)
    }
}

impl<B: HashedBackend + Absorb> HashedBackend for Handle<B> {
    fn put_hash(&mut self, key: Key, tag: Tag, digest: u64) {
        self.0.stripe(key).put_hash(key, tag, digest);
    }

    fn get_hash(&self, key: Key, tag: Tag) -> Option<u64> {
        self.0.stripe(key).get_hash(key, tag)
    }

    fn hash_count(&self) -> usize {
        self.0.sum(B::hash_count)
    }

    fn hashed_digest_with(&self, me: u32) -> u64 {
        self.0.whole().hashed_digest_with(me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state_and_every_stripe_gets_keys() {
        let mut a = StoreAbdBackend::new();
        let b = a.clone();
        for key in 0..256 {
            assert!(a.store_if_newer(key, Tag::new(1, 0), key));
            assert!(!a.store_if_newer(key, Tag::new(1, 0), key + 1));
        }
        assert_eq!(b.load(255), Some((Tag::new(1, 0), 255)));
        assert_eq!(b.keys_held(), 256);
        let held = b.store().per_stripe(LocalAbd::keys_held);
        assert_eq!(held.len(), 1 << STRIPE_BITS);
        assert!(held.iter().all(|&n| n > 0), "uneven stripes: {held:?}");
    }
}
