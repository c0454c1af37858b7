//! [`CorruptingBackend`]: the corruption adversary at the store seam.
//!
//! A shared store may have several handles on it, so tampering the
//! stored state in place (what the sim-level adversary does through
//! `AbdBackend::corrupt` / `CasBackend::corrupt`, which this decorator
//! leaves refusing) would reach under every holder's feet at an instant
//! no schedule names, and would make the stored state — and with it
//! every digest the differential suites compare — depend on when the
//! adversary struck. So the store-seam adversary sits where a
//! Byzantine server actually sits: on the *serving* path. The decorator
//! wraps any backend and, while armed, tampers every coded share it hands
//! to readers (`read_get`) and every replicated value it loads for a
//! query (`load`), deterministically in `(salt, key)` via the same
//! `shmem-util` tamper primitives the sim-level adversary uses — the
//! stored state underneath stays canonical (digests delegate untouched),
//! the lies happen at the interface.
//!
//! The hash side-table is delegated verbatim: announced digests are the
//! integrity metadata guarding the data, and the adversary does not get
//! to forge them. That asymmetry is the whole experiment — hashed CAS
//! over a corrupting backend turns every tampered share into a visible
//! `ReadFailed`, plain CAS and ABD serve fabricated values.

use shmem_algorithms::backend::{AbdBackend, CasBackend, HashedBackend};
use shmem_algorithms::corrupt::FORGED_WRITER;
use shmem_algorithms::multikey::Key;
use shmem_algorithms::tag::Tag;
use shmem_algorithms::value::Value;
use shmem_util::{tamper_bytes, tamper_value};

/// A backend decorator that tampers read-path payloads while armed.
#[derive(Clone, Debug)]
pub struct CorruptingBackend<B> {
    inner: B,
    salt: u64,
    armed: bool,
}

impl<B> CorruptingBackend<B> {
    /// Wraps `inner`, disarmed — byte-identical to the bare backend until
    /// [`CorruptingBackend::arm`].
    pub fn new(inner: B, salt: u64) -> CorruptingBackend<B> {
        CorruptingBackend {
            inner,
            salt,
            armed: false,
        }
    }

    /// Starts (or stops) tampering served payloads.
    pub fn arm(&mut self, armed: bool) {
        self.armed = armed;
    }
}

impl<B: AbdBackend> AbdBackend for CorruptingBackend<B> {
    fn load(&self, key: Key) -> Option<(Tag, Value)> {
        let (tag, value) = self.inner.load(key)?;
        if self.armed {
            // Forge a tag above every honest one so the fabrication wins
            // the reader's max-tag fold — the one attack replication
            // leaves open (see `LocalAbd::corrupt`).
            Some((
                tag.successor(FORGED_WRITER),
                tamper_value(value, self.salt, key),
            ))
        } else {
            Some((tag, value))
        }
    }

    fn store_if_newer(&mut self, key: Key, tag: Tag, value: Value) -> bool {
        self.inner.store_if_newer(key, tag, value)
    }

    fn keys_held(&self) -> usize {
        self.inner.keys_held()
    }

    fn digest_with(&self, initial: Value) -> u64 {
        self.inner.digest_with(initial)
    }
}

impl<B: CasBackend> CasBackend for CorruptingBackend<B> {
    fn max_finalized(&self, key: Key) -> Tag {
        self.inner.max_finalized(key)
    }

    fn pre_write(&mut self, key: Key, tag: Tag, share: Vec<u8>) {
        self.inner.pre_write(key, tag, share);
    }

    fn finalize(&mut self, key: Key, tag: Tag) {
        self.inner.finalize(key, tag);
    }

    fn read_get(&mut self, key: Key, tag: Tag) -> Option<Option<Vec<u8>>> {
        let mut share = self.inner.read_get(key, tag)?;
        if self.armed {
            if let Some(share) = share.as_mut() {
                tamper_bytes(share, self.salt, key);
            }
        }
        Some(share)
    }

    fn versions_held(&self, key: Key) -> usize {
        self.inner.versions_held(key)
    }

    fn keys_held(&self) -> usize {
        self.inner.keys_held()
    }

    fn total_versions(&self) -> usize {
        self.inner.total_versions()
    }

    fn total_tags(&self) -> usize {
        self.inner.total_tags()
    }

    fn digest_with(&self, me: u32) -> u64 {
        self.inner.digest_with(me)
    }
}

impl<B: HashedBackend> HashedBackend for CorruptingBackend<B> {
    fn put_hash(&mut self, key: Key, tag: Tag, digest: u64) {
        self.inner.put_hash(key, tag, digest);
    }

    fn get_hash(&self, key: Key, tag: Tag) -> Option<u64> {
        self.inner.get_hash(key, tag)
    }

    fn hash_count(&self) -> usize {
        self.inner.hash_count()
    }

    fn hashed_digest_with(&self, me: u32) -> u64 {
        self.inner.hashed_digest_with(me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmem_algorithms::backend::{LocalAbd, LocalHashed};
    use shmem_algorithms::cas::ShardedCasConfig;
    use shmem_algorithms::hashed::value_digest;
    use shmem_algorithms::multikey::ShardMap;
    use shmem_algorithms::value::ValueSpec;

    fn cfg() -> ShardedCasConfig {
        ShardedCasConfig::native(ShardMap::full(4), 1, ValueSpec::from_bits(64.0))
    }

    #[test]
    fn disarmed_is_transparent_and_armed_tampers_reads_only() {
        let initial = 0;
        let mut b = CorruptingBackend::new(LocalHashed::new(cfg(), 0, initial), 0xBEEF);
        let tag = Tag::ZERO.successor(7);
        b.pre_write(3, tag, vec![1, 2, 3]);
        b.finalize(3, tag);
        b.put_hash(3, tag, 42);

        let honest = b.read_get(3, tag).flatten().expect("symbol held");
        assert_eq!(honest, vec![1, 2, 3]);

        b.arm(true);
        let lied = b.read_get(3, tag).flatten().expect("symbol held");
        assert_ne!(lied, honest, "armed read_get must tamper the share");
        // Stored state and integrity metadata stay canonical: digests
        // equal the bare backend's, hashes come back unforged.
        assert_eq!(b.get_hash(3, tag), Some(42));
        let bare = {
            let mut bare = LocalHashed::new(cfg(), 0, initial);
            bare.pre_write(3, tag, vec![1, 2, 3]);
            bare.finalize(3, tag);
            bare.put_hash(3, tag, 42);
            bare.read_get(3, tag); // same write-back as the wrapped one
            bare.read_get(3, tag);
            bare
        };
        assert_eq!(b.hashed_digest_with(0), bare.hashed_digest_with(0));
    }

    #[test]
    fn tampering_is_deterministic_in_salt_and_key() {
        let run = |salt: u64| {
            let mut b = CorruptingBackend::new(LocalHashed::new(cfg(), 0, 0), salt);
            let tag = Tag::ZERO.successor(1);
            b.pre_write(9, tag, vec![0xAA; 8]);
            b.finalize(9, tag);
            b.arm(true);
            b.read_get(9, tag).flatten().expect("symbol held")
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn abd_load_forges_tag_and_value_while_armed() {
        let mut b = CorruptingBackend::new(LocalAbd::new(), 0x5A17);
        let tag = Tag::ZERO.successor(2);
        assert!(b.store_if_newer(5, tag, 77));
        let (honest_tag, honest_value) = AbdBackend::load(&b, 5).expect("materialized");
        assert_eq!((honest_tag, honest_value), (tag, 77));
        b.arm(true);
        let (forged_tag, forged_value) = AbdBackend::load(&b, 5).expect("materialized");
        assert!(forged_tag > honest_tag, "forged tag must win the fold");
        assert_ne!(forged_value, honest_value);
        // The fabrication never collides with a real written value.
        assert_ne!(value_digest(forged_value), value_digest(honest_value));
    }
}
