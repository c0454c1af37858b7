//! The slab codec: a reusable `[n, k]` handle bundling a precomputed
//! encode plan, an LRU of decode plans, and cache statistics.
//!
//! [`Codec`] is the operational entry point the shared-memory algorithms
//! use. It wraps the [`ReedSolomon`] reference code with:
//!
//! * a single [`EncodePlan`] built at construction — every encode streams
//!   through precomputed nibble tables, no generator rebuild;
//! * a small LRU of [`DecodePlan`]s keyed by the *sorted* surviving-index
//!   set, so the Vandermonde submatrix is inverted once per erasure
//!   pattern instead of once per call (sorting makes the key order-
//!   insensitive: the decoded payload is the unique solution of the
//!   linear system, independent of share supply order);
//! * hit/miss counters surfaced as [`CodecStats`] (the ledger's
//!   `erasure.plan_hit_rate` cell records the hit rate);
//! * a process-wide registry, [`Codec::shared`], memoizing handles by
//!   `(field, n, k)` so callers like `cas.rs` stop rebuilding codecs per
//!   operation.
//!
//! Output is byte-identical to [`ReedSolomon::encode_bytes`] /
//! [`ReedSolomon::decode_bytes`] — same striping layout, same error
//! conditions in the same order — verified by the `slab_parity` suite.

use crate::kernel::SlabKernel;
use crate::plan::{default_workers, DecodePlan, EncodePlan};
use crate::rs::{CodeError, ReedSolomon};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Decode plans kept per codec. Erasure patterns in a run are few (the
/// same `k`-subset of servers keeps answering), so a handful suffice.
const DECODE_PLAN_CACHE_CAP: usize = 32;

/// Payloads below this stay on the sequential path; thread hand-off only
/// pays for itself on big slabs.
const PARALLEL_THRESHOLD_BYTES: usize = 256 * 1024;

/// Decode-plan cache counters for one codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodecStats {
    /// Decodes served by a cached plan.
    pub decode_plan_hits: u64,
    /// Decodes that had to invert a Vandermonde submatrix.
    pub decode_plan_misses: u64,
}

impl CodecStats {
    /// Fraction of decodes served from the plan cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.decode_plan_hits + self.decode_plan_misses;
        if total == 0 {
            0.0
        } else {
            self.decode_plan_hits as f64 / total as f64
        }
    }
}

/// One plan-cache slot: the sorted surviving-index key and its plan.
type CachedPlan<F> = (Vec<usize>, Arc<DecodePlan<F>>);

/// An `[n, k]` slab codec: precomputed encode plan + decode-plan LRU.
pub struct Codec<F: SlabKernel> {
    code: ReedSolomon<F>,
    plan: EncodePlan<F>,
    // Most-recently-used first; linear scan is fine at cap 32.
    cache: Mutex<Vec<CachedPlan<F>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<F: SlabKernel> Codec<F> {
    /// Builds a codec for an `[n, k]` code.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParams`] under the same conditions as
    /// [`ReedSolomon::new`].
    pub fn new(n: usize, k: usize) -> Result<Codec<F>, CodeError> {
        let code = ReedSolomon::new(n, k)?;
        let plan = EncodePlan::new(&code);
        Ok(Codec {
            code,
            plan,
            cache: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The process-wide memoized codec for `(F, n, k)` — built once,
    /// shared by every caller thereafter, so hot paths never rebuild
    /// generators or re-warm plan caches.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParams`] on the first request for an illegal
    /// geometry (illegal geometries are not cached).
    pub fn shared(n: usize, k: usize) -> Result<Arc<Codec<F>>, CodeError> {
        type Registry = Mutex<HashMap<(TypeId, usize, usize), Arc<dyn Any + Send + Sync>>>;
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (TypeId::of::<F>(), n, k);
        let mut map = registry.lock().expect("codec registry poisoned");
        if let Some(existing) = map.get(&key) {
            return Ok(Arc::clone(existing)
                .downcast::<Codec<F>>()
                .expect("registry entry has the keyed codec type"));
        }
        let codec = Arc::new(Codec::<F>::new(n, k)?);
        map.insert(key, codec.clone() as Arc<dyn Any + Send + Sync>);
        Ok(codec)
    }

    /// Codeword length `n`.
    pub fn n(&self) -> usize {
        self.code.n()
    }

    /// Data dimension `k`.
    pub fn k(&self) -> usize {
        self.code.k()
    }

    /// The underlying reference code.
    pub fn code(&self) -> &ReedSolomon<F> {
        &self.code
    }

    /// Snapshot of the decode-plan cache counters.
    pub fn stats(&self) -> CodecStats {
        CodecStats {
            decode_plan_hits: self.hits.load(Ordering::Relaxed),
            decode_plan_misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Encodes a byte payload into `n` share slabs, byte-identical to
    /// [`ReedSolomon::encode_bytes`]. Large payloads fan out across
    /// worker threads automatically.
    pub fn encode_bytes(&self, data: &[u8]) -> Vec<Vec<u8>> {
        self.encode_bytes_with_workers(data, auto_workers(data.len()))
    }

    /// [`Codec::encode_bytes`] with an explicit worker count (1 =
    /// sequential). Any count yields identical bytes.
    pub fn encode_bytes_with_workers(&self, data: &[u8], workers: usize) -> Vec<Vec<u8>> {
        self.plan.encode_with_workers(data, workers)
    }

    /// Decodes byte shares into the first `len` payload bytes,
    /// byte-identical to [`ReedSolomon::decode_bytes`] — same error
    /// conditions in the same order. Extras beyond the first `k` shares
    /// are length-checked but otherwise ignored, as in the reference.
    ///
    /// # Errors
    ///
    /// Same as [`ReedSolomon::decode_bytes`].
    pub fn decode_bytes(
        &self,
        shares: &[(usize, Vec<u8>)],
        len: usize,
    ) -> Result<Vec<u8>, CodeError> {
        self.decode_bytes_with_workers(shares, len, auto_workers(len))
    }

    /// [`Codec::decode_bytes`] with an explicit worker count (1 =
    /// sequential). Any count yields identical bytes.
    pub fn decode_bytes_with_workers(
        &self,
        shares: &[(usize, Vec<u8>)],
        len: usize,
        workers: usize,
    ) -> Result<Vec<u8>, CodeError> {
        let (n, k, sb) = (self.code.n(), self.code.k(), F::SYMBOL_BYTES);
        if shares.len() < k {
            return Err(CodeError::NotEnoughShares {
                have: shares.len(),
                need: k,
            });
        }
        let share_bytes = shares[0].1.len();
        if shares.iter().any(|(_, s)| s.len() != share_bytes)
            || !share_bytes.is_multiple_of(sb)
            || (share_bytes / sb) * k * sb < len
        {
            return Err(CodeError::LengthMismatch);
        }
        let used = &shares[..k];
        let mut seen = vec![false; n];
        for &(idx, _) in used {
            if idx >= n {
                return Err(CodeError::IndexOutOfRange { index: idx, n });
            }
            if seen[idx] {
                return Err(CodeError::DuplicateIndex { index: idx });
            }
            seen[idx] = true;
        }
        // Canonicalize to sorted index order so every permutation of the
        // same erasure pattern shares one cached plan.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&p| used[p].0);
        let rows: Vec<usize> = order.iter().map(|&p| used[p].0).collect();
        let plan = self.plan_for(&rows)?;
        let slabs: Vec<&[u8]> = order.iter().map(|&p| used[p].1.as_slice()).collect();
        Ok(plan.decode_with_workers(&slabs, len, workers))
    }

    /// Fetches (or builds and caches) the decode plan for a sorted,
    /// validated index set.
    fn plan_for(&self, rows: &[usize]) -> Result<Arc<DecodePlan<F>>, CodeError> {
        let mut cache = self.cache.lock().expect("decode-plan cache poisoned");
        if let Some(pos) = cache.iter().position(|(key, _)| key == rows) {
            let entry = cache.remove(pos);
            let plan = entry.1.clone();
            cache.insert(0, entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        let plan = Arc::new(DecodePlan::new(&self.code, rows)?);
        cache.insert(0, (rows.to_vec(), plan.clone()));
        cache.truncate(DECODE_PLAN_CACHE_CAP);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(plan)
    }
}

impl<F: SlabKernel> fmt::Debug for Codec<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Codec[n={}, k={}]", self.code.n(), self.code.k())
    }
}

/// Worker count for a payload: sequential below the threshold, machine-
/// sized above it.
fn auto_workers(len: usize) -> usize {
    if len < PARALLEL_THRESHOLD_BYTES {
        1
    } else {
        default_workers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::Gf256;
    use crate::gf2p16::Gf2p16;

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 % 257) as u8).collect()
    }

    fn round_trip<F: SlabKernel>(codec: &Codec<F>, data: &[u8]) {
        let shares = codec.encode_bytes(data);
        let picked: Vec<(usize, Vec<u8>)> =
            [5, 1, 6].iter().map(|&i| (i, shares[i].clone())).collect();
        assert_eq!(codec.decode_bytes(&picked, data.len()).unwrap(), data);
    }

    #[test]
    fn codec_round_trips_both_fields() {
        let data = payload(100);
        round_trip(&Codec::<Gf256>::new(7, 3).unwrap(), &data);
        round_trip(&Codec::<Gf2p16>::new(7, 3).unwrap(), &data);
    }

    #[test]
    fn matches_reference_paths() {
        let codec = Codec::<Gf256>::new(21, 11).unwrap();
        let reference = ReedSolomon::<Gf256>::new(21, 11).unwrap();
        for len in [0, 1, 10, 11, 64, 1000] {
            let data = payload(len);
            let slab = codec.encode_bytes(&data);
            assert_eq!(slab, reference.encode_bytes(&data), "encode len={len}");
            let picked: Vec<(usize, Vec<u8>)> = (5..16).map(|i| (i, slab[i].clone())).collect();
            assert_eq!(
                codec.decode_bytes(&picked, len).unwrap(),
                reference.decode_bytes(&picked, len).unwrap(),
                "decode len={len}"
            );
        }
    }

    #[test]
    fn error_semantics_match_reference() {
        let codec = Codec::<Gf256>::new(5, 3).unwrap();
        let reference = ReedSolomon::<Gf256>::new(5, 3).unwrap();
        let shares = codec.encode_bytes(b"abcdefgh");
        let cases: Vec<Vec<(usize, Vec<u8>)>> = vec![
            // too few
            vec![(0, shares[0].clone())],
            // duplicate index
            vec![
                (0, shares[0].clone()),
                (0, shares[0].clone()),
                (1, shares[1].clone()),
            ],
            // out of range
            vec![
                (9, shares[0].clone()),
                (1, shares[1].clone()),
                (2, shares[2].clone()),
            ],
            // ragged lengths
            vec![
                (0, shares[0].clone()),
                (1, shares[1][..2].to_vec()),
                (2, shares[2].clone()),
            ],
        ];
        for (i, case) in cases.iter().enumerate() {
            assert_eq!(
                codec.decode_bytes(case, 8),
                reference.decode_bytes(case, 8),
                "case {i}"
            );
        }
        // Claiming more bytes than the shares carry.
        let full: Vec<(usize, Vec<u8>)> = (0..3).map(|i| (i, shares[i].clone())).collect();
        assert_eq!(
            codec.decode_bytes(&full, 1000),
            reference.decode_bytes(&full, 1000)
        );
    }

    #[test]
    fn plan_cache_hits_and_evicts() {
        let codec = Codec::<Gf256>::new(6, 2).unwrap();
        let data = payload(40);
        let shares = codec.encode_bytes(&data);
        let pick = |a: usize, b: usize| vec![(a, shares[a].clone()), (b, shares[b].clone())];
        codec.decode_bytes(&pick(0, 1), 40).unwrap();
        assert_eq!(codec.stats().decode_plan_misses, 1);
        // Same pattern, either supply order: one plan.
        codec.decode_bytes(&pick(1, 0), 40).unwrap();
        codec.decode_bytes(&pick(0, 1), 40).unwrap();
        assert_eq!(
            codec.stats(),
            CodecStats {
                decode_plan_hits: 2,
                decode_plan_misses: 1
            }
        );
        assert!((codec.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        // Repeatedly cycle every 2-subset of 6 shares; all 15 patterns fit
        // in the cache, and (0, 1) was already cached by the warm-up
        // decodes, so: 14 new misses, then pure hits.
        let mut patterns = Vec::new();
        for a in 0..6 {
            for b in (a + 1)..6 {
                patterns.push((a, b));
            }
        }
        for _ in 0..3 {
            for &(a, b) in &patterns {
                codec.decode_bytes(&pick(a, b), 40).unwrap();
            }
        }
        let stats = codec.stats();
        assert!(stats.decode_plan_hits > 2);
        assert_eq!(stats.decode_plan_misses, 1 + 14);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let codec = Codec::<Gf256>::new(12, 2).unwrap();
        let data = payload(16);
        let shares = codec.encode_bytes(&data);
        let pick = |a: usize, b: usize| vec![(a, shares[a].clone()), (b, shares[b].clone())];
        // Fill well past the 32-entry cap (C(12, 2) = 66 patterns), then
        // revisit the very first pattern: it must have been evicted.
        codec.decode_bytes(&pick(0, 1), 16).unwrap();
        for a in 0..12 {
            for b in (a + 1)..12 {
                codec.decode_bytes(&pick(a, b), 16).unwrap();
            }
        }
        let before = codec.stats().decode_plan_misses;
        codec.decode_bytes(&pick(0, 1), 16).unwrap();
        assert_eq!(codec.stats().decode_plan_misses, before + 1);
    }

    #[test]
    fn shared_registry_memoizes_per_geometry_and_field() {
        let a = Codec::<Gf256>::shared(9, 4).unwrap();
        let b = Codec::<Gf256>::shared(9, 4).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = Codec::<Gf256>::shared(9, 5).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        // Same geometry, different field: distinct codec.
        let wide = Codec::<Gf2p16>::shared(9, 4).unwrap();
        assert_eq!(wide.n(), 9);
        // Illegal geometry errors and is not cached.
        assert!(Codec::<Gf256>::shared(3, 9).is_err());
        assert!(Codec::<Gf256>::shared(3, 9).is_err());
    }

    #[test]
    fn parallel_decode_identical_to_sequential() {
        let codec = Codec::<Gf256>::new(21, 11).unwrap();
        let data = payload(400_000);
        let shares = codec.encode_bytes_with_workers(&data, 4);
        assert_eq!(shares, codec.encode_bytes_with_workers(&data, 1));
        let picked: Vec<(usize, Vec<u8>)> = (3..14).map(|i| (i, shares[i].clone())).collect();
        let seq = codec
            .decode_bytes_with_workers(&picked, data.len(), 1)
            .unwrap();
        assert_eq!(seq, data);
        assert_eq!(
            codec
                .decode_bytes_with_workers(&picked, data.len(), 4)
                .unwrap(),
            seq
        );
    }
}
