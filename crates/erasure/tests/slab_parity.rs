//! Parity suite: the slab fast path ([`Codec`], sequential and parallel)
//! must be byte-identical to the legacy symbol-at-a-time [`ReedSolomon`]
//! reference — same share bytes, same decoded payloads, same errors —
//! across random geometries, payload lengths (including 0 and lengths
//! that are not a multiple of `k`), erasure patterns, and both fields.

use shmem_erasure::{Codec, Gf256, Gf2p16, ReedSolomon, SlabKernel};
use shmem_util::prop::prelude::*;
use shmem_util::DetRng;

/// A deterministic pseudo-random payload.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect()
}

/// A random `take`-element subset of `0..n`, in random order.
fn random_indices(n: usize, take: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = DetRng::seed_from_u64(seed);
    rng.shuffle(&mut idx);
    idx.truncate(take);
    idx
}

/// Asserts full encode/decode parity between the legacy reference and the
/// slab codec (sequential and 4-worker parallel) for one configuration.
fn assert_parity<F: SlabKernel>(n: usize, k: usize, data: &[u8], seed: u64) {
    let legacy = ReedSolomon::<F>::new(n, k).expect("legal geometry");
    let codec = Codec::<F>::new(n, k).expect("legal geometry");

    let reference = legacy.encode_bytes(data);
    let sequential = codec.encode_bytes_with_workers(data, 1);
    let parallel = codec.encode_bytes_with_workers(data, 4);
    assert_eq!(sequential, reference, "[{n},{k}] len={} encode", data.len());
    assert_eq!(
        parallel,
        reference,
        "[{n},{k}] len={} par encode",
        data.len()
    );

    // Decode from a random erasure pattern, in random supply order, with a
    // few extra shares beyond k (the reference ignores extras; so must we).
    let extra = (n - k).min(2);
    let picked: Vec<(usize, Vec<u8>)> = random_indices(n, k + extra, seed)
        .into_iter()
        .map(|i| (i, reference[i].clone()))
        .collect();
    let want = legacy.decode_bytes(&picked, data.len());
    assert_eq!(
        codec.decode_bytes_with_workers(&picked, data.len(), 1),
        want,
        "[{n},{k}] len={} decode",
        data.len()
    );
    assert_eq!(
        codec.decode_bytes_with_workers(&picked, data.len(), 4),
        want,
        "[{n},{k}] len={} par decode",
        data.len()
    );
    // And the decode actually round-trips.
    assert_eq!(want.expect("well-formed shares decode"), data);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn gf256_random_geometries_match_legacy(
        nk in (2usize..24).prop_flat_map(|n| (Just(n), 1usize..=n)),
        len in 0usize..300,
        seed in 0u64..1_000_000,
    ) {
        let (n, k) = nk;
        assert_parity::<Gf256>(n, k, &payload(len, seed), seed);
    }

    #[test]
    fn gf2p16_random_geometries_match_legacy(
        nk in (2usize..24).prop_flat_map(|n| (Just(n), 1usize..=n)),
        len in 0usize..300,
        seed in 0u64..1_000_000,
    ) {
        let (n, k) = nk;
        assert_parity::<Gf2p16>(n, k, &payload(len, seed), seed);
    }

    #[test]
    fn error_parity_on_malformed_inputs(
        n in 3usize..10,
        seed in 0u64..1_000_000,
    ) {
        let k = n / 2 + 1;
        let legacy = ReedSolomon::<Gf256>::new(n, k).unwrap();
        let codec = Codec::<Gf256>::new(n, k).unwrap();
        let shares = legacy.encode_bytes(&payload(50, seed));

        // Too few shares.
        let few: Vec<(usize, Vec<u8>)> =
            (0..k - 1).map(|i| (i, shares[i].clone())).collect();
        prop_assert_eq!(codec.decode_bytes(&few, 50), legacy.decode_bytes(&few, 50));

        // Duplicate index.
        let mut dup: Vec<(usize, Vec<u8>)> =
            (0..k).map(|i| (i, shares[i].clone())).collect();
        dup[k - 1].0 = dup[0].0;
        prop_assert_eq!(codec.decode_bytes(&dup, 50), legacy.decode_bytes(&dup, 50));

        // Out-of-range index.
        let mut oor: Vec<(usize, Vec<u8>)> =
            (0..k).map(|i| (i, shares[i].clone())).collect();
        oor[0].0 = n + 3;
        prop_assert_eq!(codec.decode_bytes(&oor, 50), legacy.decode_bytes(&oor, 50));

        // Ragged share lengths.
        let mut ragged: Vec<(usize, Vec<u8>)> =
            (0..k).map(|i| (i, shares[i].clone())).collect();
        ragged[k - 1].1.pop();
        prop_assert_eq!(
            codec.decode_bytes(&ragged, 50),
            legacy.decode_bytes(&ragged, 50)
        );

        // Claimed length longer than the shares carry.
        let full: Vec<(usize, Vec<u8>)> =
            (0..k).map(|i| (i, shares[i].clone())).collect();
        prop_assert_eq!(
            codec.decode_bytes(&full, 10_000),
            legacy.decode_bytes(&full, 10_000)
        );
    }
}

#[test]
fn edge_lengths_match_legacy_both_fields() {
    // 0, 1, just-below/at/above stripe boundaries, and non-multiples of k.
    for &(n, k) in &[(5usize, 3usize), (21, 11), (4, 4), (6, 1)] {
        for len in [0usize, 1, 2, k - 1, k, k + 1, 2 * k - 1, 2 * k + 1, 97] {
            assert_parity::<Gf256>(n, k, &payload(len, 7), 7);
            assert_parity::<Gf2p16>(n, k, &payload(len, 7), 7);
        }
    }
}

#[test]
fn paper_geometry_large_payload_parallel_parity() {
    // The paper's [21, 11] geometry at a payload big enough to cross
    // several parallel chunks.
    let data = payload(512 * 1024, 42);
    assert_parity::<Gf256>(21, 11, &data, 42);
}

#[test]
fn share_supply_order_is_irrelevant() {
    // The decoded payload is the unique solution of the linear system, so
    // any permutation of the same erasure pattern must decode identically
    // (and, in the codec, share one cached plan).
    let data = payload(1000, 9);
    let codec = Codec::<Gf256>::new(9, 4).unwrap();
    let shares = codec.encode_bytes(&data);
    let forward: Vec<(usize, Vec<u8>)> = [1usize, 3, 6, 8]
        .iter()
        .map(|&i| (i, shares[i].clone()))
        .collect();
    let backward: Vec<(usize, Vec<u8>)> = forward.iter().rev().cloned().collect();
    assert_eq!(
        codec.decode_bytes(&forward, data.len()).unwrap(),
        codec.decode_bytes(&backward, data.len()).unwrap()
    );
    let stats = codec.stats();
    assert_eq!(stats.decode_plan_misses, 1);
    assert_eq!(stats.decode_plan_hits, 1);
}
