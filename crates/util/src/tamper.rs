//! The canonical adversarial byte-tamper primitive.
//!
//! The corruption-Byzantine adversary lives in three layers at once: the
//! simulator mutates stored shares and queued message payloads, the
//! shared store decorates `read_get` replies, and the network layer
//! rewrites share bytes inside decoded frames. The cross-layer differential
//! tests require *byte-identical* corruption in all three, so the actual
//! mutation is defined exactly once, here, as a pure function of
//! `(salt, key, payload)`.
//!
//! The tamper is a single-byte XOR: position and mask are derived from a
//! SplitMix64-style mix of the salt and key, and the mask is forced
//! nonzero so a tamper never degenerates into a no-op. One flipped byte is
//! the *weakest* corruption an adversary can apply — if detection survives
//! it, stronger corruptions (which move the payload further from any
//! codeword) are detected a fortiori, while un-authenticated decoders
//! still silently accept it (an MDS decode from exactly `k` symbols has no
//! redundancy to notice one wrong byte).

/// Mixes `salt` and `key` into 64 well-distributed bits (SplitMix64
/// finalizer over their combination). Pure and platform-independent.
#[must_use]
pub fn tamper_mix(salt: u64, key: u64) -> u64 {
    let mut z = salt
        .wrapping_add(key.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Adversarially flips one byte of `buf`, deterministically in
/// `(salt, key, buf.len())`. Returns `false` (and leaves `buf` untouched)
/// when the buffer is empty. Applying the same `(salt, key)` twice undoes
/// the tamper (XOR involution) — useful for tests asserting the tamper is
/// real.
pub fn tamper_bytes(buf: &mut [u8], salt: u64, key: u64) -> bool {
    if buf.is_empty() {
        return false;
    }
    let mix = tamper_mix(salt, key);
    let pos = (mix as usize) % buf.len();
    // Low byte of the high half, forced nonzero so the XOR always changes
    // the buffer.
    let mask = (((mix >> 32) & 0xFF) as u8) | 1;
    buf[pos] ^= mask;
    true
}

/// The value-level tamper for word-sized registers (ABD stores whole
/// values, not coded shares): XORs a derived mask into the value and
/// forces bit 47 set. Workload generators draw write payloads below
/// `2^33` (`VALUE_BASE + i`) and initial values are small, so a tampered
/// value is never a legitimately written one — which is what lets the
/// detection oracle classify the resulting read as a fabrication rather
/// than a stale-but-legal value.
#[must_use]
pub fn tamper_value(value: u64, salt: u64, key: u64) -> u64 {
    (value ^ tamper_mix(salt, key)) | (1 << 47)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tamper_is_deterministic_and_real() {
        let orig: Vec<u8> = (0..32).collect();
        let mut a = orig.clone();
        let mut b = orig.clone();
        assert!(tamper_bytes(&mut a, 7, 3));
        assert!(tamper_bytes(&mut b, 7, 3));
        assert_eq!(a, b, "same (salt, key) must tamper identically");
        assert_ne!(a, orig, "tamper must change the buffer");
        assert_eq!(
            a.iter().zip(&orig).filter(|(x, y)| x != y).count(),
            1,
            "exactly one byte flips"
        );
    }

    #[test]
    fn tamper_is_an_involution() {
        let orig: Vec<u8> = vec![0xAB; 17];
        let mut buf = orig.clone();
        tamper_bytes(&mut buf, 99, 4);
        tamper_bytes(&mut buf, 99, 4);
        assert_eq!(buf, orig);
    }

    #[test]
    fn different_salts_or_keys_differ() {
        let orig: Vec<u8> = (0..64).collect();
        let tampered = |salt, key| {
            let mut b = orig.clone();
            tamper_bytes(&mut b, salt, key);
            b
        };
        assert_ne!(tampered(1, 0), tampered(2, 0));
        assert_ne!(tampered(1, 0), tampered(1, 1));
    }

    #[test]
    fn empty_buffer_is_untouchable() {
        let mut buf: Vec<u8> = vec![];
        assert!(!tamper_bytes(&mut buf, 5, 5));
    }

    #[test]
    fn value_tamper_always_changes_and_sets_bit_47() {
        for salt in 0..50u64 {
            let v = tamper_value(1u64 << 32, salt, 0);
            assert_ne!(v, 1u64 << 32);
            assert_eq!(v & (1 << 47), 1 << 47, "bit 47 marks fabricated values");
        }
    }
}
