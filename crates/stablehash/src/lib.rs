//! A stable 64-bit hasher for fingerprints, shard keys, and artifact keys.
//!
//! `std::collections::hash_map::DefaultHasher` is SipHash with keys that
//! the standard library explicitly reserves the right to change between
//! releases, so anything derived from it — the visited-store partition a
//! state lands in, a fingerprint logged next to a counterexample, the
//! content key a memoized analysis artifact files under — could drift
//! between toolchains. This hasher is built from the same SplitMix64
//! finalizer as `switchsim::rng` (Steele, Lea & Flood, OOPSLA 2014):
//! input is folded in 8-byte little-endian lanes through the finalizer,
//! and `finish` mixes in the total length so prefixes of each other hash
//! apart. A given byte stream hashes identically on every platform and
//! every Rust release.
//!
//! Collisions remain possible, of course; every consumer that needs
//! soundness (the stateful visited stores in `verisoft`) keys buckets by
//! the hash but compares full states. The closing pipeline's artifact
//! store accepts the standard content-addressing gamble: a 64-bit
//! collision between two distinct procedure bodies is vanishingly
//! unlikely and at worst reuses a stale artifact.

#![warn(missing_docs)]

use std::hash::{BuildHasherDefault, Hasher};

/// The SplitMix64 output finalizer: an invertible 64-bit mixer. Distinct
/// inputs give distinct outputs, so a map can key an integer that packs
/// small IDs by its mixed value under the pass-through [`FpHasher`].
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 Weyl increment (2⁶⁴/φ), used to decorrelate lanes.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A [`Hasher`] whose output is stable across platforms and toolchains.
#[derive(Debug, Clone, Default)]
pub struct StableHasher {
    state: u64,
    len: u64,
    /// Bytes not yet forming a full 8-byte lane.
    pending: u64,
    pending_len: u32,
}

/// `BuildHasher` for [`StableHasher`], for use in hash-map type aliases.
pub type StableBuildHasher = BuildHasherDefault<StableHasher>;

impl StableHasher {
    /// A fresh hasher (equivalent to `Default`).
    pub fn new() -> Self {
        StableHasher::default()
    }

    #[inline]
    fn lane(&mut self, lane: u64) {
        self.state = mix64(self.state.wrapping_add(lane).wrapping_add(GOLDEN));
    }
}

impl Hasher for StableHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;
        // Top up a partial lane first.
        while self.pending_len > 0 && !rest.is_empty() {
            self.pending |= (rest[0] as u64) << (8 * self.pending_len);
            self.pending_len += 1;
            rest = &rest[1..];
            if self.pending_len == 8 {
                let lane = self.pending;
                self.pending = 0;
                self.pending_len = 0;
                self.lane(lane);
            }
        }
        let mut chunks = rest.chunks_exact(8);
        for c in &mut chunks {
            self.lane(u64::from_le_bytes(c.try_into().unwrap()));
        }
        for &b in chunks.remainder() {
            self.pending |= (b as u64) << (8 * self.pending_len);
            self.pending_len += 1;
        }
    }

    /// Bit-identical to `write(&i.to_ne_bytes())`, the trait's default,
    /// but feeds the lane directly when no bytes are pending — fingerprints
    /// and store keys write little else.
    #[inline]
    fn write_u64(&mut self, i: u64) {
        if self.pending_len == 0 {
            self.len = self.len.wrapping_add(8);
            self.lane(u64::from_le_bytes(i.to_ne_bytes()));
        } else {
            self.write(&i.to_ne_bytes());
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.state;
        if self.pending_len > 0 {
            h = mix64(h.wrapping_add(self.pending).wrapping_add(GOLDEN));
        }
        mix64(h ^ self.len)
    }
}

/// A pass-through [`Hasher`] for keys that *are already* 64-bit digests
/// (state fingerprints, content hashes): the key is used as the hash
/// verbatim, skipping a redundant mixing round per map operation.
///
/// Only sound for keys whose bits are uniformly mixed — which a
/// [`StableHasher`] output is, by construction (its finalizer is the
/// invertible SplitMix64 mixer). The visited stores key their partition
/// maps by fingerprint, so with the default SipHash they would pay a
/// full keyed hash on every admit/seal/probe just to re-mix an already
/// mixed value.
#[derive(Debug, Clone, Default)]
pub struct FpHasher(u64);

/// `BuildHasher` for [`FpHasher`], for fingerprint-keyed map aliases.
pub type FpBuildHasher = BuildHasherDefault<FpHasher>;

impl Hasher for FpHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Non-u64 keys land here (e.g. tuple keys); fold them through
        // the stable mixer so the type stays usable, just not free.
        for &b in bytes {
            self.0 = mix64(self.0.wrapping_add(b as u64).wrapping_add(GOLDEN));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash any `Hash` value through [`StableHasher`].
pub fn stable_hash<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Hash a raw byte string through [`StableHasher`]. Unlike
/// [`stable_hash`] on `&[u8]`, no length prefix beyond the hasher's own
/// length mixing is added — the digest is a pure function of the bytes,
/// which is what cached component sub-hashes need.
pub fn stable_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_vectors() {
        // Pinned outputs: these must never change, across platforms or
        // releases — shard assignment stability is the whole point. The
        // digests were computed before `write_u64` had a fast path of its
        // own, so the two `u64` sequences pin it to the byte path.
        assert_eq!(stable_hash(&42u64), 0x2755_a0d3_64b4_28ba);
        assert_eq!(
            stable_hash(&(1u32, "abc", [4u8, 5, 6])),
            0x6cb4_26d7_f192_fb94
        );
        assert_eq!(stable_hash_bytes(&[]), 0);
        let bytes: Vec<u8> = (0u8..=41).collect();
        assert_eq!(stable_hash_bytes(&bytes), 0xf88a_5973_e8a8_1cf2);
        let mut h = StableHasher::new();
        for x in [3u64, 0, u64::MAX, 0x0123_4567_89AB_CDEF] {
            h.write_u64(x);
        }
        assert_eq!(h.finish(), 0x8e68_8056_72cb_bfe5);
        // Lanes fed directly and through the byte path, interleaved.
        let mut h = StableHasher::new();
        h.write_u64(7);
        h.write(&[1, 2, 3]);
        h.write_u64(9);
        h.write_u64(10);
        h.write(&[4; 5]);
        h.write_u64(11);
        assert_eq!(h.finish(), 0xe1b0_9c95_7df4_84eb);
    }

    #[test]
    fn chunk_boundaries_do_not_matter() {
        // The same byte stream split across write() calls arbitrarily
        // must hash identically.
        let bytes: Vec<u8> = (0u8..=41).collect();
        let mut whole = StableHasher::new();
        whole.write(&bytes);
        for split in [1usize, 3, 7, 8, 9, 20, 41] {
            let mut parts = StableHasher::new();
            parts.write(&bytes[..split]);
            parts.write(&bytes[split..]);
            assert_eq!(whole.finish(), parts.finish(), "split at {split}");
        }
    }

    #[test]
    fn length_distinguishes_zero_padding() {
        let mut a = StableHasher::new();
        a.write(&[0, 0, 0]);
        let mut b = StableHasher::new();
        b.write(&[0, 0, 0, 0]);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(StableHasher::new().finish(), a.finish());
    }

    #[test]
    fn fp_hasher_is_pass_through_for_u64_keys() {
        use std::hash::BuildHasher;
        let bh = FpBuildHasher::default();
        assert_eq!(bh.hash_one(0xDEAD_BEEF_u64), 0xDEAD_BEEF);
        // Same key, same hash — the map contract — and maps built on it
        // behave like any other map.
        let mut m: std::collections::HashMap<u64, u32, FpBuildHasher> =
            std::collections::HashMap::default();
        m.insert(7, 1);
        m.insert(u64::MAX, 2);
        assert_eq!((m.get(&7), m.get(&u64::MAX)), (Some(&1), Some(&2)));
    }

    #[test]
    fn adjacent_inputs_decorrelate() {
        let h1 = stable_hash(&1u64);
        let h2 = stable_hash(&2u64);
        assert!((h1 ^ h2).count_ones() > 8, "{h1:x} vs {h2:x}");
    }
}
