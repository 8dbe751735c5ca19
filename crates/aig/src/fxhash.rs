//! Hashing primitives for the engine's hot paths.
//!
//! Two things live here:
//!
//! * [`FNV_OFFSET`] / [`fnv1a_mix`] / [`fnv1a`] — the one FNV-1a mixing
//!   step behind every stable fingerprint and checksum in the tree
//!   (structural graph fingerprints, pass/pipeline fingerprints, the
//!   sweep's signature-bucket hashes, the compile cache's budget
//!   fingerprints in `lsml-core`, snapshot and checkpoint checksums);
//! * `FxHasher` — a multiply-rotate map hasher (rustc's FxHash recipe) for
//!   the crate's hot maps. The structural hash, the rewrite pass's
//!   table → entry cache, and the sweep's buckets all probe maps millions
//!   of times per compile with small fixed-width keys; `std`'s default
//!   SipHash is DoS-resistant but costs more than the probe itself there,
//!   and none of these maps ever see attacker-controlled keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a mixing step over a 64-bit value.
#[inline]
pub fn fnv1a_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// FNV-1a over bytes: pass names in pipeline fingerprints, and the
/// checksums of the serve snapshots and suite checkpoints (corruption
/// *detection*, not security).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| fnv1a_mix(h, u64::from(b)))
}

/// Multiply-rotate hasher: `h = (rotl(h, 5) ^ v) * K` per written word.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        if !chunks.remainder().is_empty() {
            self.add(tail);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(7)), u64::from(i) << 3);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i.wrapping_mul(7))), Some(&(u64::from(i) << 3)));
        }
        assert_eq!(m.get(&(1000, 7000)), None);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn byte_writes_cover_tails() {
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let a = h.finish();
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = h.finish();
        assert_ne!(a, b);
    }
}
