//! A cheap hasher for tables keyed by a small dense integer.
//!
//! `std`'s default SipHash protects a table against keys chosen to collide;
//! a page id is a small integer the program itself counts up, and SipHash
//! is the single largest cost of a probe of a per-page table.
//! [`IntHasher`] is three multiplications. Use it only for keys the program
//! generates — never for keys from outside.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd, and close to 2^64 / φ.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplicative hashing of integer keys: one multiply per word written
/// and the SplitMix64 finalizer on the way out.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // A product's low bits depend only on the key's low bits, and the
        // table indexes by the low bits: without the finalizer, keys a
        // power of two apart would share a bucket.
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// A `HashMap` from integer-like keys, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn dense_and_strided_keys_spread_over_the_low_bits() {
        let build = BuildHasherDefault::<IntHasher>::default();
        for stride in [1usize, 64, 4096] {
            let buckets: HashSet<u64> = (0..64).map(|k| build.hash_one(k * stride) & 63).collect();
            assert!(buckets.len() >= 32, "stride {stride}: {} of 64 buckets", buckets.len());
        }
    }

    #[test]
    fn an_int_map_is_a_map() {
        let mut map: IntMap<usize, &str> = IntMap::default();
        map.insert(7, "seven");
        map.insert(7 + (1 << 40), "far");
        assert_eq!(map.get(&7), Some(&"seven"));
        assert_eq!(map.len(), 2);
    }
}
