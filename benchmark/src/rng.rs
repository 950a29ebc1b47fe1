//! Seed expansion. Every input the benchmark derives from `--seed` is a pure
//! function of the seed and a few small indices, so no generator state is
//! carried: hashing `(seed, index…)` gives the same value wherever and in
//! whatever order it is asked for.

/// SplitMix64 finalizer folded over `words`: a well-mixed 64-bit value that
/// depends on every word and on their order.
pub fn mix(words: &[u64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15_u64;
    for &word in words {
        h = h.wrapping_add(word).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_pure_and_sensitive_to_every_word_and_their_order() {
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
        let variants =
            [mix(&[1, 2, 3]), mix(&[1, 2, 4]), mix(&[0, 2, 3]), mix(&[2, 1, 3]), mix(&[1, 2])];
        for (i, a) in variants.iter().enumerate() {
            for b in &variants[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
