//! Seeded input generation.
//!
//! The seed drives payload contents, the chunk→rank interleave permutation
//! and the LBM barrier position — never a size, so every seed does the same
//! amount of work.

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Payload value of the cell with global linear index `index`. It is the
/// serial oracle too: the expected content of any redistributed cell is this
/// function of its global position, with no communication involved. The top
/// 24 bits of the mix are exactly representable as `f32`, so values are
/// finite and compare bit-for-bit.
pub fn cell(seed: u64, index: u64) -> f32 {
    (mix64(seed ^ mix64(index)) >> 40) as f32
}

/// A permutation of `0..n` (Fisher–Yates over the seeded mix).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut state = mix64(seed ^ 0x5045_524D); // "PERM"
    for i in (1..n).rev() {
        state = mix64(state);
        p.swap(i, (state % (i as u64 + 1)) as usize);
    }
    p
}

/// A value in `lo..=hi` picked by the seed (`salt` separates uses).
pub fn pick(seed: u64, salt: u64, lo: usize, hi: usize) -> usize {
    lo + (mix64(seed ^ mix64(salt)) % (hi - lo + 1) as u64) as usize
}

/// Order-sensitive 64-bit digest of a float field's bit patterns, for
/// comparing a child's assembled field with the parent's serial reference.
pub fn digest(field: &[f32]) -> u64 {
    field.iter().fold(0xD1B5_4A32_D192_ED03, |h, v| mix64(h ^ u64::from(v.to_bits())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_permutation_and_payload() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let p = permutation(seed, 16);
            assert_eq!(p, permutation(seed, 16), "deterministic");
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "a permutation");
            assert_eq!(cell(seed, 12345).to_bits(), cell(seed, 12345).to_bits());
        }
        assert_ne!(permutation(1, 16), permutation(2, 16), "the seed matters");
        assert_ne!(cell(1, 7).to_bits(), cell(2, 7).to_bits());
    }

    #[test]
    fn payload_values_are_finite_exact_integers() {
        for i in 0..10_000u64 {
            let v = cell(9, i);
            assert!(v.is_finite() && v >= 0.0 && v < (1u32 << 24) as f32 && v.fract() == 0.0);
        }
    }

    #[test]
    fn pick_stays_in_range_and_digest_sees_order() {
        for seed in 0..200 {
            assert!((10..=20).contains(&pick(seed, 1, 10, 20)));
        }
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
        assert_ne!(digest(&[0.0]), digest(&[-0.0]), "bit patterns, not values");
    }
}
