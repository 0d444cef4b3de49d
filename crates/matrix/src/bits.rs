//! IEEE-754 bit manipulation for storage-error (bit-flip) injection.
//!
//! The paper's "storage errors" are memory bit flips ("0 becomes 1") that
//! strike a matrix element while it sits in DRAM between a checksum
//! verification and the next read. These helpers flip chosen bits of an `f64`,
//! which the fault campaigns in `hchol-faults` use to build representative
//! error populations.
//!
//! The precision-generic variant ([`flip_bits_scalar`]) works on any
//! [`Scalar`] and reduces bit indices modulo [`Scalar::BITS`], so one
//! campaign spec written against the 64-bit layout drives both precisions
//! (a canonical f64 flip of bit 53 strikes bit `53 % 32 = 21` of an f32).

use crate::scalar::Scalar;

/// Flip bit `bit` (0 = least significant mantissa bit, 63 = sign) of `x`.
///
/// Panics if `bit >= 64`.
#[inline]
// lint:allow(dead-pub) test tool: the checksum property suite flips single bits with it
pub fn flip_bit(x: f64, bit: u32) -> f64 {
    assert!(bit < 64, "f64 has 64 bits");
    f64::from_bits(x.to_bits() ^ (1u64 << bit))
}

/// Flip several distinct bits at once (a multi-bit upset — the case the
/// paper notes ECC cannot correct).
// lint:allow(dead-pub) test tool: multi-bit upsets in the checksum and matrix tests
pub fn flip_bits(x: f64, bits: &[u32]) -> f64 {
    let mut mask = 0u64;
    for &b in bits {
        assert!(b < 64, "f64 has 64 bits");
        mask ^= 1u64 << b;
    }
    f64::from_bits(x.to_bits() ^ mask)
}

/// Flip several bits at once in a value of any supported precision.
///
/// Each index is reduced modulo [`Scalar::BITS`]; two canonical indices that
/// collide after reduction cancel, exactly as duplicate indices do in
/// [`flip_bits`].
pub fn flip_bits_scalar<S: Scalar>(x: S, bits: &[u32]) -> S {
    let mut mask = 0u64;
    for &b in bits {
        mask ^= 1u64 << (b % S::BITS);
    }
    S::from_bits_u64(x.to_bits_u64() ^ mask)
}

/// Number of differing bits between two doubles (Hamming distance of their
/// bit patterns).
// lint:allow(dead-pub) test tool: the matrix property tests count flipped bits with it
pub fn hamming(a: f64, b: f64) -> u32 {
    (a.to_bits() ^ b.to_bits()).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_involution() {
        let x = 1.2345678901234567;
        for bit in [0u32, 17, 51, 52, 60, 63] {
            assert_eq!(flip_bit(flip_bit(x, bit), bit), x);
        }
    }

    #[test]
    fn sign_flip_negates() {
        assert_eq!(flip_bit(2.5, 63), -2.5);
        assert_eq!(flip_bit(-1.0, 63), 1.0);
    }

    #[test]
    fn exponent_flip_changes_scale() {
        let x = 1.0; // exponent field 0x3FF (all low bits set)
        let y = flip_bit(x, 52); // lowest exponent bit clears: 1.0 -> 0.5
        assert_eq!(y, 0.5);
        // Top exponent bit of 1.5 flips the exponent to all-ones: the value
        // leaves the finite range entirely (Inf/NaN class) — the catastrophic
        // storage error the paper warns can break positive definiteness.
        let z = flip_bit(1.5, 62);
        assert!(!z.is_finite());
    }

    #[test]
    fn mantissa_flip_is_small_for_low_bits() {
        let x = 1.0;
        let y = flip_bit(x, 0);
        assert!(y != x);
        assert!((y - x).abs() < 1e-15);
    }

    #[test]
    fn multi_bit_flip() {
        let x = 1.0;
        let y = flip_bits(x, &[0, 1, 63]);
        assert_eq!(hamming(x, y), 3);
        // flipping the same set again restores the value
        assert_eq!(flip_bits(y, &[0, 1, 63]), x);
        // duplicate bits cancel
        assert_eq!(flip_bits(x, &[5, 5]), x);
    }

    #[test]
    #[should_panic]
    fn out_of_range_bit_panics() {
        let _ = flip_bit(1.0, 64);
    }

    #[test]
    fn scalar_flip_matches_f64_helpers() {
        let x = 1.2345678901234567_f64;
        assert_eq!(flip_bits_scalar(x, &[30, 53]), flip_bits(x, &[30, 53]));
    }

    #[test]
    fn scalar_flip_wraps_for_f32() {
        let x = 1.5f32;
        // canonical f64 index 53 lands on f32 bit 21
        assert_eq!(
            flip_bits_scalar(x, &[53]),
            f32::from_bits(x.to_bits() ^ (1 << 21))
        );
        // involution still holds after reduction
        let y = flip_bits_scalar(x, &[30, 53]);
        assert_eq!(flip_bits_scalar(y, &[30, 53]), x);
        // indices that collide mod 32 cancel
        assert_eq!(flip_bits_scalar(x, &[5, 37]), x);
    }

    #[test]
    fn hamming_zero_for_equal() {
        assert_eq!(hamming(42.0, 42.0), 0);
        assert_eq!(hamming(0.0, -0.0), 1); // sign bit differs
    }
}
