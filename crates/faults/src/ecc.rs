//! A SEC-DED ECC model.
//!
//! The paper: "ECC can only fix a single bit error … If there are more than
//! one bit flipped, ECC cannot correct them, so the result is still
//! incorrect." This module models exactly that filter: upsets pass through
//! it before reaching memory, single-bit upsets are absorbed (corrected),
//! double-bit upsets are *detected* but uncorrectable (on real machines this
//! raises an MCE; in the paper's threat model the run is lost or the error
//! propagates), and wider upsets can escape detection entirely.

use serde::{Deserialize, Serialize};

/// What SEC-DED ECC does with an upset of a given width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EccOutcome {
    /// No bits flipped: nothing to do.
    Clean,
    /// Single-bit upset: corrected transparently.
    Corrected,
    /// Double-bit upset: detected but not correctable.
    DetectedUncorrectable,
    /// Three or more bits: may silently alias to a valid codeword.
    SilentlyCorrupt,
}

/// Classify an upset of `flipped_bits` distinct flipped bits within one
/// ECC word under SEC-DED.
pub fn sec_ded(flipped_bits: usize) -> EccOutcome {
    match flipped_bits {
        0 => EccOutcome::Clean,
        1 => EccOutcome::Corrected,
        2 => EccOutcome::DetectedUncorrectable,
        _ => EccOutcome::SilentlyCorrupt,
    }
}

/// Filter a planned storage upset through an (optional) ECC layer: returns
/// the number of bits that actually reach the stored value.
///
/// With `ecc_enabled = false` every flip lands. With ECC on, single-bit
/// upsets vanish and wider upsets land unchanged (SEC-DED corrects nothing
/// once more than one bit flips).
pub fn effective_flips(planned_bits: usize, ecc_enabled: bool) -> usize {
    if !ecc_enabled {
        return planned_bits;
    }
    match sec_ded(planned_bits) {
        EccOutcome::Clean | EccOutcome::Corrected => 0,
        _ => planned_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_table() {
        assert_eq!(sec_ded(0), EccOutcome::Clean);
        assert_eq!(sec_ded(1), EccOutcome::Corrected);
        assert_eq!(sec_ded(2), EccOutcome::DetectedUncorrectable);
        assert_eq!(sec_ded(3), EccOutcome::SilentlyCorrupt);
        assert_eq!(sec_ded(10), EccOutcome::SilentlyCorrupt);
    }

    #[test]
    fn effective_flips_with_and_without_ecc() {
        assert_eq!(effective_flips(1, false), 1);
        assert_eq!(effective_flips(1, true), 0);
        assert_eq!(effective_flips(2, true), 2);
        assert_eq!(effective_flips(0, true), 0);
    }
}
