//! Generalized weighted checksums: `m+1` checksum rows locate and correct
//! up to `m` errors per block column.
//!
//! The paper uses `m = 1` (two checksums, one correctable error per column)
//! and notes in Section IV-A that "generally, m+1 column/row checksums
//! could locate and correct up to m errors per column/row". This module
//! implements that generalization with power weights
//! `w_c(i) = (i+1)^c, c = 0..=m` — a Vandermonde system over the row
//! indices:
//!
//! ```text
//! syndrome S_c = Σ_k (r_k + 1)^c · e_k      (k = 1..m errors)
//! ```
//!
//! For `m = 1` this reduces exactly to the paper's `v₁ = [1,…,1]`,
//! `v₂ = [1,…,B]` pair. For `m = 2`, three syndromes determine two error
//! locations and magnitudes: locations are integers in `[1, B]`, so the
//! corrector enumerates candidate pairs, solves the 2×2 Vandermonde system
//! from `S₀, S₁`, and accepts a pair iff it reproduces `S₂` (an O(B²)
//! search per corrupted column — verification itself stays O(B)).
//!
//! The *update* rules need no generalization at all: every rule in
//! [`hchol_core::chkops`] is linear in the checksum rows and already works
//! for any number of them — a point worth a test, and it gets several.
//!
//! Not wired into any verify node: it lives here, beside the property
//! suite that is its only consumer, until ROADMAP item 5b decides whether
//! `m = 2` earns a place in the product crate.

use hchol_core::tolerance::{FIXED_ABS_TOL, FIXED_REL_TOL, LOCATE_SNAP};
use hchol_matrix::Matrix;

/// Magnitude floor when classifying near-zero deltas: relative to the
/// column scale, deltas below `MULTI_MIN_REL · scale` are treated as zero.
const MULTI_MIN_REL: f64 = 1e-9;

/// Weight of row `i` (0-based) in checksum row `c`: `(i+1)^c`.
#[inline]
pub fn power_weight(c: usize, i: usize) -> f64 {
    ((i + 1) as f64).powi(c as i32)
}

/// Encode `m + 1` power-weighted column checksums of `block` into a fresh
/// `(m+1) × cols` matrix.
pub fn encode_multi(block: &Matrix, m: usize) -> Matrix {
    let mut chk = Matrix::zeros(m + 1, block.cols());
    encode_multi_into(block, &mut chk);
    chk
}

/// Encode into an existing `(m+1) × cols` matrix.
pub fn encode_multi_into(block: &Matrix, chk: &mut Matrix) {
    assert_eq!(chk.cols(), block.cols(), "checksum width mismatch");
    let rows_chk = chk.rows();
    assert!(rows_chk >= 1, "need at least one checksum row");
    for j in 0..block.cols() {
        let col = block.col(j);
        let mut sums = vec![0.0f64; rows_chk];
        for (i, &x) in col.iter().enumerate() {
            // Accumulate powers incrementally: w, w², …
            let base = (i + 1) as f64;
            let mut w = 1.0;
            for s in sums.iter_mut() {
                *s += w * x;
                w *= base;
            }
        }
        for (c, s) in sums.into_iter().enumerate() {
            chk.set(c, j, s);
        }
    }
}

/// Outcome of a multi-error verification of one block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiVerifyOutcome {
    /// Columns with exactly one corrected error.
    pub single_corrected: usize,
    /// Columns with a corrected error *pair* (needs `m ≥ 2`).
    pub double_corrected: usize,
    /// Columns beyond the configured correction capability.
    pub uncorrectable: usize,
}

impl MultiVerifyOutcome {
    /// Nothing detected.
    pub fn is_clean(&self) -> bool {
        self == &MultiVerifyOutcome::default()
    }

    /// Everything detected was fixed.
    pub fn fully_recovered(&self) -> bool {
        self.uncorrectable == 0
    }
}

/// Verify `data` against `stored` (both `(m+1) × cols`; `recalc` must be a
/// fresh [`encode_multi`] of `data`), correcting up to `m = stored.rows()-1`
/// errors per column in place.
pub fn verify_and_correct_multi(
    data: &mut Matrix,
    stored: &Matrix,
    recalc: &Matrix,
) -> MultiVerifyOutcome {
    assert_eq!(stored.shape(), recalc.shape());
    assert_eq!(stored.cols(), data.cols());
    let m = stored.rows() - 1;
    assert!(m >= 1, "need at least two checksum rows to correct");
    let rows = data.rows();
    let mut out = MultiVerifyOutcome::default();

    for j in 0..data.cols() {
        // Syndromes and per-row significance.
        let syn: Vec<f64> = (0..=m)
            .map(|c| recalc.get(c, j) - stored.get(c, j))
            .collect();
        let sig: Vec<bool> = (0..=m)
            .map(|c| {
                let scale = stored.get(c, j).abs().max(recalc.get(c, j).abs());
                let t = FIXED_ABS_TOL + FIXED_REL_TOL * scale.max(1.0);
                !syn[c].is_finite() || syn[c].abs() > t
            })
            .collect();
        if sig.iter().all(|&b| !b) {
            continue; // clean column
        }
        if syn.iter().any(|s| !s.is_finite()) {
            out.uncorrectable += 1;
            continue;
        }

        // Try the single-error hypothesis first: S_c = w^c·e for all c.
        if try_single(data, &syn, j, rows) {
            out.single_corrected += 1;
            continue;
        }
        // Then the pair hypothesis (requires m ≥ 2).
        if m >= 2 && try_pair(data, &syn, j, rows) {
            out.double_corrected += 1;
            continue;
        }
        out.uncorrectable += 1;
    }
    out
}

/// Single error: location from S₁/S₀, all higher syndromes must agree.
fn try_single(data: &mut Matrix, syn: &[f64], j: usize, rows: usize) -> bool {
    let s0 = syn[0];
    if s0 == 0.0 {
        return false;
    }
    let ratio = syn[1] / s0;
    let w = ratio.round();
    if !(ratio.is_finite() && (ratio - w).abs() <= LOCATE_SNAP && w >= 1.0 && w <= rows as f64) {
        return false;
    }
    // Consistency across every remaining syndrome: S_c ≈ w^c · S₀.
    let mut wc = w;
    for &s in &syn[1..] {
        let rel = (s - wc * s0).abs() / (wc * s0).abs().max(1e-300);
        if rel > 1e-3 {
            return false;
        }
        wc *= w;
    }
    let r = w as usize - 1;
    let v = data.get(r, j) - s0;
    data.set(r, j, v);
    true
}

/// Two errors: enumerate location pairs, solve the 2×2 Vandermonde system
/// from S₀/S₁, accept iff S₂ (and any higher syndromes) are reproduced.
fn try_pair(data: &mut Matrix, syn: &[f64], j: usize, rows: usize) -> bool {
    let (s0, s1, s2) = (syn[0], syn[1], syn[2]);
    let _ = s2;
    let scale = s0.abs().max(s1.abs()).max(s2.abs()).max(1.0);
    // Genuine syndromes reproduce S₂ to rounding; anything looser admits
    // phantom neighbour pairs and poisons the ambiguity check.
    let check_tol = (FIXED_REL_TOL * 10.0).max(MULTI_MIN_REL) * scale;
    let min_mag = MULTI_MIN_REL * scale;
    let mut found: Option<(usize, usize, f64, f64)> = None;
    for r1 in 0..rows {
        let w1 = (r1 + 1) as f64;
        for r2 in (r1 + 1)..rows {
            let w2 = (r2 + 1) as f64;
            // e1 + e2 = S0; w1·e1 + w2·e2 = S1.
            let det = w2 - w1;
            let e2 = (s1 - w1 * s0) / det;
            let e1 = s0 - e2;
            // Both must be non-negligible (else it's a single error).
            if e1.abs() <= min_mag || e2.abs() <= min_mag {
                continue;
            }
            // Check against S2 (and any higher syndromes).
            let mut ok = true;
            let mut p1 = w1 * w1;
            let mut p2 = w2 * w2;
            for &s in &syn[2..] {
                if (p1 * e1 + p2 * e2 - s).abs() > check_tol {
                    ok = false;
                    break;
                }
                p1 *= w1;
                p2 *= w2;
            }
            if ok {
                if found.is_some() {
                    // Ambiguous: two distinct pairs explain the syndromes.
                    return false;
                }
                found = Some((r1, r2, e1, e2));
            }
        }
    }
    if let Some((r1, r2, e1, e2)) = found {
        let v1 = data.get(r1, j) - e1;
        data.set(r1, j, v1);
        let v2 = data.get(r2, j) - e2;
        data.set(r2, j, v2);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_matrix::approx_eq;
    use hchol_matrix::generate::uniform;

    #[test]
    fn m1_reduces_to_paper_encoding() {
        let a = uniform(8, 5, -1.0, 1.0, 1);
        let multi = encode_multi(&a, 1);
        let paper = hchol_core::checksum::encode(&a);
        assert!(approx_eq(&multi, &paper, 1e-13));
    }

    #[test]
    fn power_weights_match_definition() {
        assert_eq!(power_weight(0, 7), 1.0);
        assert_eq!(power_weight(1, 7), 8.0);
        assert_eq!(power_weight(2, 7), 64.0);
    }

    #[test]
    fn update_rules_generalize_to_three_rows() {
        // The chkops rules are linear in checksum rows: they must preserve
        // the invariant for (m+1)-row checksums too.
        let b = 8;
        let src = uniform(b, b, -1.0, 1.0, 2);
        let mut tgt = uniform(b, b, -1.0, 1.0, 3);
        let mut chk = encode_multi(&tgt, 2);
        let chk_src = encode_multi(&src, 2);
        hchol_blas::gemm(
            hchol_matrix::Trans::No,
            hchol_matrix::Trans::Yes,
            -1.0,
            &src,
            &src,
            1.0,
            &mut tgt,
        );
        hchol_core::chkops::update_product(&mut chk, &chk_src, &src);
        assert!(approx_eq(&chk, &encode_multi(&tgt, 2), 1e-8));
    }

    #[test]
    fn potf2_update_generalizes_to_three_rows() {
        let (la, a) = hchol_matrix::generate::known_factor(8, 4);
        let mut chk = encode_multi(&a, 2);
        hchol_core::chkops::update_potf2(&mut chk, &la);
        assert!(approx_eq(&chk, &encode_multi(&la, 2), 1e-7));
    }

    #[test]
    fn single_error_corrected_with_three_checksums() {
        let a0 = uniform(12, 6, -1.0, 1.0, 5);
        let stored = encode_multi(&a0, 2);
        let mut a = a0.clone();
        a.set(7, 3, a.get(7, 3) + 4.0);
        let recalc = encode_multi(&a, 2);
        let out = verify_and_correct_multi(&mut a, &stored, &recalc);
        assert_eq!(out.single_corrected, 1);
        assert_eq!(out.uncorrectable, 0);
        assert!(approx_eq(&a, &a0, 1e-8));
    }

    #[test]
    fn double_error_corrected_with_three_checksums() {
        let a0 = uniform(12, 6, -1.0, 1.0, 6);
        let stored = encode_multi(&a0, 2);
        let mut a = a0.clone();
        // Two errors in the SAME column — beyond the paper's m = 1 scheme.
        a.set(2, 4, a.get(2, 4) + 3.0);
        a.set(9, 4, a.get(9, 4) - 1.5);
        let recalc = encode_multi(&a, 2);
        let out = verify_and_correct_multi(&mut a, &stored, &recalc);
        assert_eq!(out.double_corrected, 1);
        assert_eq!(out.uncorrectable, 0);
        assert!(approx_eq(&a, &a0, 1e-7));
    }

    #[test]
    fn two_checksums_cannot_correct_double_error() {
        // The same scenario with the paper's m = 1: must be uncorrectable.
        let a0 = uniform(12, 6, -1.0, 1.0, 7);
        let stored = encode_multi(&a0, 1);
        let mut a = a0.clone();
        a.set(2, 4, a.get(2, 4) + 3.0);
        a.set(9, 4, a.get(9, 4) - 1.5);
        let recalc = encode_multi(&a, 1);
        let out = verify_and_correct_multi(&mut a, &stored, &recalc);
        assert_eq!(out.uncorrectable, 1);
    }

    #[test]
    fn triple_error_exceeds_m2_capability() {
        let a0 = uniform(12, 6, -1.0, 1.0, 8);
        let stored = encode_multi(&a0, 2);
        let mut a = a0.clone();
        for r in [1usize, 5, 10] {
            a.set(r, 2, a.get(r, 2) + 2.0);
        }
        let recalc = encode_multi(&a, 2);
        let out = verify_and_correct_multi(&mut a, &stored, &recalc);
        // Either flagged uncorrectable, or (rarely) a phantom pair explains
        // the syndromes — but never reported as clean.
        assert!(!out.is_clean());
    }

    #[test]
    fn errors_in_multiple_columns_counted_independently() {
        let a0 = uniform(10, 8, -1.0, 1.0, 9);
        let stored = encode_multi(&a0, 2);
        let mut a = a0.clone();
        a.set(3, 0, a.get(3, 0) + 1.0); // single
        a.set(1, 5, a.get(1, 5) + 2.0); // pair...
        a.set(8, 5, a.get(8, 5) - 2.5);
        let recalc = encode_multi(&a, 2);
        let out = verify_and_correct_multi(&mut a, &stored, &recalc);
        assert_eq!(out.single_corrected, 1);
        assert_eq!(out.double_corrected, 1);
        assert!(approx_eq(&a, &a0, 1e-7));
    }

    #[test]
    fn clean_block_verifies_clean() {
        let a0 = uniform(10, 8, -1.0, 1.0, 10);
        let stored = encode_multi(&a0, 2);
        let mut a = a0.clone();
        let recalc = encode_multi(&a, 2);
        let out = verify_and_correct_multi(&mut a, &stored, &recalc);
        assert!(out.is_clean());
        assert!(out.fully_recovered());
    }
}
