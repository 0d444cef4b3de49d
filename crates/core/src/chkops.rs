//! Checksum *updating* rules (Section IV-B of the paper).
//!
//! The factorization never re-encodes checksums from data (that would cost
//! as much as verification); instead every operation on a block is mirrored
//! by the corresponding cheap operation on its `2 × B` checksum tile:
//!
//! | operation | data                        | checksum                          |
//! |-----------|-----------------------------|-----------------------------------|
//! | SYRK      | `A' = A − LC·LCᵀ`           | `chk(A') = chk(A) − chk(LC)·LCᵀ`  |
//! | GEMM      | `B' = B − LD·LCᵀ`           | `chk(B') = chk(B) − chk(LD)·LCᵀ`  |
//! | POTF2     | `A' → LA`                   | Algorithm 2 (a 2-row forward solve)|
//! | TRSM      | `LB = B'·(LAᵀ)⁻¹`           | `chk(LB) = chk(B')·(LAᵀ)⁻¹`       |
//!
//! All four preserve the invariant `chk(X) = vᵀ·X` exactly (in exact
//! arithmetic), which is what the verifier relies on.

use hchol_blas::{gemm, trsm};
use hchol_matrix::{Diag, Matrix, Scalar, Side, Trans, Uplo};

/// Columns of a checksum row [`update_potf2`] holds planar at a time.
const POTF2_BLOCK: usize = 256;

/// SYRK / GEMM checksum update: `chk ← chk − chk_src · srcᵀ`.
///
/// `chk` is the `2 × B` checksum of the block being updated, `chk_src` the
/// `2 × B` checksum of the factorized tile multiplying from the left
/// (`LC` for SYRK, `LD` for GEMM), and `src` the factorized tile whose
/// transpose multiplies from the right (`LC` in both cases).
pub fn update_product<S: Scalar>(chk: &mut Matrix<S>, chk_src: &Matrix<S>, src: &Matrix<S>) {
    gemm(Trans::No, Trans::Yes, -1.0, chk_src, src, 1.0, chk);
}

/// POTF2 checksum update — Algorithm 2 of the paper, transforming
/// `chk(A')` into `chk(LA)` given the factorized lower-triangular `la`.
///
/// A right-looking forward solve, one checksum row at a time on a *planar*
/// copy of the row (`POTF2_BLOCK` columns on the stack), so step `k` is
/// one division and one vertical SIMD pass down the contiguous column
/// `LA[k+1.., k]`. Each entry still receives `−= chk[r,k]·LA[j,k]` for
/// ascending `k < j` from the finished `chk[r,k]` and then its division by
/// `LA[j,j]` — columns left of the block first, the block's own triangle
/// after — the operations and the order of the element-wise definition.
pub fn update_potf2<S: Scalar>(chk: &mut Matrix<S>, la: &Matrix<S>) {
    let n = la.rows();
    assert!(la.is_square());
    assert_eq!(chk.cols(), n, "checksum width must match block");
    let rows = chk.rows();
    let x = chk.as_mut_slice();
    let mut planar = [S::ZERO; POTF2_BLOCK];
    for r in 0..rows {
        for j0 in (0..n).step_by(POTF2_BLOCK) {
            let p = &mut planar[..POTF2_BLOCK.min(n - j0)];
            let j1 = j0 + p.len();
            for (pj, j) in p.iter_mut().zip(j0..) {
                *pj = x[j * rows + r];
            }
            for k in 0..j0 {
                let xk = x[k * rows + r];
                for (pj, &ljk) in p.iter_mut().zip(&la.col(k)[j0..j1]) {
                    *pj -= xk * ljk;
                }
            }
            for k in j0..j1 {
                let (piv, below) = la.col(k)[k..j1].split_first().expect("k < j1");
                let (pk, rest) = p[k - j0..].split_first_mut().expect("k < j1");
                *pk /= *piv;
                let xk = *pk;
                for (pj, &ljk) in rest.iter_mut().zip(below) {
                    *pj -= xk * ljk;
                }
            }
            for (&pj, j) in p.iter().zip(j0..) {
                x[j * rows + r] = pj;
            }
        }
    }
}

/// TRSM checksum update: `chk(LB) = chk(B') · (LAᵀ)⁻¹`.
pub fn update_trsm<S: Scalar>(chk: &mut Matrix<S>, la: &Matrix<S>) {
    trsm(
        Side::Right,
        Uplo::Lower,
        Trans::Yes,
        Diag::NonUnit,
        1.0,
        la,
        chk,
    );
}

/// FLOPs of `update_product` on a `2 × B` checksum against a `B × B` tile.
pub fn update_product_flops(b: usize) -> u64 {
    hchol_blas::flops::gemm(2, b, b)
}

/// FLOPs of `update_potf2` / `update_trsm` on a `2 × B` checksum.
pub fn update_solve_flops(b: usize) -> u64 {
    hchol_blas::flops::trsm(b, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::encode;
    use hchol_blas::potf2;
    use hchol_matrix::generate::{known_factor, uniform};
    use hchol_matrix::{approx_eq, triangular::force_lower};

    /// After any update rule, the checksum must equal a fresh encoding of
    /// the updated data. That is the paper's entire invariant.
    #[test]
    fn product_update_preserves_invariant() {
        let b = 8;
        // Factorized tiles LC (b×b) and a block A being SYRKed.
        let lc = uniform(b, b, -1.0, 1.0, 1);
        let mut a = uniform(b, b, -1.0, 1.0, 2);
        let mut chk = encode(&a);
        let chk_lc = encode(&lc);
        // A ← A − LC·LCᵀ
        gemm(Trans::No, Trans::Yes, -1.0, &lc, &lc, 1.0, &mut a);
        update_product(&mut chk, &chk_lc, &lc);
        assert!(approx_eq(&chk, &encode(&a), 1e-10));
    }

    #[test]
    fn gemm_update_with_distinct_tiles() {
        let b = 6;
        let ld = uniform(b, b, -1.0, 1.0, 3);
        let lc = uniform(b, b, -1.0, 1.0, 4);
        let mut panel = uniform(b, b, -1.0, 1.0, 5);
        let mut chk = encode(&panel);
        let chk_ld = encode(&ld);
        gemm(Trans::No, Trans::Yes, -1.0, &ld, &lc, 1.0, &mut panel);
        update_product(&mut chk, &chk_ld, &lc);
        assert!(approx_eq(&chk, &encode(&panel), 1e-10));
    }

    #[test]
    fn potf2_update_matches_factor_encoding() {
        let (_, a) = known_factor(8, 6);
        let mut chk = encode(&a);
        let mut la = a.clone();
        potf2(&mut la, 0).unwrap();
        force_lower(&mut la);
        update_potf2(&mut chk, &la);
        assert!(approx_eq(&chk, &encode(&la), 1e-9));
    }

    #[test]
    fn potf2_update_equals_trsm_update() {
        // Algorithm 2 is algebraically chk·(LAᵀ)⁻¹ — the same transform as
        // the TRSM rule. Verify the two code paths agree.
        let (la, a) = known_factor(7, 8);
        let chk0 = encode(&a);
        let mut via_alg2 = chk0.clone();
        update_potf2(&mut via_alg2, &la);
        let mut via_trsm = chk0.clone();
        update_trsm(&mut via_trsm, &la);
        assert!(approx_eq(&via_alg2, &via_trsm, 1e-10));
    }

    #[test]
    fn trsm_update_preserves_invariant() {
        let b = 8;
        let (la, _) = known_factor(b, 9);
        let mut panel = uniform(b, b, -1.0, 1.0, 10);
        let mut chk = encode(&panel);
        // LB = B'·(LAᵀ)⁻¹
        trsm(
            Side::Right,
            Uplo::Lower,
            Trans::Yes,
            Diag::NonUnit,
            1.0,
            &la,
            &mut panel,
        );
        update_trsm(&mut chk, &la);
        assert!(approx_eq(&chk, &encode(&panel), 1e-9));
    }

    /// A multi-step pipeline (SYRK → POTF2 on diag; GEMM → TRSM on panel)
    /// keeps checksums consistent end to end — the full per-iteration cycle.
    #[test]
    fn full_iteration_cycle_preserves_invariants() {
        let b = 8;
        // "Previously factorized" tiles.
        let (l_jk, _) = known_factor(b, 11);
        let (l_ik, _) = known_factor(b, 12);
        // Diagonal block must remain SPD after the SYRK subtraction: build
        // it as product + large diagonal shift.
        let mut diag = {
            let g = uniform(b, b, -1.0, 1.0, 13);
            let mut d = Matrix::zeros(b, b);
            gemm(Trans::No, Trans::Yes, 1.0, &g, &g, 0.0, &mut d);
            for i in 0..b {
                let v = d.get(i, i) + 50.0;
                d.set(i, i, v);
            }
            d
        };
        let mut panel = uniform(b, b, -1.0, 1.0, 14);
        let mut chk_diag = encode(&diag);
        let mut chk_panel = encode(&panel);
        let chk_jk = encode(&l_jk);
        let chk_ik = encode(&l_ik);

        // SYRK
        gemm(Trans::No, Trans::Yes, -1.0, &l_jk, &l_jk, 1.0, &mut diag);
        update_product(&mut chk_diag, &chk_jk, &l_jk);
        // GEMM
        gemm(Trans::No, Trans::Yes, -1.0, &l_ik, &l_jk, 1.0, &mut panel);
        update_product(&mut chk_panel, &chk_ik, &l_jk);
        // POTF2
        potf2(&mut diag, 0).unwrap();
        force_lower(&mut diag);
        update_potf2(&mut chk_diag, &diag);
        // TRSM
        trsm(
            Side::Right,
            Uplo::Lower,
            Trans::Yes,
            Diag::NonUnit,
            1.0,
            &diag,
            &mut panel,
        );
        update_trsm(&mut chk_panel, &diag);

        assert!(approx_eq(&chk_diag, &encode(&diag), 1e-8));
        assert!(approx_eq(&chk_panel, &encode(&panel), 1e-8));
    }

    /// [`update_potf2`] as the element-wise definition it replaces.
    fn update_potf2_by_element<S: Scalar>(chk: &mut Matrix<S>, la: &Matrix<S>) {
        let n = la.rows();
        for j in 0..n {
            let piv = la.get(j, j);
            for r in 0..chk.rows() {
                let v = chk.get(r, j) / piv;
                chk.set(r, j, v);
            }
            for i in (j + 1)..n {
                let lij = la.get(i, j);
                for r in 0..chk.rows() {
                    let v = chk.get(r, i) - chk.get(r, j) * lij;
                    chk.set(r, i, v);
                }
            }
        }
    }

    /// The planar sweep against the definition: same bits on every entry
    /// (a NaN has only to meet a NaN), for 1–3 checksum rows, block sizes on
    /// both sides of `POTF2_BLOCK`, and factors with exact zeros, signed
    /// zeros and — second pass — NaNs and infinities (Algorithm 2 has no
    /// skip rule: a zero coefficient times an infinity must poison the
    /// entry in both forms).
    fn assert_potf2_update_matches_definition<S: Scalar>() {
        let sizes: &[usize] = if cfg!(debug_assertions) {
            &[1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33]
        } else {
            &[
                1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 250, 256, 300,
            ]
        };
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for &b in sizes {
            let (mut la, _) = known_factor(b, 40 + b as u64);
            for j in 0..b {
                for i in j + 1..b {
                    match (3 * i + 7 * j) % 5 {
                        0 => la.set(i, j, 0.0),
                        1 => la.set(i, j, -0.0),
                        _ => {}
                    }
                }
            }
            for rows in 1..=3usize {
                let mut chk0 = uniform(rows, b, -1.0, 1.0, 50 + rows as u64);
                chk0.set(rows - 1, b / 2, 0.0);
                for non_finite in [false, true] {
                    let mut la = la.clone();
                    if non_finite {
                        for (t, &v) in specials.iter().enumerate() {
                            chk0.set(t % rows, (5 * t + 1) % b, v);
                            la.set(b - 1 - t % b, (2 * t) % b, v);
                        }
                    }
                    let (la, chk0): (Matrix<S>, Matrix<S>) = (la.cast(), chk0.cast());
                    let mut want = chk0.clone();
                    update_potf2_by_element(&mut want, &la);
                    let mut got = chk0.clone();
                    update_potf2(&mut got, &la);
                    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        assert!(
                            g.to_bits_u64() == w.to_bits_u64()
                                || (g.to_f64().is_nan() && w.to_f64().is_nan()),
                            "b={b} rows={rows} non_finite={non_finite} element {i}: {g:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn potf2_update_is_bit_identical_to_definition() {
        assert_potf2_update_matches_definition::<f64>();
        assert_potf2_update_matches_definition::<f32>();
    }

    #[test]
    fn flop_formulas_positive() {
        assert_eq!(update_product_flops(4), 2 * 2 * 4 * 4);
        assert_eq!(update_solve_flops(4), 4 * 4 * 2);
    }
}
