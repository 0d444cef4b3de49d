//! Symmetric rank-k update, blocked over the referenced triangle.
//!
//! Large updates are decomposed into `TB × TB` blocks of `C`: off-diagonal
//! blocks are plain GEMMs (`C_ij += alpha · op(A)_i · op(A)ᵀ_j`) routed
//! through the blocked engine, while diagonal blocks are computed full into a
//! small scratch tile and added back triangle-masked, so elements outside the
//! `uplo` triangle are never touched. Small updates keep the seed loops in
//! [`super::naive`].

use super::gemm::{encode_cols, gemm_views, use_blocked};
use super::naive::naive_syrk_accum;
use super::pack::{MatMut, MatRef};
use super::workspace::{carve, lines, pack_lines, with_workspace, Line};
use hchol_matrix::{Matrix, Scalar, Trans, Uplo};

/// Block size of the triangular decomposition (C blocks are `TB × TB`).
/// Wide blocks amortize the engine's packing across many columns of `C`;
/// the wasted flops on diagonal blocks (computed full, added back masked)
/// stay bounded by `TB / 2n` of the total.
const TB: usize = 256;

/// `C := beta·C` restricted to the `uplo` triangle, with BLAS semantics
/// (`beta == 0` overwrites NaN/Inf). Shared between the naive and blocked
/// SYRK front ends.
pub(crate) fn apply_beta_triangle<S: Scalar>(uplo: Uplo, beta: f64, c: &mut Matrix<S>) {
    if beta == 1.0 {
        return;
    }
    let n = c.rows();
    let be = S::from_f64(beta);
    for j in 0..n {
        let seg = match uplo {
            Uplo::Lower => &mut c.col_mut(j)[j..],
            Uplo::Upper => &mut c.col_mut(j)[..=j],
        };
        if beta == 0.0 {
            seg.fill(S::ZERO);
        } else {
            for x in seg {
                *x *= be;
            }
        }
    }
}

/// `C := alpha * op(A) * op(A)ᵀ + beta * C`, updating only the `uplo`
/// triangle of the square matrix `C`.
///
/// With `trans = No`, `op(A) = A` (`n × k`); with `trans = Yes`,
/// `op(A) = Aᵀ` (so `A` is stored `k × n`). This is the diagonal-block
/// update of MAGMA's Cholesky iteration: `A[j,j] -= A[j,0:j-1] · A[j,0:j-1]ᵀ`.
pub fn syrk<S: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
) {
    let (n, k) = trans.apply(a.shape());
    assert!(c.is_square(), "syrk C must be square");
    assert_eq!(c.rows(), n, "syrk C dimension mismatch");

    apply_beta_triangle(uplo, beta, c);
    if alpha == 0.0 || k == 0 {
        return;
    }

    if use_blocked(n, n, k) {
        // One arena borrow for the whole update: the diagonal scratch
        // tile, then the pack buffers of the largest block GEMM.
        let tb = TB.min(n);
        with_workspace(lines::<S>(tb * tb) + pack_lines::<S>(tb, k, tb), |ws| {
            syrk_blocked(uplo, trans, alpha, a, c, ws)
        });
    } else {
        naive_syrk_accum(uplo, trans, alpha, a, c);
    }
}

/// [`syrk`] plus the two weighted column checksums of the finished `C` in
/// `chk` (a `2 × n` matrix, same layout as
/// [`super::gemm::gemm_fused`]).
///
/// Unlike the GEMM epilogue, the checksum pass here runs as one masked
/// sweep over `C` *after* the blocked loops: SYRK's triangle-masked stores
/// never visit the opposite triangle, yet the checksum must cover the whole
/// stored tile (the verifier re-encodes full tiles), so an in-loop
/// read-back would be incomplete by construction. The sweep touches a tile
/// that just finished updating — cache-hot, and still one kernel from the
/// caller's point of view.
pub fn syrk_fused<S: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
    chk: &mut Matrix<S>,
) {
    assert_eq!(
        chk.shape(),
        (2, c.cols()),
        "syrk_fused checksum shape mismatch"
    );
    syrk(uplo, trans, alpha, a, beta, c);
    encode_cols(c, chk);
}

/// Blocked accumulation `C += alpha · op(A)·op(A)ᵀ` over the `uplo` triangle.
/// `ws` holds `tb²` elements of diagonal scratch followed by the pack buffers
/// of a `tb × k · k × tb` product, `tb = min(TB, n)`.
fn syrk_blocked<S: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: &Matrix<S>,
    c: &mut Matrix<S>,
    ws: &mut [Line],
) {
    let (n, k) = trans.apply(a.shape());
    let av = MatRef::new(a, trans); // op(A):  n × k
    let avt = av.t(); // op(A)ᵀ: k × n
    let cv = MatMut::new(c);
    let tb = TB.min(n);
    let (scratch, ws) = carve::<S>(ws, tb * tb);

    for jb in (0..n).step_by(TB) {
        let nb = TB.min(n - jb);
        let bt = avt.sub(0, jb, k, nb);
        // Off-diagonal block rows of this block column.
        let (lo, hi) = match uplo {
            Uplo::Lower => (jb + nb, n),
            Uplo::Upper => (0, jb),
        };
        let mut ib = lo;
        while ib < hi {
            let mb = TB.min(hi - ib);
            gemm_views(
                alpha,
                &av.sub(ib, 0, mb, k),
                &bt,
                &cv.sub(ib, jb, mb, nb),
                ws,
            );
            ib += mb;
        }
        // Diagonal block: full product into scratch, triangle-masked add.
        scratch[..nb * nb].fill(S::ZERO);
        let sv = MatMut::from_raw(scratch.as_mut_ptr(), nb, nb, nb);
        gemm_views(alpha, &av.sub(jb, 0, nb, k), &bt, &sv, ws);
        for j in 0..nb {
            let range = match uplo {
                Uplo::Lower => j..nb,
                Uplo::Upper => 0..j + 1,
            };
            for i in range {
                // SAFETY: (jb+i, jb+j) is inside C; `cv` is the sole accessor
                // of C in this function.
                unsafe { cv.add(jb + i, jb + j, scratch[i + j * nb]) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level3::gemm_into;
    use hchol_matrix::generate::uniform;
    use hchol_matrix::Matrix;

    fn full_aat(a: &Matrix, trans: Trans) -> Matrix {
        match trans {
            Trans::No => gemm_into(Trans::No, Trans::Yes, a, a),
            Trans::Yes => gemm_into(Trans::Yes, Trans::No, a, a),
        }
    }

    #[test]
    fn lower_matches_gemm() {
        let a = uniform(5, 3, -1.0, 1.0, 9);
        let mut c = Matrix::zeros(5, 5);
        syrk(Uplo::Lower, Trans::No, 1.0, &a, 0.0, &mut c);
        let want = full_aat(&a, Trans::No);
        for j in 0..5 {
            for i in j..5 {
                assert!((c.get(i, j) - want.get(i, j)).abs() < 1e-13);
            }
            for i in 0..j {
                assert_eq!(c.get(i, j), 0.0, "upper triangle must be untouched");
            }
        }
    }

    #[test]
    fn upper_trans_matches_gemm() {
        let a = uniform(3, 4, -1.0, 1.0, 10); // op(A) = Aᵀ is 4x3
        let mut c = uniform(4, 4, -1.0, 1.0, 11);
        let c0 = c.clone();
        syrk(Uplo::Upper, Trans::Yes, 2.0, &a, 0.5, &mut c);
        let want = full_aat(&a, Trans::Yes);
        for j in 0..4 {
            for i in 0..=j {
                let expect = 2.0 * want.get(i, j) + 0.5 * c0.get(i, j);
                assert!((c.get(i, j) - expect).abs() < 1e-13);
            }
            for i in (j + 1)..4 {
                assert_eq!(c.get(i, j), c0.get(i, j), "lower must be untouched");
            }
        }
    }

    #[test]
    fn beta_zero_clears_triangle_only() {
        let a = Matrix::zeros(3, 2);
        let mut c = Matrix::filled(3, 3, 7.0);
        syrk(Uplo::Lower, Trans::No, 1.0, &a, 0.0, &mut c);
        assert_eq!(c.get(2, 0), 0.0);
        assert_eq!(c.get(0, 2), 7.0);
    }

    #[test]
    fn result_diagonal_nonnegative_for_alpha_positive() {
        let a = uniform(6, 4, -2.0, 2.0, 12);
        let mut c = Matrix::zeros(6, 6);
        syrk(Uplo::Lower, Trans::No, 1.0, &a, 0.0, &mut c);
        for i in 0..6 {
            assert!(c.get(i, i) >= 0.0);
        }
    }

    #[test]
    fn fused_matches_syrk_and_checksums() {
        use super::super::gemm::tests::assert_chk_close;
        let n = TB + 37; // crosses a TB boundary; blocked path
        let k = 128;
        for trans in [Trans::No, Trans::Yes] {
            let (sr, sc) = trans.apply((n, k));
            let a = uniform(sr, sc, -1.0, 1.0, 95);
            for uplo in [Uplo::Lower, Uplo::Upper] {
                let mut c = uniform(n, n, -1.0, 1.0, 96);
                let mut c_ref = c.clone();
                let mut chk = Matrix::zeros(2, n);
                syrk_fused(uplo, trans, -1.0, &a, 1.0, &mut c, &mut chk);
                syrk(uplo, trans, -1.0, &a, 1.0, &mut c_ref);
                // Identical update — the checksum sweep only reads — and
                // checksums cover the whole stored tile, untouched
                // triangle included.
                for j in 0..n {
                    for i in 0..n {
                        assert_eq!(c.get(i, j), c_ref.get(i, j));
                    }
                }
                assert_chk_close(&chk, &c, "syrk_fused");
            }
        }
    }

    #[test]
    fn blocked_path_matches_naive() {
        use super::super::naive::naive_syrk;
        // Odd size spanning several TB blocks, both uplos and transposes.
        let n = 2 * TB + 13;
        let k = 96;
        for trans in [Trans::No, Trans::Yes] {
            let (sr, sc) = trans.apply((n, k));
            let a = uniform(sr, sc, -1.0, 1.0, 90);
            for uplo in [Uplo::Lower, Uplo::Upper] {
                let mut c = uniform(n, n, -1.0, 1.0, 91);
                let mut c_ref = c.clone();
                syrk(uplo, trans, 1.3, &a, -0.4, &mut c);
                naive_syrk(uplo, trans, 1.3, &a, -0.4, &mut c_ref);
                for j in 0..n {
                    for i in 0..n {
                        let d = (c.get(i, j) - c_ref.get(i, j)).abs();
                        assert!(d < 1e-11, "uplo={uplo:?} trans={trans:?} ({i},{j})");
                    }
                }
            }
        }
    }
}
