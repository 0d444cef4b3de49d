//! Cholesky factorization: unblocked (`POTF2`), blocked on contiguous
//! storage, and tiled (the CPU reference for the hybrid driver).

use crate::level3::{gemm, syrk, trsm};
use hchol_matrix::{Diag, Matrix, MatrixError, Scalar, Side, TileMatrix, Trans, Uplo};

/// Unblocked lower Cholesky `A = L·Lᵀ` in place (the `POTF2` MAGMA runs on
/// the CPU for each diagonal block).
///
/// Only the lower triangle is referenced and written; the strictly upper
/// triangle is left untouched. `pivot_offset` is added to the reported pivot
/// index on failure so callers factoring a sub-block can report global
/// indices; on failure the columns left of the pivot hold their final `L`
/// values and the rest of the block is unspecified.
pub fn potf2<S: Scalar>(a: &mut Matrix<S>, pivot_offset: usize) -> Result<(), MatrixError> {
    if !a.is_square() {
        return Err(MatrixError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    for j in 0..n {
        // Left-looking column update, axpy form: for ascending k < j,
        //   a[j.., j] -= l[j,k] · l[j.., k]
        // — the diagonal entry picks up −l[j,k]² on the way. Every element
        // sees the same subtractions in the same order as the row-dot form,
        // but walks stored columns instead of stride-n rows.
        for k in 0..j {
            let (lk, aj) = a.col_pair_mut(k, j);
            let ljk = lk[j];
            for (x, &lik) in aj[j..].iter_mut().zip(&lk[j..]) {
                *x -= lik * ljk;
            }
        }
        let col = &mut a.col_mut(j)[j..];
        let d = col[0];
        if d <= S::ZERO || !d.is_finite() {
            return Err(MatrixError::NotPositiveDefinite {
                pivot: pivot_offset + j,
                value: d.to_f64(),
            });
        }
        let ljj = d.sqrt();
        col[0] = ljj;
        for x in &mut col[1..] {
            *x /= ljj;
        }
    }
    Ok(())
}

/// Blocked inner-product (left-looking) lower Cholesky on contiguous storage.
///
/// Identical math to the hybrid driver but entirely on the host; used as the
/// trusted oracle in tests and by examples that don't need the simulator.
// lint:allow(dead-pub) reference oracle: factor tests compare the hybrid drivers against it
pub fn potrf_blocked<S: Scalar>(a: &mut Matrix<S>, block: usize) -> Result<(), MatrixError> {
    if !a.is_square() {
        return Err(MatrixError::NotSquare { shape: a.shape() });
    }
    let mut tiles = TileMatrix::from_dense(a, block.max(1))?;
    potrf_tiled(&mut tiles)?;
    *a = tiles.to_dense();
    // Zero the strictly-upper triangle so the output is an explicit L.
    hchol_matrix::triangular::force_lower(a);
    Ok(())
}

/// Tiled inner-product (left-looking) lower Cholesky over a [`TileMatrix`].
///
/// This is the order MAGMA uses — Algorithm 1 of the paper:
/// for each block column `j`: SYRK the diagonal block against the factored
/// panel to its left, GEMM the sub-panel, POTF2 the diagonal block, TRSM the
/// sub-panel. Only tiles on or below the diagonal are meaningful.
fn potrf_tiled<S: Scalar>(a: &mut TileMatrix<S>) -> Result<(), MatrixError> {
    if a.rows() != a.cols() {
        return Err(MatrixError::NotSquare {
            shape: (a.rows(), a.cols()),
        });
    }
    let nt = a.grid_rows();
    let block = a.block();
    for j in 0..nt {
        // SYRK: A[j,j] -= Σ_{k<j} L[j,k] · L[j,k]ᵀ
        for k in 0..j {
            let (diag, ljk) = a.tile_pair((j, j), (j, k));
            syrk(Uplo::Lower, Trans::No, -1.0, ljk, 1.0, diag);
        }
        // POTF2 on the diagonal block.
        potf2(a.tile_mut(j, j), j * block)?;
        // GEMM: A[i,j] -= L[i,k] · L[j,k]ᵀ for i > j, k < j
        for i in (j + 1)..nt {
            for k in 0..j {
                let (tij, lik, ljk) = a.tile_trio((i, j), (i, k), (j, k));
                gemm(Trans::No, Trans::Yes, -1.0, lik, ljk, 1.0, tij);
            }
            // TRSM: A[i,j] := A[i,j] · (L[j,j]ᵀ)⁻¹
            let (tij, ljj) = a.tile_pair((i, j), (j, j));
            trsm(
                Side::Right,
                Uplo::Lower,
                Trans::Yes,
                Diag::NonUnit,
                1.0,
                ljj,
                tij,
            );
        }
    }
    Ok(())
}

/// Reconstruct `L·Lᵀ` from the lower triangle of a factored matrix — the
/// standard residual check for Cholesky.
pub fn reconstruct_lower<S: Scalar>(l: &Matrix<S>) -> Matrix<S> {
    let n = l.rows();
    let mut ll = l.clone();
    hchol_matrix::triangular::force_lower(&mut ll);
    let mut a = Matrix::zeros(n, n);
    gemm(Trans::No, Trans::Yes, 1.0, &ll, &ll, 0.0, &mut a);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_matrix::generate::{known_factor, spd_diag_dominant};
    use hchol_matrix::{approx_eq, relative_residual};

    #[test]
    fn potf2_recovers_known_factor() {
        let (l_true, a) = known_factor(8, 1);
        let mut l = a.clone();
        potf2(&mut l, 0).unwrap();
        hchol_matrix::triangular::force_lower(&mut l);
        assert!(approx_eq(&l, &l_true, 1e-12));
    }

    #[test]
    fn potf2_rejects_non_spd() {
        let mut a = Matrix::identity(3);
        a.set(1, 1, -1.0);
        let err = potf2(&mut a, 10).unwrap_err();
        match err {
            MatrixError::NotPositiveDefinite { pivot, value } => {
                assert_eq!(pivot, 11);
                assert!(value <= 0.0);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn potf2_rejects_nan_pivot() {
        let mut a = Matrix::identity(2);
        a.set(0, 0, f64::NAN);
        assert!(matches!(
            potf2(&mut a, 0),
            Err(MatrixError::NotPositiveDefinite { .. })
        ));
    }

    /// The row-dot form `potf2` had before it walked columns: kept as the
    /// bit-level oracle of the column form.
    fn potf2_row_dot<S: Scalar>(a: &mut Matrix<S>, pivot_offset: usize) -> Result<(), MatrixError> {
        let n = a.rows();
        for j in 0..n {
            let mut d = a.get(j, j);
            for k in 0..j {
                let ljk = a.get(j, k);
                d -= ljk * ljk;
            }
            if d <= S::ZERO || !d.is_finite() {
                return Err(MatrixError::NotPositiveDefinite {
                    pivot: pivot_offset + j,
                    value: d.to_f64(),
                });
            }
            let ljj = d.sqrt();
            a.set(j, j, ljj);
            for i in (j + 1)..n {
                let mut s = a.get(i, j);
                for k in 0..j {
                    s -= a.get(i, k) * a.get(j, k);
                }
                a.set(i, j, s / ljj);
            }
        }
        Ok(())
    }

    /// Same bits, or both NaN (a NaN's sign and payload follow instruction
    /// operand order, which Rust leaves unspecified).
    fn same_bits<S: Scalar>(x: S, y: S) -> bool {
        x.to_bits_u64() == y.to_bits_u64() || (x.to_f64().is_nan() && y.to_f64().is_nan())
    }

    /// Run both forms on `a`; they must agree bit for bit on everything a
    /// caller may read: the whole block on success, the error and the
    /// finished columns left of the pivot on failure.
    fn assert_forms_agree<S: Scalar>(a: &Matrix<S>, offset: usize) {
        let (mut col, mut row) = (a.clone(), a.clone());
        let (got, want) = (potf2(&mut col, offset), potf2_row_dot(&mut row, offset));
        let done = match (got, want) {
            (Ok(()), Ok(())) => a.cols(),
            (
                Err(MatrixError::NotPositiveDefinite { pivot, value }),
                Err(MatrixError::NotPositiveDefinite { pivot: p, value: v }),
            ) => {
                assert_eq!(pivot, p);
                assert!(same_bits(value, v), "{value:?} vs {v:?}");
                pivot - offset
            }
            other => panic!("forms disagree: {other:?}"),
        };
        for j in 0..done {
            for i in 0..a.rows() {
                assert!(same_bits(col.get(i, j), row.get(i, j)), "({i},{j})");
            }
        }
    }

    #[test]
    fn column_form_is_bit_identical_to_row_dot_form() {
        for n in [1usize, 2, 7, 33, 64, 97] {
            let a = spd_diag_dominant(n, 40 + n as u64);
            assert_forms_agree(&a, 0);
            assert_forms_agree(&a.cast::<f32>(), 3);

            // Indefinite: positive definiteness lost at a late pivot.
            let mut bad = a.clone();
            let p = (2 * n) / 3;
            bad.set(p, p, -1.0);
            assert_forms_agree(&bad, 5);
            assert_forms_agree(&bad.cast::<f32>(), 0);

            // Non-finite input: a NaN below the diagonal poisons a later
            // pivot; an infinite diagonal fails where it stands.
            let mut nan = a.clone();
            nan.set(n - 1, 0, f64::NAN);
            assert_forms_agree(&nan, 0);
            let mut inf = a.clone();
            inf.set(n / 2, n / 2, f64::INFINITY);
            assert_forms_agree(&inf, 0);
            // Signed zeros in the already-factored columns.
            let mut z = a.clone();
            for i in 1..n {
                z.set(i, 0, if i % 2 == 0 { 0.0 } else { -0.0 });
            }
            assert_forms_agree(&z, 0);
        }
    }

    #[test]
    fn potf2_rejects_rectangular() {
        let mut a = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            potf2(&mut a, 0),
            Err(MatrixError::NotSquare { .. })
        ));
    }

    #[test]
    fn blocked_matches_unblocked() {
        let a = spd_diag_dominant(37, 5); // deliberately not a block multiple
        let mut l_unblocked = a.clone();
        potf2(&mut l_unblocked, 0).unwrap();
        hchol_matrix::triangular::force_lower(&mut l_unblocked);
        for block in [1, 4, 8, 16, 37, 64] {
            let mut l = a.clone();
            potrf_blocked(&mut l, block).unwrap();
            assert!(
                approx_eq(&l, &l_unblocked, 1e-10),
                "block size {block} diverges"
            );
        }
    }

    #[test]
    fn blocked_residual_small() {
        let a = spd_diag_dominant(64, 6);
        let mut l = a.clone();
        potrf_blocked(&mut l, 16).unwrap();
        let recon = reconstruct_lower(&l);
        assert!(relative_residual(&recon, &a) < 1e-13);
    }

    #[test]
    fn tiled_reports_global_pivot() {
        // SPD except one late diagonal entry destroyed.
        let mut a = spd_diag_dominant(12, 7);
        a.set(9, 9, -5.0);
        let mut t = TileMatrix::from_dense(&a, 4).unwrap();
        let err = potrf_tiled(&mut t).unwrap_err();
        match err {
            MatrixError::NotPositiveDefinite { pivot, .. } => assert_eq!(pivot, 9),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
