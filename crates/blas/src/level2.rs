//! BLAS level-2: matrix-vector kernels.
//!
//! The checksum *recalculation* at the heart of the paper's verification step
//! is exactly a pair of these kernels (`vᵀ·A` for the two weight vectors) —
//! the BLAS-2 shape is why the paper calls recalculation "low efficiency on
//! GPU" and motivates Optimization 1 (running many of them concurrently).

use crate::level1::{axpy, dot};
use hchol_matrix::{Diag, Matrix, Scalar, Trans, Uplo};

/// `y := alpha * op(A) * x + beta * y`.
///
/// Shapes: `op(A)` is `m × n`, `x` has length `n`, `y` has length `m`.
pub fn gemv<S: Scalar>(trans: Trans, alpha: f64, a: &Matrix<S>, x: &[S], beta: f64, y: &mut [S]) {
    let (m, n) = trans.apply(a.shape());
    assert_eq!(x.len(), n, "gemv x length mismatch");
    assert_eq!(y.len(), m, "gemv y length mismatch");
    if beta != 1.0 {
        let be = S::from_f64(beta);
        for yi in y.iter_mut() {
            *yi *= be;
        }
    }
    if alpha == 0.0 {
        return;
    }
    let al = S::from_f64(alpha);
    match trans {
        // y += alpha * A * x: accumulate columns (axpy form, unit stride).
        Trans::No => {
            for (j, &xj) in x.iter().enumerate() {
                axpy(al * xj, a.col(j), y);
            }
        }
        // y += alpha * Aᵀ * x: dot of each column with x (unit stride).
        Trans::Yes => {
            for (j, yj) in y.iter_mut().enumerate() {
                *yj += al * dot(a.col(j), x);
            }
        }
    }
}

/// Solve the triangular system `op(A) · x = b` in place (`x` holds `b` on
/// entry and the solution on exit).
pub fn trsv<S: Scalar>(uplo: Uplo, trans: Trans, diag: Diag, a: &Matrix<S>, x: &mut [S]) {
    let n = a.rows();
    assert!(a.is_square(), "trsv requires square A");
    assert_eq!(x.len(), n, "trsv x length mismatch");
    match (uplo, trans) {
        // Forward substitution with L.
        (Uplo::Lower, Trans::No) => {
            for j in 0..n {
                if x[j] != S::ZERO {
                    if diag == Diag::NonUnit {
                        x[j] /= a.get(j, j);
                    }
                    let xj = x[j];
                    let col = a.col(j);
                    for i in (j + 1)..n {
                        x[i] -= xj * col[i];
                    }
                }
            }
        }
        // Back substitution with Lᵀ (an upper-triangular system).
        (Uplo::Lower, Trans::Yes) => {
            for j in (0..n).rev() {
                let col = a.col(j);
                let mut s = x[j];
                for i in (j + 1)..n {
                    s -= col[i] * x[i];
                }
                x[j] = if diag == Diag::NonUnit { s / col[j] } else { s };
            }
        }
        // Back substitution with U.
        (Uplo::Upper, Trans::No) => {
            for j in (0..n).rev() {
                if x[j] != S::ZERO {
                    if diag == Diag::NonUnit {
                        x[j] /= a.get(j, j);
                    }
                    let xj = x[j];
                    let col = a.col(j);
                    for (i, xi) in x.iter_mut().enumerate().take(j) {
                        *xi -= xj * col[i];
                    }
                }
            }
        }
        // Forward substitution with Uᵀ.
        (Uplo::Upper, Trans::Yes) => {
            for j in 0..n {
                let col = a.col(j);
                let mut s = x[j];
                for (i, xi) in x.iter().enumerate().take(j) {
                    s -= col[i] * *xi;
                }
                x[j] = if diag == Diag::NonUnit { s / col[j] } else { s };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_matrix::Matrix;

    fn sample() -> Matrix {
        // 3x2: col0=[1,2,3], col1=[4,5,6]
        Matrix::from_col_major(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn gemv_no_trans() {
        let a = sample();
        let mut y = vec![1.0; 3];
        gemv(Trans::No, 1.0, &a, &[1.0, 10.0], 0.0, &mut y);
        assert_eq!(y, vec![41.0, 52.0, 63.0]);
    }

    #[test]
    fn gemv_trans() {
        let a = sample();
        let mut y = vec![100.0; 2];
        gemv(Trans::Yes, 2.0, &a, &[1.0, 1.0, 1.0], 1.0, &mut y);
        // Aᵀ·1 = [6, 15], y = 100 + 2*[6,15]
        assert_eq!(y, vec![112.0, 130.0]);
    }

    #[test]
    fn gemv_beta_scaling_even_with_zero_alpha() {
        let a = sample();
        let mut y = vec![2.0, 4.0, 6.0];
        gemv(Trans::No, 0.0, &a, &[9.0, 9.0], 0.5, &mut y);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn trsv_lower_roundtrip() {
        let l = Matrix::from_col_major(3, 3, vec![2.0, 1.0, 3.0, 0.0, 4.0, 5.0, 0.0, 0.0, 6.0])
            .unwrap();
        let x_true = [1.0, -2.0, 0.5];
        // b = L * x
        let mut b = vec![0.0; 3];
        gemv(Trans::No, 1.0, &l, &x_true, 0.0, &mut b);
        trsv(Uplo::Lower, Trans::No, Diag::NonUnit, &l, &mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-14);
        }
    }

    #[test]
    fn trsv_lower_trans_roundtrip() {
        let l = Matrix::from_col_major(3, 3, vec![2.0, 1.0, 3.0, 0.0, 4.0, 5.0, 0.0, 0.0, 6.0])
            .unwrap();
        let x_true = [0.25, 1.0, -1.0];
        let mut b = vec![0.0; 3];
        gemv(Trans::Yes, 1.0, &l, &x_true, 0.0, &mut b);
        trsv(Uplo::Lower, Trans::Yes, Diag::NonUnit, &l, &mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-14);
        }
    }

    #[test]
    fn trsv_upper_both_transposes() {
        let u = Matrix::from_col_major(3, 3, vec![3.0, 0.0, 0.0, -1.0, 2.0, 0.0, 4.0, 1.0, 5.0])
            .unwrap();
        for trans in [Trans::No, Trans::Yes] {
            let x_true = [1.0, 2.0, 3.0];
            let mut b = vec![0.0; 3];
            gemv(trans, 1.0, &u, &x_true, 0.0, &mut b);
            trsv(Uplo::Upper, trans, Diag::NonUnit, &u, &mut b);
            for (got, want) in b.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-13, "trans={trans:?}");
            }
        }
    }

    #[test]
    fn trsv_unit_diag_ignores_stored_diagonal() {
        let mut l = Matrix::identity(2);
        l.set(0, 0, 100.0); // must be ignored under Diag::Unit
        l.set(1, 0, 1.0);
        let mut x = vec![1.0, 3.0];
        trsv(Uplo::Lower, Trans::No, Diag::Unit, &l, &mut x);
        assert_eq!(x, vec![1.0, 2.0]);
    }
}
