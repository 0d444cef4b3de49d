//! Approximate comparison helpers used by tests and by the ABFT verifier's
//! numeric tolerances.

use crate::dense::Matrix;
use crate::norms;
use crate::scalar::Scalar;

/// Largest absolute elementwise difference between two same-shaped matrices.
///
/// Panics on shape mismatch.
pub fn max_abs_diff<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "max_abs_diff shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x - y).abs().to_f64())
        .fold(0.0, f64::max)
}

/// True if every element of `a` and `b` differs by at most `tol`.
// lint:allow(dead-pub) test tool: kernel and factor tests compare matrices with it
pub fn approx_eq<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>, tol: f64) -> bool {
    a.shape() == b.shape() && max_abs_diff(a, b) <= tol
}

/// Relative residual `‖a − b‖_F / max(‖b‖_F, tiny)`.
///
/// The canonical accuracy metric for factorizations: pass the reconstruction
/// `L·Lᵀ` as `a` and the original matrix as `b`.
pub fn relative_residual<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "relative_residual shape mismatch");
    let mut diff = a.clone();
    diff.sub_assign(b);
    let denom = norms::frobenius(b).max(f64::MIN_POSITIVE);
    norms::frobenius(&diff) / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_matrices() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * j) as f64);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
        assert!(approx_eq(&a, &a, 0.0));
        assert_eq!(relative_residual(&a, &a), 0.0);
    }

    #[test]
    fn detects_single_difference() {
        let a = Matrix::<f64>::zeros(2, 2);
        let mut b = a.clone();
        b.set(1, 0, 1e-3);
        assert_eq!(max_abs_diff(&a, &b), 1e-3);
        assert!(!approx_eq(&a, &b, 1e-4));
        assert!(approx_eq(&a, &b, 1e-2));
    }

    #[test]
    fn shape_mismatch_is_not_equal() {
        let a = Matrix::<f64>::zeros(2, 2);
        let b = Matrix::<f64>::zeros(2, 3);
        assert!(!approx_eq(&a, &b, 1e9));
    }

    #[test]
    fn relative_residual_scale_invariant() {
        let b = Matrix::from_fn(4, 4, |i, j| 1.0 + (i + 2 * j) as f64);
        let mut a = b.clone();
        a.set(0, 0, a.get(0, 0) + 0.01);
        let r1 = relative_residual(&a, &b);
        let mut b2 = b.clone();
        b2.scale(1e6);
        let mut a2 = b2.clone();
        a2.set(0, 0, a2.get(0, 0) + 0.01 * 1e6);
        let r2 = relative_residual(&a2, &b2);
        assert!((r1 - r2).abs() < 1e-12);
    }
}
