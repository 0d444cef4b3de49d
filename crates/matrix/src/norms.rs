//! Matrix and vector norms.

use crate::dense::Matrix;
use crate::scalar::Scalar;

/// Frobenius norm `sqrt(Σ aᵢⱼ²)`, computed with scaling to avoid overflow.
pub fn frobenius<S: Scalar>(m: &Matrix<S>) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for x in m.as_slice().iter().map(|x| x.to_f64()) {
        if x != 0.0 {
            let ax = x.abs();
            if scale < ax {
                ssq = 1.0 + ssq * (scale / ax).powi(2);
                scale = ax;
            } else {
                ssq += (ax / scale).powi(2);
            }
        }
    }
    scale * ssq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frobenius_simple() {
        let m = Matrix::from_col_major(2, 2, vec![3.0, 0.0, 0.0, 4.0]).unwrap();
        assert!((frobenius(&m) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn frobenius_overflow_safe() {
        let m = Matrix::filled(2, 2, 1e200);
        let n = frobenius(&m);
        assert!(n.is_finite());
        assert!((n - 2e200).abs() / 2e200 < 1e-14);
    }

    #[test]
    fn norms_of_zero_matrix() {
        let m = Matrix::<f64>::zeros(3, 3);
        assert_eq!(frobenius(&m), 0.0);
    }
}
