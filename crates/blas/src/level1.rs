//! BLAS level-1: vector-vector kernels, generic over the element precision.
//!
//! Unlike the matrix-level APIs (which take `f64` scale factors and convert
//! at the edge), these take their scalars in `S`: they sit inside the inner
//! loops, so an f32 instantiation must do genuinely single-precision work.

use hchol_matrix::Scalar;

/// `y := alpha * x + y`. Panics if lengths differ.
#[inline]
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    if alpha == S::ZERO {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// Dot product `xᵀ·y`, accumulated in the working precision. Panics if
/// lengths differ.
#[inline]
pub fn dot<S: Scalar>(x: &[S], y: &[S]) -> S {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    // Four-way unrolled accumulation: faster and (by splitting the
    // dependency chain) slightly more accurate than a single accumulator.
    let mut acc = [S::ZERO; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let b = c * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = S::ZERO;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpy_alpha_zero_is_noop() {
        let x = [f64::NAN; 3];
        let mut y = [1.0, 2.0, 3.0];
        axpy(0.0, &x, &mut y);
        assert_eq!(y, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..13).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..13).map(|i| (i * 2) as f64).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert_eq!(dot(&x, &y), naive);
        assert_eq!(dot::<f64>(&[], &[]), 0.0);
    }

    #[test]
    fn f32_kernels_run_in_single_precision() {
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [0.5f32, 0.5, 0.5];
        axpy(2.0f32, &x, &mut y);
        assert_eq!(y, [2.5f32, 4.5, 6.5]);
        assert_eq!(dot(&x, &x), 14.0f32);
        // f32 round-off is observable: (1 + eps32/2) collapses to 1.
        let tiny = [1.0f32 + f32::EPSILON / 2.0];
        assert_eq!(tiny[0], 1.0f32);
    }
}
