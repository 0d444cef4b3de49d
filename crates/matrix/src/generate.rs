//! Generators for test matrices, in particular the symmetric
//! positive-definite inputs Cholesky requires.
//!
//! All generators are deterministic given a seed (ChaCha8), so every
//! experiment in the bench harness is exactly reproducible.

use crate::dense::Matrix;
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A seeded RNG for matrix generation (ChaCha8: fast, portable, reproducible).
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Uniform random matrix with entries in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f64, hi: f64, seed: u64) -> Matrix {
    let mut r = rng(seed);
    let dist = Uniform::new(lo, hi);
    Matrix::from_fn(rows, cols, |_, _| dist.sample(&mut r))
}

/// Symmetric positive-definite matrix by diagonal dominance:
/// `A = R + Rᵀ + 2n·I` with `R` uniform in `[0, 1)`.
///
/// This is the standard way dense-linear-algebra test harnesses (including
/// MAGMA's own `testing_dpotrf`) manufacture SPD inputs: strict diagonal
/// dominance with positive diagonal guarantees positive definiteness while
/// keeping the condition number moderate.
pub fn spd_diag_dominant(n: usize, seed: u64) -> Matrix {
    let mut r = rng(seed);
    let dist = Uniform::new(0.0, 1.0);
    let mut a = Matrix::from_fn(n, n, |_, _| dist.sample(&mut r));
    // Symmetrize, then shift the diagonal to dominate.
    let at = a.transpose();
    a.add_assign(&at);
    for i in 0..n {
        let v = a.get(i, i) + 2.0 * n as f64;
        a.set(i, i, v);
    }
    a
}

/// Symmetric positive-definite matrix as a Gram product `A = G·Gᵀ + ε·I`
/// with `G` uniform in `[-1, 1)`.
///
/// Slower to build (O(n³)) but exercises less-structured spectra than the
/// diagonally dominant generator.
// lint:allow(dead-pub) generator the factor-correctness suite draws dense SPD inputs from
pub fn spd_gram(n: usize, seed: u64) -> Matrix {
    let g = uniform(n, n, -1.0, 1.0, seed);
    let mut a = Matrix::zeros(n, n);
    // a = g * g^T, computed column by column.
    for j in 0..n {
        for k in 0..n {
            let gjk = g.get(j, k);
            if gjk == 0.0 {
                continue;
            }
            let gcol_k = g.col(k);
            let acol = a.col_mut(j);
            for i in 0..n {
                acol[i] += gcol_k[i] * gjk;
            }
        }
    }
    for i in 0..n {
        let v = a.get(i, i) + 1e-3 * n as f64;
        a.set(i, i, v);
    }
    a.symmetrize();
    a
}

/// A known lower-triangular `L` with positive diagonal, plus its exact
/// product `A = L·Lᵀ`. Useful when a test needs the true factor.
// lint:allow(dead-pub) generator: factor tests compare against its exact L
pub fn known_factor(n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut r = rng(seed);
    let dist = Uniform::new(-0.5, 0.5);
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        for i in j..n {
            let v = if i == j {
                let d: f64 = dist.sample(&mut r);
                1.0 + d.abs()
            } else {
                dist.sample(&mut r)
            };
            l.set(i, j, v);
        }
    }
    // A = L * L^T
    let mut a = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            let mut s = 0.0;
            for k in 0..=i.min(j) {
                s += l.get(i, k) * l.get(j, k);
            }
            a.set(i, j, s);
        }
    }
    (l, a)
}

/// A Lehmer matrix `aᵢⱼ = min(i,j)+1 / (max(i,j)+1)`: SPD with known inverse,
/// mild conditioning.
// lint:allow(dead-pub) generator: factor-correctness runs a known-inverse SPD input
pub fn lehmer(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        ((i.min(j) + 1) as f64) / ((i.max(j) + 1) as f64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangular::is_symmetric;

    #[test]
    fn uniform_in_range_and_deterministic() {
        let a = uniform(10, 10, -2.0, 3.0, 42);
        assert!(a.as_slice().iter().all(|&x| (-2.0..3.0).contains(&x)));
        let b = uniform(10, 10, -2.0, 3.0, 42);
        assert_eq!(a, b);
        let c = uniform(10, 10, -2.0, 3.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn spd_diag_dominant_is_symmetric_and_dominant() {
        let a = spd_diag_dominant(16, 7);
        assert!(is_symmetric(&a, 0.0));
        for i in 0..16 {
            let off: f64 = (0..16).filter(|&j| j != i).map(|j| a.get(i, j).abs()).sum();
            assert!(a.get(i, i) > off, "row {i} not dominant");
        }
    }

    #[test]
    fn spd_gram_is_symmetric_with_positive_diag() {
        let a = spd_gram(12, 3);
        assert!(is_symmetric(&a, 1e-12));
        for i in 0..12 {
            assert!(a.get(i, i) > 0.0);
        }
    }

    #[test]
    fn known_factor_is_consistent() {
        let (l, a) = known_factor(8, 11);
        assert!(crate::triangular::is_lower_triangular(&l, 0.0));
        for i in 0..8 {
            assert!(l.get(i, i) > 0.0);
        }
        // A must equal L·Lᵀ by construction; spot-check symmetry.
        assert!(is_symmetric(&a, 1e-14));
    }

    #[test]
    fn lehmer_shape() {
        let l = lehmer(5);
        assert_eq!(l.get(2, 2), 1.0);
        assert!((l.get(0, 4) - 0.2).abs() < 1e-15);
        assert!(is_symmetric(&l, 0.0));
    }
}
