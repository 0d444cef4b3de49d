//! Weighted checksum encoding (Section IV-A of the paper).
//!
//! Every `B × B` block `A` carries **two column checksums**, rows of a
//! `2 × B` checksum tile:
//!
//! ```text
//! chk₁ = v₁ᵀ A,   v₁ = [1, 1, …, 1]
//! chk₂ = v₂ᵀ A,   v₂ = [1, 2, …, B]
//! ```
//!
//! Two checksums with distinct weights are what let the verifier not just
//! *detect* but *locate* (row index `j = δ₂/δ₁`) and *correct* (subtract
//! `δ₁`) one error per block column.

use hchol_blas::gemm;
use hchol_matrix::{Matrix, Scalar, Trans};
use std::any::Any;
use std::cell::RefCell;

/// Number of weighted checksums per block (two: detect + locate).
pub const CHECKSUM_COUNT: usize = 2;

/// The two weight vectors for blocks of `rows` rows: `v₁ = 1`,
/// `v₂ = [1, 2, …, rows]`.
pub fn weight_vectors(rows: usize) -> (Vec<f64>, Vec<f64>) {
    let v1 = vec![1.0; rows];
    let v2 = (1..=rows).map(|i| i as f64).collect();
    (v1, v2)
}

/// The weight of row `i` (0-based) in checksum `c` (0 or 1).
#[inline]
pub fn weight(c: usize, i: usize) -> f64 {
    match c {
        0 => 1.0,
        1 => (i + 1) as f64,
        _ => panic!("only two checksums exist"),
    }
}

/// Run `f` with the `rows × 2` weight matrix `W = [v₁ v₂]` in precision
/// `S`. The matrix is cached per thread and rebuilt only when the row count
/// or the precision changes — a run encodes thousands of tiles of one
/// block size, so the steady state allocates and fills nothing.
fn with_weights<S: Scalar, R>(rows: usize, f: impl FnOnce(&Matrix<S>) -> R) -> R {
    thread_local! {
        static WEIGHTS: RefCell<Box<dyn Any>> = RefCell::new(Box::new(()));
    }
    WEIGHTS.with(|slot| {
        let mut slot = slot.borrow_mut();
        let hit = slot
            .downcast_ref::<Matrix<S>>()
            .is_some_and(|w| w.rows() == rows);
        if !hit {
            *slot = Box::new(Matrix::<S>::from_fn(rows, CHECKSUM_COUNT, |i, c| {
                if c == 0 {
                    S::ONE
                } else {
                    S::from_usize(i + 1)
                }
            }));
        }
        f(slot.downcast_ref().expect("weights stored above"))
    })
}

/// Encode the two column checksums of `block` into a fresh `2 × cols`
/// matrix (row 0 = unweighted sums, row 1 = linearly weighted sums).
///
/// ```
/// use hchol_core::checksum::encode;
/// use hchol_matrix::Matrix;
/// // column [1, 2]: sum = 3, weighted sum = 1·1 + 2·2 = 5
/// let block = Matrix::from_col_major(2, 1, vec![1.0, 2.0]).unwrap();
/// let chk = encode(&block);
/// assert_eq!(chk.get(0, 0), 3.0);
/// assert_eq!(chk.get(1, 0), 5.0);
/// ```
pub fn encode<S: Scalar>(block: &Matrix<S>) -> Matrix<S> {
    let mut chk = Matrix::zeros(CHECKSUM_COUNT, block.cols());
    encode_into(block, &mut chk);
    chk
}

/// Encode into an existing `2 × cols` matrix.
///
/// Runs as one GEMM, `chk = Wᵀ · block` with `W = [v₁ v₂]` — the
/// recalculation batches of verification/re-encoding go through the same
/// level-3 dispatch as every other kernel (a 2-row product takes the
/// few-row dot arm, eight block columns at a time) instead of a bespoke
/// scalar loop. Each column's sums accumulate in four row-interleaved lanes
/// in ascending row order, so results match the definition to normal
/// rounding. Generic over the working precision: at f32 both products and
/// sums round to single precision (the honest model of an f32 GPU kernel).
pub fn encode_into<S: Scalar>(block: &Matrix<S>, chk: &mut Matrix<S>) {
    assert_eq!(
        chk.shape(),
        (CHECKSUM_COUNT, block.cols()),
        "checksum shape"
    );
    with_weights(block.rows(), |w| {
        gemm(Trans::Yes, Trans::No, 1.0, w, block, 0.0, chk);
    });
}

/// A pair of checksum rows for one block column, as scalars — convenient
/// for column-level reasoning in the verifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChecksumPair {
    /// Unweighted sum.
    pub c1: f64,
    /// Linearly weighted sum.
    pub c2: f64,
}

impl ChecksumPair {
    /// Read column `j`'s pair from a `2 × cols` checksum matrix (widened
    /// to `f64` — exact for both supported precisions).
    pub fn from_column<S: Scalar>(chk: &Matrix<S>, j: usize) -> Self {
        ChecksumPair {
            c1: chk.get(0, j).to_f64(),
            c2: chk.get(1, j).to_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_matrix::generate::uniform;

    #[test]
    fn weights_match_vectors() {
        let (v1, v2) = weight_vectors(5);
        assert_eq!(v1, vec![1.0; 5]);
        assert_eq!(v2, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        for i in 0..5 {
            assert_eq!(weight(0, i), v1[i]);
            assert_eq!(weight(1, i), v2[i]);
        }
    }

    #[test]
    fn encode_known_block() {
        // col0 = [1, 2], col1 = [3, 4]
        let a = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let chk = encode(&a);
        assert_eq!(chk.get(0, 0), 3.0); // 1+2
        assert_eq!(chk.get(1, 0), 5.0); // 1·1+2·2
        assert_eq!(chk.get(0, 1), 7.0); // 3+4
        assert_eq!(chk.get(1, 1), 11.0); // 1·3+2·4
    }

    #[test]
    fn encode_matches_gemv_definition() {
        let a = uniform(7, 5, -1.0, 1.0, 3);
        let chk = encode(&a);
        let (v1, v2) = weight_vectors(7);
        for j in 0..5 {
            let c1: f64 = a.col(j).iter().zip(&v1).map(|(x, w)| x * w).sum();
            let c2: f64 = a.col(j).iter().zip(&v2).map(|(x, w)| x * w).sum();
            assert!((chk.get(0, j) - c1).abs() < 1e-12);
            assert!((chk.get(1, j) - c2).abs() < 1e-12);
        }
    }

    #[test]
    fn single_error_shifts_checksums_predictably() {
        let a0 = uniform(6, 4, -1.0, 1.0, 4);
        let chk0 = encode(&a0);
        let mut a = a0.clone();
        let (row, col, delta) = (3usize, 2usize, 0.75);
        a.set(row, col, a.get(row, col) + delta);
        let chk = encode(&a);
        // Only column `col` changes; δ1 = delta, δ2 = (row+1)·delta.
        for j in 0..4 {
            if j == col {
                let d1 = chk.get(0, j) - chk0.get(0, j);
                let d2 = chk.get(1, j) - chk0.get(1, j);
                assert!((d1 - delta).abs() < 1e-12);
                assert!((d2 / d1 - (row + 1) as f64).abs() < 1e-9);
            } else {
                assert_eq!(chk.get(0, j), chk0.get(0, j));
                assert_eq!(chk.get(1, j), chk0.get(1, j));
            }
        }
    }

    #[test]
    fn checksum_pair_reads_column() {
        let a = uniform(3, 3, 0.0, 1.0, 5);
        let chk = encode(&a);
        let p = ChecksumPair::from_column(&chk, 1);
        assert_eq!(p.c1, chk.get(0, 1));
        assert_eq!(p.c2, chk.get(1, 1));
    }

    #[test]
    fn encode_into_avoids_allocation_mismatch() {
        let a = uniform(4, 4, 0.0, 1.0, 6);
        let mut chk = Matrix::zeros(2, 4);
        encode_into(&a, &mut chk);
        assert_eq!(chk, encode(&a));
    }

    #[test]
    fn f32_encode_matches_definition_in_single_precision() {
        let a: Matrix<f32> = uniform(6, 4, -1.0, 1.0, 7).cast();
        let chk = encode(&a);
        for j in 0..4 {
            let mut c1 = 0.0f32;
            let mut c2 = 0.0f32;
            for i in 0..6 {
                c1 += a.get(i, j);
                c2 += (i + 1) as f32 * a.get(i, j);
            }
            assert!((chk.get(0, j) - c1).abs() <= 8.0 * f32::EPSILON);
            assert!((chk.get(1, j) - c2).abs() <= 64.0 * f32::EPSILON);
        }
        let p = ChecksumPair::from_column(&chk, 2);
        assert_eq!(p.c1, chk.get(0, 2) as f64);
    }
}
