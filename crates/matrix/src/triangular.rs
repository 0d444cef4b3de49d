//! BLAS-style operation descriptors and triangular-matrix predicates.

use crate::dense::Matrix;
use crate::scalar::Scalar;

/// Which triangle of a symmetric/triangular matrix is referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Uplo {
    /// Lower triangle.
    Lower,
    /// Upper triangle.
    Upper,
}

/// Whether an operand is used transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Trans {
    /// Shape of an `(r, c)` operand after applying this transposition.
    pub fn apply(self, shape: (usize, usize)) -> (usize, usize) {
        match self {
            Trans::No => shape,
            Trans::Yes => (shape.1, shape.0),
        }
    }
}

/// Which side a triangular operand appears on in TRSM/TRMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Side {
    /// `op(A) · X = B` — triangular matrix on the left.
    Left,
    /// `X · op(A) = B` — triangular matrix on the right.
    Right,
}

/// Whether the triangular operand has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Diag {
    /// Diagonal stored explicitly.
    NonUnit,
    /// Diagonal implicitly all ones.
    Unit,
}

/// True if `m` is lower triangular to within `tol` (all strictly-upper
/// entries have magnitude ≤ `tol`).
// lint:allow(dead-pub) predicate the generator tests check factors with
pub fn is_lower_triangular<S: Scalar>(m: &Matrix<S>, tol: f64) -> bool {
    for j in 0..m.cols() {
        for i in 0..j.min(m.rows()) {
            if m.get(i, j).abs().to_f64() > tol {
                return false;
            }
        }
    }
    true
}

/// True if `m` is symmetric to within `tol`.
// lint:allow(dead-pub) predicate the generator tests check inputs with
pub fn is_symmetric<S: Scalar>(m: &Matrix<S>, tol: f64) -> bool {
    if !m.is_square() {
        return false;
    }
    for j in 0..m.cols() {
        for i in (j + 1)..m.rows() {
            if (m.get(i, j) - m.get(j, i)).abs().to_f64() > tol {
                return false;
            }
        }
    }
    true
}

/// Zero out the strictly-upper triangle, making the matrix explicitly lower
/// triangular. Panics if not square.
pub fn force_lower<S: Scalar>(m: &mut Matrix<S>) {
    assert!(m.is_square());
    for j in 1..m.cols() {
        for i in 0..j {
            m.set(i, j, S::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Matrix;

    #[test]
    fn trans_apply() {
        assert_eq!(Trans::No.apply((2, 5)), (2, 5));
        assert_eq!(Trans::Yes.apply((2, 5)), (5, 2));
    }

    #[test]
    fn triangular_predicates() {
        let l = Matrix::from_fn(3, 3, |i, j| if i >= j { 1.0 } else { 0.0 });
        assert!(is_lower_triangular(&l, 0.0));
        assert!(!is_lower_triangular(&l.transpose(), 0.0));
        assert!(is_lower_triangular(&Matrix::<f64>::identity(3), 0.0));
    }

    #[test]
    fn symmetry_predicate() {
        let mut m = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        assert!(is_symmetric(&m, 0.0));
        m.set(0, 2, 100.0);
        assert!(!is_symmetric(&m, 0.0));
        assert!(is_symmetric(&m, 1000.0));
        let rect = Matrix::<f64>::zeros(2, 3);
        assert!(!is_symmetric(&rect, 1.0));
    }

    #[test]
    fn force_lower_zeroes_upper() {
        let mut m = Matrix::filled(3, 3, 7.0);
        force_lower(&mut m);
        assert!(is_lower_triangular(&m, 0.0));
        assert_eq!(m.get(2, 0), 7.0);
        assert_eq!(m.get(0, 2), 0.0);
    }
}
