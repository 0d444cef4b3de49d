//! Owned, contiguous, column-major dense matrix.

use crate::error::MatrixError;
use crate::scalar::Scalar;

/// An owned column-major matrix over a [`Scalar`] element type (default
/// `f64`, the paper's working precision).
///
/// Storage is a single contiguous `Vec<S>` of length `rows * cols`, with
/// element `(i, j)` at offset `i + j * rows` (leading dimension equals the
/// row count, as in a freshly allocated LAPACK matrix).
///
/// ```
/// use hchol_matrix::Matrix;
/// let mut a = Matrix::zeros(2, 3);
/// a.set(1, 2, 5.0);
/// assert_eq!(a.get(1, 2), 5.0);
/// assert_eq!(a.as_slice()[1 + 2 * 2], 5.0);
/// ```
#[derive(Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Matrix<S: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> std::fmt::Debug for Matrix<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>12.5e} ", self.get(i, j))?;
            }
            if self.cols > show_cols {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl<S: Scalar> Matrix<S> {
    /// Create a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![S::ZERO; rows * cols],
        }
    }

    /// Create a `rows × cols` matrix with every element set to `value`.
    // lint:allow(dead-pub) test tool: kernel and simulator tests build fixtures with it
    pub fn filled(rows: usize, cols: usize, value: S) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, S::ONE);
        }
        m
    }

    /// Build a matrix from column-major data.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<S>) -> Result<Self, MatrixError> {
        if data.len() != rows * cols {
            return Err(MatrixError::LengthMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build a matrix from row-major data (transposing into column-major).
    // lint:allow(dead-pub) test tool: known-product tests spell small matrices row by row
    pub fn from_row_major(rows: usize, cols: usize, data: &[S]) -> Result<Self, MatrixError> {
        if data.len() != rows * cols {
            return Err(MatrixError::LengthMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, data[i * cols + j]);
            }
        }
        Ok(m)
    }

    /// Build a matrix by evaluating `f(i, j)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element `(i, j)`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> S {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    /// Set element `(i, j)`. Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: S) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows] = v;
    }

    /// The backing column-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// The backing column-major slice, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[S] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [S] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Two distinct columns, the first shared and the second mutable.
    ///
    /// Panics if `j_src == j_dst`.
    pub fn col_pair_mut(&mut self, j_src: usize, j_dst: usize) -> (&[S], &mut [S]) {
        assert_ne!(j_src, j_dst, "columns must be distinct");
        let r = self.rows;
        if j_src < j_dst {
            let (lo, hi) = self.data.split_at_mut(j_dst * r);
            (&lo[j_src * r..j_src * r + r], &mut hi[..r])
        } else {
            let (lo, hi) = self.data.split_at_mut(j_src * r);
            (&hi[..r], &mut lo[j_dst * r..j_dst * r + r])
        }
    }

    /// Copy of row `i`.
    pub fn row(&self, i: usize) -> Vec<S> {
        debug_assert!(i < self.rows);
        (0..self.cols).map(|j| self.get(i, j)).collect()
    }

    /// Copy out the `nrows × ncols` rectangle whose top-left corner is
    /// `(row0, col0)`.
    pub fn sub_matrix(&self, row0: usize, col0: usize, nrows: usize, ncols: usize) -> Matrix<S> {
        assert!(row0 + nrows <= self.rows && col0 + ncols <= self.cols);
        let mut out = Matrix::zeros(nrows, ncols);
        for j in 0..ncols {
            let src = &self.col(col0 + j)[row0..row0 + nrows];
            out.col_mut(j).copy_from_slice(src);
        }
        out
    }

    /// Copy `block` into the rectangle whose top-left corner is `(row0, col0)`.
    pub fn set_sub_matrix(&mut self, row0: usize, col0: usize, block: &Matrix<S>) {
        assert!(row0 + block.rows <= self.rows && col0 + block.cols <= self.cols);
        for j in 0..block.cols {
            let dst_col = col0 + j;
            let r = self.rows;
            let dst = &mut self.data[dst_col * r + row0..dst_col * r + row0 + block.rows];
            dst.copy_from_slice(block.col(j));
        }
    }

    /// The transpose (owned copy).
    pub fn transpose(&self) -> Matrix<S> {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Elementwise `self += other`. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix<S>) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Elementwise `self -= other`. Panics on shape mismatch.
    pub fn sub_assign(&mut self, other: &Matrix<S>) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= *b;
        }
    }

    /// Multiply every element by `s`.
    pub fn scale(&mut self, s: S) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Symmetrize in place: `A := (A + Aᵀ) / 2`. Panics if not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square());
        let half = S::from_f64(0.5);
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                let avg = half * (self.get(i, j) + self.get(j, i));
                self.set(i, j, avg);
                self.set(j, i, avg);
            }
        }
    }

    /// Mirror the lower triangle into the upper triangle (make symmetric from
    /// the lower half). Panics if not square.
    pub fn mirror_lower(&mut self) {
        assert!(self.is_square());
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                let v = self.get(i, j);
                self.set(j, i, v);
            }
        }
    }

    /// Convert every element to another precision (rounding when narrowing).
    ///
    /// Workload generators produce `f64`; reduced-precision runs cast the
    /// generated SPD matrix down with this. Rounding a symmetric
    /// diagonally-dominant matrix elementwise preserves both properties, so
    /// the cast input stays valid for Cholesky.
    pub fn cast<T: Scalar>(&self) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| T::from_f64(x.to_f64())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::<f64>::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(!m.is_square());
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn col_major_layout() {
        let m = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        // column 0 = [1, 2], column 1 = [3, 4]
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn row_major_roundtrip() {
        let m = Matrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(0), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(matches!(
            Matrix::from_col_major(2, 2, vec![1.0]),
            Err(MatrixError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Matrix::from_row_major(2, 2, &[1.0]),
            Err(MatrixError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn identity_diag() {
        let m = Matrix::<f64>::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn sub_matrix_and_set() {
        let m = Matrix::from_fn(5, 5, |i, j| (i * 10 + j) as f64);
        let b = m.sub_matrix(1, 2, 2, 3);
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b.get(0, 0), 12.0);
        assert_eq!(b.get(1, 2), 24.0);

        let mut m2 = Matrix::zeros(5, 5);
        m2.set_sub_matrix(1, 2, &b);
        assert_eq!(m2.get(1, 2), 12.0);
        assert_eq!(m2.get(2, 4), 24.0);
        assert_eq!(m2.get(0, 0), 0.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 4, |i, j| (i + 7 * j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn col_pair_mut_disjoint() {
        let mut m = Matrix::from_fn(3, 3, |i, j| (i + 3 * j) as f64);
        {
            let (src, dst) = m.col_pair_mut(0, 2);
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d = *s + 100.0;
            }
        }
        assert_eq!(m.get(0, 2), 100.0);
        assert_eq!(m.get(2, 2), 102.0);
        // reversed order
        let (src, dst) = m.col_pair_mut(2, 0);
        assert_eq!(src[0], 100.0);
        dst[0] = -1.0;
    }

    #[test]
    #[should_panic]
    fn col_pair_mut_same_col_panics() {
        let mut m = Matrix::<f64>::zeros(2, 2);
        let _ = m.col_pair_mut(1, 1);
    }

    #[test]
    fn symmetrize_makes_symmetric() {
        let mut m = Matrix::from_fn(4, 4, |i, j| (3 * i + j) as f64);
        m.symmetrize();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn mirror_lower_copies_lower_to_upper() {
        let mut m = Matrix::from_fn(3, 3, |i, j| if i >= j { (i + 1) as f64 } else { 99.0 });
        m.mirror_lower();
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 2), 3.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::filled(2, 2, 3.0);
        let mut b = Matrix::filled(2, 2, 1.0);
        b.add_assign(&a);
        assert_eq!(b.get(0, 0), 4.0);
        b.sub_assign(&a);
        assert_eq!(b.get(1, 1), 1.0);
        b.scale(5.0);
        assert_eq!(b.get(0, 1), 5.0);
    }

    #[test]
    fn f32_matrix_basic_ops() {
        let mut m = Matrix::<f32>::zeros(3, 3);
        m.set(1, 2, 2.5f32);
        assert_eq!(m.get(1, 2), 2.5f32);
        m.scale(2.0f32);
        assert_eq!(m.get(1, 2), 5.0f32);
        m.mirror_lower();
        assert!(m.is_square());
    }

    #[test]
    fn cast_roundtrip_and_narrowing() {
        let m = Matrix::from_fn(3, 3, |i, j| (i + 10 * j) as f64 + 0.5);
        let f: Matrix<f32> = m.cast();
        assert_eq!(f.get(2, 1), 12.5f32); // exactly representable
        let back: Matrix<f64> = f.cast();
        assert_eq!(back, m); // small integers + halves survive the roundtrip
                             // narrowing rounds
        let mut p = Matrix::<f64>::zeros(1, 1);
        p.set(0, 0, 1.0 + 1e-12);
        assert_eq!(p.cast::<f32>().get(0, 0), 1.0f32);
    }
}
