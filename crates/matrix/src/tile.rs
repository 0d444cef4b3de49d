//! Block (tile) matrix storage.
//!
//! MAGMA's blocked Cholesky treats `B × B` blocks as its updating unit, and
//! the paper encodes its two weighted column checksums *per block* ("we choose
//! to encode the input matrix using the matrix block as a unit instead of the
//! whole matrix"). [`TileMatrix`] mirrors that: the matrix is a grid of
//! independently-owned [`Matrix`] tiles. Independent ownership is what lets
//! the hybrid runtime hand one tile to the (simulated) GPU while the host
//! reads others, with the borrow checker enforcing the disjointness.
//!
//! Edge tiles are allowed to be smaller than `B` so arbitrary `n` is
//! supported, although the paper's experiments always use `n` a multiple of
//! the block size.

use crate::dense::Matrix;
use crate::error::MatrixError;
use crate::scalar::Scalar;

/// A matrix stored as a grid of tiles (blocks).
#[derive(Clone, Debug, PartialEq)]
pub struct TileMatrix<S: Scalar = f64> {
    rows: usize,
    cols: usize,
    block: usize,
    grid_rows: usize,
    grid_cols: usize,
    tiles: Vec<Matrix<S>>, // column-major grid: tile (bi, bj) at bi + bj * grid_rows
}

impl<S: Scalar> TileMatrix<S> {
    /// Create a zero `rows × cols` tile matrix with block size `block`.
    pub fn zeros(rows: usize, cols: usize, block: usize) -> Result<Self, MatrixError> {
        if block == 0 {
            return Err(MatrixError::ZeroBlockSize);
        }
        let grid_rows = rows.div_ceil(block);
        let grid_cols = cols.div_ceil(block);
        let mut tiles = Vec::with_capacity(grid_rows * grid_cols);
        for bj in 0..grid_cols {
            for bi in 0..grid_rows {
                let tr = tile_extent(rows, block, bi);
                let tc = tile_extent(cols, block, bj);
                tiles.push(Matrix::zeros(tr, tc));
            }
        }
        Ok(TileMatrix {
            rows,
            cols,
            block,
            grid_rows,
            grid_cols,
            tiles,
        })
    }

    /// Partition a dense matrix into tiles.
    pub fn from_dense(dense: &Matrix<S>, block: usize) -> Result<Self, MatrixError> {
        if block == 0 {
            return Err(MatrixError::ZeroBlockSize);
        }
        let (rows, cols) = dense.shape();
        let grid_rows = rows.div_ceil(block);
        let grid_cols = cols.div_ceil(block);
        let tiles = (0..grid_cols)
            .flat_map(|bj| (0..grid_rows).map(move |bi| (bi, bj)))
            .map(|(bi, bj)| {
                let tr = tile_extent(rows, block, bi);
                let tc = tile_extent(cols, block, bj);
                dense.sub_matrix(bi * block, bj * block, tr, tc)
            })
            .collect();
        Ok(TileMatrix {
            rows,
            cols,
            block,
            grid_rows,
            grid_cols,
            tiles,
        })
    }

    /// Reassemble the tiles into a contiguous dense matrix.
    pub fn to_dense(&self) -> Matrix<S> {
        let mut d = Matrix::zeros(self.rows, self.cols);
        for bj in 0..self.grid_cols {
            for bi in 0..self.grid_rows {
                d.set_sub_matrix(bi * self.block, bj * self.block, self.tile(bi, bj));
            }
        }
        d
    }

    /// Global row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Global column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block size `B`.
    #[inline]
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of tile rows in the grid.
    #[inline]
    pub fn grid_rows(&self) -> usize {
        self.grid_rows
    }

    /// Number of tile columns in the grid.
    #[inline]
    pub fn grid_cols(&self) -> usize {
        self.grid_cols
    }

    #[inline]
    fn idx(&self, bi: usize, bj: usize) -> usize {
        debug_assert!(bi < self.grid_rows && bj < self.grid_cols);
        bi + bj * self.grid_rows
    }

    /// Tile `(bi, bj)` of the grid.
    #[inline]
    pub fn tile(&self, bi: usize, bj: usize) -> &Matrix<S> {
        &self.tiles[self.idx(bi, bj)]
    }

    /// Tile `(bi, bj)` of the grid, mutable.
    #[inline]
    pub fn tile_mut(&mut self, bi: usize, bj: usize) -> &mut Matrix<S> {
        let i = self.idx(bi, bj);
        &mut self.tiles[i]
    }

    /// One tile mutably plus another tile shared. Panics if the coordinates
    /// coincide.
    pub fn tile_pair(
        &mut self,
        mut_coord: (usize, usize),
        ref_coord: (usize, usize),
    ) -> (&mut Matrix<S>, &Matrix<S>) {
        assert_ne!(mut_coord, ref_coord, "tiles must be distinct");
        let im = self.idx(mut_coord.0, mut_coord.1);
        let ir = self.idx(ref_coord.0, ref_coord.1);
        let [m, r] = self
            .tiles
            .get_disjoint_mut([im, ir])
            .expect("indices are distinct and in bounds");
        (m, &*r)
    }

    /// One tile mutably plus two other tiles shared — the operand triple of
    /// a tile GEMM `C -= A·Bᵀ`. Panics unless all three coordinates differ.
    pub fn tile_trio(
        &mut self,
        mut_coord: (usize, usize),
        ref_a: (usize, usize),
        ref_b: (usize, usize),
    ) -> (&mut Matrix<S>, &Matrix<S>, &Matrix<S>) {
        let im = self.idx(mut_coord.0, mut_coord.1);
        let ia = self.idx(ref_a.0, ref_a.1);
        let ib = self.idx(ref_b.0, ref_b.1);
        let [m, a, b] = self
            .tiles
            .get_disjoint_mut([im, ia, ib])
            .expect("tiles must be distinct and in bounds");
        (m, &*a, &*b)
    }

    /// Global element access (row, col in the full matrix).
    pub fn get(&self, i: usize, j: usize) -> S {
        let (bi, ii) = (i / self.block, i % self.block);
        let (bj, jj) = (j / self.block, j % self.block);
        self.tile(bi, bj).get(ii, jj)
    }

    /// Global element assignment.
    pub fn set(&mut self, i: usize, j: usize, v: S) {
        let (bi, ii) = (i / self.block, i % self.block);
        let (bj, jj) = (j / self.block, j % self.block);
        self.tile_mut(bi, bj).set(ii, jj, v);
    }

    /// Iterate over tile coordinates `(bi, bj)` in column-major grid order.
    pub fn tile_coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let gr = self.grid_rows;
        (0..self.grid_cols).flat_map(move |bj| (0..gr).map(move |bi| (bi, bj)))
    }
}

/// Extent of tile index `b` along a dimension of length `total` with block
/// size `block`: `block` for interior tiles, the remainder for the last tile.
fn tile_extent(total: usize, block: usize, b: usize) -> usize {
    let start = b * block;
    debug_assert!(start < total || total == 0);
    block.min(total - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_block_size_rejected() {
        assert!(matches!(
            TileMatrix::<f64>::zeros(4, 4, 0),
            Err(MatrixError::ZeroBlockSize)
        ));
    }

    #[test]
    fn exact_partition_roundtrip() {
        let d = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let t = TileMatrix::from_dense(&d, 2).unwrap();
        assert_eq!(t.grid_rows(), 3);
        assert_eq!(t.grid_cols(), 3);
        assert_eq!(t.tile(1, 2).shape(), (2, 2));
        assert_eq!(t.to_dense(), d);
    }

    #[test]
    fn ragged_partition_roundtrip() {
        let d = Matrix::from_fn(5, 7, |i, j| (i * 100 + j) as f64);
        let t = TileMatrix::from_dense(&d, 3).unwrap();
        assert_eq!(t.grid_rows(), 2);
        assert_eq!(t.grid_cols(), 3);
        assert_eq!(t.tile(1, 2).shape(), (2, 1)); // 5-3=2 rows, 7-6=1 col
        assert_eq!(t.to_dense(), d);
    }

    #[test]
    fn global_get_set() {
        let mut t = TileMatrix::zeros(6, 6, 2).unwrap();
        t.set(4, 5, 9.0);
        assert_eq!(t.get(4, 5), 9.0);
        assert_eq!(t.tile(2, 2).get(0, 1), 9.0);
    }

    #[test]
    fn tile_pair_disjoint_borrows() {
        let mut t = TileMatrix::zeros(4, 4, 2).unwrap();
        t.set(0, 0, 3.0); // tile (0,0)
        {
            let (m, r) = t.tile_pair((1, 1), (0, 0));
            let v = r.get(0, 0);
            m.set(0, 0, v * 2.0);
        }
        assert_eq!(t.get(2, 2), 6.0);
        // reversed index order
        {
            let (m, r) = t.tile_pair((0, 0), (1, 1));
            let v = r.get(0, 0);
            m.set(1, 1, v + 1.0);
        }
        assert_eq!(t.get(1, 1), 7.0);
    }

    #[test]
    fn tile_trio_borrows_three_distinct_tiles() {
        let mut t = TileMatrix::<f64>::zeros(6, 6, 2).unwrap();
        t.tile_mut(1, 0).set(0, 0, 3.0);
        t.tile_mut(2, 0).set(1, 1, 4.0);
        let (m, a, b) = t.tile_trio((2, 1), (2, 0), (1, 0));
        m.set(0, 0, a.get(1, 1) + b.get(0, 0));
        assert_eq!(t.tile(2, 1).get(0, 0), 7.0);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn tile_trio_overlap_panics() {
        let mut t = TileMatrix::<f64>::zeros(4, 4, 2).unwrap();
        let _ = t.tile_trio((1, 1), (1, 0), (1, 0));
    }

    #[test]
    #[should_panic]
    fn tile_pair_same_tile_panics() {
        let mut t = TileMatrix::<f64>::zeros(4, 4, 2).unwrap();
        let _ = t.tile_pair((0, 0), (0, 0));
    }

    #[test]
    fn tile_coords_cover_grid() {
        let t = TileMatrix::<f64>::zeros(4, 6, 2).unwrap();
        let coords: Vec<_> = t.tile_coords().collect();
        assert_eq!(coords.len(), 2 * 3);
        assert!(coords.contains(&(1, 2)));
    }
}
