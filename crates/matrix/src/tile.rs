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
        Self::from_dense_by(dense, block, |fills| {
            fills.into_iter().for_each(TileFill::run)
        })
    }

    /// [`TileMatrix::from_dense`] with the copying handed to `fill`: it gets
    /// one [`TileFill`] per tile, in column-major grid order, and must run
    /// each once — in any order, on any thread (the fills are disjoint).
    /// Every tile buffer is allocated up front by the caller's thread, and
    /// written only by its fill. A fill left unrun is a `LengthMismatch`.
    pub fn from_dense_by(
        dense: &Matrix<S>,
        block: usize,
        fill: impl FnOnce(Vec<TileFill<'_, S>>),
    ) -> Result<Self, MatrixError> {
        if block == 0 {
            return Err(MatrixError::ZeroBlockSize);
        }
        let (rows, cols) = dense.shape();
        let grid_rows = rows.div_ceil(block);
        let grid_cols = cols.div_ceil(block);
        let extents: Vec<(usize, usize)> = (0..grid_cols)
            .flat_map(|bj| (0..grid_rows).map(move |bi| (bi, bj)))
            .map(|(bi, bj)| (tile_extent(rows, block, bi), tile_extent(cols, block, bj)))
            .collect();
        let mut bufs: Vec<Vec<S>> = extents
            .iter()
            .map(|&(tr, tc)| Vec::with_capacity(tr * tc))
            .collect();
        fill(
            bufs.iter_mut()
                .zip(&extents)
                .enumerate()
                .map(|(i, (buf, &(tr, tc)))| TileFill {
                    src: dense,
                    row0: (i % grid_rows) * block,
                    col0: (i / grid_rows) * block,
                    rows: tr,
                    cols: tc,
                    buf,
                })
                .collect(),
        );
        let tiles = bufs
            .into_iter()
            .zip(extents)
            .map(|(buf, (tr, tc))| Matrix::from_col_major(tr, tc, buf))
            .collect::<Result<_, _>>()?;
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

    /// Block column `bj`, one `&mut` per tile row, beside a shared view of
    /// every column left of it: the borrow of a left-looking panel update,
    /// which writes column `bj` and reads only finished columns. Panics if
    /// `bj` is out of the grid.
    pub fn split_col_mut(&mut self, bj: usize) -> (TileCols<'_, S>, &mut [Matrix<S>]) {
        assert!(bj < self.grid_cols, "block column {bj} out of the grid");
        let gr = self.grid_rows;
        let (left, right) = self.tiles.split_at_mut(bj * gr);
        let done = TileCols {
            tiles: left,
            grid_rows: gr,
        };
        (done, &mut right[..gr])
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
}

/// Shared view of the block columns left of the one
/// [`TileMatrix::split_col_mut`] lent out.
#[derive(Clone, Copy, Debug)]
pub struct TileCols<'a, S: Scalar> {
    tiles: &'a [Matrix<S>],
    grid_rows: usize,
}

impl<'a, S: Scalar> TileCols<'a, S> {
    /// Tile `(bi, bj)`. Panics unless `bj` is left of the split column.
    pub fn tile(&self, bi: usize, bj: usize) -> &'a Matrix<S> {
        assert!(bi < self.grid_rows, "tile row {bi} out of the grid");
        &self.tiles[bi + bj * self.grid_rows]
    }
}

/// Copy of one tile's rectangle of a dense matrix into that tile's buffer:
/// a unit of work of [`TileMatrix::from_dense_by`].
#[derive(Debug)]
pub struct TileFill<'a, S: Scalar> {
    src: &'a Matrix<S>,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    buf: &'a mut Vec<S>,
}

impl<S: Scalar> TileFill<'_, S> {
    /// Append the rectangle to the buffer, column by column.
    pub fn run(self) {
        for c in self.col0..self.col0 + self.cols {
            self.buf
                .extend_from_slice(&self.src.col(c)[self.row0..self.row0 + self.rows]);
        }
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
    fn split_col_mut_lends_one_column_beside_the_columns_left_of_it() {
        let d = Matrix::from_fn(5, 5, |i, j| (i * 10 + j) as f64);
        let mut t = TileMatrix::from_dense(&d, 2).unwrap();
        let (done, col) = t.split_col_mut(2);
        assert_eq!(col.len(), 3);
        assert_eq!(done.tile(2, 1).get(0, 1), 43.0);
        col[2].set(0, 0, done.tile(1, 0).get(1, 1) + done.tile(0, 1).get(0, 0));
        assert_eq!(t.get(4, 4), 31.0 + 2.0);
        assert_eq!(t.split_col_mut(0).1[1].shape(), (2, 2));
    }

    #[test]
    #[should_panic]
    fn split_col_mut_view_ends_at_the_split_column() {
        let mut t = TileMatrix::<f64>::zeros(4, 4, 2).unwrap();
        let (done, _) = t.split_col_mut(1);
        let _ = done.tile(0, 1);
    }

    #[test]
    fn fills_run_in_any_order_on_any_thread() {
        let d = Matrix::from_fn(5, 7, |i, j| (i * 100 + j) as f64);
        let t = TileMatrix::from_dense_by(&d, 3, |fills| {
            assert_eq!(fills.len(), 2 * 3);
            std::thread::scope(|s| {
                s.spawn(|| fills.into_iter().rev().for_each(TileFill::run));
            });
        })
        .unwrap();
        assert_eq!(t, TileMatrix::from_dense(&d, 3).unwrap());
        assert_eq!(t.to_dense(), d);
        let unrun = TileMatrix::from_dense_by(&d, 3, |mut fills| {
            fills.pop();
            fills.into_iter().for_each(TileFill::run);
        });
        assert!(matches!(unrun, Err(MatrixError::LengthMismatch { .. })));
    }
}
