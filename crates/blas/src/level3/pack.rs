//! Operand views and cache-friendly packing for the blocked GEMM engine.
//!
//! The engine never walks the original column-major operands in its inner
//! loop. Instead each `MC×KC` block of `op(A)` is packed into row-panels of
//! `mr` rows (`mr` contiguous values per k step) and each `KC×NC` block of
//! `op(B)` into column-panels of `nr` columns — `mr × nr` being the
//! micro-tile of the element type's kernel table — so the micro-kernel
//! streams both operands with unit stride regardless of the original
//! transposition: all four `Trans` combinations are resolved here, at pack
//! time. Partial edge panels are zero-padded to full width; the zeros
//! multiply into the accumulator harmlessly and the store step masks them
//! off.

use hchol_matrix::{Matrix, Scalar, Trans};

/// Read-only view of `op(M)` for a sub-block of a column-major matrix.
///
/// Logical element `(i, j)` of the view is storage element
/// `(row0 + i, col0 + j)` when `trans` is `No`, `(row0 + j, col0 + i)` when
/// `trans` is `Yes` (offsets are in storage coordinates).
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a, S> {
    data: &'a [S],
    ld: usize,
    row0: usize,
    col0: usize,
    /// Logical rows of op(M).
    pub rows: usize,
    /// Logical cols of op(M).
    pub cols: usize,
    trans: bool,
}

impl<'a, S: Scalar> MatRef<'a, S> {
    /// View of the whole matrix as `op(M)`.
    pub fn new(m: &'a Matrix<S>, trans: Trans) -> Self {
        let (rows, cols) = trans.apply(m.shape());
        MatRef {
            data: m.as_slice(),
            ld: m.rows(),
            row0: 0,
            col0: 0,
            rows,
            cols,
            trans: trans == Trans::Yes,
        }
    }

    /// Sub-view: logical rows `[r0, r0+nrows)`, logical cols `[c0, c0+ncols)`.
    pub fn sub(&self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> Self {
        debug_assert!(r0 + nrows <= self.rows && c0 + ncols <= self.cols);
        let (dr, dc) = if self.trans { (c0, r0) } else { (r0, c0) };
        MatRef {
            data: self.data,
            ld: self.ld,
            row0: self.row0 + dr,
            col0: self.col0 + dc,
            rows: nrows,
            cols: ncols,
            trans: self.trans,
        }
    }

    /// Logical element `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> S {
        let (si, sj) = if self.trans { (j, i) } else { (i, j) };
        self.data[self.row0 + si + (self.col0 + sj) * self.ld]
    }

    /// The transposed view: logical `(i, j)` of the result is `(j, i)` here.
    pub fn t(&self) -> Self {
        MatRef {
            rows: self.cols,
            cols: self.rows,
            trans: !self.trans,
            ..*self
        }
    }

    /// Storage column `c` of the view's window, from the window's first
    /// storage row down to the end of the column.
    #[inline(always)]
    fn storage_col(&self, c: usize) -> &'a [S] {
        &self.data[self.row0 + (self.col0 + c) * self.ld..]
    }
}

/// Mutable view of a sub-block of a column-major matrix.
///
/// Raw-pointer based because the blocked SYRK/TRSM paths need simultaneous
/// disjoint read and write views into one matrix (e.g. TRSM's rank update
/// reads solved rows of `B` while writing unsolved ones), which column-major
/// interleaving puts beyond safe slice splitting. All accesses are bounds-
/// checked against the view in debug builds; callers guarantee disjointness.
pub(crate) struct MatMut<S> {
    ptr: *mut S,
    ld: usize,
    /// Rows of the block.
    pub rows: usize,
    /// Cols of the block.
    pub cols: usize,
}

impl<S> Clone for MatMut<S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for MatMut<S> {}

impl<S: Scalar> MatMut<S> {
    /// View of a whole matrix.
    pub fn new(m: &mut Matrix<S>) -> Self {
        let (rows, cols) = m.shape();
        let ld = rows;
        MatMut {
            ptr: m.as_mut_slice().as_mut_ptr(),
            ld,
            rows,
            cols,
        }
    }

    /// View over raw column-major storage (e.g. a scratch buffer) with
    /// leading dimension `ld`. The caller keeps the backing allocation alive
    /// and unaliased for the view's whole use.
    pub fn from_raw(ptr: *mut S, ld: usize, rows: usize, cols: usize) -> Self {
        debug_assert!(ld >= rows);
        MatMut {
            ptr,
            ld,
            rows,
            cols,
        }
    }

    /// Sub-block `[r0, r0+nrows) × [c0, c0+ncols)` of this block.
    pub fn sub(&self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> Self {
        debug_assert!(r0 + nrows <= self.rows && c0 + ncols <= self.cols);
        MatMut {
            // SAFETY: stays within the parent allocation (checked above).
            ptr: unsafe { self.ptr.add(r0 + c0 * self.ld) },
            ld: self.ld,
            rows: nrows,
            cols: ncols,
        }
    }

    /// Add `v` to element `(i, j)`.
    ///
    /// # Safety
    /// `i < rows && j < cols`, and this view is the unique accessor of the
    /// element.
    #[inline(always)]
    pub unsafe fn add(&self, i: usize, j: usize, v: S) {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: caller upholds the bounds/uniqueness contract above.
        unsafe { *self.ptr.add(i + j * self.ld) += v };
    }

    /// Column `j` as a mutable slice (columns are contiguous).
    ///
    /// # Safety
    /// `j < cols`, and this view is the unique accessor of the column.
    #[inline(always)]
    pub unsafe fn col_mut<'s>(&self, j: usize) -> &'s mut [S] {
        debug_assert!(j < self.cols);
        // SAFETY: caller upholds the bounds/uniqueness contract above;
        // columns are contiguous (`rows <= ld`).
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Read-only view of this block (for GEMM operands aliasing the output
    /// matrix at disjoint coordinates).
    ///
    /// # Safety
    /// The caller chooses the lifetime and must not write through `self` (or
    /// any overlapping view) while the returned view is read — the blocked
    /// TRSM recursion only reads rows/cols it has finished writing.
    pub unsafe fn as_ref<'s>(&self) -> MatRef<'s, S> {
        MatRef {
            // SAFETY: the span is within the parent allocation; caller
            // guarantees no overlapping writes for the chosen lifetime.
            data: unsafe { std::slice::from_raw_parts(self.ptr, self.len_spanned()) },
            ld: self.ld,
            row0: 0,
            col0: 0,
            rows: self.rows,
            cols: self.cols,
            trans: false,
        }
    }

    /// Number of elements spanned in the parent allocation (last column ends
    /// at `rows`, earlier columns span `ld`).
    fn len_spanned(&self) -> usize {
        if self.rows == 0 || self.cols == 0 {
            0
        } else {
            (self.cols - 1) * self.ld + self.rows
        }
    }
}

// SAFETY: the engine hands MatMut row-stripes to scoped threads;
// disjointness of the stripes is guaranteed by the ic-loop partitioning in
// par.rs, so no two threads ever touch the same element.
unsafe impl<S: Send> Send for MatMut<S> {}

/// Pack the `mc × kc` block of `op(A)` into `mr`-row micro-panels.
///
/// Output layout: panel `ip` (rows `ip*mr ..`) occupies
/// `buf[ip*mr*kc .. (ip+1)*mr*kc]`, as `kc` groups of `mr` contiguous row
/// values. Rows past `mc` are zero-filled.
pub(crate) fn pack_a<S: Scalar>(block: &MatRef<'_, S>, mr: usize, buf: &mut [S]) {
    let (mc, kc) = (block.rows, block.cols);
    debug_assert!(buf.len() >= mc.next_multiple_of(mr) * kc);
    for (ip, panel) in buf
        .chunks_exact_mut(mr * kc)
        .take(mc.div_ceil(mr))
        .enumerate()
    {
        let i0 = ip * mr;
        let rows = mr.min(mc - i0);
        if block.trans {
            // Logical row `i` is a storage column: read each contiguously
            // along k, scatter it through the panel with stride `mr`.
            for r in 0..rows {
                let src = &block.storage_col(i0 + r)[..kc];
                for (group, &v) in panel.chunks_exact_mut(mr).zip(src) {
                    group[r] = v;
                }
            }
            if rows < mr {
                for group in panel.chunks_exact_mut(mr) {
                    group[rows..].fill(S::ZERO);
                }
            }
        } else {
            // Logical rows run down storage columns: each k step is one
            // contiguous copy.
            for (p, group) in panel.chunks_exact_mut(mr).enumerate() {
                group[..rows].copy_from_slice(&block.storage_col(p)[i0..i0 + rows]);
                group[rows..].fill(S::ZERO);
            }
        }
    }
}

/// Pack the `kc × nc` block of `op(B)` into `nr`-column micro-panels.
///
/// Output layout: panel `jp` (cols `jp*nr ..`) occupies
/// `buf[jp*nr*kc .. (jp+1)*nr*kc]`, as `kc` groups of `nr` contiguous column
/// values. Columns past `nc` are zero-filled. This is [`pack_a`] of the
/// transposed block.
pub(crate) fn pack_b<S: Scalar>(block: &MatRef<'_, S>, nr: usize, buf: &mut [S]) {
    pack_a(&block.t(), nr, buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_matrix::generate::uniform;

    #[test]
    fn matref_transposition_and_subviews() {
        let m = uniform(7, 5, -1.0, 1.0, 71);
        let v = MatRef::new(&m, Trans::No);
        assert_eq!((v.rows, v.cols), (7, 5));
        assert_eq!(v.get(3, 2), m.get(3, 2));
        let t = MatRef::new(&m, Trans::Yes);
        assert_eq!((t.rows, t.cols), (5, 7));
        assert_eq!(t.get(2, 3), m.get(3, 2));
        let s = v.sub(2, 1, 4, 3);
        assert_eq!(s.get(0, 0), m.get(2, 1));
        let st = t.sub(1, 2, 3, 4);
        assert_eq!(st.get(0, 0), m.get(2, 1));
        assert_eq!(st.get(2, 3), m.get(5, 3));
    }

    const MR: usize = 8;
    const NR: usize = 6;

    #[test]
    fn pack_a_layout_with_padding() {
        let m = uniform(MR + 3, 4, -1.0, 1.0, 72);
        let v = MatRef::new(&m, Trans::No);
        let kc = v.cols;
        let mut buf = vec![f64::NAN; 2 * MR * kc];
        pack_a(&v, MR, &mut buf);
        // First panel, k step 2, row 5 = element (5, 2).
        assert_eq!(buf[2 * MR + 5], m.get(5, 2));
        // Second panel holds rows MR..MR+3 then zero padding.
        assert_eq!(buf[MR * kc + MR + 1], m.get(MR + 1, 1));
        assert_eq!(buf[MR * kc + MR + 5], 0.0);
    }

    #[test]
    fn pack_b_layout_with_padding() {
        let m = uniform(3, NR + 2, -1.0, 1.0, 73);
        let v = MatRef::new(&m, Trans::No);
        let kc = v.rows;
        let mut buf = vec![f64::NAN; 2 * NR * kc];
        pack_b(&v, NR, &mut buf);
        // First panel, k step 1, col 4 = element (1, 4).
        assert_eq!(buf[NR + 4], m.get(1, 4));
        // Second panel holds cols NR..NR+2 then zero padding.
        assert_eq!(buf[NR * kc + 2 * NR + 1], m.get(2, NR + 1));
        assert_eq!(buf[NR * kc + 2 * NR + 3], 0.0);
    }

    /// Both storage orders, sub-views at an offset, several panel widths and
    /// both precisions: every packed value is the logical element it stands
    /// for, every padding slot is zero.
    #[test]
    fn packing_resolves_transposition_for_every_width() {
        fn check<S: Scalar>() {
            let m: Matrix<S> = uniform(23, 19, -1.0, 1.0, 75).cast();
            for trans in [Trans::No, Trans::Yes] {
                let whole = MatRef::new(&m, trans);
                let v = whole.sub(2, 3, whole.rows - 5, whole.cols - 4);
                for w in [1usize, 6, 8, 16, 32] {
                    let (mc, kc) = (v.rows, v.cols);
                    let mut buf = vec![S::nan(); mc.next_multiple_of(w) * kc];
                    pack_a(&v, w, &mut buf);
                    for i in 0..mc.next_multiple_of(w) {
                        for p in 0..kc {
                            let got = buf[(i / w) * w * kc + p * w + i % w];
                            let want = if i < mc { v.get(i, p) } else { S::ZERO };
                            assert_eq!(got, want, "A {trans:?} w={w} ({i},{p})");
                        }
                    }
                    let (kc, nc) = (v.rows, v.cols);
                    let mut buf = vec![S::nan(); kc * nc.next_multiple_of(w)];
                    pack_b(&v, w, &mut buf);
                    for j in 0..nc.next_multiple_of(w) {
                        for p in 0..kc {
                            let got = buf[(j / w) * w * kc + p * w + j % w];
                            let want = if j < nc { v.get(p, j) } else { S::ZERO };
                            assert_eq!(got, want, "B {trans:?} w={w} ({p},{j})");
                        }
                    }
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn matmut_subblock_addressing() {
        let mut m = uniform(6, 6, -1.0, 1.0, 74);
        let before = m.get(4, 3);
        let mm = MatMut::new(&mut m);
        let sub = mm.sub(2, 1, 4, 5);
        // SAFETY: (2,2) is inside the 4×5 sub-view; `sub` is the only
        // accessor of `m` here.
        unsafe {
            sub.add(2, 2, 1.0);
        }
        assert_eq!(m.get(4, 3), before + 1.0);
    }
}
