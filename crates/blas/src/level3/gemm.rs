//! General matrix-matrix multiply: blocked engine + naive fallback.
//!
//! Large products run through a BLIS-style three-level blocked engine,
//! generic over the element type:
//!
//! ```text
//! for jc in 0..n step NC              (B column slabs, ~L3)
//!   for pc in 0..k step KC            (k slabs — pack op(B) once, ~L2)
//!     pack B[pc.., jc..] into nr-col micro-panels
//!     for ic in 0..m step MC          (A row slabs — pack op(A), ~L1/L2)
//!       pack A[ic.., pc..] into mr-row micro-panels
//!       for each nr col panel × mr row panel: micro-kernel, masked store
//! ```
//!
//! `mr × nr` and the micro-kernel come from the element type's kernel table
//! ([`super::microkernel`]). `beta` is applied to the whole of `C` once, up
//! front; the engine then only ever accumulates `alpha·op(A)·op(B)`. The
//! pack buffers come out of the calling thread's grow-only arena
//! ([`super::workspace`]), sized to the call's real extents, so a 64³ tile
//! product pays for 64³ flops and not for a `KC×NC` allocation. Products
//! below [`BLOCK_THRESHOLD`] — and products only a few rows or columns thin
//! — take the column loops in [`super::naive`].

use super::microkernel::{kernel_table, CHK_GROUP, MAX_TILE};
use super::naive;
use super::pack::{pack_a, pack_b, MatMut, MatRef};
use super::workspace::{carve, lines, pack_lens, pack_lines, with_workspace, Line};
use hchol_matrix::{Matrix, Scalar, Trans};

/// Rows per packed A slab (fits `MC×KC` doubles comfortably in L2).
pub const MC: usize = 128;
/// Inner (k) extent of one packing pass.
pub const KC: usize = 256;
/// Columns per packed B slab (bounds the shared B panel at ~`KC·NC` doubles).
pub const NC: usize = 2048;

/// Minimum `m·n·k` for the blocked engine. This is not the speed crossover:
/// with the per-call allocation gone the engine overtakes the naive loops
/// at about 12³ and is 2.2× faster at 32³ (DESIGN.md §3). It stays at 64³
/// because the two paths round differently and the golden fixtures pin the
/// naive bits of every product below it (32³ tiles, and the 64×32×32 rank
/// updates inside a 64-wide TRSM); lowering it means regenerating them.
pub const BLOCK_THRESHOLD: usize = 64 * 64 * 64;

/// Fewest rows / columns of `C` the blocked engine takes. Like
/// [`BLOCK_THRESHOLD`] these decide which *rounding* a product gets, so they
/// are fixed numbers and not the running table's `mr`/`nr`: the same call
/// must produce the same bits on every ISA.
pub(crate) const MIN_BLOCKED_ROWS: usize = 8;
const MIN_BLOCKED_COLS: usize = 6;

/// `C := beta·C` with BLAS semantics: `beta == 0` overwrites (clearing NaN
/// and Inf), `beta == 1` is a no-op. Shared by the sequential and parallel
/// front ends.
pub(crate) fn apply_beta<S: Scalar>(beta: f64, c: &mut [S]) {
    if beta == 1.0 {
        return;
    }
    if beta == 0.0 {
        c.fill(S::ZERO);
    } else {
        let be = S::from_f64(beta);
        for x in c {
            *x *= be;
        }
    }
}

/// Should this product take the blocked path? One predicate for every
/// element type and every front end.
#[inline]
pub(crate) fn use_blocked(m: usize, n: usize, k: usize) -> bool {
    // Few-row / few-column products (e.g. the 2×B checksum recalculation
    // GEMMs) stay on the naive dot/axpy loops: a micro-tile would be mostly
    // padding.
    m >= MIN_BLOCKED_ROWS
        && n >= MIN_BLOCKED_COLS
        && m.saturating_mul(n).saturating_mul(k) >= BLOCK_THRESHOLD
}

/// `C := alpha * op(A) * op(B) + beta * C`.
///
/// Shapes: `op(A)` is `m × k`, `op(B)` is `k × n`, `C` is `m × n`.
/// Panics on shape mismatch; `A`, `B` and `C` must be distinct matrices
/// (guaranteed by Rust's borrow rules).
pub fn gemm<S: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
) {
    let (m, ka) = trans_a.apply(a.shape());
    let (kb, n) = trans_b.apply(b.shape());
    assert_eq!(ka, kb, "gemm inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    let k = ka;

    apply_beta(beta, c.as_mut_slice());
    if alpha == 0.0 || k == 0 {
        return;
    }

    if use_blocked(m, n, k) {
        let av = MatRef::new(a, trans_a);
        let bv = MatRef::new(b, trans_b);
        let cv = MatMut::new(c);
        with_workspace(pack_lines::<S>(m, k, n), |ws| {
            gemm_blocked(alpha, &av, &bv, &cv, None, ws)
        });
    } else {
        naive::naive_gemm_accum(trans_a, trans_b, alpha, a, b, c);
    }
}

/// View-level `C += alpha·A·B` for the internal SYRK/TRSM callers:
/// dispatches between the blocked engine and a simple loop by size.
///
/// Caller guarantees `c` is disjoint from the storage behind `a`/`b`, and
/// that `ws` holds at least [`pack_lines`]`(m, k, n)` lines.
pub(crate) fn gemm_views<S: Scalar>(
    alpha: f64,
    a: &MatRef<'_, S>,
    b: &MatRef<'_, S>,
    c: &MatMut<S>,
    ws: &mut [Line],
) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(b.rows, k);
    debug_assert!(c.rows == m && c.cols == n);
    if alpha == 0.0 || k == 0 {
        return;
    }
    if use_blocked(m, n, k) {
        gemm_blocked(alpha, a, b, c, None, ws);
    } else {
        gemm_views_small(S::from_f64(alpha), a, b, c);
    }
}

/// Unblocked view multiply for blocks too small to be worth packing.
/// j-l-i loop order keeps the inner loop on C's (and untransposed A's)
/// unit stride.
fn gemm_views_small<S: Scalar>(alpha: S, a: &MatRef<'_, S>, b: &MatRef<'_, S>, c: &MatMut<S>) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    for j in 0..n {
        for l in 0..k {
            let f = alpha * b.get(l, j);
            if f == S::ZERO {
                continue;
            }
            for i in 0..m {
                // SAFETY: i < m = c.rows, j < n = c.cols; `c` is the unique
                // accessor of this block (gemm_views contract).
                unsafe { c.add(i, j, f * a.get(i, l)) };
            }
        }
    }
}

/// Per-call checksum accumulator for the fused epilogue: partial `v₁`
/// (ones-weighted) and `v₂` (row-index-weighted) column sums of the C
/// elements this call stores, kept in f64 whatever the element type — the
/// product runs at native width, the checksum lanes do not add their own
/// round-off to it.
struct ChkAcc<'a> {
    /// Global row of `c_block`'s row 0 in the output matrix (sets the
    /// `v₂` weights: global row `i` weighs `i + 1`).
    row0: usize,
    /// Global column of `c_block`'s column 0 (offsets into `v1`/`v2`).
    col0: usize,
    /// Unweighted column sums, one slot per output column.
    v1: &'a mut [f64],
    /// Row-weighted column sums, one slot per output column.
    v2: &'a mut [f64],
}

/// The three-level macro-loop around the packed micro-kernel, with an
/// optional fused checksum epilogue. Computes `C += alpha · A·B` (beta is the
/// front ends' job), packing into `ws` (at least [`pack_lines`]`(m, k, n)`
/// lines, contents arbitrary).
///
/// When `epi` is set, the final `pc` slab reads every just-stored C element
/// back (still cache-hot from the masked store) and accumulates the two
/// weighted column sums of the *finished* `C` — covering `beta·C` and all
/// earlier k slabs, because each slab accumulates into every element.
pub(crate) fn gemm_blocked<S: Scalar>(
    alpha: f64,
    a: &MatRef<'_, S>,
    b: &MatRef<'_, S>,
    c: &MatMut<S>,
    mut epi: Option<(&mut [f64], &mut [f64])>,
    ws: &mut [Line],
) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let t = kernel_table::<S>();
    let (a_len, b_len) = pack_lens::<S>(m, k, n);
    let (packed_a, ws) = carve::<S>(ws, a_len);
    let (packed_b, _) = carve::<S>(ws, b_len);

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let last_slab = pc + kc == k;
            pack_b(&b.sub(pc, jc, kc, nc), t.nr, packed_b);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(&a.sub(ic, pc, mc, kc), t.mr, packed_a);
                let c_block = c.sub(ic, jc, mc, nc);
                let mut acc = match &mut epi {
                    Some((v1, v2)) if last_slab => Some(ChkAcc {
                        row0: ic,
                        col0: jc,
                        v1,
                        v2,
                    }),
                    _ => None,
                };
                run_tiles(alpha, kc, packed_a, packed_b, &c_block, acc.as_mut());
            }
        }
    }
}

/// Inner two loops: every `mr × nr` micro-tile of one C block, from the
/// block's packed A stripe and the packed B slab that covers its columns.
///
/// With `epi` set, each micro-tile's store is followed by a read-back of the
/// freshly written elements into the caller's checksum accumulator (columns
/// accumulate in ascending global-row order within this call, [`CHK_GROUP`]
/// rows per partial sum).
fn run_tiles<S: Scalar>(
    alpha: f64,
    kc: usize,
    packed_a: &[S],
    packed_b: &[S],
    c_block: &MatMut<S>,
    mut epi: Option<&mut ChkAcc<'_>>,
) {
    let t = kernel_table::<S>();
    let (mr, nr) = (t.mr, t.nr);
    let (mc, nc) = (c_block.rows, c_block.cols);
    let al = S::from_f64(alpha);
    let mut acc = [S::ZERO; MAX_TILE];
    let acc = &mut acc[..mr * nr];
    for (jp, pb) in packed_b
        .chunks_exact(nr * kc)
        .take(nc.div_ceil(nr))
        .enumerate()
    {
        let j0 = jp * nr;
        let cols = nr.min(nc - j0);
        for (ip, pa) in packed_a
            .chunks_exact(mr * kc)
            .take(mc.div_ceil(mr))
            .enumerate()
        {
            let i0 = ip * mr;
            let rows = mr.min(mc - i0);
            (t.kernel)(kc, pa, pb, acc);
            // Masked store: edge tiles computed full-width over the packing
            // zeros, written back only where C exists.
            for (j, tile_col) in acc.chunks_exact(mr).take(cols).enumerate() {
                // SAFETY: j0+j < nc; tiles are disjoint and the caller hands
                // each stripe to at most one thread, so this is the only
                // live view of the column.
                let stored = &mut unsafe { c_block.col_mut(j0 + j) }[i0..i0 + rows];
                for (x, &v) in stored.iter_mut().zip(tile_col) {
                    *x += al * v;
                }
                if let Some(e) = epi.as_mut() {
                    let gc = e.col0 + j0 + j;
                    let mut weight = (e.row0 + i0) as f64;
                    for group in stored.chunks(CHK_GROUP) {
                        let (mut s1, mut s2) = (0.0, 0.0);
                        for x in group {
                            let v = x.to_f64();
                            weight += 1.0;
                            s1 += v;
                            s2 += weight * v;
                        }
                        e.v1[gc] += s1;
                        e.v2[gc] += s2;
                    }
                }
            }
        }
    }
}

/// Plain second-pass checksum of a finished block: ascending-row column
/// sums into a `2 × cols` matrix (row 0: ones weights, row 1: `i + 1`
/// weights), accumulated in f64 like the fused epilogue's. The fallback
/// deposit for products the blocked engine skips.
pub(crate) fn encode_cols<S: Scalar>(c: &Matrix<S>, chk: &mut Matrix<S>) {
    debug_assert_eq!(chk.shape(), (2, c.cols()));
    for j in 0..c.cols() {
        let (mut s1, mut s2) = (0.0, 0.0);
        for (i, &x) in c.col(j).iter().enumerate() {
            let v = x.to_f64();
            s1 += v;
            s2 += (i + 1) as f64 * v;
        }
        chk.set(0, j, S::from_f64(s1));
        chk.set(1, j, S::from_f64(s2));
    }
}

/// `C := alpha·op(A)·op(B) + beta·C`, simultaneously producing the two
/// weighted column checksums of the *resulting* `C` in `chk` (a `2 × n`
/// matrix: row 0 unweighted sums, row 1 sums weighted by row index + 1).
///
/// On the blocked path the checksums come from the fused micro-kernel
/// epilogue — a cache-hot read-back per stored micro-tile instead of a
/// separate pass over `C`. Products below the blocking threshold (and the
/// degenerate `alpha == 0` / `k == 0` cases) compute the product normally
/// and take one plain column sweep. Either way the sums are accumulated in
/// f64 and rounded to `S` once. Checksum summation order differs from
/// [`crate::level1::dot`]-based re-encoding, so results agree with a
/// separate recalculation only to normal rounding (relative `~1e-12` at
/// f64), not bitwise.
#[allow(clippy::too_many_arguments)]
pub fn gemm_fused<S: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
    chk: &mut Matrix<S>,
) {
    let (m, ka) = trans_a.apply(a.shape());
    let (kb, n) = trans_b.apply(b.shape());
    assert_eq!(ka, kb, "gemm_fused inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm_fused output shape mismatch");
    assert_eq!(chk.shape(), (2, n), "gemm_fused checksum shape mismatch");
    let k = ka;

    apply_beta(beta, c.as_mut_slice());
    if alpha != 0.0 && k != 0 && use_blocked(m, n, k) {
        let av = MatRef::new(a, trans_a);
        let bv = MatRef::new(b, trans_b);
        let cv = MatMut::new(c);
        // The two epilogue accumulators ride the same workspace borrow as
        // the pack buffers.
        with_workspace(lines::<f64>(2 * n) + pack_lines::<S>(m, k, n), |ws| {
            let (v, ws) = carve::<f64>(ws, 2 * n);
            v.fill(0.0);
            let (v1, v2) = v.split_at_mut(n);
            gemm_blocked(alpha, &av, &bv, &cv, Some((&mut *v1, &mut *v2)), ws);
            for j in 0..n {
                chk.set(0, j, S::from_f64(v1[j]));
                chk.set(1, j, S::from_f64(v2[j]));
            }
        });
        return;
    }
    if alpha != 0.0 && k != 0 {
        naive::naive_gemm_accum(trans_a, trans_b, alpha, a, b, c);
    }
    encode_cols(c, chk);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference::ref_gemm;
    use hchol_matrix::generate::uniform;
    use hchol_matrix::{approx_eq, Matrix};

    #[test]
    fn small_known_product() {
        let a = Matrix::from_row_major(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_row_major(2, 2, &[5.0, 6.0, 7.0, 8.0]).unwrap();
        let mut c = Matrix::zeros(2, 2);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        let want = Matrix::from_row_major(2, 2, &[19.0, 22.0, 43.0, 50.0]).unwrap();
        assert!(approx_eq(&c, &want, 1e-14));
    }

    #[test]
    fn all_transpose_combos_match_reference() {
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            // op(A): 4x3, op(B): 3x5
            let a_shape = ta.apply((4, 3)); // stored shape
            let b_shape = tb.apply((3, 5));
            let a = uniform(a_shape.0, a_shape.1, -1.0, 1.0, 1);
            let b = uniform(b_shape.0, b_shape.1, -1.0, 1.0, 2);
            let mut c = uniform(4, 5, -1.0, 1.0, 3);
            let mut c_ref = c.clone();
            gemm(ta, tb, 1.7, &a, &b, -0.3, &mut c);
            ref_gemm(ta, tb, 1.7, &a, &b, -0.3, &mut c_ref);
            assert!(approx_eq(&c, &c_ref, 1e-12), "ta={ta:?} tb={tb:?}");
        }
    }

    #[test]
    fn blocked_path_matches_reference_all_transposes() {
        // Big enough to force the blocked engine, odd enough to exercise
        // every edge tile (m, n not multiples of any table's mr/nr; k
        // crosses KC).
        let (m, n, k) = (MC + 43, 77, KC + 7);
        assert!(use_blocked(m, n, k));
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let a_shape = ta.apply((m, k));
            let b_shape = tb.apply((k, n));
            let a = uniform(a_shape.0, a_shape.1, -1.0, 1.0, 11);
            let b = uniform(b_shape.0, b_shape.1, -1.0, 1.0, 12);
            let mut c = uniform(m, n, -1.0, 1.0, 13);
            let mut c_ref = c.clone();
            gemm(ta, tb, -0.8, &a, &b, 0.6, &mut c);
            naive::naive_gemm(ta, tb, -0.8, &a, &b, 0.6, &mut c_ref);
            assert!(approx_eq(&c, &c_ref, 1e-11), "ta={ta:?} tb={tb:?}");
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        let mut c = Matrix::filled(2, 2, f64::NAN);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(approx_eq(&c, &Matrix::identity(2), 0.0));
    }

    #[test]
    fn alpha_zero_only_scales_c() {
        let a = uniform(3, 3, -1.0, 1.0, 4);
        let b = uniform(3, 3, -1.0, 1.0, 5);
        let mut c = Matrix::filled(3, 3, 2.0);
        gemm(Trans::No, Trans::No, 0.0, &a, &b, 0.5, &mut c);
        assert!(approx_eq(&c, &Matrix::filled(3, 3, 1.0), 0.0));
    }

    #[test]
    fn k_zero_leaves_scaled_c() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::filled(3, 2, 4.0);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.25, &mut c);
        assert!(approx_eq(&c, &Matrix::filled(3, 2, 1.0), 0.0));
    }

    #[test]
    #[should_panic]
    fn inner_dim_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
    }

    /// Reference checksums by definition: ascending-row weighted sums.
    pub(crate) fn ref_checksums(c: &Matrix) -> Matrix {
        let mut chk = Matrix::zeros(2, c.cols());
        for j in 0..c.cols() {
            let (mut s1, mut s2) = (0.0, 0.0);
            for (i, &v) in c.col(j).iter().enumerate() {
                s1 += v;
                s2 += (i + 1) as f64 * v;
            }
            chk.set(0, j, s1);
            chk.set(1, j, s2);
        }
        chk
    }

    /// Documented epsilon of the fused epilogue: summation order differs
    /// from a separate re-encoding pass, so agreement is to rounding —
    /// relative to the column's absolute mass, not bitwise.
    pub(crate) fn assert_chk_close(got: &Matrix, c: &Matrix, label: &str) {
        let want = ref_checksums(c);
        let m = c.rows() as f64;
        for j in 0..c.cols() {
            let scale: f64 = c.col(j).iter().map(|v| v.abs()).sum::<f64>() * m + 1.0;
            for r in 0..2 {
                let d = (got.get(r, j) - want.get(r, j)).abs();
                assert!(d <= 1e-12 * scale, "{label}: chk[{r},{j}] off by {d:e}");
            }
        }
    }

    #[test]
    fn fused_blocked_matches_plain_gemm_and_checksums() {
        // Big enough for the blocked engine, odd enough for edge tiles in
        // both directions, k crossing KC so the epilogue fires only on the
        // final slab.
        let (m, n, k) = (MC + 43, 77, KC + 7);
        assert!(use_blocked(m, n, k));
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let a_shape = ta.apply((m, k));
            let b_shape = tb.apply((k, n));
            let a = uniform(a_shape.0, a_shape.1, -1.0, 1.0, 21);
            let b = uniform(b_shape.0, b_shape.1, -1.0, 1.0, 22);
            let mut c = uniform(m, n, -1.0, 1.0, 23);
            let mut c_ref = c.clone();
            let mut chk = Matrix::zeros(2, n);
            gemm_fused(ta, tb, -0.7, &a, &b, 0.4, &mut c, &mut chk);
            gemm(ta, tb, -0.7, &a, &b, 0.4, &mut c_ref);
            // The product itself is bitwise-identical to the unfused engine:
            // the epilogue only reads.
            assert!(approx_eq(&c, &c_ref, 0.0), "ta={ta:?} tb={tb:?}");
            assert_chk_close(&chk, &c, "blocked");
        }
    }

    #[test]
    fn fused_small_path_takes_second_pass() {
        let (m, n, k) = (13, 9, 7);
        assert!(!use_blocked(m, n, k));
        let a = uniform(m, k, -1.0, 1.0, 24);
        let b = uniform(k, n, -1.0, 1.0, 25);
        let mut c = uniform(m, n, -1.0, 1.0, 26);
        let mut c_ref = c.clone();
        let mut chk = Matrix::zeros(2, n);
        gemm_fused(Trans::No, Trans::No, 1.1, &a, &b, -0.2, &mut c, &mut chk);
        gemm(Trans::No, Trans::No, 1.1, &a, &b, -0.2, &mut c_ref);
        assert!(approx_eq(&c, &c_ref, 0.0));
        assert_chk_close(&chk, &c, "small");
    }

    #[test]
    fn fused_degenerate_checksums_cover_beta_c() {
        // alpha == 0 and k == 0 leave beta·C; the checksums must describe it.
        let mut c = uniform(6, 4, -1.0, 1.0, 27);
        let a = Matrix::zeros(6, 0);
        let b = Matrix::zeros(0, 4);
        let mut chk = Matrix::zeros(2, 4);
        gemm_fused(Trans::No, Trans::No, 1.0, &a, &b, 0.5, &mut c, &mut chk);
        assert_chk_close(&chk, &c, "k=0");

        let a = uniform(6, 5, -1.0, 1.0, 28);
        let b = uniform(5, 4, -1.0, 1.0, 29);
        let c0 = c.clone();
        gemm_fused(Trans::No, Trans::No, 0.0, &a, &b, 1.0, &mut c, &mut chk);
        assert!(approx_eq(&c, &c0, 0.0));
        assert_chk_close(&chk, &c, "alpha=0");
    }
}
