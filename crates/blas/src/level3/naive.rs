//! Naive (unblocked) level-3 kernels: the seed implementations, kept as the
//! small-size fallback of the blocked engine and as the baseline the
//! benchmarks and property tests compare against.
//!
//! Loop order is chosen per transposition so the innermost loop always runs
//! down a stored column (unit stride in column-major storage).

use super::gemm::MIN_BLOCKED_ROWS;
use crate::level1::{axpy, dot};
use hchol_matrix::{Matrix, Scalar, Trans, Uplo};

/// Naive `C := alpha * op(A) * op(B) + beta * C` (axpy/dot column loops).
///
/// Same contract as [`crate::gemm`]; exposed so benchmarks can measure the
/// blocked engine against the original kernel.
pub fn naive_gemm<S: Scalar>(
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

    super::gemm::apply_beta(beta, c.as_mut_slice());
    if alpha == 0.0 || k == 0 {
        return;
    }
    naive_gemm_accum(trans_a, trans_b, alpha, a, b, c);
}

/// The accumulation half of [`naive_gemm`] (`C += alpha * op(A) * op(B)`),
/// assuming shapes already validated and beta already applied.
pub(crate) fn naive_gemm_accum<S: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix<S>,
    b: &Matrix<S>,
    c: &mut Matrix<S>,
) {
    let m = c.rows();
    let n = c.cols();
    let al = S::from_f64(alpha);
    match (trans_a, trans_b) {
        // C[:,j] += alpha * Σ_l A[:,l] * B[l,j] — pure axpy form.
        (Trans::No, Trans::No) => {
            for j in 0..n {
                let bcol = b.col(j);
                let ccol = c.col_mut(j);
                for (l, &blj) in bcol.iter().enumerate() {
                    axpy(al * blj, a.col(l), ccol);
                }
            }
        }
        // B used transposed: B[l,j] = Bᵀ stored as b[j,l].
        // Few-row products (every m the blocked engine refuses whatever
        // the product's size) stream B instead — see `nt_skinny`.
        (Trans::No, Trans::Yes) => {
            const _: () = assert!(MIN_BLOCKED_ROWS == 8, "one skinny arm per m below it");
            let (a_s, b_s) = (a.as_slice(), b.as_slice());
            match m {
                1 => nt_skinny::<S, 1>(al, n, a_s, b_s, c.as_mut_slice()),
                2 => nt_skinny::<S, 2>(al, n, a_s, b_s, c.as_mut_slice()),
                3 => nt_skinny::<S, 3>(al, n, a_s, b_s, c.as_mut_slice()),
                4 => nt_skinny::<S, 4>(al, n, a_s, b_s, c.as_mut_slice()),
                5 => nt_skinny::<S, 5>(al, n, a_s, b_s, c.as_mut_slice()),
                6 => nt_skinny::<S, 6>(al, n, a_s, b_s, c.as_mut_slice()),
                7 => nt_skinny::<S, 7>(al, n, a_s, b_s, c.as_mut_slice()),
                _ => nt_by_column(al, a, b, c),
            }
        }
        // A used transposed: C[i,j] += alpha * dot(A[:,i], B[:,j]).
        // Few-row products (the 2 × B checksum encode / recalculation) run
        // several columns of B at once — see `tn_skinny`.
        (Trans::Yes, Trans::No) => {
            let (k, a_s, b_s) = (a.rows(), a.as_slice(), b.as_slice());
            match m {
                1 => tn_skinny::<S, 1>(al, k, a_s, b_s, c.as_mut_slice()),
                2 => tn_skinny::<S, 2>(al, k, a_s, b_s, c.as_mut_slice()),
                3 => tn_skinny::<S, 3>(al, k, a_s, b_s, c.as_mut_slice()),
                4 => tn_skinny::<S, 4>(al, k, a_s, b_s, c.as_mut_slice()),
                5 => tn_skinny::<S, 5>(al, k, a_s, b_s, c.as_mut_slice()),
                6 => tn_skinny::<S, 6>(al, k, a_s, b_s, c.as_mut_slice()),
                7 => tn_skinny::<S, 7>(al, k, a_s, b_s, c.as_mut_slice()),
                _ => tn_by_column(al, a, b, c),
            }
        }
        // Both transposed: C[i,j] += alpha * Σ_l a[l,i] * b[j,l].
        (Trans::Yes, Trans::Yes) => {
            for j in 0..n {
                for i in 0..m {
                    let acol = a.col(i);
                    let mut s = S::ZERO;
                    for (l, &ali) in acol.iter().enumerate() {
                        s += ali * b.get(j, l);
                    }
                    let v = c.get(i, j) + al * s;
                    c.set(i, j, v);
                }
            }
        }
    }
}

/// `C += al · A · Bᵀ`, one output column at a time: `k` axpys of `A`'s
/// columns into `C[:,j]`, reading row `j` of `B` with stride `n`.
fn nt_by_column<S: Scalar>(al: S, a: &Matrix<S>, b: &Matrix<S>, c: &mut Matrix<S>) {
    let k = a.cols();
    for j in 0..c.cols() {
        let ccol = c.col_mut(j);
        for l in 0..k {
            axpy(al * b.get(j, l), a.col(l), ccol);
        }
    }
}

/// Columns of `C` one [`nt_skinny`] pass keeps in planar rows on the stack.
const NT_BLOCK: usize = 256;

/// [`nt_by_column`] for an `A` of exactly `M` rows, `M` below the blocked
/// engine's row floor (the `2 × B` checksum updates are `M = 2`), over
/// column-major storage: `a` is `M × k`, `b` is `n × k`, `c` is `M × n`.
/// With so few rows the column form is all loop overhead and stride-`n`
/// reads of `B`, so run `l` outermost and stream column `l` of `B` once,
/// contiguously, across every output column — into *planar* rows of `C`
/// (de-interleaved once per [`NT_BLOCK`] columns, re-interleaved once), so
/// the sweep over `j` is plain vertical SIMD instead of a shuffle per
/// `M`-element column.
///
/// Each `C[r,j]` still receives `+= (al·b[j,l])·a[r,l]` for ascending `l`,
/// and a zero factor still leaves it untouched ([`axpy`]'s rule, which
/// keeps `-0.0` entries and non-finite `A` columns out of the sum — here a
/// select instead of a branch), so the result is bit-identical to the
/// column form.
///
/// `M` is a constant so the row loop unrolls, and the function is kept out
/// of line so its slice arguments keep their no-alias guarantee; both are
/// what lets the sweep over `j` vectorise (inlined into the dispatcher it
/// ran 2.4× slower).
#[inline(never)]
fn nt_skinny<S: Scalar, const M: usize>(al: S, n: usize, a: &[S], b: &[S], c: &mut [S]) {
    if n == 0 {
        return;
    }
    let mut rows = [[S::ZERO; NT_BLOCK]; M];
    for (blk, cblk) in c.chunks_mut(M * NT_BLOCK).enumerate() {
        let (j0, w) = (blk * NT_BLOCK, cblk.len() / M);
        for (j, ccol) in cblk.chunks_exact(M).enumerate() {
            for r in 0..M {
                rows[r][j] = ccol[r];
            }
        }
        for (acol, bcol) in a.chunks_exact(M).zip(b.chunks_exact(n)) {
            let bseg = &bcol[j0..j0 + w];
            for (row, &arl) in rows.iter_mut().zip(acol) {
                for (x, &bjl) in row[..w].iter_mut().zip(bseg) {
                    let f = al * bjl;
                    let updated = *x + f * arl;
                    *x = if f == S::ZERO { *x } else { updated };
                }
            }
        }
        for (j, ccol) in cblk.chunks_exact_mut(M).enumerate() {
            for r in 0..M {
                ccol[r] = rows[r][j];
            }
        }
    }
}

/// `C += al · Aᵀ · B`, one output element at a time: `C[i,j] += al ·
/// dot(A[:,i], B[:,j])`.
fn tn_by_column<S: Scalar>(al: S, a: &Matrix<S>, b: &Matrix<S>, c: &mut Matrix<S>) {
    for j in 0..c.cols() {
        let bcol = b.col(j);
        for i in 0..c.rows() {
            let v = c.get(i, j) + al * dot(a.col(i), bcol);
            c.set(i, j, v);
        }
    }
}

/// Columns of `B` one [`tn_skinny`] pass carries at once.
const TN_GROUP: usize = 8;

/// [`tn_by_column`] for an `A` of exactly `M` columns, `M` below the blocked
/// engine's row floor (the checksum encode / recalculation `Wᵀ · tile` is
/// `M = 2`), over column-major storage: `a` is `k × M`, `b` is `k × n`, `c`
/// is `M × n`.
///
/// One column's [`dot`] is latency-bound: its four lane accumulators are
/// four add chains `k/4` long, and a chain retires one add per add latency
/// however wide the machine is. So run [`TN_GROUP`] columns of `B` at once,
/// `M · TN_GROUP` independent sets of lanes, each keeping exactly `dot`'s
/// structure — four lanes over 4-row chunks, unfused `acc[l] += x[l]·y[l]`,
/// a scalar tail, `acc0 + acc1 + acc2 + acc3 + tail`, then `c + al·s` — so
/// every output element is bit-identical to the column form. The lane count
/// is `dot`'s fixed 4, never the running kernel table's `mr`: the bits must
/// not depend on the ISA. Columns past the last whole group go through
/// `dot` itself.
///
/// Out of line with slice arguments for the same reason as [`nt_skinny`].
#[inline(never)]
fn tn_skinny<S: Scalar, const M: usize>(al: S, k: usize, a: &[S], b: &[S], c: &mut [S]) {
    if k == 0 {
        return;
    }
    let acols: [&[S]; M] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let mut bgroups = b.chunks_exact(TN_GROUP * k);
    let mut cgroups = c.chunks_exact_mut(TN_GROUP * M);
    for (bg, cg) in bgroups.by_ref().zip(cgroups.by_ref()) {
        let bcols: [&[S]; TN_GROUP] = std::array::from_fn(|g| &bg[g * k..(g + 1) * k]);
        let mut acc = [[[S::ZERO; 4]; TN_GROUP]; M];
        for q in 0..k / 4 {
            // Load first, then a branch-free block of lane arithmetic: with
            // the chunk bounds checks interleaved the accumulators stay in
            // memory and nothing vectorises.
            let xs: [[S; 4]; M] = std::array::from_fn(|r| acols[r].as_chunks().0[q]);
            let ys: [[S; 4]; TN_GROUP] = std::array::from_fn(|g| bcols[g].as_chunks().0[q]);
            for r in 0..M {
                for g in 0..TN_GROUP {
                    for l in 0..4 {
                        acc[r][g][l] += xs[r][l] * ys[g][l];
                    }
                }
            }
        }
        for g in 0..TN_GROUP {
            for r in 0..M {
                let mut tail = S::ZERO;
                for i in k - k % 4..k {
                    tail += acols[r][i] * bcols[g][i];
                }
                let lanes = &acc[r][g];
                let s = lanes[0] + lanes[1] + lanes[2] + lanes[3] + tail;
                cg[g * M + r] += al * s;
            }
        }
    }
    let (brest, crest) = (bgroups.remainder(), cgroups.into_remainder());
    for (bcol, ccol) in brest.chunks_exact(k).zip(crest.chunks_exact_mut(M)) {
        for (cv, acol) in ccol.iter_mut().zip(acols) {
            *cv += al * dot(acol, bcol);
        }
    }
}

/// Naive `C := alpha * op(A) * op(A)ᵀ + beta * C` on the `uplo` triangle.
///
/// Same contract as [`crate::syrk`]; the blocked engine's small-size
/// fallback and the benchmark baseline.
pub fn naive_syrk<S: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
) {
    let (n, k) = trans.apply(a.shape());
    assert!(c.is_square(), "syrk C must be square");
    assert_eq!(c.rows(), n, "syrk C dimension mismatch");

    super::syrk::apply_beta_triangle(uplo, beta, c);
    if alpha == 0.0 || k == 0 {
        return;
    }
    naive_syrk_accum(uplo, trans, alpha, a, c);
}

/// The accumulation half of [`naive_syrk`], beta already applied.
pub(crate) fn naive_syrk_accum<S: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: &Matrix<S>,
    c: &mut Matrix<S>,
) {
    let (n, k) = trans.apply(a.shape());
    let al = S::from_f64(alpha);
    match trans {
        // C[i,j] += alpha * Σ_l A[i,l]·A[j,l]: axpy down each column segment.
        Trans::No => {
            for j in 0..n {
                for l in 0..k {
                    let ajl = a.get(j, l);
                    if ajl == S::ZERO {
                        continue;
                    }
                    let acol = a.col(l);
                    match uplo {
                        Uplo::Lower => {
                            let ccol = &mut c.col_mut(j)[j..];
                            axpy(al * ajl, &acol[j..], ccol);
                        }
                        Uplo::Upper => {
                            let ccol = &mut c.col_mut(j)[..=j];
                            axpy(al * ajl, &acol[..=j], ccol);
                        }
                    }
                }
            }
        }
        // op(A) = Aᵀ: C[i,j] += alpha * dot(A[:,i], A[:,j]).
        Trans::Yes => {
            for j in 0..n {
                let (lo, hi) = match uplo {
                    Uplo::Lower => (j, n),
                    Uplo::Upper => (0, j + 1),
                };
                let acj = a.col(j);
                for i in lo..hi {
                    let s = dot(a.col(i), acj);
                    let v = c.get(i, j) + al * s;
                    c.set(i, j, v);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference::ref_gemm;
    use hchol_matrix::approx_eq;
    use hchol_matrix::generate::uniform;

    /// Extents of the skinny-arm differential grids, here and in `trsm`:
    /// column groups and lane chunks with and without a remainder, both
    /// sides of `TRSM_BASE` and of the planar block (release only — the
    /// debug build stops at 33).
    pub(crate) fn skinny_grid() -> &'static [usize] {
        const GRID: [usize; 19] = [
            1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 250, 256, 300,
        ];
        if cfg!(debug_assertions) {
            &GRID[..14]
        } else {
            &GRID
        }
    }

    /// Same bits on every element, except that a NaN only has to meet a NaN:
    /// which NaN — sign and payload — depends on instruction operand order,
    /// which Rust leaves unspecified.
    pub(crate) fn assert_same_bits<S: Scalar>(got: &Matrix<S>, want: &Matrix<S>, what: &str) {
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                g.to_bits_u64() == w.to_bits_u64() || (g.to_f64().is_nan() && w.to_f64().is_nan()),
                "{what} element {i}: {g:?} vs {w:?}"
            );
        }
    }

    /// The skinny NT and TN arms against the column forms they replace for
    /// m < 8: same bits on every output element, for ordinary values and for
    /// the zeros, signed zeros, NaNs and infinities that make the NT skip
    /// rule observable. The TN case multiplies the transposed operands.
    fn assert_skinny_matches_column_form<S: Scalar>() {
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for &n in skinny_grid() {
            for &k in skinny_grid() {
                let mut b = uniform(n, k, -1.0, 1.0, 80 + n as u64);
                for (t, &v) in specials.iter().enumerate() {
                    b.set((3 * t) % n, (t + 2) % k, v);
                }
                let (b, bt): (Matrix<S>, Matrix<S>) = (b.cast(), b.transpose().cast());
                for m in 1..=7usize {
                    let mut a = uniform(m, k, -1.0, 1.0, 70 + m as u64);
                    let mut c0 = uniform(m, n, -1.0, 1.0, 90 + k as u64);
                    for (t, &v) in specials.iter().enumerate() {
                        a.set((t + 1) % m, (2 * t + 1) % k, v);
                        c0.set(t % m, (2 * t) % n, v);
                    }
                    let (a, at): (Matrix<S>, Matrix<S>) = (a.cast(), a.transpose().cast());
                    let c0: Matrix<S> = c0.cast();
                    for alpha in [-1.0, 1.0, 0.37, 0.0] {
                        let what = format!("m={m} n={n} k={k} alpha={alpha}");
                        let mut want = c0.clone();
                        nt_by_column(S::from_f64(alpha), &a, &b, &mut want);
                        let mut got = c0.clone();
                        naive_gemm_accum(Trans::No, Trans::Yes, alpha, &a, &b, &mut got);
                        assert_same_bits(&got, &want, &format!("NT {what}"));

                        let mut want = c0.clone();
                        tn_by_column(S::from_f64(alpha), &at, &bt, &mut want);
                        let mut got = c0.clone();
                        naive_gemm_accum(Trans::Yes, Trans::No, alpha, &at, &bt, &mut got);
                        assert_same_bits(&got, &want, &format!("TN {what}"));
                    }
                }
            }
        }
    }

    #[test]
    fn skinny_arms_are_bit_identical_to_column_forms() {
        assert_skinny_matches_column_form::<f64>();
        assert_skinny_matches_column_form::<f32>();
    }

    #[test]
    fn naive_gemm_matches_reference() {
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let a_shape = ta.apply((6, 4));
            let b_shape = tb.apply((4, 5));
            let a = uniform(a_shape.0, a_shape.1, -1.0, 1.0, 61);
            let b = uniform(b_shape.0, b_shape.1, -1.0, 1.0, 62);
            let mut c = uniform(6, 5, -1.0, 1.0, 63);
            let mut c_ref = c.clone();
            naive_gemm(ta, tb, 1.1, &a, &b, -0.7, &mut c);
            ref_gemm(ta, tb, 1.1, &a, &b, -0.7, &mut c_ref);
            assert!(approx_eq(&c, &c_ref, 1e-13), "ta={ta:?} tb={tb:?}");
        }
    }
}
