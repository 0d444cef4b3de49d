//! Multithreaded kernel variants (feature `parallel`, on by default), built
//! on `std::thread::scope` — no external runtime.
//!
//! The simulated device charges time from its cost model, so these do not
//! change any experiment — they exist so that *real* wall-clock work
//! (Execute-mode tests, examples, and library users factoring actual
//! matrices) scales across host cores.
//!
//! Parallelism follows the blocked engine's macro-tiles: within each
//! `(jc, pc)` block the packed-B panel is shared read-only by the whole team
//! while `MC`-row stripes of `C` (each with its own packed-A buffer) are
//! dealt round-robin to the threads — stripes are disjoint, so no
//! synchronization is needed beyond the scope join. Small products and
//! single-core hosts fall through to the sequential engine.

use crate::level2::trsv;
use crate::level3::{
    apply_beta, carve, gemm, gemm_fused, kernel_table, lines, pack_a, pack_b, pack_lens, run_tiles,
    use_blocked, with_workspace, ChkAcc, MatMut, MatRef, KC, MC, NC,
};
use hchol_matrix::{Diag, Matrix, Scalar, Trans, Uplo};

/// Number of worker threads the host offers.
fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parallel `C := alpha·op(A)·op(B) + beta·C`.
///
/// Same contract and (to rounding) same result as [`crate::gemm`];
/// products too small for the blocked engine — or hosts with one core —
/// run the sequential kernel.
pub fn par_gemm<S: Scalar>(
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
    assert_eq!(ka, kb, "par_gemm inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "par_gemm output shape mismatch");
    let k = ka;

    let threads = max_threads().min(m.div_ceil(MC));
    if threads <= 1 || !use_blocked(m, n, k) || alpha == 0.0 || k == 0 {
        gemm(trans_a, trans_b, alpha, a, b, beta, c);
        return;
    }

    apply_beta(beta, c.as_mut_slice());
    let av = MatRef::new(a, trans_a);
    let bv = MatRef::new(b, trans_b);
    let cv = MatMut::new(c);
    par_macro_loop(alpha, &av, &bv, &cv, threads, &mut []);
}

/// [`par_gemm`] with an explicit team size instead of the host's core
/// count — the knob the kernel benchmarks sweep. `threads` is clamped to
/// the number of `MC` row stripes; `0` or `1` runs the sequential engine.
#[allow(clippy::too_many_arguments)]
pub fn par_gemm_with_threads<S: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
    threads: usize,
) {
    let (m, ka) = trans_a.apply(a.shape());
    let (kb, n) = trans_b.apply(b.shape());
    assert_eq!(ka, kb, "par_gemm inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "par_gemm output shape mismatch");
    let k = ka;

    let threads = threads.min(m.div_ceil(MC));
    if threads <= 1 || !use_blocked(m, n, k) || alpha == 0.0 || k == 0 {
        gemm(trans_a, trans_b, alpha, a, b, beta, c);
        return;
    }

    apply_beta(beta, c.as_mut_slice());
    let av = MatRef::new(a, trans_a);
    let bv = MatRef::new(b, trans_b);
    let cv = MatMut::new(c);
    par_macro_loop(alpha, &av, &bv, &cv, threads, &mut []);
}

/// Parallel [`crate::level3::gemm_fused`]: the product plus the two weighted
/// column checksums of the finished `C`, with per-thread epilogue
/// accumulators reduced after the macro-tile join.
#[allow(clippy::too_many_arguments)]
pub fn par_gemm_fused<S: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
    chk: &mut Matrix<S>,
) {
    par_gemm_fused_with_threads(trans_a, trans_b, alpha, a, b, beta, c, chk, max_threads());
}

/// [`par_gemm_fused`] with an explicit team size (see
/// [`par_gemm_with_threads`] for the clamping rules).
#[allow(clippy::too_many_arguments)]
pub fn par_gemm_fused_with_threads<S: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
    chk: &mut Matrix<S>,
    threads: usize,
) {
    let (m, ka) = trans_a.apply(a.shape());
    let (kb, n) = trans_b.apply(b.shape());
    assert_eq!(ka, kb, "par_gemm_fused inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "par_gemm_fused output shape mismatch");
    assert_eq!(
        chk.shape(),
        (2, n),
        "par_gemm_fused checksum shape mismatch"
    );
    let k = ka;

    let threads = threads.min(m.div_ceil(MC));
    if threads <= 1 || !use_blocked(m, n, k) || alpha == 0.0 || k == 0 {
        gemm_fused(trans_a, trans_b, alpha, a, b, beta, c, chk);
        return;
    }

    apply_beta(beta, c.as_mut_slice());
    let av = MatRef::new(a, trans_a);
    let bv = MatRef::new(b, trans_b);
    let cv = MatMut::new(c);
    let (mut v1, mut v2) = (vec![0.0; n], vec![0.0; n]);
    par_gemm_blocked_fused(alpha, &av, &bv, &cv, threads, &mut v1, &mut v2);
    for j in 0..n {
        chk.set(0, j, S::from_f64(v1[j]));
        chk.set(1, j, S::from_f64(v2[j]));
    }
}

/// Threaded macro-loop: identical blocking to the sequential engine, with
/// the `ic` stripe loop of each `(jc, pc)` block split across `threads`.
/// The caller's thread packs each B slab into its arena, every worker packs
/// its A stripes into its own. `tacc` holds one `(v1, v2)` epilogue accumulator
/// pair per worker (fused), or is empty (plain).
fn par_macro_loop<S: Scalar>(
    alpha: f64,
    a: &MatRef<'_, S>,
    b: &MatRef<'_, S>,
    c: &MatMut<S>,
    threads: usize,
    tacc: &mut [(Vec<f64>, Vec<f64>)],
) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let stripes = m.div_ceil(MC);
    let t = kernel_table::<S>();
    let (a_len, b_len) = pack_lens::<S>(m, k, n);
    with_workspace(lines::<S>(b_len), |ws| {
        let (packed_b, _) = carve::<S>(ws, b_len);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let last_slab = pc + kc == k;
                pack_b(&b.sub(pc, jc, kc, nc), t.nr, packed_b);
                let pb: &[S] = packed_b;
                let mut accs = tacc.iter_mut();
                std::thread::scope(|s| {
                    for tid in 0..threads {
                        let (a, c) = (*a, *c);
                        let mut acc = accs.next().filter(|_| last_slab);
                        s.spawn(move || {
                            with_workspace(lines::<S>(a_len), |ws| {
                                let (packed_a, _) = carve::<S>(ws, a_len);
                                // Round-robin stripe assignment: stripe si →
                                // thread si mod threads. Stripes are disjoint
                                // C row ranges.
                                let mut si = tid;
                                while si < stripes {
                                    let ic = si * MC;
                                    let mc = MC.min(m - ic);
                                    pack_a(&a.sub(ic, pc, mc, kc), t.mr, packed_a);
                                    let mut epi = acc.as_mut().map(|(v1, v2)| ChkAcc {
                                        row0: ic,
                                        col0: jc,
                                        v1: &mut v1[..],
                                        v2: &mut v2[..],
                                    });
                                    run_tiles(
                                        alpha,
                                        kc,
                                        packed_a,
                                        pb,
                                        &c.sub(ic, jc, mc, nc),
                                        epi.as_mut(),
                                    );
                                    si += threads;
                                }
                            });
                        });
                    }
                });
            }
        }
    });
}

/// [`par_macro_loop`] with the fused checksum epilogue: each thread owns a
/// private `v1`/`v2` pair that its stripes' final-slab read-backs accumulate
/// into, and the pairs are reduced (in thread order) into the caller's
/// vectors once every macro tile has joined.
fn par_gemm_blocked_fused<S: Scalar>(
    alpha: f64,
    a: &MatRef<'_, S>,
    b: &MatRef<'_, S>,
    c: &MatMut<S>,
    threads: usize,
    v1: &mut [f64],
    v2: &mut [f64],
) {
    let n = b.cols;
    let mut tacc: Vec<(Vec<f64>, Vec<f64>)> =
        (0..threads).map(|_| (vec![0.0; n], vec![0.0; n])).collect();
    par_macro_loop(alpha, a, b, c, threads, &mut tacc);
    for (tv1, tv2) in &tacc {
        for j in 0..n {
            v1[j] += tv1[j];
            v2[j] += tv2[j];
        }
    }
}

/// Parallel left-sided triangular solve `op(A)·X = alpha·B`: every column
/// of `B` is an independent `trsv`, dealt round-robin to the threads.
pub fn par_trsm_left<S: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: &Matrix<S>,
    b: &mut Matrix<S>,
) {
    assert!(a.is_square(), "par_trsm_left A must be square");
    assert_eq!(a.rows(), b.rows(), "par_trsm_left dimension mismatch");
    if alpha != 1.0 {
        apply_beta(alpha, b.as_mut_slice());
    }
    let n = b.cols();
    if b.rows() == 0 || n == 0 {
        return;
    }
    let threads = max_threads().min(n);
    if threads <= 1 {
        for j in 0..n {
            trsv(uplo, trans, diag, a, b.col_mut(j));
        }
        return;
    }
    let bv = MatMut::new(b);
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut j = t;
                while j < n {
                    // SAFETY: each column index is claimed by exactly one
                    // thread (j ≡ t mod threads) and columns are disjoint.
                    trsv(uplo, trans, diag, a, unsafe { bv.col_mut(j) });
                    j += threads;
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level3::gemm;
    use crate::level3::trsm;
    use hchol_matrix::generate::uniform;
    use hchol_matrix::{approx_eq, Matrix, Side};

    #[test]
    fn par_gemm_matches_sequential_all_transposes() {
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let a_shape = ta.apply((33, 17));
            let b_shape = tb.apply((17, 29));
            let a = uniform(a_shape.0, a_shape.1, -1.0, 1.0, 1);
            let b = uniform(b_shape.0, b_shape.1, -1.0, 1.0, 2);
            let mut c1 = uniform(33, 29, -1.0, 1.0, 3);
            let mut c2 = c1.clone();
            gemm(ta, tb, 1.3, &a, &b, 0.4, &mut c1);
            par_gemm(ta, tb, 1.3, &a, &b, 0.4, &mut c2);
            assert!(approx_eq(&c1, &c2, 1e-12), "ta={ta:?} tb={tb:?}");
        }
    }

    #[test]
    fn threaded_macro_loop_matches_sequential() {
        // Drive par_macro_loop directly with several threads so the
        // threaded path is exercised even on single-core CI hosts.
        let (m, n, k) = (2 * MC + 9, NC.min(80) + 7, KC + 5);
        let a = uniform(m, k, -1.0, 1.0, 6);
        let b = uniform(k, n, -1.0, 1.0, 7);
        let mut c1 = uniform(m, n, -1.0, 1.0, 8);
        let mut c2 = c1.clone();
        gemm(Trans::No, Trans::No, 0.9, &a, &b, -0.2, &mut c1);
        apply_beta(-0.2, c2.as_mut_slice());
        let av = MatRef::new(&a, Trans::No);
        let bv = MatRef::new(&b, Trans::No);
        let cv = MatMut::new(&mut c2);
        par_macro_loop(0.9, &av, &bv, &cv, 3, &mut []);
        assert!(approx_eq(&c1, &c2, 1e-12));
    }

    #[test]
    fn par_trsm_left_matches_sequential() {
        let n = 24;
        let mut l = uniform(n, n, -0.4, 0.4, 4);
        for j in 0..n {
            for i in 0..j {
                l.set(i, j, 0.0);
            }
            l.set(j, j, 3.0);
        }
        let b0 = uniform(n, 9, -1.0, 1.0, 5);
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            Diag::NonUnit,
            2.0,
            &l,
            &mut b1,
        );
        par_trsm_left(Uplo::Lower, Trans::No, Diag::NonUnit, 2.0, &l, &mut b2);
        assert!(approx_eq(&b1, &b2, 1e-12));
    }

    #[test]
    fn par_gemm_fused_matches_sequential_across_thread_counts() {
        // Checksum accumulation is per-thread and reduced at the join; every
        // team size must agree with the sequential fused engine to rounding.
        let (m, n, k) = (2 * MC + 9, 60, KC + 5);
        let a = uniform(m, k, -1.0, 1.0, 31);
        let b = uniform(k, n, -1.0, 1.0, 32);
        let c0 = uniform(m, n, -1.0, 1.0, 33);
        let mut c_ref = c0.clone();
        let mut chk_ref = Matrix::zeros(2, n);
        gemm_fused(
            Trans::No,
            Trans::No,
            0.9,
            &a,
            &b,
            -0.2,
            &mut c_ref,
            &mut chk_ref,
        );
        for threads in [1, 2, 3, 4] {
            let mut c = c0.clone();
            let mut chk = Matrix::zeros(2, n);
            par_gemm_fused_with_threads(
                Trans::No,
                Trans::No,
                0.9,
                &a,
                &b,
                -0.2,
                &mut c,
                &mut chk,
                threads,
            );
            assert!(approx_eq(&c, &c_ref, 0.0), "threads={threads}");
            assert!(approx_eq(&chk, &chk_ref, 1e-10), "threads={threads}");
        }
    }

    #[test]
    fn par_gemm_fused_transposes_match_reference() {
        for (ta, tb) in [
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let (m, n, k) = (MC + 11, 47, KC + 3);
            let a_shape = ta.apply((m, k));
            let b_shape = tb.apply((k, n));
            let a = uniform(a_shape.0, a_shape.1, -1.0, 1.0, 34);
            let b = uniform(b_shape.0, b_shape.1, -1.0, 1.0, 35);
            let mut c = uniform(m, n, -1.0, 1.0, 36);
            let mut c_ref = c.clone();
            let mut chk = Matrix::zeros(2, n);
            let mut chk_ref = Matrix::zeros(2, n);
            par_gemm_fused_with_threads(ta, tb, 1.2, &a, &b, 0.3, &mut c, &mut chk, 3);
            gemm_fused(ta, tb, 1.2, &a, &b, 0.3, &mut c_ref, &mut chk_ref);
            assert!(approx_eq(&c, &c_ref, 0.0), "ta={ta:?} tb={tb:?}");
            assert!(approx_eq(&chk, &chk_ref, 1e-10), "ta={ta:?} tb={tb:?}");
        }
    }

    #[test]
    fn par_gemm_with_threads_matches_sequential() {
        let (m, n, k) = (2 * MC + 1, 52, KC + 9);
        let a = uniform(m, k, -1.0, 1.0, 37);
        let b = uniform(k, n, -1.0, 1.0, 38);
        let mut c1 = uniform(m, n, -1.0, 1.0, 39);
        let mut c2 = c1.clone();
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c1);
        par_gemm_with_threads(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c2, 4);
        assert!(approx_eq(&c1, &c2, 1e-12));
    }

    #[test]
    fn par_gemm_beta_zero_clears_nan() {
        let a = Matrix::identity(4);
        let b = Matrix::identity(4);
        let mut c = Matrix::filled(4, 4, f64::NAN);
        par_gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(approx_eq(&c, &Matrix::identity(4), 0.0));
    }
}
