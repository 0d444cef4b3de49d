//! Triangular solve with multiple right-hand sides.
//!
//! Solves with a triangle larger than [`TRSM_BASE`] recurse by halving the
//! triangle: solve with one diagonal sub-triangle, eliminate its contribution
//! from the remaining right-hand side with a rank update (`GEMM`, routed
//! through the blocked engine when large), then solve with the other
//! sub-triangle. The recursion bottoms out on a `TRSM_BASE × TRSM_BASE`
//! triangle solved column-by-column, so the bulk of the flops of a large
//! solve run at GEMM speed; one borrow of the pack arena, sized for the
//! largest rank update, serves the whole recursion. Small solves keep the
//! seed per-column substitution directly, and the few-row `X · Lᵀ = B` (the
//! `2 × B` checksum tile riding the panel solve) has a flat sweep of its own,
//! bit-identical to the recursion.

use crate::level1::axpy;
use crate::level2::trsv;
use hchol_matrix::{Diag, Matrix, Scalar, Side, Trans, Uplo};

use super::gemm::{gemm_views, MIN_BLOCKED_ROWS};
use super::pack::{MatMut, MatRef};
use super::workspace::{carve, lines, pack_lines, with_workspace, Line};

/// Triangle size at (or below) which solves run unblocked.
const TRSM_BASE: usize = 32;

/// Solve `op(A) · X = alpha · B` (`side = Left`) or `X · op(A) = alpha · B`
/// (`side = Right`) for `X`, overwriting `B`.
///
/// `A` is triangular per `uplo`/`diag`; only that triangle is referenced.
/// The panel solve of MAGMA's Cholesky — `A[j+1:N, j] := A[j+1:N, j] ·
/// (L[j,j]ᵀ)⁻¹` — is `trsm(Right, Lower, Trans::Yes, NonUnit, 1.0, L, panel)`.
pub fn trsm<S: Scalar>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: &Matrix<S>,
    b: &mut Matrix<S>,
) {
    assert!(a.is_square(), "trsm A must be square");
    let (m, n) = b.shape();
    match side {
        Side::Left => assert_eq!(a.rows(), m, "trsm Left dimension mismatch"),
        Side::Right => assert_eq!(a.rows(), n, "trsm Right dimension mismatch"),
    }
    if alpha != 1.0 {
        b.scale(S::from_f64(alpha));
    }
    if m == 0 || n == 0 {
        return;
    }
    // The few-row panel solve (the 2 × B checksum update) has its own sweep.
    if m < MIN_BLOCKED_ROWS && (side, uplo, trans) == (Side::Right, Uplo::Lower, Trans::Yes) {
        with_workspace(lines::<S>(m * n), |ws| right_lt_skinny(diag, a, b, ws));
        return;
    }
    solve_by_shape(side, uplo, trans, diag, a, b);
}

/// Every solve but the few-row `X · Lᵀ = B`: substitution on a small
/// triangle, the halving recursion on a large one.
fn solve_by_shape<S: Scalar>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    a: &Matrix<S>,
    b: &mut Matrix<S>,
) {
    let (m, n) = b.shape();
    // Small triangles use straight substitution.
    if a.rows() <= TRSM_BASE {
        match side {
            Side::Left => {
                for j in 0..n {
                    trsv(uplo, trans, diag, a, b.col_mut(j));
                }
            }
            Side::Right => right_solve(uplo, trans, diag, a, b),
        }
        return;
    }

    // op(A) is lower triangular either stored lower and used as-is, or
    // stored upper and used transposed.
    let eff_lower = matches!(
        (uplo, trans),
        (Uplo::Lower, Trans::No) | (Uplo::Upper, Trans::Yes)
    );
    let av = MatRef::new(a, trans);
    let bv = MatMut::new(b);
    // One arena borrow for the whole recursion, sized for its largest rank
    // update (the top-level split; deeper levels only shrink).
    let half = a.rows().div_ceil(2);
    match side {
        Side::Left => with_workspace(pack_lines::<S>(half, half, n), |ws| {
            left_rec(eff_lower, diag, &av, &bv, ws)
        }),
        Side::Right => with_workspace(pack_lines::<S>(m, half, half), |ws| {
            right_rec(eff_lower, diag, &av, &bv, ws)
        }),
    }
}

/// `X · Lᵀ = B` for a `B` of fewer than [`MIN_BLOCKED_ROWS`] rows (the
/// `2 × B` checksum tile of the panel solve MAGMA's Cholesky issues), `L`
/// stored lower: a right-looking sweep over *planar* rows of `X` —
/// de-interleaved into `ws` once, re-interleaved once — so step `k` is one
/// scale and then one vertical SIMD pass per row down the contiguous column
/// `L[k+1.., k]`, where the general path runs `n²/2` axpys over `m`-element
/// columns.
///
/// Same bits as [`solve_by_shape`]: `Lᵀ` is effectively *upper*, so there
/// `X[:,j]` receives `+= (−L[j,l])·X[:,l]` for `l < j` and is then scaled by
/// `1/L[j,j]` — and at every level (`right_rec`'s rank update of the right
/// half by the solved left half, `gemm_views_small` inside it, `right_base`,
/// `right_solve`) column `j` takes its contributions in ascending `l`, each
/// from an already final `X[:,l]`, skipping exact-zero coefficients. The
/// flat right-looking order hands every element the same operations in the
/// same order. That does **not** hold for an effectively lower triangle,
/// whose recursion solves the trailing half first and so applies a column's
/// contributions in two descending runs; this arm must not be widened to it.
fn right_lt_skinny<S: Scalar>(diag: Diag, l: &Matrix<S>, b: &mut Matrix<S>, ws: &mut [Line]) {
    let (m, n) = b.shape();
    let (x, _) = carve::<S>(ws, m * n);
    for (j, col) in b.as_slice().chunks_exact(m).enumerate() {
        for (r, &v) in col.iter().enumerate() {
            x[r * n + j] = v;
        }
    }
    for k in 0..n {
        let (pivot, below) = l.col(k)[k..].split_first().expect("k < n");
        // A unit diagonal is never referenced.
        let inv = (diag == Diag::NonUnit).then(|| S::ONE / *pivot);
        for row in x.chunks_exact_mut(n) {
            let (xk, rest) = row[k..].split_first_mut().expect("k < n");
            if let Some(inv) = inv {
                *xk *= inv;
            }
            let xk = *xk;
            for (xj, &ljk) in rest.iter_mut().zip(below) {
                let f = -ljk;
                let updated = *xj + f * xk;
                *xj = if f == S::ZERO { *xj } else { updated };
            }
        }
    }
    for (j, col) in b.as_mut_slice().chunks_exact_mut(m).enumerate() {
        for (r, v) in col.iter_mut().enumerate() {
            *v = x[r * n + j];
        }
    }
}

/// Copy the referenced triangle of the `op(A)` view into a dense matrix
/// (the recursion base solves on contiguous storage).
fn materialize_tri<S: Scalar>(av: &MatRef<'_, S>, eff_lower: bool) -> Matrix<S> {
    let nb = av.rows;
    let mut t = Matrix::zeros(nb, nb);
    for j in 0..nb {
        let range = if eff_lower { j..nb } else { 0..j + 1 };
        for i in range {
            t.set(i, j, av.get(i, j));
        }
    }
    t
}

/// Recursive solve `op(A) · X = B` on views; `av` is the effective triangle.
fn left_rec<S: Scalar>(
    eff_lower: bool,
    diag: Diag,
    av: &MatRef<'_, S>,
    b: &MatMut<S>,
    ws: &mut [Line],
) {
    let m = b.rows;
    if m <= TRSM_BASE {
        let t = materialize_tri(av, eff_lower);
        let eff_uplo = if eff_lower { Uplo::Lower } else { Uplo::Upper };
        for j in 0..b.cols {
            // SAFETY: columns are visited once; `b` is this solve's unique
            // view of the block.
            trsv(eff_uplo, Trans::No, diag, &t, unsafe { b.col_mut(j) });
        }
        return;
    }
    let m1 = m / 2;
    let m2 = m - m1;
    let n = b.cols;
    let a11 = av.sub(0, 0, m1, m1);
    let a22 = av.sub(m1, m1, m2, m2);
    let b1 = b.sub(0, 0, m1, n);
    let b2 = b.sub(m1, 0, m2, n);
    if eff_lower {
        left_rec(eff_lower, diag, &a11, &b1, ws);
        // B2 -= A21 · X1 (reads the rows just solved, writes the rest).
        // SAFETY: b1 rows [0, m1) are disjoint from b2 rows [m1, m).
        let x1 = unsafe { b1.as_ref() };
        gemm_views(-1.0, &av.sub(m1, 0, m2, m1), &x1, &b2, ws);
        left_rec(eff_lower, diag, &a22, &b2, ws);
    } else {
        left_rec(eff_lower, diag, &a22, &b2, ws);
        // B1 -= A12 · X2.
        // SAFETY: row ranges disjoint as above.
        let x2 = unsafe { b2.as_ref() };
        gemm_views(-1.0, &av.sub(0, m1, m1, m2), &x2, &b1, ws);
        left_rec(eff_lower, diag, &a11, &b1, ws);
    }
}

/// Recursive solve `X · op(A) = B` on views.
fn right_rec<S: Scalar>(
    eff_lower: bool,
    diag: Diag,
    av: &MatRef<'_, S>,
    b: &MatMut<S>,
    ws: &mut [Line],
) {
    let n = b.cols;
    if n <= TRSM_BASE {
        right_base(eff_lower, diag, av, b);
        return;
    }
    let n1 = n / 2;
    let n2 = n - n1;
    let m = b.rows;
    let a11 = av.sub(0, 0, n1, n1);
    let a22 = av.sub(n1, n1, n2, n2);
    let b1 = b.sub(0, 0, m, n1);
    let b2 = b.sub(0, n1, m, n2);
    if eff_lower {
        // X1·A11 + X2·A21 = B1;  X2·A22 = B2  →  X2 first.
        right_rec(eff_lower, diag, &a22, &b2, ws);
        // SAFETY: b2 cols [n1, n) are disjoint from b1 cols [0, n1).
        let x2 = unsafe { b2.as_ref() };
        gemm_views(-1.0, &x2, &av.sub(n1, 0, n2, n1), &b1, ws);
        right_rec(eff_lower, diag, &a11, &b1, ws);
    } else {
        // X1·A11 = B1;  X1·A12 + X2·A22 = B2  →  X1 first.
        right_rec(eff_lower, diag, &a11, &b1, ws);
        // SAFETY: column ranges disjoint as above.
        let x1 = unsafe { b1.as_ref() };
        gemm_views(-1.0, &x1, &av.sub(0, n1, n1, n2), &b2, ws);
        right_rec(eff_lower, diag, &a22, &b2, ws);
    }
}

/// Unblocked `X · T = B` where `T` is the effective triangle `av` (read in
/// place — only the referenced triangle and the diagonal are touched).
fn right_base<S: Scalar>(eff_lower: bool, diag: Diag, t: &MatRef<'_, S>, b: &MatMut<S>) {
    let n = b.cols;
    for step in 0..n {
        // Effective-lower T: column j of X depends on columns k > j
        // (backward); effective-upper: on k < j (forward).
        let (j, ks) = if eff_lower {
            (n - 1 - step, (n - step)..n)
        } else {
            (step, 0..step)
        };
        // SAFETY: col j accessed mutably, cols k ≠ j read-only; `b` is this
        // solve's unique view of the block.
        let dst = unsafe { b.col_mut(j) };
        for k in ks {
            let coef = t.get(k, j);
            if coef != S::ZERO {
                // SAFETY: k ≠ j, so this read-only view of col k cannot
                // alias `dst` (col j) — disjoint columns of the same block.
                let src = unsafe { &*b.col_mut(k) };
                axpy(-coef, src, dst);
            }
        }
        if diag == Diag::NonUnit {
            let inv = S::ONE / t.get(j, j);
            for x in dst.iter_mut() {
                *x *= inv;
            }
        }
    }
}

/// Column-oriented substitution for `X · op(A) = B` on whole small matrices.
fn right_solve<S: Scalar>(uplo: Uplo, trans: Trans, diag: Diag, a: &Matrix<S>, b: &mut Matrix<S>) {
    let n = b.cols();
    // Effective upper/lower structure of op(A):
    //   (Lower, No)  -> lower: X[:,j] depends on X[:,k], k > j  (backward)
    //   (Lower, Yes) -> upper: depends on k < j                (forward)
    //   (Upper, No)  -> upper: forward
    //   (Upper, Yes) -> lower: backward
    // op(A)[k, j] = A[k, j] untransposed, A[j, k] transposed.
    let forward = matches!(
        (uplo, trans),
        (Uplo::Lower, Trans::Yes) | (Uplo::Upper, Trans::No)
    );
    for step in 0..n {
        // Eliminate contributions from already-solved columns k.
        let (j, ks) = if forward {
            (step, 0..step)
        } else {
            (n - 1 - step, (n - step)..n)
        };
        for k in ks {
            let coef = match trans {
                Trans::No => a.get(k, j),
                Trans::Yes => a.get(j, k),
            };
            if coef != S::ZERO {
                let (src, dst) = b.col_pair_mut(k, j);
                axpy(-coef, src, dst);
            }
        }
        if diag == Diag::NonUnit {
            let d = a.get(j, j);
            let col = b.col_mut(j);
            let inv = S::ONE / d;
            for x in col {
                *x *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level3::gemm;
    use crate::level3::naive::tests::{assert_same_bits, skinny_grid};
    use hchol_matrix::generate::uniform;
    use hchol_matrix::{approx_eq, Matrix};

    /// Build a well-conditioned triangular matrix.
    fn tri(n: usize, uplo: Uplo, seed: u64) -> Matrix {
        let mut a = uniform(n, n, -0.5, 0.5, seed);
        for j in 0..n {
            for i in 0..n {
                let zero = match uplo {
                    Uplo::Lower => i < j,
                    Uplo::Upper => i > j,
                };
                if zero {
                    a.set(i, j, 0.0);
                }
            }
            a.set(j, j, 2.0 + j as f64 * 0.1);
        }
        a
    }

    /// Check `op(A)·X = alpha·B` or `X·op(A) = alpha·B` by reconstruction.
    fn check(side: Side, uplo: Uplo, trans: Trans, diag: Diag, m: usize, n: usize, tol: f64) {
        let asize = match side {
            Side::Left => m,
            Side::Right => n,
        };
        let mut a = tri(asize, uplo, 21);
        if diag == Diag::Unit {
            for j in 0..asize {
                a.set(j, j, f64::NAN); // must never be referenced
            }
        }
        let b0 = uniform(m, n, -1.0, 1.0, 22);
        let mut x = b0.clone();
        let alpha = 1.5;
        trsm(side, uplo, trans, diag, alpha, &a, &mut x);

        // Rebuild an explicit dense op(A) honoring Diag.
        let mut ad = a.clone();
        for j in 0..asize {
            if diag == Diag::Unit {
                ad.set(j, j, 1.0);
            }
        }
        let opa = match trans {
            Trans::No => ad.clone(),
            Trans::Yes => ad.transpose(),
        };
        let mut recon = Matrix::zeros(b0.rows(), b0.cols());
        match side {
            Side::Left => gemm(Trans::No, Trans::No, 1.0, &opa, &x, 0.0, &mut recon),
            Side::Right => gemm(Trans::No, Trans::No, 1.0, &x, &opa, 0.0, &mut recon),
        }
        let mut want = b0.clone();
        want.scale(alpha);
        assert!(
            approx_eq(&recon, &want, tol),
            "side={side:?} uplo={uplo:?} trans={trans:?} diag={diag:?} m={m} n={n}"
        );
    }

    /// The few-row `X · Lᵀ = B` arm against the general path it bypasses:
    /// same bits on every element, over triangles on both sides of
    /// `TRSM_BASE` (odd splits included) with exact and signed zeros below
    /// the diagonal — first with finite operands, where every bit must
    /// match, then with NaNs and infinities sprinkled over both operands,
    /// where an infinity beside a zero coefficient makes the skip rule
    /// observable.
    fn assert_skinny_matches_general_path<S: Scalar>() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for &n in skinny_grid() {
            let mut l = tri(n, Uplo::Lower, 50 + n as u64);
            for j in 0..n {
                for i in j + 1..n {
                    match (3 * i + 7 * j) % 5 {
                        0 => l.set(i, j, 0.0),
                        1 if i % 2 == 0 => l.set(i, j, -0.0),
                        _ => {}
                    }
                }
            }
            for m in 1..MIN_BLOCKED_ROWS {
                let mut rhs = uniform(m, n, -1.0, 1.0, 60 + m as u64);
                rhs.set(m / 2, n / 3, 0.0);
                rhs.set(m - 1, n / 2, -0.0);
                for non_finite in [false, true] {
                    let mut l = l.clone();
                    if non_finite {
                        for (t, &v) in specials.iter().enumerate() {
                            rhs.set(t % m, (5 * t + 1) % n, v);
                            if n > 1 {
                                let j = (2 * t) % (n - 1);
                                l.set(j + 1 + t % (n - 1 - j), j, v);
                            }
                        }
                    }
                    let (l, rhs): (Matrix<S>, Matrix<S>) = (l.cast(), rhs.cast());
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        for alpha in [-1.0, 1.0, 0.37, 0.0] {
                            let mut want = rhs.clone();
                            want.scale(S::from_f64(alpha));
                            solve_by_shape(
                                Side::Right,
                                Uplo::Lower,
                                Trans::Yes,
                                diag,
                                &l,
                                &mut want,
                            );
                            let mut got = rhs.clone();
                            trsm(
                                Side::Right,
                                Uplo::Lower,
                                Trans::Yes,
                                diag,
                                alpha,
                                &l,
                                &mut got,
                            );
                            let what = format!(
                                "m={m} n={n} {diag:?} alpha={alpha} non_finite={non_finite}"
                            );
                            assert_same_bits(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn skinny_right_lt_arm_is_bit_identical_to_general_path() {
        assert_skinny_matches_general_path::<f64>();
        assert_skinny_matches_general_path::<f32>();
    }

    #[test]
    fn all_combinations_reconstruct() {
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                for trans in [Trans::No, Trans::Yes] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        check(side, uplo, trans, diag, 4, 5, 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn recursive_path_reconstructs_all_combinations() {
        // Triangle well above TRSM_BASE with an odd size, so the recursion
        // splits unevenly and the rank updates hit the blocked GEMM.
        for side in [Side::Left, Side::Right] {
            let (m, n) = match side {
                Side::Left => (3 * TRSM_BASE + 5, 17),
                Side::Right => (17, 3 * TRSM_BASE + 5),
            };
            for uplo in [Uplo::Lower, Uplo::Upper] {
                for trans in [Trans::No, Trans::Yes] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        check(side, uplo, trans, diag, m, n, 1e-10);
                    }
                }
            }
        }
    }

    #[test]
    fn magma_panel_solve_shape() {
        // The exact call the Cholesky driver makes: panel (m x nb) times
        // inverse transpose of the factorized diagonal block (nb x nb).
        let nb = 3;
        let l = tri(nb, Uplo::Lower, 30);
        let panel0 = uniform(6, nb, -1.0, 1.0, 31);
        let mut panel = panel0.clone();
        trsm(
            Side::Right,
            Uplo::Lower,
            Trans::Yes,
            Diag::NonUnit,
            1.0,
            &l,
            &mut panel,
        );
        // panel * Lᵀ must reproduce panel0
        let lt = l.transpose();
        let mut recon = Matrix::zeros(6, nb);
        gemm(Trans::No, Trans::No, 1.0, &panel, &lt, 0.0, &mut recon);
        assert!(approx_eq(&recon, &panel0, 1e-12));
    }

    #[test]
    fn empty_rhs_is_noop() {
        let a = tri(3, Uplo::Lower, 40);
        let mut b = Matrix::zeros(0, 3);
        trsm(
            Side::Right,
            Uplo::Lower,
            Trans::Yes,
            Diag::NonUnit,
            1.0,
            &a,
            &mut b,
        );
        assert_eq!(b.shape(), (0, 3));
    }
}
