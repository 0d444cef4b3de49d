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
        (Trans::Yes, Trans::No) => {
            for j in 0..n {
                let bcol = b.col(j);
                for i in 0..m {
                    let s = dot(a.col(i), bcol);
                    let v = c.get(i, j) + al * s;
                    c.set(i, j, v);
                }
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

/// [`nt_by_column`] for an `A` of exactly `M` rows, `M` below the blocked
/// engine's row floor (the `2 × B` checksum updates are `M = 2`), over
/// column-major storage: `a` is `M × k`, `b` is `n × k`, `c` is `M × n`.
/// With so few rows the column form is all loop overhead and stride-`n`
/// reads of `B`, so run `l` outermost and stream column `l` of `B` once,
/// contiguously, across every output column.
///
/// Each `C[r,j]` still receives `+= (al·b[j,l])·a[r,l]` for ascending `l`,
/// and a zero factor still leaves it untouched ([`axpy`]'s rule, which
/// keeps `-0.0` entries and non-finite `A` columns out of the sum — here a
/// select instead of a branch), so the result is bit-identical to the
/// column form.
///
/// `M` is a constant so the `M`-element column update unrolls, and the
/// function is kept out of line so its slice arguments keep their no-alias
/// guarantee; both are what lets the sweep over `j` vectorise (inlined into
/// the dispatcher it ran 2.4× slower).
#[inline(never)]
fn nt_skinny<S: Scalar, const M: usize>(al: S, n: usize, a: &[S], b: &[S], c: &mut [S]) {
    if n == 0 {
        return;
    }
    for (acol, bcol) in a.chunks_exact(M).zip(b.chunks_exact(n)) {
        let acol: &[S; M] = acol.try_into().expect("chunk of M");
        for (ccol, &bjl) in c.chunks_exact_mut(M).zip(bcol) {
            let ccol: &mut [S; M] = ccol.try_into().expect("chunk of M");
            let f = al * bjl;
            for r in 0..M {
                let updated = ccol[r] + f * acol[r];
                ccol[r] = if f == S::ZERO { ccol[r] } else { updated };
            }
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
mod tests {
    use super::*;
    use crate::reference::ref_gemm;
    use hchol_matrix::approx_eq;
    use hchol_matrix::generate::uniform;

    /// The skinny NT arm against the column form it replaces for m < 8:
    /// same bits on every output element, for ordinary values and for the
    /// zeros, signed zeros, NaNs and infinities that make the skip rule
    /// observable. (A NaN must meet a NaN; which NaN — sign and payload —
    /// depends on instruction operand order, which Rust leaves unspecified.)
    fn assert_skinny_matches_column_form<S: Scalar>() {
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for m in 1..=7usize {
            for (n, k) in [(1usize, 1usize), (5, 3), (9, 13), (33, 17)] {
                for alpha in [-1.0, 1.0, 0.37, 0.0] {
                    let mut a = uniform(m, k, -1.0, 1.0, 70 + m as u64);
                    let mut b = uniform(n, k, -1.0, 1.0, 80 + n as u64);
                    let mut c0 = uniform(m, n, -1.0, 1.0, 90 + k as u64);
                    // Sprinkle the special values over all three operands.
                    for (t, &v) in specials.iter().enumerate() {
                        a.set((t + 1) % m, (2 * t + 1) % k, v);
                        b.set((3 * t) % n, (t + 2) % k, v);
                        c0.set(t % m, (2 * t) % n, v);
                    }
                    let (a, b, c0): (Matrix<S>, Matrix<S>, Matrix<S>) =
                        (a.cast(), b.cast(), c0.cast());
                    let mut want = c0.clone();
                    nt_by_column(S::from_f64(alpha), &a, &b, &mut want);
                    let mut got = c0.clone();
                    naive_gemm_accum(Trans::No, Trans::Yes, alpha, &a, &b, &mut got);
                    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        assert!(
                            g.to_bits_u64() == w.to_bits_u64()
                                || (g.to_f64().is_nan() && w.to_f64().is_nan()),
                            "m={m} n={n} k={k} alpha={alpha} element {i}: {g:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn skinny_nt_arm_is_bit_identical_to_column_form() {
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
