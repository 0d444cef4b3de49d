//! Property tests pinning the blocked level-3 engine to the naive seed
//! kernels at both precisions: for every operation, transposition, triangle,
//! side, and coefficient — across shapes straddling the micro-tile heights
//! and widths of every kernel table, the macro-tile (`MC`/`KC`), and the
//! empty/degenerate edges — the blocked result must agree with the naive one
//! to 1e-12 relative at f64 and to a few `k·ε` at f32.

use hchol_blas::level3::MC;
use hchol_blas::{gemm, naive_gemm, naive_syrk, syrk, trsm, trsv};
use hchol_matrix::generate::uniform;
use hchol_matrix::{DType, Diag, Matrix, Scalar, Side, Trans, Uplo};
use proptest::prelude::*;

/// Dimensions around every blocking boundary: 0 and 1, one either side of
/// each table's micro-tile edge (6, 8, 16, 32), mid-range odd sizes, and
/// `3·MC+7` (several macro stripes plus an edge, and past `KC`).
const SIZES: &[usize] = &[
    0,
    1,
    5,
    7,
    8,
    9,
    15,
    17,
    31,
    32,
    33,
    45,
    64,
    131,
    3 * MC + 7,
];

fn dim() -> impl Strategy<Value = usize> {
    (0..SIZES.len()).prop_map(|i| SIZES[i])
}

/// The spec's coefficient set: the two BLAS fast paths and a general value.
fn coeff() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), Just(-0.3)]
}

fn trans() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::No), Just(Trans::Yes)]
}

fn uplo() -> impl Strategy<Value = Uplo> {
    prop_oneof![Just(Uplo::Lower), Just(Uplo::Upper)]
}

fn side() -> impl Strategy<Value = Side> {
    prop_oneof![Just(Side::Left), Just(Side::Right)]
}

/// `max |x−y| / (1 + max |y|) ≤ tol`, elementwise over whole matrices.
fn rel_close<S: Scalar>(x: &Matrix<S>, y: &Matrix<S>, tol: f64) -> bool {
    assert_eq!(x.shape(), y.shape());
    let denom = 1.0
        + y.as_slice()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.to_f64().abs()));
    x.as_slice()
        .iter()
        .zip(y.as_slice())
        .all(|(a, b)| (a.to_f64() - b.to_f64()).abs() <= tol * denom)
}

/// Agreement bound for two summation orders of a length-`k` accumulation:
/// the long-standing 1e-12 at f64, `4·(k + 4)·ε` at f32.
fn tol<S: Scalar>(k: usize) -> f64 {
    match S::DTYPE {
        DType::F64 => 1e-12,
        DType::F32 => 4.0 * (k + 4) as f64 * S::EPSILON,
    }
}

/// Well-conditioned triangle for solves (diagonally dominant).
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
        a.set(j, j, 2.0 + 0.1 * (j % 7) as f64);
    }
    a
}

/// Naive TRSM reference built from the level-2 `trsv` alone: left side is a
/// solve per column; the right side solves the transposed system
/// `op(A)ᵀ·Xᵀ = alpha·Bᵀ` column-by-column.
fn reference_trsm<S: Scalar>(
    s: Side,
    up: Uplo,
    tr: Trans,
    dg: Diag,
    alpha: f64,
    a: &Matrix<S>,
    b: &mut Matrix<S>,
) {
    if alpha != 1.0 {
        b.scale(S::from_f64(alpha));
    }
    match s {
        Side::Left => {
            for j in 0..b.cols() {
                trsv(up, tr, dg, a, b.col_mut(j));
            }
        }
        Side::Right => {
            let flipped = match tr {
                Trans::No => Trans::Yes,
                Trans::Yes => Trans::No,
            };
            let mut bt = b.transpose();
            for j in 0..bt.cols() {
                trsv(up, flipped, dg, a, bt.col_mut(j));
            }
            *b = bt.transpose();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_gemm<S: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    ta: Trans,
    tb: Trans,
    alpha: f64,
    beta: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (ar, ac) = ta.apply((m, k));
    let (br, bc) = tb.apply((k, n));
    let a: Matrix<S> = uniform(ar, ac, -1.0, 1.0, seed).cast();
    let b: Matrix<S> = uniform(br, bc, -1.0, 1.0, seed + 1).cast();
    let mut c: Matrix<S> = uniform(m, n, -1.0, 1.0, seed + 2).cast();
    let mut c_ref = c.clone();
    gemm(ta, tb, alpha, &a, &b, beta, &mut c);
    naive_gemm(ta, tb, alpha, &a, &b, beta, &mut c_ref);
    prop_assert!(
        rel_close(&c, &c_ref, tol::<S>(k)),
        "{} m={m} n={n} k={k} ta={ta:?} tb={tb:?} alpha={alpha} beta={beta}",
        S::DTYPE
    );
    Ok(())
}

fn check_syrk<S: Scalar>(
    n: usize,
    k: usize,
    up: Uplo,
    tr: Trans,
    alpha: f64,
    beta: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (ar, ac) = tr.apply((n, k));
    let a: Matrix<S> = uniform(ar, ac, -1.0, 1.0, seed).cast();
    let mut c: Matrix<S> = uniform(n, n, -1.0, 1.0, seed + 1).cast();
    let mut c_ref = c.clone();
    syrk(up, tr, alpha, &a, beta, &mut c);
    naive_syrk(up, tr, alpha, &a, beta, &mut c_ref);
    // Naive comparison covers the opposite triangle too: both paths must
    // leave it exactly as it was.
    prop_assert!(
        rel_close(&c, &c_ref, tol::<S>(k)),
        "{} n={n} k={k} up={up:?} tr={tr:?} alpha={alpha} beta={beta}",
        S::DTYPE
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn check_trsm<S: Scalar>(
    asize: usize,
    other: usize,
    s: Side,
    up: Uplo,
    tr: Trans,
    dg: Diag,
    alpha: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let a: Matrix<S> = tri(asize, up, seed).cast();
    let (m, n) = match s {
        Side::Left => (asize, other),
        Side::Right => (other, asize),
    };
    let b0: Matrix<S> = uniform(m, n, -1.0, 1.0, seed + 1).cast();
    let mut x = b0.clone();
    let mut x_ref = b0.clone();
    trsm(s, up, tr, dg, alpha, &a, &mut x);
    reference_trsm(s, up, tr, dg, alpha, &a, &mut x_ref);
    prop_assert!(
        rel_close(&x, &x_ref, tol::<S>(asize)),
        "{} asize={asize} other={other} s={s:?} up={up:?} tr={tr:?} dg={dg:?} alpha={alpha}",
        S::DTYPE
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gemm_blocked_matches_naive(
        m in dim(), n in dim(), k in dim(),
        ta in trans(), tb in trans(),
        alpha in coeff(), beta in coeff(),
        seed in 0u64..1000,
    ) {
        check_gemm::<f64>(m, n, k, ta, tb, alpha, beta, seed)?;
        check_gemm::<f32>(m, n, k, ta, tb, alpha, beta, seed)?;
    }

    #[test]
    fn syrk_blocked_matches_naive(
        n in dim(), k in dim(),
        up in uplo(), tr in trans(),
        alpha in coeff(), beta in coeff(),
        seed in 0u64..1000,
    ) {
        check_syrk::<f64>(n, k, up, tr, alpha, beta, seed)?;
        check_syrk::<f32>(n, k, up, tr, alpha, beta, seed)?;
    }

    #[test]
    fn trsm_blocked_matches_trsv_reference(
        asize in dim(), other in dim(),
        s in side(), up in uplo(), tr in trans(),
        unit in any::<bool>(),
        alpha in coeff(),
        seed in 0u64..1000,
    ) {
        let dg = if unit { Diag::Unit } else { Diag::NonUnit };
        check_trsm::<f64>(asize, other, s, up, tr, dg, alpha, seed)?;
        check_trsm::<f32>(asize, other, s, up, tr, dg, alpha, seed)?;
    }
}
