//! Property tests: every optimized kernel agrees with the naive reference
//! implementation on arbitrary inputs, and algebraic identities hold.

use hchol_blas::level1;
use hchol_blas::level2::gemv;
use hchol_blas::reference::{ref_cholesky, ref_gemm, ref_gemv};
use hchol_blas::{gemm, potf2, syrk, trsm};
use hchol_matrix::{approx_eq, Diag, Matrix, Side, Trans, Uplo};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_col_major(rows, cols, v).unwrap())
}

fn trans() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::No), Just(Trans::Yes)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_matches_reference(
        ta in trans(),
        tb in trans(),
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed_a in matrix(7, 5),
        seed_b in matrix(5, 6),
        c0 in matrix(7, 6),
    ) {
        // Shape the stored operands to match the requested transpositions.
        let a = match ta { Trans::No => seed_a, Trans::Yes => seed_a.transpose() };
        let b = match tb { Trans::No => seed_b, Trans::Yes => seed_b.transpose() };
        let mut c_fast = c0.clone();
        let mut c_ref = c0;
        gemm(ta, tb, alpha, &a, &b, beta, &mut c_fast);
        ref_gemm(ta, tb, alpha, &a, &b, beta, &mut c_ref);
        prop_assert!(approx_eq(&c_fast, &c_ref, 1e-11));
    }

    #[test]
    fn gemv_matches_reference(
        t in trans(),
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        a in matrix(6, 4),
        x4 in proptest::collection::vec(-2.0f64..2.0, 4),
        x6 in proptest::collection::vec(-2.0f64..2.0, 6),
        y4 in proptest::collection::vec(-2.0f64..2.0, 4),
        y6 in proptest::collection::vec(-2.0f64..2.0, 6),
    ) {
        let (x, y0) = match t {
            Trans::No => (x4, y6),
            Trans::Yes => (x6, y4),
        };
        let mut y_fast = y0.clone();
        let mut y_ref = y0;
        gemv(t, alpha, &a, &x, beta, &mut y_fast);
        ref_gemv(t, alpha, &a, &x, beta, &mut y_ref);
        for (f, r) in y_fast.iter().zip(&y_ref) {
            prop_assert!((f - r).abs() < 1e-11);
        }
    }

    /// SYRK equals GEMM(A, Aᵀ) on the referenced triangle.
    #[test]
    fn syrk_matches_gemm_on_triangle(
        a in matrix(6, 4),
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        c0 in matrix(6, 6),
    ) {
        let mut c_syrk = c0.clone();
        syrk(Uplo::Lower, Trans::No, alpha, &a, beta, &mut c_syrk);
        let mut c_gemm = c0;
        gemm(Trans::No, Trans::Yes, alpha, &a, &a, beta, &mut c_gemm);
        for j in 0..6 {
            for i in j..6 {
                prop_assert!((c_syrk.get(i, j) - c_gemm.get(i, j)).abs() < 1e-11);
            }
        }
    }

    /// TRSM followed by multiplication with op(A) reconstructs alpha·B.
    #[test]
    fn trsm_solves_what_it_claims(
        b0 in matrix(5, 5),
        raw in matrix(5, 5),
        alpha in 0.5f64..2.0,
        t in trans(),
    ) {
        // Well-conditioned lower-triangular A.
        let mut l = raw;
        for j in 0..5 {
            for i in 0..j {
                l.set(i, j, 0.0);
            }
            l.set(j, j, 2.0 + l.get(j, j).abs());
        }
        let mut x = b0.clone();
        trsm(Side::Right, Uplo::Lower, t, Diag::NonUnit, alpha, &l, &mut x);
        let opa = match t { Trans::No => l.clone(), Trans::Yes => l.transpose() };
        let mut recon = Matrix::zeros(5, 5);
        gemm(Trans::No, Trans::No, 1.0, &x, &opa, 0.0, &mut recon);
        let mut want = b0;
        want.scale(alpha);
        prop_assert!(approx_eq(&recon, &want, 1e-9));
    }

    /// potf2 factors exactly what ref_cholesky factors, and L·Lᵀ = A.
    #[test]
    fn potf2_matches_reference_cholesky(g in matrix(6, 6)) {
        // Manufacture an SPD matrix.
        let mut a = Matrix::zeros(6, 6);
        gemm(Trans::No, Trans::Yes, 1.0, &g, &g, 0.0, &mut a);
        for i in 0..6 {
            let v = a.get(i, i) + 6.0;
            a.set(i, i, v);
        }
        let want = ref_cholesky(&a).expect("SPD by construction");
        let mut got = a.clone();
        potf2(&mut got, 0).expect("SPD by construction");
        hchol_matrix::triangular::force_lower(&mut got);
        prop_assert!(approx_eq(&got, &want, 1e-9));
    }

    /// Level-1 identities: dot is symmetric & bilinear; axpy is linear.
    #[test]
    fn level1_identities(
        x in proptest::collection::vec(-3.0f64..3.0, 17),
        y in proptest::collection::vec(-3.0f64..3.0, 17),
        alpha in -2.0f64..2.0,
    ) {
        let d1 = level1::dot(&x, &y);
        let d2 = level1::dot(&y, &x);
        prop_assert!((d1 - d2).abs() < 1e-10);
        // axpy then dot == dot + alpha * dot
        let mut y2 = y.clone();
        level1::axpy(alpha, &x, &mut y2);
        let lhs = level1::dot(&x, &y2);
        let rhs = level1::dot(&x, &y) + alpha * level1::dot(&x, &x);
        prop_assert!((lhs - rhs).abs() < 1e-8);
    }
}
