//! Degenerate shapes: empty operands, 1×1 systems, single columns —
//! the boundaries where index arithmetic usually goes wrong.

use hchol_blas::level1::{asum, axpy, dot, iamax, nrm2, scal};
use hchol_blas::level2::{gemv, ger, trsv};
use hchol_blas::level3::{microkernel::tile_shape, KC, MC};
use hchol_blas::reference::ref_gemm;
use hchol_blas::{gemm, potf2, potrf_blocked, syrk, trsm};
use hchol_matrix::generate::uniform;
use hchol_matrix::{approx_eq, Diag, Matrix, Scalar, Side, Trans, Uplo};

#[test]
fn level1_on_empty_slices() {
    let mut y: Vec<f64> = vec![];
    axpy(2.0, &[], &mut y);
    assert_eq!(dot::<f64>(&[], &[]), 0.0);
    scal(3.0, &mut y);
    assert_eq!(iamax::<f64>(&[]), None);
    assert_eq!(nrm2::<f64>(&[]), 0.0);
    assert_eq!(asum::<f64>(&[]), 0.0);
}

#[test]
fn gemv_with_zero_dimensions() {
    // 0-column matrix: y = beta*y only.
    let a = Matrix::zeros(3, 0);
    let mut y = vec![2.0; 3];
    gemv(Trans::No, 1.0, &a, &[], 0.5, &mut y);
    assert_eq!(y, vec![1.0; 3]);
    // 0-row matrix: empty y.
    let a = Matrix::zeros(0, 3);
    let mut y: Vec<f64> = vec![];
    gemv(Trans::No, 1.0, &a, &[1.0, 2.0, 3.0], 1.0, &mut y);
}

#[test]
fn ger_with_empty_vectors() {
    let mut a = Matrix::<f64>::zeros(0, 0);
    ger(1.0, &[], &[], &mut a);
    let mut a = Matrix::filled(2, 0, 0.0);
    ger(1.0, &[1.0, 2.0], &[], &mut a);
}

#[test]
fn one_by_one_everything() {
    let a = Matrix::from_col_major(1, 1, vec![4.0]).unwrap();
    // trsv: 4x = 8 ⇒ x = 2
    let mut x = vec![8.0];
    trsv(Uplo::Lower, Trans::No, Diag::NonUnit, &a, &mut x);
    assert_eq!(x, vec![2.0]);
    // potf2: chol(4) = 2
    let mut c = a.clone();
    potf2(&mut c, 0).unwrap();
    assert_eq!(c.get(0, 0), 2.0);
    // gemm 1x1
    let mut out = Matrix::zeros(1, 1);
    gemm(Trans::No, Trans::No, 1.0, &a, &a, 0.0, &mut out);
    assert_eq!(out.get(0, 0), 16.0);
    // syrk 1x1
    let mut s = Matrix::zeros(1, 1);
    syrk(Uplo::Lower, Trans::No, 1.0, &a, 0.0, &mut s);
    assert_eq!(s.get(0, 0), 16.0);
    // trsm 1x1
    let mut b = Matrix::from_col_major(1, 1, vec![8.0]).unwrap();
    trsm(
        Side::Left,
        Uplo::Lower,
        Trans::No,
        Diag::NonUnit,
        1.0,
        &a,
        &mut b,
    );
    assert_eq!(b.get(0, 0), 2.0);
}

#[test]
fn single_column_rhs_trsm_equals_trsv() {
    let l =
        Matrix::from_col_major(3, 3, vec![2.0, 1.0, 3.0, 0.0, 4.0, 5.0, 0.0, 0.0, 6.0]).unwrap();
    let rhs: Vec<f64> = vec![2.0, -1.0, 5.0];
    let mut via_trsv = rhs.clone();
    trsv(Uplo::Lower, Trans::No, Diag::NonUnit, &l, &mut via_trsv);
    let mut via_trsm = Matrix::from_col_major(3, 1, rhs).unwrap();
    trsm(
        Side::Left,
        Uplo::Lower,
        Trans::No,
        Diag::NonUnit,
        1.0,
        &l,
        &mut via_trsm,
    );
    for (i, &v) in via_trsv.iter().enumerate() {
        assert!((via_trsm.get(i, 0) - v).abs() < 1e-14);
    }
}

#[test]
fn potrf_blocked_one_by_one_and_block_bigger_than_n() {
    let mut a = Matrix::from_col_major(1, 1, vec![9.0]).unwrap();
    potrf_blocked(&mut a, 64).unwrap();
    assert_eq!(a.get(0, 0), 3.0);

    let spd = hchol_matrix::generate::spd_diag_dominant(5, 1);
    let mut l1 = spd.clone();
    potrf_blocked(&mut l1, 999).unwrap(); // block ≫ n: single-tile path
    let mut l2 = spd.clone();
    potrf_blocked(&mut l2, 2).unwrap();
    assert!(approx_eq(&l1, &l2, 1e-12));
}

#[test]
fn gemm_outer_product_shape() {
    // (m×1)·(1×n): the thinnest possible inner dimension.
    let a = Matrix::from_col_major(3, 1, vec![1.0, 2.0, 3.0]).unwrap();
    let b = Matrix::from_col_major(1, 2, vec![10.0, 20.0]).unwrap();
    let mut c = Matrix::zeros(3, 2);
    gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
    assert_eq!(c.get(2, 1), 60.0);
    assert_eq!(c.get(0, 0), 10.0);
}

#[test]
fn syrk_zero_k_scales_only() {
    let a = Matrix::zeros(4, 0);
    let mut c = Matrix::filled(4, 4, 2.0);
    syrk(Uplo::Upper, Trans::No, 5.0, &a, 0.5, &mut c);
    assert_eq!(c.get(0, 3), 1.0, "upper scaled");
    assert_eq!(c.get(3, 0), 2.0, "lower untouched");
}

/// The blocked engine on shapes that are multiples of nothing — one past the
/// micro-tile in both directions, a ragged macro stripe, `k` just short of
/// and just past `KC` — against the textbook triple loop, for every
/// transposition and the alpha/beta fast paths, at precision `S`. Agreement
/// is to the accumulation's own round-off, `c·k·ε`.
fn blocked_gemm_on_ragged_shapes<S: Scalar>() {
    let (mr, nr) = tile_shape::<S>();
    let shapes = [
        (mr + 1, 5 * nr + 1, KC - 1),
        (MC + mr - 1, 2 * nr - 1, KC + 1),
        (2 * MC + 3, 37, 71),
    ];
    for (m, n, k) in shapes {
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            for (alpha, beta) in [(1.0, 0.0), (-1.0, 1.0), (0.7, -0.3), (0.0, 0.5)] {
                let (ar, ac) = ta.apply((m, k));
                let (br, bc) = tb.apply((k, n));
                let a: Matrix<S> = uniform(ar, ac, -1.0, 1.0, 51).cast();
                let b: Matrix<S> = uniform(br, bc, -1.0, 1.0, 52).cast();
                let mut c: Matrix<S> = uniform(m, n, -1.0, 1.0, 53).cast();
                let mut c_ref = c.clone();
                gemm(ta, tb, alpha, &a, &b, beta, &mut c);
                ref_gemm(ta, tb, alpha, &a, &b, beta, &mut c_ref);
                // |C| ≤ |beta| + |alpha|·k·E|ab| with E|ab| = 1/4.
                let scale = 1.0 + k as f64 / 4.0;
                let tol = 4.0 * k as f64 * S::EPSILON * scale;
                for (i, (x, y)) in c.as_slice().iter().zip(c_ref.as_slice()).enumerate() {
                    let d = (x.to_f64() - y.to_f64()).abs();
                    assert!(
                        d <= tol,
                        "{} {m}x{n}x{k} ta={ta:?} tb={tb:?} alpha={alpha} beta={beta}: \
                         element {i} off by {d:e} (tol {tol:e})",
                        S::DTYPE
                    );
                }
            }
        }
    }
}

#[test]
fn blocked_gemm_matches_reference_on_ragged_shapes_f64() {
    blocked_gemm_on_ragged_shapes::<f64>();
}

#[test]
fn blocked_gemm_matches_reference_on_ragged_shapes_f32() {
    blocked_gemm_on_ragged_shapes::<f32>();
}
