//! Property-based tests (proptest) of the ABFT arithmetic invariants —
//! the contracts everything else in the system rests on.

use hchol_core::checksum::{encode, CHECKSUM_COUNT};
use hchol_core::chkops::{update_potf2, update_product, update_trsm};
use hchol_core::verify::{verify_and_correct, TileTolerance, VerifyPolicy};
use hchol_matrix::{approx_eq, Matrix, Trans};
use proptest::prelude::*;

/// Strategy: a matrix of the given shape with entries in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_col_major(rows, cols, v).unwrap())
}

/// Strategy: a well-conditioned lower-triangular matrix.
fn lower_tri(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |v| {
        let mut m = Matrix::from_col_major(n, n, v).unwrap();
        for j in 0..n {
            for i in 0..j {
                m.set(i, j, 0.0);
            }
            m.set(j, j, 2.0 + m.get(j, j).abs());
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode() is linear: chk(αA + B) = α·chk(A) + chk(B).
    #[test]
    fn encoding_is_linear(a in matrix(8, 8), b in matrix(8, 8), alpha in -3.0f64..3.0) {
        let mut combo = a.clone();
        combo.scale(alpha);
        combo.add_assign(&b);
        let lhs = encode(&combo);
        let mut rhs = encode(&a);
        rhs.scale(alpha);
        rhs.add_assign(&encode(&b));
        prop_assert!(approx_eq(&lhs, &rhs, 1e-9));
    }

    /// The product update rule preserves chk(X) = vᵀX for arbitrary
    /// operands (not just Cholesky-shaped ones).
    #[test]
    fn product_update_invariant(mut tgt in matrix(8, 8), src in matrix(8, 8)) {
        let mut chk = encode(&tgt);
        let chk_src = encode(&src);
        hchol_blas::gemm(Trans::No, Trans::Yes, -1.0, &src, &src, 1.0, &mut tgt);
        update_product(&mut chk, &chk_src, &src);
        prop_assert!(approx_eq(&chk, &encode(&tgt), 1e-7));
    }

    /// TRSM update preserves the invariant for any well-conditioned factor.
    #[test]
    fn trsm_update_invariant(mut panel in matrix(8, 8), la in lower_tri(8)) {
        let mut chk = encode(&panel);
        hchol_blas::trsm(
            hchol_matrix::Side::Right,
            hchol_matrix::Uplo::Lower,
            Trans::Yes,
            hchol_matrix::Diag::NonUnit,
            1.0,
            &la,
            &mut panel,
        );
        update_trsm(&mut chk, &la);
        prop_assert!(approx_eq(&chk, &encode(&panel), 1e-7));
    }

    /// `update_trsm ∘ encode == encode ∘ trsm` at every block size, on both
    /// sides of the solve's recursion base: the 2-row checksum solve and the
    /// b-row panel solve take different code paths (a planar sweep vs. the
    /// halving recursion) and must still agree to rounding. Off-diagonals
    /// shrink with b so the triangle stays well conditioned.
    #[test]
    fn trsm_update_commutes_with_encode_at_any_block_size(
        (mut panel, la) in (1usize..=100).prop_flat_map(|b| {
            let tame = lower_tri(b).prop_map(move |mut l| {
                for j in 0..b {
                    for i in j + 1..b {
                        l.set(i, j, l.get(i, j) / b as f64);
                    }
                }
                l
            });
            (matrix(b, b), tame)
        })
    ) {
        let mut chk = encode(&panel);
        hchol_blas::trsm(
            hchol_matrix::Side::Right,
            hchol_matrix::Uplo::Lower,
            Trans::Yes,
            hchol_matrix::Diag::NonUnit,
            1.0,
            &la,
            &mut panel,
        );
        update_trsm(&mut chk, &la);
        prop_assert!(approx_eq(&chk, &encode(&panel), 1e-7));
    }

    /// Algorithm 2 (POTF2 update) equals the TRSM transform algebraically.
    #[test]
    fn potf2_update_equals_trsm_form(chk0 in matrix(CHECKSUM_COUNT, 8), la in lower_tri(8)) {
        let mut via_alg2 = chk0.clone();
        update_potf2(&mut via_alg2, &la);
        let mut via_trsm = chk0.clone();
        update_trsm(&mut via_trsm, &la);
        prop_assert!(approx_eq(&via_alg2, &via_trsm, 1e-8));
    }

    /// Any single injected error per column is located and corrected
    /// exactly, wherever it lands.
    #[test]
    fn single_error_always_corrected(
        data in matrix(16, 8),
        row in 0usize..16,
        col in 0usize..8,
        delta in prop_oneof![0.001f64..100.0, -100.0f64..-0.001],
    ) {
        let truth = data.clone();
        let mut chk = encode(&data);
        let mut corrupted = data;
        corrupted.set(row, col, corrupted.get(row, col) + delta);
        let recalc = encode(&corrupted);
        let tol = TileTolerance::Fixed(VerifyPolicy::default());
        let out = verify_and_correct(&mut corrupted, &mut chk, &recalc, &tol);
        prop_assert_eq!(out.corrected_data, 1);
        prop_assert_eq!(out.uncorrectable_columns, 0);
        prop_assert!(approx_eq(&corrupted, &truth, 1e-7));
    }

    /// Bit flips above the mantissa tail are either corrected exactly or
    /// (for flips below the detection threshold) leave the data within the
    /// threshold of the truth — never silently large.
    #[test]
    fn bit_flip_corrected_or_negligible(
        data in matrix(16, 8),
        row in 0usize..16,
        col in 0usize..8,
        bit in 0u32..63,
    ) {
        let truth = data.clone();
        let mut chk = encode(&data);
        let mut corrupted = data;
        let v = corrupted.get(row, col);
        let flipped = hchol_matrix::bits::flip_bit(v, bit);
        prop_assume!(flipped.is_finite());
        corrupted.set(row, col, flipped);
        let recalc = encode(&corrupted);
        let tol = TileTolerance::Fixed(VerifyPolicy::default());
        let out = verify_and_correct(&mut corrupted, &mut chk, &recalc, &tol);
        // The contract is "never silently wrong": the flip is either
        // corrected (near-exact restore), negligible at checksum scale, or
        // explicitly flagged uncorrectable (top-exponent flips can overflow
        // the weighted checksum, making location impossible — the schemes
        // then restart).
        if out.uncorrectable_columns == 0 {
            let err = (corrupted.get(row, col) - truth.get(row, col)).abs();
            let scale = truth.get(row, col).abs().max(16.0 * 10.0);
            prop_assert!(
                err <= 1e-6 * scale.max(1.0),
                "bit {bit}: residual error {err}"
            );
        }
    }

    /// Errors in the stored checksum itself are repaired, never
    /// misattributed to (and "corrected" in) the data.
    #[test]
    fn checksum_corruption_never_touches_data(
        data in matrix(8, 8),
        which in 0usize..CHECKSUM_COUNT,
        col in 0usize..8,
        delta in prop_oneof![1.0f64..100.0, -100.0f64..-1.0],
    ) {
        let truth = data.clone();
        let mut chk = encode(&data);
        chk.set(which, col, chk.get(which, col) + delta);
        let mut d = data;
        let recalc = encode(&d);
        let tol = TileTolerance::Fixed(VerifyPolicy::default());
        let out = verify_and_correct(&mut d, &mut chk, &recalc, &tol);
        prop_assert_eq!(out.repaired_checksums, 1);
        prop_assert_eq!(out.corrected_data, 0);
        prop_assert!(approx_eq(&d, &truth, 0.0));
        // And the repair leaves the checksum consistent.
        prop_assert!(approx_eq(&chk, &encode(&truth), 1e-9));
    }
}
