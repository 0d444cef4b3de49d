//! Property tests of the generalized m+1-checksum extension: with three
//! checksum rows, any one or two errors per column are corrected exactly,
//! and impossible syndromes are never silently accepted.

mod multichk;

use hchol_matrix::{approx_eq, Matrix};
use multichk::{encode_multi, verify_and_correct_multi};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |v| Matrix::from_col_major(rows, cols, v).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_single_error_corrected_with_three_rows(
        data in matrix(12, 6),
        row in 0usize..12,
        col in 0usize..6,
        delta in prop_oneof![0.01f64..50.0, -50.0f64..-0.01],
    ) {
        let truth = data.clone();
        let stored = encode_multi(&data, 2);
        let mut d = data;
        d.set(row, col, d.get(row, col) + delta);
        let recalc = encode_multi(&d, 2);
        let out = verify_and_correct_multi(&mut d, &stored, &recalc);
        prop_assert_eq!(out.single_corrected, 1);
        prop_assert_eq!(out.uncorrectable, 0);
        prop_assert!(approx_eq(&d, &truth, 1e-6));
    }

    #[test]
    fn any_double_error_corrected_with_three_rows(
        data in matrix(12, 6),
        r1 in 0usize..12,
        r2 in 0usize..12,
        col in 0usize..6,
        d1 in prop_oneof![0.5f64..50.0, -50.0f64..-0.5],
        d2 in prop_oneof![0.5f64..50.0, -50.0f64..-0.5],
    ) {
        prop_assume!(r1 != r2);
        let truth = data.clone();
        let stored = encode_multi(&data, 2);
        let mut d = data;
        d.set(r1, col, d.get(r1, col) + d1);
        d.set(r2, col, d.get(r2, col) + d2);
        let recalc = encode_multi(&d, 2);
        let out = verify_and_correct_multi(&mut d, &stored, &recalc);
        // A pair can degenerate to a single-error signature only if one of
        // the deltas is swamped; with both ≥ 0.5 it must resolve as a pair
        // (or, in rare ambiguous geometries, be flagged — never silently
        // wrong).
        if out.uncorrectable == 0 {
            prop_assert!(approx_eq(&d, &truth, 1e-6));
            prop_assert_eq!(out.single_corrected + out.double_corrected, 1);
        }
    }

    /// Corruption within the code's design distance (≤ 2 errors per column
    /// for m = 2) is restored or flagged; beyond it, the verifier must at
    /// least *notice* (three errors can alias to a valid two-error
    /// syndrome — no m+1-checksum code can prevent that — but they can
    /// never look like "nothing happened").
    #[test]
    fn corruption_is_never_invisible(
        data in matrix(10, 5),
        rows in proptest::collection::vec(0usize..10, 1..5),
        col in 0usize..5,
    ) {
        let mut distinct = rows.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let stored = encode_multi(&data, 2);
        let mut d = data.clone();
        for (i, &r) in distinct.iter().enumerate() {
            d.set(r, col, d.get(r, col) + 3.0 + i as f64);
        }
        let recalc = encode_multi(&d, 2);
        let out = verify_and_correct_multi(&mut d, &stored, &recalc);
        prop_assert!(!out.is_clean(), "corruption went entirely unnoticed");
        if distinct.len() <= 2 {
            let restored = approx_eq(&d, &data, 1e-6);
            prop_assert!(
                restored || out.uncorrectable > 0,
                "within-capability corruption silently mishandled: {out:?}"
            );
        }
    }
}
