//! Property tests of the storage layer: layout round trips, tile
//! partitioning, norms, and bit manipulation.

use hchol_matrix::{bits, norms, Matrix, TileMatrix};
use proptest::prelude::*;

fn matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |v| Matrix::from_col_major(r, c, v).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_major_col_major_agree(m in matrix(9)) {
        let mut row_major = Vec::new();
        for i in 0..m.rows() {
            row_major.extend(m.row(i));
        }
        let back = Matrix::from_row_major(m.rows(), m.cols(), &row_major).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn transpose_is_involutive_and_preserves_norms(m in matrix(9)) {
        let t = m.transpose();
        prop_assert_eq!(t.transpose(), m.clone());
        prop_assert!((norms::frobenius(&t) - norms::frobenius(&m)).abs() < 1e-9);
    }

    #[test]
    fn tile_roundtrip_any_block_size(m in matrix(12), b in 1usize..15) {
        let t = TileMatrix::from_dense(&m, b).unwrap();
        prop_assert_eq!(t.to_dense(), m.clone());
        // Global accessors agree with the dense original.
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                prop_assert_eq!(t.get(i, j), m.get(i, j));
            }
        }
    }

    #[test]
    fn tile_set_then_to_dense(m in matrix(8), b in 1usize..10, v in -5.0f64..5.0) {
        let mut t = TileMatrix::from_dense(&m, b).unwrap();
        let (i, j) = (m.rows() - 1, m.cols() - 1);
        t.set(i, j, v);
        let d = t.to_dense();
        prop_assert_eq!(d.get(i, j), v);
        // Everything else untouched.
        let mut expect = m.clone();
        expect.set(i, j, v);
        prop_assert_eq!(d, expect);
    }

    #[test]
    fn sub_matrix_set_sub_matrix_roundtrip(
        m in matrix(10),
        frac_r in 0.0f64..1.0,
        frac_c in 0.0f64..1.0,
    ) {
        let r0 = (frac_r * (m.rows() - 1) as f64) as usize;
        let c0 = (frac_c * (m.cols() - 1) as f64) as usize;
        let nr = m.rows() - r0;
        let nc = m.cols() - c0;
        let block = m.sub_matrix(r0, c0, nr, nc);
        let mut copy = m.clone();
        copy.set_sub_matrix(r0, c0, &block);
        prop_assert_eq!(copy, m);
    }

    #[test]
    fn norm_inequalities_hold(m in matrix(9)) {
        // max ≤ fro; fro² ≤ one·inf·... use the standard bound
        // max |a_ij| ≤ ‖A‖_F and ‖A‖_F ≤ sqrt(rank) bounds get complex —
        // test the simple, always-true ones.
        let fro = norms::frobenius(&m);
        let max = m.as_slice().iter().fold(0.0f64, |a, x| a.max(x.abs()));
        prop_assert!(max <= fro + 1e-12);
        let elems = (m.rows() * m.cols()) as f64;
        prop_assert!(fro <= max * elems.sqrt() + 1e-9);
    }

    #[test]
    fn bit_flips_are_involutive_everywhere(x in any::<f64>(), bit in 0u32..64) {
        prop_assume!(!x.is_nan());
        let y = bits::flip_bit(x, bit);
        prop_assert_eq!(bits::flip_bit(y, bit).to_bits(), x.to_bits());
        prop_assert_eq!(bits::hamming(x, y), 1);
    }

    #[test]
    fn symmetrize_is_idempotent(m in matrix(8)) {
        prop_assume!(m.is_square());
        let mut a = m.clone();
        a.symmetrize();
        let mut b = a.clone();
        b.symmetrize();
        prop_assert_eq!(a, b);
    }
}
