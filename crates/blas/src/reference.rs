//! Naive reference implementations used only to validate the optimized
//! kernels (triple loops, no blocking, no tricks).

use hchol_matrix::{Matrix, Scalar, Trans};

/// Element of `op(A)`.
fn op_get<S: Scalar>(a: &Matrix<S>, trans: Trans, i: usize, j: usize) -> S {
    match trans {
        Trans::No => a.get(i, j),
        Trans::Yes => a.get(j, i),
    }
}

/// Reference GEMM: `C := alpha * op(A) * op(B) + beta * C`.
// lint:allow(dead-pub) reference oracle: the kernel property tests compare against it
pub fn ref_gemm<S: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
) {
    let (m, k) = trans_a.apply(a.shape());
    let (k2, n) = trans_b.apply(b.shape());
    assert_eq!(k, k2);
    assert_eq!(c.shape(), (m, n));
    let (al, be) = (S::from_f64(alpha), S::from_f64(beta));
    for j in 0..n {
        for i in 0..m {
            let mut s = S::ZERO;
            for l in 0..k {
                s += op_get(a, trans_a, i, l) * op_get(b, trans_b, l, j);
            }
            let v = al * s + be * c.get(i, j);
            c.set(i, j, v);
        }
    }
}

/// Reference matrix-vector product `y := alpha * op(A) * x + beta * y`.
// lint:allow(dead-pub) reference oracle: the kernel property tests compare against it
pub fn ref_gemv<S: Scalar>(
    trans: Trans,
    alpha: f64,
    a: &Matrix<S>,
    x: &[S],
    beta: f64,
    y: &mut [S],
) {
    let (m, n) = trans.apply(a.shape());
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), m);
    let (al, be) = (S::from_f64(alpha), S::from_f64(beta));
    for (i, yi) in y.iter_mut().enumerate() {
        let mut s = S::ZERO;
        for (j, xj) in x.iter().enumerate() {
            s += op_get(a, trans, i, j) * *xj;
        }
        *yi = al * s + be * *yi;
    }
}

/// Reference unblocked Cholesky (outer-product form, to cross-check the
/// inner-product `potf2`). Returns the lower factor as a new matrix.
// lint:allow(dead-pub) reference oracle: the kernel property tests compare against it
pub fn ref_cholesky<S: Scalar>(a: &Matrix<S>) -> Option<Matrix<S>> {
    assert!(a.is_square());
    let n = a.rows();
    let mut w = a.clone();
    for j in 0..n {
        let d = w.get(j, j);
        if d <= S::ZERO || !d.is_finite() {
            return None;
        }
        let ljj = d.sqrt();
        w.set(j, j, ljj);
        for i in (j + 1)..n {
            let v = w.get(i, j) / ljj;
            w.set(i, j, v);
        }
        for k in (j + 1)..n {
            for i in k..n {
                let v = w.get(i, k) - w.get(i, j) * w.get(k, j);
                w.set(i, k, v);
            }
        }
    }
    hchol_matrix::triangular::force_lower(&mut w);
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potrf::potf2;
    use hchol_matrix::generate::{spd_diag_dominant, uniform};
    use hchol_matrix::{approx_eq, Trans};

    #[test]
    fn ref_gemm_identity() {
        let a = uniform(3, 3, -1.0, 1.0, 1);
        let i = Matrix::identity(3);
        let mut c = Matrix::zeros(3, 3);
        ref_gemm(Trans::No, Trans::No, 1.0, &a, &i, 0.0, &mut c);
        assert!(approx_eq(&c, &a, 1e-15));
    }

    #[test]
    fn ref_gemv_matches_gemm_column() {
        let a = uniform(4, 3, -1.0, 1.0, 2);
        let x = [1.0, 2.0, 3.0];
        let mut y = vec![0.0; 4];
        ref_gemv(Trans::No, 1.0, &a, &x, 0.0, &mut y);
        let xm = Matrix::from_col_major(3, 1, x.to_vec()).unwrap();
        let mut c = Matrix::zeros(4, 1);
        ref_gemm(Trans::No, Trans::No, 1.0, &a, &xm, 0.0, &mut c);
        for (i, yi) in y.iter().enumerate() {
            assert!((yi - c.get(i, 0)).abs() < 1e-14);
        }
    }

    #[test]
    fn outer_and_inner_product_cholesky_agree() {
        let a = spd_diag_dominant(20, 3);
        let want = ref_cholesky(&a).unwrap();
        let mut got = a.clone();
        potf2(&mut got, 0).unwrap();
        hchol_matrix::triangular::force_lower(&mut got);
        assert!(approx_eq(&got, &want, 1e-11));
    }

    #[test]
    fn ref_cholesky_rejects_indefinite() {
        let mut a = Matrix::identity(3);
        a.set(2, 2, -4.0);
        assert!(ref_cholesky(&a).is_none());
    }
}
