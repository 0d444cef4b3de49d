//! Solving SPD systems with the computed factor — the downstream use the
//! paper's introduction motivates (linear least squares, non-linear
//! optimization, Monte Carlo, Kalman filters).

use crate::options::AbftOptions;
use crate::schemes::{run_scheme, FactorOutcome, SchemeKind};
use hchol_blas::level2::trsv;
use hchol_faults::FaultPlan;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;
use hchol_matrix::{Diag, Matrix, MatrixError, Trans, Uplo};

/// Solve `A x = b` given the lower Cholesky factor `l` (`A = L·Lᵀ`):
/// forward substitution then back substitution. Returns `x`.
pub fn solve_with_factor(l: &Matrix, b: &[f64]) -> Vec<f64> {
    assert!(l.is_square(), "factor must be square");
    assert_eq!(l.rows(), b.len(), "rhs length mismatch");
    let mut x = b.to_vec();
    trsv(Uplo::Lower, Trans::No, Diag::NonUnit, l, &mut x);
    trsv(Uplo::Lower, Trans::Yes, Diag::NonUnit, l, &mut x);
    x
}

/// Solve `A X = B` column by column for a multi-RHS matrix `B`.
pub fn solve_many(l: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(l.rows(), b.rows(), "rhs rows mismatch");
    let mut x = b.clone();
    for j in 0..b.cols() {
        let col = x.col_mut(j);
        trsv(Uplo::Lower, Trans::No, Diag::NonUnit, l, col);
        trsv(Uplo::Lower, Trans::Yes, Diag::NonUnit, l, col);
    }
    x
}

/// One-call fault-tolerant solve (`dposv` with ABFT underneath): factor
/// `a` with Enhanced Online-ABFT on `system` and solve `A·x = rhs`.
///
/// `block` must divide `n`. Returns the solution and the factorization
/// report (timings, corrections, attempts). Any silent error injected by
/// `plan` — or, with a real device, striking the hardware — is corrected or
/// recovered before it can reach `x`.
///
/// ```
/// use hchol_core::options::AbftOptions;
/// use hchol_core::solve::ft_posv;
/// use hchol_faults::FaultPlan;
/// use hchol_gpusim::profile::SystemProfile;
/// use hchol_matrix::generate::spd_diag_dominant;
///
/// let a = spd_diag_dominant(32, 7);
/// let rhs = vec![1.0; 32];
/// let (x, report) = ft_posv(
///     &SystemProfile::test_profile(),
///     &a, &rhs, 8,
///     &AbftOptions::default(),
///     FaultPlan::none(),
/// ).unwrap();
/// assert_eq!(x.len(), 32);
/// assert_eq!(report.attempts, 1);
/// ```
// lint:allow(dead-pub) the one-call API README.md documents; its doctest runs it
pub fn ft_posv(
    system: &SystemProfile,
    a: &Matrix,
    rhs: &[f64],
    block: usize,
    opts: &AbftOptions,
    plan: FaultPlan,
) -> Result<(Vec<f64>, FactorOutcome), MatrixError> {
    let n = a.rows();
    let outcome = run_scheme(
        SchemeKind::Enhanced,
        system,
        ExecMode::Execute,
        n,
        block,
        opts,
        plan,
        Some(a),
    )?;
    let l = outcome
        .factor
        .as_ref()
        .expect("Execute mode always yields a factor");
    let x = solve_with_factor(l, rhs);
    Ok((x, outcome))
}

/// `log(det A)` from the factor: `2 Σ log l_ii`. Cheap and overflow-free —
/// the quantity Kalman filters and Gaussian likelihoods need.
// lint:allow(dead-pub) solve API beside ft_posv; factor_correctness checks it
pub fn log_det(l: &Matrix) -> f64 {
    (0..l.rows()).map(|i| l.get(i, i).ln()).sum::<f64>() * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_blas::potrf_blocked;
    use hchol_matrix::generate::spd_diag_dominant;

    fn factored(n: usize, seed: u64) -> (Matrix, Matrix) {
        let a = spd_diag_dominant(n, seed);
        let mut l = a.clone();
        potrf_blocked(&mut l, 8).unwrap();
        (a, l)
    }

    #[test]
    fn solve_recovers_known_solution() {
        let (a, l) = factored(24, 1);
        let x_true: Vec<f64> = (0..24).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let mut b = vec![0.0; 24];
        hchol_blas::gemv(Trans::No, 1.0, &a, &x_true, 0.0, &mut b);
        let x = solve_with_factor(&l, &b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn solve_many_matches_single() {
        let (a, l) = factored(16, 2);
        let b = hchol_matrix::generate::uniform(16, 3, -1.0, 1.0, 3);
        let x = solve_many(&l, &b);
        let _ = a;
        for j in 0..3 {
            let single = solve_with_factor(&l, b.col(j));
            for (i, s) in single.iter().enumerate() {
                assert!((x.get(i, j) - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ft_posv_end_to_end_under_fault() {
        let n = 64;
        let b = 16;
        let a = spd_diag_dominant(n, 9);
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut rhs = vec![0.0; n];
        hchol_blas::gemv(Trans::No, 1.0, &a, &x_true, 0.0, &mut rhs);
        let plan = hchol_faults::FaultPlan::paper_storage_error(n / b, b);
        let (x, report) = ft_posv(
            &hchol_gpusim::profile::SystemProfile::test_profile(),
            &a,
            &rhs,
            b,
            &AbftOptions::default(),
            plan,
        )
        .unwrap();
        assert_eq!(report.attempts, 1);
        assert_eq!(report.verify.corrected_data, 1);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn log_det_of_identity_is_zero() {
        let l = Matrix::identity(5);
        assert!(log_det(&l).abs() < 1e-15);
    }

    #[test]
    fn log_det_matches_diagonal_product() {
        let (_, l) = factored(12, 4);
        let direct: f64 = (0..12).map(|i| l.get(i, i)).product::<f64>().powi(2).ln();
        assert!((log_det(&l) - direct).abs() < 1e-9);
    }
}
