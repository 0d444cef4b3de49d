//! A simulated CULA R18 `dpotrf` baseline.
//!
//! The paper compares against the closed-source CULA library and finds its
//! Cholesky slower than MAGMA's (Figures 16/17). CULA's source is not
//! available, so this stand-in reproduces the two structural reasons a
//! vendor dense solver of that era trailed MAGMA (documented in DESIGN.md):
//!
//! 1. **No CPU/GPU overlap** — the diagonal round trip and POTF2 block the
//!    device (synchronous `cudaMemcpy`-style driving, one stream).
//! 2. **Less tuned BLAS-3 kernels** — modeled as a flat flop inflation on
//!    GPU kernels (CULA's kernels did not match MAGMA's autotuned DGEMM on
//!    these architectures).
//!
//! Only the *shape* claim depends on this baseline ("Enhanced Online-ABFT
//! is still faster than CULA"), not any absolute number.

use crate::magma::{run_baseline, Baseline, BaselineReport};
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;
use hchol_matrix::{Matrix, MatrixError};

/// Relative inefficiency of the simulated CULA BLAS versus MAGMA's
/// (charged flops are inflated by this factor).
pub const CULA_FLOP_INFLATION: f64 = 1.18;

/// Run the simulated CULA factorization: fully synchronous driving (the
/// Synchronous-style plan of [`crate::plan::for_cula`] runs POTF2 before
/// the panel GEMM, and a synchronous plan drains the device after every
/// host-blocking node) on inflated flops, timeline off.
pub fn factor_cula(
    profile: &SystemProfile,
    mode: ExecMode,
    n: usize,
    b: usize,
    input: Option<&Matrix>,
) -> Result<BaselineReport, MatrixError> {
    run_baseline(Baseline::Cula, profile, mode, n, b, input, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::magma::factor_magma;
    use hchol_blas::potrf::reconstruct_lower;
    use hchol_matrix::generate::spd_diag_dominant;
    use hchol_matrix::relative_residual;

    #[test]
    fn cula_is_numerically_correct() {
        let n = 32;
        let b = 8;
        let a = spd_diag_dominant(n, 20);
        let rep = factor_cula(
            &SystemProfile::test_profile(),
            ExecMode::Execute,
            n,
            b,
            Some(&a),
        )
        .unwrap();
        let l = rep.factor.unwrap();
        assert!(relative_residual(&reconstruct_lower(&l), &a) < 1e-12);
    }

    #[test]
    fn cula_is_slower_than_magma_on_both_systems() {
        for (profile, n, b) in [
            (SystemProfile::tardis(), 10240usize, 256usize),
            (SystemProfile::bulldozer64(), 10240, 512),
        ] {
            let magma = factor_magma(&profile, ExecMode::TimingOnly, n, b, None, false)
                .unwrap()
                .time
                .as_secs();
            let cula = factor_cula(&profile, ExecMode::TimingOnly, n, b, None)
                .unwrap()
                .time
                .as_secs();
            assert!(
                cula > magma * 1.08,
                "{}: cula {cula} vs magma {magma}",
                profile.name
            );
        }
    }
}
