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

use crate::magma::BaselineReport;
use crate::ops::{self};
use crate::options::{AbftOptions, ChecksumPlacement};
use crate::plan::exec::ExecConfig;
use crate::schemes::AttemptCtx;
use crate::span_util::scope;
use hchol_faults::Injector;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::{ExecMode, SimContext};
use hchol_matrix::{Matrix, MatrixError};
use hchol_obs::Phase;

/// Relative inefficiency of the simulated CULA BLAS versus MAGMA's
/// (charged flops are inflated by this factor).
pub const CULA_FLOP_INFLATION: f64 = 1.18;

/// Run the simulated CULA factorization.
pub fn factor_cula(
    profile: &SystemProfile,
    mode: ExecMode,
    n: usize,
    b: usize,
    input: Option<&Matrix>,
) -> Result<BaselineReport, MatrixError> {
    let mut ctx = SimContext::new(profile.clone(), mode);
    ctx.disable_timeline();
    let run_span = ctx
        .obs
        .spans
        .open(format!("CULA n={n} b={b}"), Phase::Run, 0.0);
    let mut lay = scope!(
        ctx,
        "setup",
        Phase::Setup,
        ops::setup(&mut ctx, n, b, false, ChecksumPlacement::Gpu, input)
    )?;
    lay.flop_inflation = CULA_FLOP_INFLATION;
    // Fully synchronous driving: the Synchronous-style plan drains the
    // device after every step and runs POTF2 before the panel GEMM.
    let mut plan = crate::plan::for_cula(lay.nt);
    let mut inj = Injector::inert();
    let opts = AbftOptions::default();
    let mut a = AttemptCtx {
        ctx: &mut ctx,
        lay: &mut lay,
        inj: &mut inj,
        opts: &opts,
    };
    crate::plan::exec::run_attempt(&mut plan, &mut a, &ExecConfig::default(), None)?;
    let time = ctx.now();
    ctx.obs.spans.close(run_span, time.as_secs());
    let factor = ops::extract_factor(&ctx, &lay);
    Ok(BaselineReport {
        n,
        b,
        time,
        factor,
        ctx,
    })
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
