//! The MAGMA-style hybrid Cholesky baseline (Algorithm 1 of the paper) —
//! no fault tolerance, maximal overlap.
//!
//! Per block column `j`:
//!
//! 1. `[GPU]` SYRK updates the diagonal block;
//! 2. the diagonal block rides the transfer stream to the host;
//! 3. `[GPU]` the big panel GEMM is enqueued (it keeps the GPU busy);
//! 4. `[CPU]` POTF2 factors the diagonal block **while the GEMM runs** —
//!    this is the overlap Figure 1 of the paper illustrates;
//! 5. the factorized block returns to the device;
//! 6. `[GPU]` TRSM solves the panel (ordered after the return transfer via
//!    an event).
//!
//! [`factor_outer`] runs the right-looking (outer-product) form on the same
//! executor: the form MAGMA rejected, measured against this one by the
//! `ablation_variant` experiment (PAPER.md §II-A).

use crate::cula::CULA_FLOP_INFLATION;
use crate::ops;
use crate::options::{AbftOptions, ChecksumPlacement};
use crate::plan::FactorPlan;
use crate::span_util::scope;
use hchol_faults::Injector;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::{ExecMode, SimContext, SimTime};
use hchol_matrix::{Matrix, MatrixError};
use hchol_obs::{Phase, RunReport};

/// Result of a baseline (non-fault-tolerant) factorization.
pub struct BaselineReport {
    /// Matrix size.
    pub n: usize,
    /// Block size.
    pub b: usize,
    /// Total virtual time.
    pub time: SimTime,
    /// The lower factor (Execute mode only).
    pub factor: Option<Matrix>,
    /// The simulation context (op log, observability state) for
    /// inspection.
    pub ctx: SimContext,
}

impl BaselineReport {
    /// Achieved GFLOP/s on the canonical `n³/3` Cholesky flop count.
    pub fn gflops(&self, n: usize) -> f64 {
        let f = (n as f64).powi(3) / 3.0;
        f / self.time.as_secs() / 1e9
    }

    /// Export the run as a structured [`RunReport`] named `name` (e.g.
    /// `"MAGMA hybrid"`), with config, per-phase virtual-time totals,
    /// metrics, and the span tree.
    pub fn report(&self, name: &str) -> RunReport {
        let mut r = RunReport::new(
            name,
            &self.ctx.profile().name,
            &format!("{:?}", self.ctx.mode),
            self.time.as_secs(),
            &self.ctx.obs,
        );
        r.config_kv("n", self.n);
        r.config_kv("block", self.b);
        r
    }
}

/// The non-fault-tolerant baselines [`run_baseline`] drives.
pub(crate) enum Baseline {
    Magma,
    Cula,
    Outer,
}

/// Run a baseline: its bare task-graph plan driven by the plan executor
/// with an inert fault injector.
pub(crate) fn run_baseline(
    which: Baseline,
    profile: &SystemProfile,
    mode: ExecMode,
    n: usize,
    b: usize,
    input: Option<&Matrix>,
    record_timeline: bool,
) -> Result<BaselineReport, MatrixError> {
    // Everything that tells the baselines apart: the run-span label, the
    // plan (overlapped, fully synchronous or right-looking) and the factor
    // on every charged flop.
    let (label, plan, flop_inflation): (_, fn(usize) -> FactorPlan, _) = match which {
        Baseline::Magma => ("MAGMA", crate::plan::for_magma, 1.0),
        Baseline::Cula => ("CULA", crate::plan::for_cula, CULA_FLOP_INFLATION),
        Baseline::Outer => ("Outer", crate::plan::for_outer, 1.0),
    };
    let mut ctx = SimContext::new(profile.clone(), mode);
    if !record_timeline {
        ctx.disable_timeline();
    }
    let run_span = ctx
        .obs
        .spans
        .open(format!("{label} n={n} b={b}"), Phase::Run, 0.0);
    let mut lay = scope!(
        ctx,
        "setup",
        Phase::Setup,
        ops::setup(&mut ctx, n, b, false, ChecksumPlacement::Gpu, input)
    )?;
    lay.flop_inflation = flop_inflation;
    let mut plan = plan(lay.nt);
    let (inj, opts) = (&mut Injector::inert(), &AbftOptions::default());
    crate::plan::exec::run_attempt(&mut ctx, &mut plan, &mut lay, inj, opts, None)?;
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

/// Run the full MAGMA-style factorization: the bare Algorithm-1 task-graph
/// plan ([`crate::plan::for_magma`]).
///
/// `input` must be `Some` in Execute mode. `record_timeline` keeps the full
/// trace (for Figure-1-style charts).
pub fn factor_magma(
    profile: &SystemProfile,
    mode: ExecMode,
    n: usize,
    b: usize,
    input: Option<&Matrix>,
    record_timeline: bool,
) -> Result<BaselineReport, MatrixError> {
    run_baseline(Baseline::Magma, profile, mode, n, b, input, record_timeline)
}

/// Run the right-looking (outer-product) hybrid factorization: the plan of
/// [`crate::plan::for_outer`], no fault tolerance. Arguments as for
/// [`factor_magma`].
pub fn factor_outer(
    profile: &SystemProfile,
    mode: ExecMode,
    n: usize,
    b: usize,
    input: Option<&Matrix>,
    record_timeline: bool,
) -> Result<BaselineReport, MatrixError> {
    run_baseline(Baseline::Outer, profile, mode, n, b, input, record_timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{NodeId, TaskKind};
    use hchol_blas::potrf::reconstruct_lower;
    use hchol_gpusim::TraceAction;
    use hchol_matrix::generate::spd_diag_dominant;
    use hchol_matrix::relative_residual;

    #[test]
    fn factor_is_numerically_correct() {
        let n = 48;
        let b = 8;
        let a = spd_diag_dominant(n, 10);
        let rep = factor_magma(
            &SystemProfile::test_profile(),
            ExecMode::Execute,
            n,
            b,
            Some(&a),
            false,
        )
        .unwrap();
        let l = rep.factor.unwrap();
        assert!(relative_residual(&reconstruct_lower(&l), &a) < 1e-12);
    }

    #[test]
    fn potf2_overlaps_gemm() {
        // With timeline on, the host POTF2 interval must overlap a GPU GEMM
        // interval somewhere in the run.
        let rep = factor_magma(
            &SystemProfile::tardis(),
            ExecMode::TimingOnly,
            4096,
            256,
            None,
            true,
        )
        .unwrap();
        let plan = crate::plan::for_magma(4096 / 256);
        let (log, plan) = (&rep.ctx.log, &plan);
        let ops_of = |pick: fn(&TaskKind) -> bool| {
            log.marks()
                .filter(move |((_, node), _)| pick(&plan.node(NodeId(*node)).kind))
                .flat_map(|(_, span)| log.entries(span))
                .filter_map(|a| match a {
                    TraceAction::Op(op) => Some(op),
                    _ => None,
                })
        };
        let potf2 = |k: &TaskKind| matches!(k, TaskKind::Potf2 { .. });
        let gemm = |k: &TaskKind| matches!(k, TaskKind::GemmPanel { .. });
        let overlap =
            ops_of(potf2).any(|p| ops_of(gemm).any(|g| g.start < p.end && p.start < g.end));
        assert!(overlap, "CPU POTF2 should hide under GPU GEMM");
    }

    #[test]
    fn timing_scales_roughly_cubically() {
        let t = |n: usize| {
            factor_magma(
                &SystemProfile::tardis(),
                ExecMode::TimingOnly,
                n,
                256,
                None,
                false,
            )
            .unwrap()
            .time
            .as_secs()
        };
        let t1 = t(4096);
        let t2 = t(8192);
        let ratio = t2 / t1;
        assert!((5.0..11.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn tardis_headline_reproduced() {
        // Paper Table VII: MAGMA-based runs at n = 20480 take ~10.5 s.
        let rep = factor_magma(
            &SystemProfile::tardis(),
            ExecMode::TimingOnly,
            20480,
            256,
            None,
            false,
        )
        .unwrap();
        let s = rep.time.as_secs();
        assert!((8.5..12.5).contains(&s), "got {s}");
    }

    #[test]
    fn bulldozer_headline_reproduced() {
        // Paper Table VIII: ~8.6 s at n = 30720.
        let rep = factor_magma(
            &SystemProfile::bulldozer64(),
            ExecMode::TimingOnly,
            30720,
            512,
            None,
            false,
        )
        .unwrap();
        let s = rep.time.as_secs();
        assert!((7.0..10.5).contains(&s), "got {s}");
    }

    #[test]
    fn execute_and_timing_only_agree_on_virtual_time() {
        let n = 32;
        let b = 8;
        let a = spd_diag_dominant(n, 11);
        let p = SystemProfile::test_profile();
        let t_exec = factor_magma(&p, ExecMode::Execute, n, b, Some(&a), false)
            .unwrap()
            .time;
        let t_timing = factor_magma(&p, ExecMode::TimingOnly, n, b, None, false)
            .unwrap()
            .time;
        assert!(
            (t_exec.as_secs() - t_timing.as_secs()).abs() < 1e-12,
            "{} vs {}",
            t_exec,
            t_timing
        );
    }
}
