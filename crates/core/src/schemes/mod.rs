//! The three ABFT Cholesky schemes the paper compares, plus the shared
//! restart-on-uncorrectable recovery loop.
//!
//! * [`SchemeKind::Offline`] — Huang & Abraham: encode before, verify after,
//!   nothing in between. Any mid-run error propagates freely and forces a
//!   full re-run.
//! * [`SchemeKind::Online`] — post-update verification (Wu & Chen): each
//!   block is verified right after it is written, so computing errors are
//!   corrected in time; storage errors striking *between* a block's last
//!   verification and its next read escape until they have propagated.
//! * [`SchemeKind::Enhanced`] — this paper: verify every input immediately
//!   *before* it is read, correcting both error species before they can
//!   propagate.
//!
//! Each scheme is expressed as a **policy pass** over the shared
//! Algorithm-1 task-graph skeleton (see [`crate::plan`]); this module owns
//! the driver loop — build the plan once, then run attempts of it through
//! the plan executor until the factorization completes or the restart
//! budget is spent.

use crate::ops::{self};
use crate::options::{AbftOptions, ToleranceModel};
use crate::span_util::scope;
use crate::tolerance;
use crate::verify::VerifyOutcome;
use hchol_faults::{FaultPlan, Injector};
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::{ExecMode, SimContext, SimTime};
use hchol_matrix::{DType, Matrix, MatrixError, Scalar};
use hchol_obs::{Phase, RunReport};

/// Which fault-tolerance scheme drives the factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Encode → factor → verify at the very end.
    Offline,
    /// Verify each block right after it is updated.
    Online,
    /// Verify each block right before it is read (this paper).
    Enhanced,
}

impl SchemeKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Offline => "Offline-ABFT",
            SchemeKind::Online => "Online-ABFT",
            SchemeKind::Enhanced => "Enhanced Online-ABFT",
        }
    }

    /// All three, in the paper's table order.
    pub fn all() -> [SchemeKind; 3] {
        [
            SchemeKind::Enhanced,
            SchemeKind::Online,
            SchemeKind::Offline,
        ]
    }
}

/// How one attempt ended.
pub(crate) enum AttemptEnd {
    /// Factorization finished with all detected errors corrected.
    Completed,
    /// Uncorrectable corruption detected; the run must restart.
    Restart,
}

/// The result of a fault-tolerant factorization.
pub struct FactorOutcome<S: Scalar = f64> {
    /// Which scheme ran.
    pub scheme: SchemeKind,
    /// Matrix size.
    pub n: usize,
    /// Block size.
    pub b: usize,
    /// The options the run actually used (placement resolved).
    pub opts: AbftOptions,
    /// Total virtual time across all attempts.
    pub time: SimTime,
    /// Number of attempts (1 = no restart).
    pub attempts: usize,
    /// Accumulated verification statistics.
    pub verify: VerifyOutcome,
    /// The lower factor (Execute mode only).
    pub factor: Option<Matrix<S>>,
    /// True if the final attempt still ended with uncorrectable corruption.
    pub failed: bool,
    /// Decision/rewrite log of the runtime feedback balancer (`Some` iff
    /// `opts.balance` was set).
    pub balance_log: Option<crate::plan::balance::BalanceLog>,
    /// The simulation context (op log, observability state) for
    /// inspection.
    pub ctx: SimContext<S>,
}

impl<S: Scalar> FactorOutcome<S> {
    /// Achieved GFLOP/s on the canonical `n³/3` flop count for size `n`.
    pub fn gflops(&self, n: usize) -> f64 {
        (n as f64).powi(3) / 3.0 / self.time.as_secs() / 1e9
    }

    /// Export the run as a structured [`RunReport`] (config, per-phase
    /// virtual-time totals, metrics, fault events, span tree).
    pub fn report(&self) -> RunReport {
        let mut r = RunReport::new(
            self.scheme.name(),
            &self.ctx.profile().name,
            &format!("{:?}", self.ctx.mode),
            self.time.as_secs(),
            &self.ctx.obs,
        );
        r.config_kv("n", self.n);
        r.config_kv("block", self.b);
        // Recorded only off the default f64 precision, so the f64 golden
        // fixtures stay byte-identical.
        if S::DTYPE != DType::F64 {
            r.config_kv("dtype", S::DTYPE.name());
        }
        r.config_kv("placement", format!("{:?}", self.opts.placement));
        r.config_kv("verify_interval", self.opts.verify_interval);
        r.config_kv("concurrent_recalc", self.opts.concurrent_recalc);
        // Recorded only when on: default-path reports stay byte-identical
        // to the golden fixtures.
        if self.opts.chk_fused {
            r.config_kv("chk_fused", true);
        }
        if self.opts.tolerance == ToleranceModel::Adaptive {
            let (alpha, floor) = (tolerance::ADAPTIVE_ALPHA, tolerance::ADAPTIVE_FLOOR);
            r.config_kv(
                "tolerance",
                format!("adaptive(alpha={alpha},floor={floor})"),
            );
        }
        if let Some(b) = &self.opts.balance {
            r.config_kv("balance_update_interval", b.update_interval);
            r.config_kv("balance_k_bounds", format!("{}..={}", b.k_min, b.k_max));
        }
        let devices = self.opts.shard_devices();
        if devices > 1 {
            r.config_kv("shard_devices", devices);
        }
        r.config_kv("max_restarts", self.opts.max_restarts);
        r.config_kv("attempts", self.attempts);
        r.config_kv("failed", self.failed);
        r
    }
}

/// Check an [`AbftOptions`] combination against the workspace's
/// composition rules, *before* anything is built or run. Every invalid
/// combination is refused here with a typed
/// [`MatrixError::UnsupportedConfig`]; a combination this function accepts
/// must produce a plan that passes the static checkers — the property the
/// config-space proptest pins. Called by [`run_scheme`], [`crate::plan::exec::run_batch`]
/// and the static analysis sweeps so drivers and checkers agree on the
/// legal space.
///
/// Each refusal guards an impossibility (DESIGN.md §12.5):
///
/// * More than 1024 devices: the simulator provisions each device's
///   scheduler, lanes and streams up front, so an unbounded `D` would
///   exhaust memory instead of failing.
/// * Sharding × `Cpu` placement: a panel mirror would read rows homed on
///   other devices over one device's PCIe link. (`Auto` resolves to `Gpu`
///   when sharded; `Inline` runs on the owning GPU's compute stream.)
pub fn validate_options(opts: &AbftOptions) -> Result<(), MatrixError> {
    let refuse = |why| Err(MatrixError::UnsupportedConfig(why));
    if opts.shard_devices() > 1024 {
        return refuse("sharding over more than 1024 devices (each is provisioned up front)");
    }
    if opts.shard_devices() > 1 && opts.placement == crate::options::ChecksumPlacement::Cpu {
        return refuse(
            "sharded runs keep checksum updates on the owning GPU (placement must not be Cpu)",
        );
    }
    Ok(())
}

/// A context on `profile`, provisioned with at least `devices` devices.
pub(crate) fn provisioned_context<S: Scalar>(
    profile: &SystemProfile,
    devices: usize,
    mode: ExecMode,
) -> SimContext<S> {
    let devices = devices.max(profile.devices);
    SimContext::new_typed(profile.clone().with_devices(devices), mode)
}

/// Run `kind` on the given system at size `n`, block `b`, with the fault
/// plan `plan`. `input` must be `Some` in Execute mode.
///
/// Recovery: on uncorrectable corruption (or a fault-induced loss of
/// positive definiteness — fail-stop in the paper's terms) the pristine
/// input is re-uploaded and the factorization redone, up to
/// `opts.max_restarts` times. A `NotPositiveDefinite` on a run with **no**
/// injected faults is a genuine input error and is returned as `Err`.
///
/// A fault plan naming a tile, element or device the run does not have is
/// refused before anything is built ([`FaultPlan::fits`]).
#[allow(clippy::too_many_arguments)] // LAPACK-style driver signature
pub fn run_scheme(
    kind: SchemeKind,
    profile: &SystemProfile,
    mode: ExecMode,
    n: usize,
    b: usize,
    opts: &AbftOptions,
    plan: FaultPlan,
    input: Option<&Matrix>,
) -> Result<FactorOutcome, MatrixError> {
    run_scheme_typed::<f64>(kind, profile, mode, n, b, opts, plan, input)
}

/// Precision-generic form of [`run_scheme`]: the element type `S` selects
/// the working precision of the whole pipeline — matrix data, BLAS
/// kernels, checksum rows, and verification deltas. `run_scheme` is the
/// `S = f64` instantiation (the paper's working precision); pass
/// `S = f32` for the reduced-precision workload, normally together with
/// [`AbftOptions::with_adaptive_tolerance`] so detection thresholds follow
/// the coarser machine epsilon.
#[allow(clippy::too_many_arguments)] // LAPACK-style driver signature
pub fn run_scheme_typed<S: Scalar>(
    kind: SchemeKind,
    profile: &SystemProfile,
    mode: ExecMode,
    n: usize,
    b: usize,
    opts: &AbftOptions,
    plan: FaultPlan,
    input: Option<&Matrix<S>>,
) -> Result<FactorOutcome<S>, MatrixError> {
    validate_options(opts)?;
    let devices = opts.shard_devices();
    plan.fits(n, b, devices)?;
    let mut ctx = provisioned_context::<S>(profile, devices, mode);
    if !opts.record_timeline {
        ctx.disable_timeline();
    }
    if !opts.trace_schedule {
        ctx.disable_trace();
    }
    if opts.chk_fused || opts.report_recalc_secs {
        ctx.enable_recalc_metric();
    }
    let run_span = ctx
        .obs
        .spans
        .open(format!("{} n={n} b={b}", kind.name()), Phase::Run, 0.0);
    let resolved = opts.resolved_for(ctx.profile(), n, b);
    let mut lay = scope!(
        ctx,
        "setup",
        Phase::Setup,
        ops::setup(&mut ctx, n, b, true, resolved.placement, input)
    )?;
    let faulty = !plan.is_empty();
    let mut inj = Injector::new(plan);
    // The feedback balancer persists across attempts: placement migrations
    // and the adaptive K carry over into a restarted run.
    let mut ctrl = resolved
        .balance
        .as_ref()
        .map(|_| crate::plan::balance::BalanceController::new(kind, &resolved));
    // One plan serves every attempt of a static run: the task graph does
    // not depend on where (or whether) faults strike, only on n, b, and
    // the resolved options. Balanced runs re-plan its tail mid-attempt and
    // rebuild it from the controller's current state on restart.
    let mut fplan = match &ctrl {
        Some(c) => c.plan(lay.nt, faulty),
        None => crate::plan::for_scheme(kind, lay.nt, &resolved, faulty),
    };

    let mut verify_total = VerifyOutcome::default();
    let mut attempts = 0usize;
    #[allow(unused_assignments)]
    let mut failed = false;
    loop {
        attempts += 1;
        let att = {
            let t = ctx.now().as_secs();
            ctx.obs
                .spans
                .open(format!("attempt {attempts}"), Phase::Attempt, t)
        };
        if attempts > 1 {
            let t = ctx.now().as_secs();
            ctx.obs.event(
                t,
                "run.restart",
                format!("attempt {attempts} after uncorrectable corruption"),
            );
            scope!(ctx, "reload", Phase::Transfer, {
                ops::reload(&mut ctx, &lay, input);
                inj.reset_dirty();
            });
            if let Some(c) = &ctrl {
                // Restart from the controller's current split: the restarted
                // attempt begins where the feedback converged, not where the
                // static model started.
                fplan = c.plan(lay.nt, faulty);
            }
        }
        let attempt = crate::plan::exec::run_attempt(
            &mut ctx,
            &mut fplan,
            &mut lay,
            &mut inj,
            &resolved,
            ctrl.as_mut(),
        );
        let done = match attempt {
            Ok((AttemptEnd::Completed, vo)) => {
                verify_total.merge(vo);
                failed = false;
                true
            }
            Ok((AttemptEnd::Restart, vo)) => {
                verify_total.merge(vo);
                failed = true;
                false
            }
            Err(e) => {
                if inj.applied().is_empty() {
                    // Genuine numerical failure, not fault-induced.
                    return Err(e);
                }
                let t = ctx.now().as_secs();
                ctx.obs
                    .event(t, "run.failstop", format!("fault-induced error: {e:?}"));
                failed = true;
                false
            }
        };
        // Closing the attempt unwinds any scope the attempt left open on an
        // early (restart / fail-stop) return.
        {
            let t = ctx.now().as_secs();
            ctx.obs.spans.close(att, t);
        }
        if done || attempts > resolved.max_restarts {
            break;
        }
    }
    scope!(ctx, "drain", Phase::Drain, ctx.sync_all());
    let time = ctx.now();
    ctx.obs.spans.close(run_span, time.as_secs());
    let factor = ops::extract_factor(&ctx, &lay);
    Ok(FactorOutcome {
        scheme: kind,
        n,
        b,
        opts: resolved,
        time,
        attempts,
        verify: verify_total,
        factor,
        failed,
        balance_log: ctrl.map(|c| c.into_log()),
        ctx,
    })
}

/// Convenience alias used by examples and benches: a scheme run on a
/// fault-free input.
#[allow(clippy::too_many_arguments)]
pub fn run_clean(
    kind: SchemeKind,
    profile: &SystemProfile,
    mode: ExecMode,
    n: usize,
    b: usize,
    opts: &AbftOptions,
    input: Option<&Matrix>,
) -> Result<FactorOutcome, MatrixError> {
    run_scheme(kind, profile, mode, n, b, opts, FaultPlan::none(), input)
}

/// Precision-generic form of [`run_clean`]; see [`run_scheme_typed`].
#[allow(clippy::too_many_arguments)]
// lint:allow(dead-pub) f32 twin of run_clean, which the precision suite runs
pub fn run_clean_typed<S: Scalar>(
    kind: SchemeKind,
    profile: &SystemProfile,
    mode: ExecMode,
    n: usize,
    b: usize,
    opts: &AbftOptions,
    input: Option<&Matrix<S>>,
) -> Result<FactorOutcome<S>, MatrixError> {
    run_scheme_typed(kind, profile, mode, n, b, opts, FaultPlan::none(), input)
}
