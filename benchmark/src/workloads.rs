//! The six workloads: fixed request lists, their generated inputs, how one
//! request executes, and the per-operation correctness check.
//!
//! A workload is a list of [`Request`]s executed in order, once per
//! repeat. An *operation* is one request. The library only ever sees the
//! generated inputs (a matrix, a fault plan) — never the seed.

use crate::trace::Tracer;
use hchol::core::magma::factor_magma;
use hchol::core::options::ShardOptions;
use hchol::core::{decision, plan, run_scheme_typed};
use hchol::faults::poisson;
use hchol::matrix::generate::spd_diag_dominant;
use hchol::matrix::norms::frobenius;
use hchol::matrix::{Scalar, Trans};
use hchol::prelude::*;
use hchol_analyze::{analyze_outcome, check_coverage, check_liveness, check_plan};
use std::borrow::Cow;
use std::time::Instant;

/// Problem sizes: the measured ones, or toy sizes for the
/// checker-under-test (`cargo test`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes documented in `benchmark/README.md`.
    Full,
    /// n=256 b=32 (nt=8) everywhere; seconds per workload, not minutes.
    Toy,
}

/// Seed of the Poisson fault plan of `exec_faulted`. Fixed, not derived
/// from `--seed`: fault sites decide how many correction kernels the
/// simulator schedules, so a per-seed plan would make `virtual_s` differ
/// between runs of one commit and its exact-match bound could not hold.
/// The matrix the faults strike still comes from `--seed`.
const FAULT_PLAN_SEED: u64 = 7;

/// Absolute tolerance (virtual seconds) of `RunReport::validate`'s
/// leaf-tiling invariant, as the repository's `run_report` bin uses it.
const REPORT_TOL: f64 = 1e-6;

/// Which fault plan a factorization request runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// Fault-free.
    None,
    /// `poisson::storage_plan(nt, b, 0.5, FAULT_PLAN_SEED)`: storage errors
    /// the Enhanced scheme locates and corrects in place.
    Poisson,
    /// `FaultPlan::paper_storage_error(nt, b)`: the Table-VII memory error
    /// that Online-ABFT misses until its final sweep and restarts for.
    PaperStorage,
}

/// One `run_scheme[_typed]` call and what its result must look like.
#[derive(Debug, Clone)]
pub struct FactorRequest {
    /// Request label (span and report name).
    pub label: &'static str,
    /// Scheme to run.
    pub scheme: SchemeKind,
    /// Execute (real numerics) or TimingOnly.
    pub mode: ExecMode,
    /// Matrix size.
    pub n: usize,
    /// Block size.
    pub b: usize,
    /// Library options.
    pub opts: AbftOptions,
    /// Fault plan selector.
    pub faults: Faults,
    /// Run at f32 through `run_scheme_typed::<f32>`.
    pub single: bool,
    /// Required number of attempts (`None` = only required to repeat).
    pub expect_attempts: Option<usize>,
    /// The run must report zero detections/corrections (false-positive
    /// guard of the adaptive f32 tolerance).
    pub expect_clean_verify: bool,
    /// Upper bound on ‖LLᵀ−A‖/‖A‖ of the warm-up factor (Execute only).
    pub residual_tol: f64,
    /// Also require `report().validate()` to pass.
    pub validate_report: bool,
}

impl FactorRequest {
    /// A clean Enhanced factorization with library-default options that
    /// must finish in one attempt — the request every workload's list
    /// starts from.
    pub fn enhanced(label: &'static str, mode: ExecMode, n: usize, b: usize) -> Self {
        FactorRequest {
            label,
            scheme: SchemeKind::Enhanced,
            mode,
            n,
            b,
            opts: AbftOptions::default(),
            faults: Faults::None,
            single: false,
            expect_attempts: Some(1),
            expect_clean_verify: false,
            residual_tol: 1e-12,
            validate_report: false,
        }
    }
}

/// One operation of a workload.
#[derive(Debug, Clone)]
pub enum Request {
    /// One factorization.
    Factor(FactorRequest),
    /// The CI / figure-sweep user for one feature configuration:
    /// TimingOnly `run_scheme` → `for_scheme` → `check_plan` →
    /// `check_liveness` → `analyze_outcome`.
    Proof {
        /// Feature configuration name (`default`, `fused`, …).
        label: &'static str,
        /// Matrix size.
        n: usize,
        /// Block size.
        b: usize,
        /// Options selecting the feature.
        opts: AbftOptions,
    },
    /// `run_batch` of `count` Enhanced factorizations of size `n`.
    Batch {
        /// Matrices in the batch.
        count: usize,
        /// Matrix size.
        n: usize,
        /// Block size.
        b: usize,
    },
    /// `check_coverage` on the faulty Enhanced plan of grid size `nt`.
    Coverage {
        /// Grid size.
        nt: usize,
        /// Block size (placement resolution only).
        b: usize,
    },
}

impl Request {
    /// The request's label.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Factor(f) => f.label,
            Request::Proof { label, .. } => label,
            Request::Batch { .. } => "batch4",
            Request::Coverage { .. } => "coverage",
        }
    }

    /// `(n, b)` of the problem this request factors or plans.
    pub fn size(&self) -> (usize, usize) {
        match self {
            Request::Factor(f) => (f.n, f.b),
            Request::Proof { n, b, .. } | Request::Batch { n, b, .. } => (*n, *b),
            Request::Coverage { nt, b } => (nt * b, *b),
        }
    }

    /// Virtual makespan of the non-fault-tolerant MAGMA baseline doing the
    /// same factorizations (TimingOnly, same n, b, profile) — the
    /// denominator of `abft_overhead_pct`. Zero for requests that have no
    /// makespan.
    pub fn baseline_virtual_s(&self, profile: &SystemProfile) -> f64 {
        let magma = |n: usize, b: usize| {
            factor_magma(profile, ExecMode::TimingOnly, n, b, None, false)
                .expect("TimingOnly MAGMA baseline cannot fail")
                .time
                .as_secs()
        };
        match self {
            Request::Factor(f) => magma(f.n, f.b),
            Request::Proof { n, b, .. } => magma(*n, *b),
            Request::Batch { count, n, b } => *count as f64 * magma(*n, *b),
            Request::Coverage { .. } => 0.0,
        }
    }
}

/// A named, fixed request list.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// The simulated machine.
    pub profile: SystemProfile,
    /// Requests, executed in order once per repeat.
    pub requests: Vec<Request>,
}

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "exec_large_block",
    "exec_small_block",
    "exec_f32",
    "exec_faulted",
    "sim_paper_scale",
    "proof_feature_cross",
];

/// The six feature configurations `proof_feature_cross` sweeps.
pub const FEATURES: [&str; 6] = ["default", "fused", "balance", "shard4", "lookahead2", "k3"];

fn feature_opts(name: &str) -> AbftOptions {
    let o = AbftOptions::default();
    match name {
        "default" => o,
        "fused" => o.with_chk_fused(true),
        "balance" => o.with_balance(BalanceOptions::default()),
        "shard4" => o.with_shard(ShardOptions::new(4)),
        "lookahead2" => o.with_lookahead(2),
        "k3" => o.with_interval(3),
        other => panic!("unknown feature configuration {other}"),
    }
}

impl Workload {
    /// Build the workload called `name`, or `None` for an unknown name.
    pub fn build(name: &str, scale: Scale) -> Option<Workload> {
        let toy = scale == Scale::Toy;
        let size = |n: usize, b: usize| if toy { (256, 32) } else { (n, b) };
        let exec = |label, n, b| FactorRequest::enhanced(label, ExecMode::Execute, n, b);
        let (name, requests) = match name {
            "exec_large_block" => {
                let (n, b) = size(3072, 256);
                (WORKLOADS[0], vec![Request::Factor(exec("enhanced", n, b))])
            }
            "exec_small_block" => {
                let (n, b) = size(1536, 64);
                (WORKLOADS[1], vec![Request::Factor(exec("enhanced", n, b))])
            }
            "exec_f32" => {
                let (n, b) = size(3072, 256);
                let req = FactorRequest {
                    opts: AbftOptions::default().with_adaptive_tolerance(),
                    single: true,
                    expect_clean_verify: true,
                    residual_tol: 1e-4,
                    ..exec("enhanced_f32", n, b)
                };
                (WORKLOADS[2], vec![Request::Factor(req)])
            }
            "exec_faulted" => {
                let (n, b) = size(2048, 128);
                let corrected = FactorRequest {
                    faults: Faults::Poisson,
                    expect_attempts: None,
                    residual_tol: 1e-9,
                    ..exec("enhanced_poisson", n, b)
                };
                let restarted = FactorRequest {
                    scheme: SchemeKind::Online,
                    faults: Faults::PaperStorage,
                    expect_attempts: Some(2),
                    residual_tol: 1e-9,
                    ..exec("online_paper_storage", n, b)
                };
                (
                    WORKLOADS[3],
                    vec![Request::Factor(corrected), Request::Factor(restarted)],
                )
            }
            "sim_paper_scale" => {
                let (n, b) = size(20480, 256);
                let req = FactorRequest {
                    mode: ExecMode::TimingOnly,
                    validate_report: true,
                    ..exec("enhanced_timing_only", n, b)
                };
                (WORKLOADS[4], vec![Request::Factor(req)])
            }
            "proof_feature_cross" => {
                let (n, b) = size(10240, 256);
                let mut reqs: Vec<Request> = FEATURES
                    .iter()
                    .map(|&label| Request::Proof {
                        label,
                        n,
                        b,
                        opts: feature_opts(label),
                    })
                    .collect();
                reqs.push(Request::Batch {
                    count: 4,
                    n: n / 2,
                    b,
                });
                reqs.push(Request::Coverage {
                    nt: if toy { 6 } else { 24 },
                    b,
                });
                (WORKLOADS[5], reqs)
            }
            _ => return None,
        };
        Some(Workload {
            name,
            profile: SystemProfile::tardis(),
            requests,
        })
    }

    /// The first factorization-shaped request: the one the traced pass
    /// decomposes layer by layer.
    pub fn main_request(&self) -> &Request {
        &self.requests[0]
    }
}

/// Generated inputs of one workload: everything the seed decides.
#[derive(Debug)]
pub struct Inputs {
    /// The f64 input matrix (Execute workloads at f64).
    pub a: Option<Matrix<f64>>,
    /// The f32 input matrix (Execute workloads at f32).
    pub a32: Option<Matrix<f32>>,
    /// One fault plan per request (empty plans for non-factor requests).
    pub fault_plans: Vec<FaultPlan>,
    /// Wall seconds spent generating the matrix.
    pub generate_s: f64,
    /// Wall seconds spent building fault plans.
    pub plan_gen_s: f64,
}

impl Inputs {
    /// Generate the inputs of `w` from `seed`. The same seed gives the
    /// same inputs.
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let exec = w.requests.iter().find_map(|r| match r {
            Request::Factor(f) if f.mode.executes() => Some((f.n, f.single)),
            _ => None,
        });
        let t0 = Instant::now();
        let (a, a32) = match exec {
            Some((n, false)) => (Some(spd_diag_dominant(n, seed)), None),
            Some((n, true)) => (None, Some(spd_diag_dominant(n, seed).cast::<f32>())),
            None => (None, None),
        };
        let generate_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let fault_plans = w
            .requests
            .iter()
            .map(|r| match r {
                Request::Factor(f) => {
                    let nt = f.n / f.b;
                    match f.faults {
                        Faults::None => FaultPlan::none(),
                        Faults::Poisson => poisson::storage_plan(nt, f.b, 0.5, FAULT_PLAN_SEED),
                        Faults::PaperStorage => FaultPlan::paper_storage_error(nt, f.b),
                    }
                }
                _ => FaultPlan::none(),
            })
            .collect();
        let plan_gen_s = t0.elapsed().as_secs_f64();
        Inputs {
            a,
            a32,
            fault_plans,
            generate_s,
            plan_gen_s,
        }
    }

    /// The matrix the library factored, widened to f64 for the residual
    /// check (exact for f32 inputs).
    pub fn reference_matrix(&self) -> Option<Cow<'_, Matrix<f64>>> {
        match (&self.a, &self.a32) {
            (Some(a), _) => Some(Cow::Borrowed(a)),
            (None, Some(a32)) => Some(Cow::Owned(a32.cast::<f64>())),
            (None, None) => None,
        }
    }
}

/// Exact counts one operation reports (read from its outcome).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Attempts the run took (1 = no restart).
    pub attempts: u64,
    /// Data elements corrected in place.
    pub corrected: u64,
    /// Tiles in which verification detected anything.
    pub detections: u64,
    /// Faults the injector applied.
    pub injected: u64,
    /// Ops the schedule analyzer swept.
    pub schedule_ops: u64,
    /// Fault sites the coverage checker enumerated.
    pub coverage_sites: u64,
}

/// Timings of the report path of one outcome (traced pass only).
#[derive(Debug, Clone)]
pub struct ReportDetail {
    /// The run's report.
    pub report: RunReport,
    /// Wall seconds of `FactorOutcome::report`.
    pub build_s: f64,
    /// Wall seconds of `RunReport::to_json`.
    pub to_json_s: f64,
    /// Wall seconds of `RunReport::validate`.
    pub validate_s: f64,
    /// Size of the JSON document.
    pub json_bytes: usize,
}

/// What one executed operation produced.
#[derive(Debug, Clone)]
pub struct OpOutput {
    /// Request label.
    pub label: &'static str,
    /// Host wall seconds inside library calls (harness checks excluded).
    pub wall_s: f64,
    /// The part of `wall_s` spent in the factorization driver itself
    /// (`run_scheme`, `run_batch`); the rest is planning and proofs.
    pub run_s: f64,
    /// Virtual makespan (0 for requests without one).
    pub virtual_s: f64,
    /// Digest of the factor's bit pattern (Execute mode).
    pub digest: Option<u64>,
    /// The factor widened to f64, when the caller asked to keep it.
    pub factor: Option<Matrix<f64>>,
    /// Why the operation failed (`None` = it passed its own checks).
    pub error: Option<String>,
    /// Exact counts.
    pub counts: OpCounts,
    /// Report-path timings, when the caller asked for them.
    pub detail: Option<ReportDetail>,
}

/// What to retain from an operation beyond the digest.
#[derive(Debug, Clone, Copy, Default)]
pub struct Keep {
    /// Keep the factor (for the residual check).
    pub factor: bool,
    /// Build, serialize and validate the run report, timed.
    pub detail: bool,
}

/// FNV-1a over the factor's element bit patterns: two factors are
/// bit-equal iff (up to hash collision) their digests agree, without
/// holding a second copy of the matrix.
pub fn digest<S: Scalar>(m: &Matrix<S>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in m.as_slice() {
        h = (h ^ x.to_bits_u64()).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `opts` with its checksum placement resolved as `run_scheme` resolves
/// it for an unsharded run (plans and `ops::setup` take no `Auto`).
pub fn resolve(opts: &AbftOptions, profile: &SystemProfile, n: usize, b: usize) -> AbftOptions {
    let mut resolved = opts.clone();
    resolved.placement = decision::choose(opts.placement, profile, n, b, opts.verify_interval);
    resolved
}

/// Build, serialize and validate `out`'s run report, each step timed.
fn report_detail<S: Scalar>(out: &FactorOutcome<S>, tr: &mut Tracer, op: &mut OpOutput) {
    let (report, build_s) = tr.timed("obs.report.build", || out.report());
    let (json, to_json_s) = tr.timed("obs.report.to_json", || report.to_json());
    let (valid, validate_s) = tr.timed("obs.report.validate", || report.validate(REPORT_TOL));
    if let Err(e) = valid {
        op.error.get_or_insert(format!("report invalid: {e}"));
    }
    op.detail = Some(ReportDetail {
        report,
        build_s,
        to_json_s,
        validate_s,
        json_bytes: json.len(),
    });
}

fn run_factor<S: Scalar>(
    f: &FactorRequest,
    profile: &SystemProfile,
    input: Option<&Matrix<S>>,
    faults: FaultPlan,
    tr: &mut Tracer,
    keep: Keep,
) -> OpOutput {
    let (res, wall_s) = tr.timed("core.run_scheme", || {
        run_scheme_typed::<S>(f.scheme, profile, f.mode, f.n, f.b, &f.opts, faults, input)
    });
    let mut op = OpOutput {
        wall_s,
        run_s: wall_s,
        ..blank(f.label)
    };
    let out = match res {
        Ok(out) => out,
        Err(e) => {
            op.error = Some(format!("run_scheme returned {e:?}"));
            return op;
        }
    };
    op.virtual_s = out.time.as_secs();
    op.counts = OpCounts {
        attempts: out.attempts as u64,
        corrected: out.verify.corrected_data as u64,
        detections: out.ctx.obs.metrics.count("verify.detections"),
        injected: out.ctx.obs.metrics.count("faults.injected"),
        ..OpCounts::default()
    };
    op.digest = out.factor.as_ref().map(digest);
    if out.failed {
        op.error = Some("run ended with uncorrectable corruption".into());
    } else if f.expect_attempts.is_some_and(|a| a != out.attempts) {
        op.error = Some(format!(
            "{} attempts, expected {:?}",
            out.attempts, f.expect_attempts
        ));
    } else if f.expect_clean_verify && !out.verify.is_clean() {
        op.error = Some(format!("false positive on clean input: {:?}", out.verify));
    } else if f.mode.executes() && out.factor.is_none() {
        op.error = Some("Execute run returned no factor".into());
    } else if f.validate_report {
        if let Err(e) = out.report().validate(REPORT_TOL) {
            op.error = Some(format!("report invalid: {e}"));
        }
    }
    if keep.detail {
        report_detail(&out, tr, &mut op);
    }
    if keep.factor {
        op.factor = out.factor.as_ref().map(|l| l.cast::<f64>());
    }
    op
}

/// Run one factorization request at the precision it names, on the
/// generated matrix of that precision (no input in TimingOnly).
pub fn run_factor_dyn(
    f: &FactorRequest,
    profile: &SystemProfile,
    inputs: &Inputs,
    faults: FaultPlan,
    tr: &mut Tracer,
    keep: Keep,
) -> OpOutput {
    if f.single {
        let input = inputs.a32.as_ref().filter(|_| f.mode.executes());
        run_factor::<f32>(f, profile, input, faults, tr, keep)
    } else {
        let input = inputs.a.as_ref().filter(|_| f.mode.executes());
        run_factor::<f64>(f, profile, input, faults, tr, keep)
    }
}

/// Execute request `idx` of `w` once.
pub fn execute(w: &Workload, inputs: &Inputs, idx: usize, tr: &mut Tracer, keep: Keep) -> OpOutput {
    let req = &w.requests[idx];
    let profile = &w.profile;
    let span = tr.open(&format!("request.{}", req.label()));
    let op = match req {
        Request::Factor(f) => {
            let faults = inputs.fault_plans[idx].clone();
            run_factor_dyn(f, profile, inputs, faults, tr, keep)
        }
        Request::Proof { label, n, b, opts } => proof(label, profile, *n, *b, opts, tr),
        Request::Batch { count, n, b } => {
            let reqs: Vec<BatchRequest> = (0..*count)
                .map(|_| BatchRequest {
                    kind: SchemeKind::Enhanced,
                    n: *n,
                    b: *b,
                    opts: AbftOptions::default(),
                })
                .collect();
            let (res, wall_s) = tr.timed("core.run_batch", || run_batch(profile, &reqs));
            let mut op = OpOutput {
                wall_s,
                run_s: wall_s,
                ..blank(req.label())
            };
            match res {
                Ok(out) => {
                    op.virtual_s = out.time.as_secs();
                    if out.runs.iter().any(|v| !v.is_clean()) {
                        op.error = Some("clean batch reported detections".into());
                    }
                }
                Err(e) => op.error = Some(format!("run_batch returned {e:?}")),
            }
            op
        }
        Request::Coverage { nt, b } => {
            let kind = SchemeKind::Enhanced;
            let resolved = resolve(&AbftOptions::default(), profile, nt * b, *b);
            let (fplan, t_plan) = tr.timed("core.plan.for_scheme", || {
                plan::for_scheme(kind, *nt, &resolved, true)
            });
            let (cov, t_cov) = tr.timed("analyze.check_coverage", || {
                check_coverage(kind, &fplan, &resolved)
            });
            let mut op = OpOutput {
                wall_s: t_plan + t_cov,
                ..blank(req.label())
            };
            op.counts.coverage_sites = cov.total_sites() as u64;
            if !cov.is_covered() {
                op.error = Some(format!("{} uncovered fault sites", cov.uncovered_sites()));
            }
            op
        }
    };
    tr.close(span);
    op
}

fn blank(label: &'static str) -> OpOutput {
    OpOutput {
        label,
        wall_s: 0.0,
        run_s: 0.0,
        virtual_s: 0.0,
        digest: None,
        factor: None,
        error: None,
        counts: OpCounts::default(),
        detail: None,
    }
}

fn proof(
    label: &'static str,
    profile: &SystemProfile,
    n: usize,
    b: usize,
    opts: &AbftOptions,
    tr: &mut Tracer,
) -> OpOutput {
    let kind = SchemeKind::Enhanced;
    let (res, t_run) = tr.timed("core.run_scheme", || {
        let mode = ExecMode::TimingOnly;
        run_scheme(kind, profile, mode, n, b, opts, FaultPlan::none(), None)
    });
    let mut op = OpOutput {
        wall_s: t_run,
        run_s: t_run,
        ..blank(label)
    };
    let out = match res {
        Ok(out) => out,
        Err(e) => {
            op.error = Some(format!("run_scheme returned {e:?}"));
            return op;
        }
    };
    op.virtual_s = out.time.as_secs();
    op.counts.attempts = out.attempts as u64;
    let (fplan, t_plan) = tr.timed("core.plan.for_scheme", || {
        plan::for_scheme(kind, n / b, &out.opts, false)
    });
    let (pc, t_pc) = tr.timed("analyze.check_plan", || check_plan(kind, &fplan, &out.opts));
    let (live, t_live) = tr.timed("analyze.check_liveness", || {
        check_liveness(kind, &fplan, &out.opts)
    });
    let (sched, t_sched) = tr.timed("analyze.schedule", || analyze_outcome(&out));
    op.wall_s += t_plan + t_pc + t_live + t_sched;
    op.counts.schedule_ops = sched.ops as u64;
    if out.failed || out.attempts != 1 {
        op.error = Some("clean TimingOnly run restarted or failed".into());
    } else if !pc.is_clean() {
        op.error = Some(format!("plan check: {} violations", pc.violations.len()));
    } else if !live.is_live() {
        op.error = Some("liveness check found a finding".into());
    } else if !sched.is_clean() {
        op.error = Some(format!(
            "schedule: {} races, {} violations",
            sched.races.len(),
            sched.violations.len()
        ));
    }
    op
}

/// Execute every request of `w` once, in order: one repeat.
pub fn run_repeat(w: &Workload, inputs: &Inputs, tr: &mut Tracer, keep: Keep) -> Vec<OpOutput> {
    (0..w.requests.len())
        .map(|idx| execute(w, inputs, idx, tr, keep))
        .collect()
}

/// Counts operations and decides which failed.
///
/// The first repeat it observes becomes the reference: every later
/// repeat must reproduce each operation's virtual makespan and factor
/// digest exactly. An operation also fails when the library returned
/// `Err`, reported `failed`, or missed its own expectation
/// ([`OpOutput::error`]).
#[derive(Debug, Default)]
pub struct Checker {
    reference: Vec<(u64, Option<u64>)>,
    /// Operations observed.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the human-readable output.
    pub notes: Vec<String>,
}

impl Checker {
    /// A checker with no reference yet.
    pub fn new() -> Self {
        Checker::default()
    }

    fn fail(&mut self, label: &str, why: String) {
        self.failed += 1;
        self.notes.push(format!("{label}: {why}"));
    }

    /// Count one operation that is not part of a repeat (a decomposition
    /// run of the traced pass): it fails only on its own error.
    pub fn observe_one_off(&mut self, op: &OpOutput) {
        self.attempted += 1;
        if let Some(e) = &op.error {
            self.fail(op.label, e.clone());
        }
    }

    /// Check one repeat's operations.
    pub fn observe(&mut self, outs: &[OpOutput]) {
        if self.reference.is_empty() {
            self.reference = outs
                .iter()
                .map(|o| (o.virtual_s.to_bits(), o.digest))
                .collect();
        }
        for (o, &(virt, dig)) in outs.iter().zip(&self.reference.clone()) {
            self.attempted += 1;
            if let Some(e) = &o.error {
                self.fail(o.label, e.clone());
            } else if o.virtual_s.to_bits() != virt {
                let want = f64::from_bits(virt);
                self.fail(
                    o.label,
                    format!(
                        "makespan {} differs from the first repeat's {want}",
                        o.virtual_s
                    ),
                );
            } else if o.digest != dig {
                self.fail(
                    o.label,
                    "factor is not bit-equal to the first repeat's".into(),
                );
            }
        }
    }

    /// Residual check of kept factors against the input matrix: each
    /// factor that misses its request's tolerance fails its operation.
    /// Returns the worst residual seen. Not counted as a new attempt — the
    /// operation was already counted when it ran.
    pub fn residuals(&mut self, w: &Workload, a: &Matrix<f64>, outs: &[OpOutput]) -> f64 {
        let mut worst: f64 = 0.0;
        for (o, req) in outs.iter().zip(&w.requests) {
            let (Some(l), Request::Factor(f)) = (&o.factor, req) else {
                continue;
            };
            let r = cholesky_residual(l, a);
            worst = worst.max(r);
            if r.is_nan() || r >= f.residual_tol {
                self.fail(o.label, format!("residual {r:e} ≥ {:e}", f.residual_tol));
            }
        }
        worst
    }
}

/// ‖LLᵀ−A‖_F / ‖A‖_F from the lower triangle of `l` (whatever its upper
/// triangle holds is ignored), block row by block row: a lower-triangular
/// `L` only needs `n³/3` multiply-adds for the lower half of `LLᵀ`, a
/// sixth of forming the full product, and no `n × n` temporary — so the
/// harness's own check stays small next to the factorization it checks.
pub fn cholesky_residual(l: &Matrix<f64>, a: &Matrix<f64>) -> f64 {
    const BLOCK: usize = 256;
    let n = l.rows();
    assert_eq!((l.shape(), a.shape()), ((n, n), (n, n)), "residual shapes");
    let (mut err2, mut norm2) = (0.0, 0.0);
    for j0 in (0..n).step_by(BLOCK) {
        let jb = BLOCK.min(n - j0);
        // Rows j0.. of L up to and including their diagonal block, with
        // that block's strict upper triangle zeroed.
        let k = j0 + jb;
        let mut lj = l.sub_matrix(j0, 0, jb, k);
        for c in 1..jb {
            for r in 0..c {
                lj.set(r, j0 + c, 0.0);
            }
        }
        for i0 in (j0..n).step_by(BLOCK) {
            let ib = BLOCK.min(n - i0);
            let mut c = a.sub_matrix(i0, j0, ib, jb);
            // Off-diagonal blocks stand for their mirror image too.
            let weight = if i0 == j0 { 1.0 } else { 2.0 };
            norm2 += weight * frobenius(&c).powi(2);
            if i0 == j0 {
                hchol::blas::gemm(Trans::No, Trans::Yes, -1.0, &lj, &lj, 1.0, &mut c);
            } else {
                let li = l.sub_matrix(i0, 0, ib, k);
                hchol::blas::gemm(Trans::No, Trans::Yes, -1.0, &li, &lj, 1.0, &mut c);
            }
            err2 += weight * frobenius(&c).powi(2);
        }
    }
    err2.sqrt() / norm2.sqrt().max(f64::MIN_POSITIVE)
}

/// Exact per-attempt tile-kernel call counts of the right-looking blocked
/// factorization at grid size `nt`, as `ops.rs` issues them: SYRK and the
/// panel GEMM both run as `b×b` tile `gemm(No, Yes)` calls.
pub fn tile_calls(nt: u64) -> (u64, u64, u64) {
    let gemm = (0..nt).map(|j| j + (nt - j - 1) * j).sum();
    let trsm = (0..nt).map(|j| nt - j - 1).sum();
    (gemm, trsm, nt)
}
