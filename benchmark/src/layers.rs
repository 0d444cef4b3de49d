//! Per-layer measurements of the traced pass: every number here is taken
//! from outside the library, by timing calls into `pub` functions or by
//! differencing whole runs that differ in one existing option.
//!
//! A metric that a workload does not exercise stays at 0 (for example the
//! `analyze.*` times on the Execute workloads): `BENCHMARK.json` lists one
//! set of per-layer metrics and every traced run reports all of them.

use crate::stats::{median, min};
use crate::trace::Tracer;
use crate::workloads::{
    resolve, run_factor_dyn, tile_calls, Checker, FactorRequest, Faults, Inputs, Keep, OpOutput,
    Request, Scale, Workload, FEATURES,
};
use hchol::blas::{flops, gemm, potf2, trsm};
use hchol::core::checksum::{encode, encode_into};
use hchol::core::magma::factor_magma;
use hchol::core::ops;
use hchol::core::plan::policy::{self, PolicyPass};
use hchol::core::plan::{self, shard, skeleton, DriveStyle};
use hchol::core::verify::{verify_and_correct, TileTolerance, VerifyPolicy};
use hchol::gpusim::context::KernelDesc;
use hchol::gpusim::counters::WorkCategory;
use hchol::gpusim::{AccessSet, KernelClass, SimContext, TileRef};
use hchol::matrix::generate::{spd_diag_dominant, uniform};
use hchol::matrix::triangular::force_lower;
use hchol::matrix::{Diag, Scalar, Side, Trans, Uplo};
use hchol::obs::{Phase, SpanRecorder};
use hchol::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// How hard the one-off measurements try: iterations and time budgets.
#[derive(Debug, Clone, Copy)]
struct Effort {
    /// Minimum timed calls of a micro-kernel.
    micro_iters: usize,
    /// Keep calling a micro-kernel until this much time has passed.
    micro_budget_s: f64,
    /// Edge of the "big" GEMM whose rate tile rates are read against.
    big_n: usize,
    /// Minimum whole runs per differencing twin.
    twin_runs: usize,
    /// Keep re-running twins until this much time has passed (≤ 5 runs).
    twin_budget_s: f64,
    /// Calls per simulator / span-recorder micro loop.
    loop_iters: usize,
}

impl Effort {
    fn of(scale: Scale) -> Effort {
        match scale {
            Scale::Full => Effort {
                micro_iters: 5,
                micro_budget_s: 0.02,
                big_n: 1024,
                twin_runs: 3,
                twin_budget_s: 0.5,
                loop_iters: 20_000,
            },
            Scale::Toy => Effort {
                micro_iters: 2,
                micro_budget_s: 0.0,
                big_n: 128,
                twin_runs: 1,
                twin_budget_s: 0.0,
                loop_iters: 200,
            },
        }
    }
}

/// Median of the per-call seconds `timed` returns, over at least
/// `e.micro_iters` calls and `e.micro_budget_s` of wall time.
fn micro(e: &Effort, mut timed: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut xs = Vec::new();
    while xs.len() < e.micro_iters || start.elapsed().as_secs_f64() < e.micro_budget_s {
        xs.push(timed());
    }
    median(&xs)
}

/// Fastest of a few whole runs of each of `variants`, run in interleaved
/// rounds (a, b, c, a, b, c, …) so a slow period of the shared host hits
/// every variant alike. The work is deterministic, so the fastest run is
/// the one least disturbed — the estimator for differencing twins.
fn fastest<const N: usize>(
    min_rounds: usize,
    budget_s: f64,
    mut run: impl FnMut(usize) -> f64,
) -> [f64; N] {
    let start = Instant::now();
    let mut best = [f64::INFINITY; N];
    let mut rounds = 0;
    while rounds < min_rounds || (rounds < 5 && start.elapsed().as_secs_f64() < budget_s) {
        for (variant, b) in best.iter_mut().enumerate() {
            *b = b.min(run(variant));
        }
        rounds += 1;
    }
    best
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Tile-shaped BLAS, checksum and verify kernels exactly as `ops.rs`
/// issues them, at element type `S` and tile edge `b`.
fn tile_kernels<S: Scalar>(v: &mut Values, tiles: &mut Values, e: &Effort, dtype: &str, b: usize) {
    let key = format!("{dtype}.b{b}");
    let a0 = uniform(b, b, -1.0, 1.0, 11).cast::<S>();
    let b0 = uniform(b, b, -1.0, 1.0, 12).cast::<S>();
    let c0 = uniform(b, b, -1.0, 1.0, 13).cast::<S>();
    let spd = spd_diag_dominant(b, 14).cast::<S>();
    let mut work = c0.clone();

    // gemm(No, Yes, -1, ·, ·, 1, ·): the SYRK and panel-GEMM tile update.
    let t = micro(e, || {
        work.as_mut_slice().copy_from_slice(c0.as_slice());
        time(|| gemm(Trans::No, Trans::Yes, -1.0, &a0, &b0, 1.0, &mut work)).1
    });
    v.insert(
        format!("blas.gemm_nt.{key}.gflops"),
        flops::gflops(flops::gemm(b, b, b), t),
    );
    tiles.insert(format!("gemm_nt.{key}"), t);

    // potf2 of one diagonal block, then trsm(Right, Lower, Yes, NonUnit)
    // against the factor it produced.
    let t = micro(e, || {
        work.as_mut_slice().copy_from_slice(spd.as_slice());
        time(|| potf2(&mut work, 0).expect("diagonally dominant tile is SPD")).1
    });
    v.insert(
        format!("blas.potf2.{key}.gflops"),
        flops::gflops(flops::potf2(b), t),
    );
    tiles.insert(format!("potf2.{key}"), t);
    let mut l = work.clone();
    force_lower(&mut l);
    let t = micro(e, || {
        work.as_mut_slice().copy_from_slice(c0.as_slice());
        time(|| {
            trsm(
                Side::Right,
                Uplo::Lower,
                Trans::Yes,
                Diag::NonUnit,
                1.0,
                &l,
                &mut work,
            )
        })
        .1
    });
    v.insert(
        format!("blas.trsm.{key}.gflops"),
        flops::gflops(flops::trsm(b, b), t),
    );
    tiles.insert(format!("trsm.{key}"), t);

    // Checksum encode of one tile: bytes of the tile over the time.
    let mut chk = encode(&a0);
    let t = micro(e, || time(|| encode_into(black_box(&a0), &mut chk)).1);
    v.insert(
        format!("core.checksum.encode.{key}.gbps"),
        (b * b) as f64 * S::BYTES as f64 / t / 1e9,
    );
}

/// `verify_and_correct` on a clean tile and on one with a planted error.
fn verify_kernels(v: &mut Values, e: &Effort, b: usize, clean: bool, correct: bool) {
    let tol = TileTolerance::Fixed(VerifyPolicy::default());
    let pristine = uniform(b, b, -1.0, 1.0, 15);
    let stored0 = encode(&pristine);
    let mut data = pristine.clone();
    let mut stored = stored0.clone();
    if clean {
        let t = micro(e, || {
            let (out, dt) = time(|| verify_and_correct(&mut data, &mut stored, &stored0, &tol));
            assert!(out.is_clean(), "clean tile flagged: {out:?}");
            dt
        });
        v.insert(format!("core.verify.clean.f64.b{b}.us"), t * 1e6);
    }
    if correct {
        let mut bad = pristine.clone();
        bad.set(b / 4, b / 5, bad.get(b / 4, b / 5) + 1.0);
        let recalc = encode(&bad);
        let t = micro(e, || {
            data.as_mut_slice().copy_from_slice(bad.as_slice());
            stored.as_mut_slice().copy_from_slice(stored0.as_slice());
            let (out, dt) = time(|| verify_and_correct(&mut data, &mut stored, &recalc, &tol));
            assert_eq!(
                out.corrected_data, 1,
                "planted error not corrected: {out:?}"
            );
            dt
        });
        v.insert(format!("core.verify.correct.f64.b{b}.us"), t * 1e6);
    }
}

fn big_gemm<S: Scalar>(v: &mut Values, e: &Effort, dtype: &str) {
    let n = e.big_n;
    let a = uniform(n, n, -1.0, 1.0, 16).cast::<S>();
    let b = uniform(n, n, -1.0, 1.0, 17).cast::<S>();
    let mut c = hchol::matrix::Matrix::<S>::zeros(n, n);
    let t = micro(e, || {
        time(|| gemm(Trans::No, Trans::Yes, -1.0, &a, &b, 0.0, &mut c)).1
    });
    v.insert(
        format!("blas.gemm_big.{dtype}.gflops"),
        flops::gflops(flops::gemm(n, n, n), t),
    );
}

/// Host cost of one empty-body `launch` with a 3-tile access set.
fn launch_ns(e: &Effort, trace_on: bool) -> f64 {
    let mut ctx = SimContext::new(SystemProfile::tardis(), ExecMode::TimingOnly);
    ctx.disable_timeline();
    if !trace_on {
        ctx.disable_trace();
    }
    let buf = ctx
        .dev_mem
        .alloc_zeros(0, 0, 256)
        .expect("nonzero block size");
    let stream = ctx.default_stream();
    let ((), dt) = time(|| {
        for i in 0..e.loop_iters {
            let access = AccessSet::new(
                vec![TileRef::new(buf, i % 7, 0), TileRef::new(buf, i % 7, 1)],
                vec![TileRef::new(buf, i % 7, 2)],
            );
            let desc = KernelDesc::new(
                format!("K {i}"),
                KernelClass::Blas3,
                1000,
                WorkCategory::Factorization,
            )
            .with_access(access);
            ctx.launch(stream, desc, |_mem| {});
        }
        ctx.sync_device();
    });
    black_box(ctx.now());
    dt * 1e9 / e.loop_iters as f64
}

/// Host cost of one scope-span open + close in `hchol-obs`.
fn obs_span_ns(e: &Effort) -> f64 {
    let mut rec = SpanRecorder::new();
    let n = e.loop_iters * 5;
    let ((), dt) = time(|| {
        for i in 0..n {
            let t = i as f64;
            let id = rec.open(format!("iter {i}"), Phase::Iteration, t);
            rec.close(id, t + 1.0);
        }
    });
    black_box(rec.spans().len());
    dt * 1e9 / n as f64
}

/// The measurements that do not depend on the workload. Returns the
/// measured seconds per tile kernel, keyed `<kernel>.<dtype>.b<edge>`.
fn micro_layers(v: &mut Values, tr: &mut Tracer, e: &Effort) -> Values {
    let mut tiles = Values::new();
    let span = tr.open("micro.blas_checksum_verify");
    for b in [64, 128, 256] {
        tile_kernels::<f64>(v, &mut tiles, e, "f64", b);
    }
    tile_kernels::<f32>(v, &mut tiles, e, "f32", 256);
    big_gemm::<f64>(v, e, "f64");
    big_gemm::<f32>(v, e, "f32");
    verify_kernels(v, e, 256, true, true);
    verify_kernels(v, e, 128, false, true);
    tr.close(span);
    let span = tr.open("micro.gpusim_obs");
    v.insert("gpusim.launch.trace_on.ns".into(), launch_ns(e, true));
    v.insert("gpusim.launch.trace_off.ns".into(), launch_ns(e, false));
    v.insert("obs.span.ns".into(), obs_span_ns(e));
    tr.close(span);
    tiles
}

fn policy_pass(kind: SchemeKind) -> Box<dyn PolicyPass> {
    match kind {
        SchemeKind::Enhanced => Box::new(policy::EnhancedPolicy),
        SchemeKind::Online => Box::new(policy::OnlinePolicy),
        SchemeKind::Offline => Box::new(policy::OfflinePolicy),
    }
}

/// `plan::for_scheme` taken apart into its public stages, for the main
/// request's plan. No workload's main request turns the fused or shard
/// rewrite on, so both are timed on clones of the policied skeleton: every
/// workload reports what each pass costs at its grid size.
fn plan_layers(v: &mut Values, tr: &mut Tracer, e: &Effort, f: &FactorRequest, opts: &AbftOptions) {
    let span = tr.open("decompose.core.plan");
    let nt = f.n / f.b;
    let faulty = f.faults != Faults::None;
    let mut stages: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut counts = (0, 0);
    for _ in 0..e.twin_runs {
        let mut push = |name, dt| stages.entry(name).or_default().push(dt);
        let (mut p, dt) = time(|| skeleton::algorithm1(nt, DriveStyle::Overlapped, false, faulty));
        push("skeleton", dt);
        let pass = policy_pass(f.scheme);
        push("policy", time(|| pass.apply(&mut p, opts)).1);
        let mut fused = p.clone();
        push("chk_fused", time(|| policy::apply_chk_fused(&mut fused)).1);
        let mut sharded = p.clone();
        policy::apply_placement(&mut sharded, ChecksumPlacement::Gpu);
        push("shard", time(|| shard::apply_shard(&mut sharded, 4)).1);
        push(
            "placement",
            time(|| policy::apply_placement(&mut p, opts.placement)).1,
        );
        push("derive_deps", time(|| p.derive_deps()).1);
        push("to_schedule", time(|| black_box(p.to_schedule())).1);
        let (whole, dt) = time(|| plan::for_scheme(f.scheme, nt, opts, faulty));
        push("for_scheme", dt);
        counts = (whole.len(), whole.edge_count());
        assert_eq!(
            (p.len(), p.edge_count()),
            counts,
            "staged plan differs from for_scheme's"
        );
    }
    for (name, xs) in &stages {
        v.insert(format!("core.plan.{name}_s"), min(xs));
    }
    v.insert("core.plan.nodes".into(), counts.0 as f64);
    v.insert("core.plan.edges".into(), counts.1 as f64);
    tr.close(span);
}

/// `ops::setup` and `ops::extract_factor` on a fresh context.
fn ops_layers<S: Scalar>(
    v: &mut Values,
    e: &Effort,
    f: &FactorRequest,
    opts: &AbftOptions,
    profile: &SystemProfile,
    input: Option<&Matrix<S>>,
) {
    let mut setup = Vec::new();
    let mut extract = Vec::new();
    for _ in 0..e.twin_runs {
        let mut ctx = SimContext::<S>::new_typed(profile.clone(), f.mode);
        let (lay, dt) = time(|| ops::setup(&mut ctx, f.n, f.b, true, opts.placement, input));
        let lay = lay.expect("setup of a valid size cannot fail");
        setup.push(dt);
        extract.push(time(|| black_box(ops::extract_factor(&ctx, &lay))).1);
    }
    v.insert("core.ops.setup_s".into(), min(&setup));
    v.insert("core.ops.extract_factor_s".into(), min(&extract));
}

fn phase_secs(r: &RunReport, phase: &str) -> f64 {
    r.phase_totals
        .iter()
        .find(|p| p.phase == phase)
        .map_or(0.0, |p| p.secs)
}

/// The modelled side of the simulator, read from the main request's run
/// report: deterministic, and bit-identical under any host-only change.
fn virtual_layers(v: &mut Values, r: &RunReport) {
    for phase in [
        "encode", "syrk", "gemm", "potf2", "trsm", "verify", "transfer", "drain",
    ] {
        v.insert(format!("virt.phase.{phase}_s"), phase_secs(r, phase));
    }
    for engine in ["gpu", "host", "cpu_workers", "dma_h2d", "dma_d2h"] {
        v.insert(
            format!("virt.engine.{engine}.busy_s"),
            r.metrics.sum(&format!("busy_secs.engine.{engine}")),
        );
    }
    let pcie = r.metrics.count("pcie.bytes.h2d") + r.metrics.count("pcie.bytes.d2h");
    v.insert("virt.pcie.bytes".into(), pcie as f64);
    v.insert(
        "virt.queue_delay_s".into(),
        r.metrics.sum("sched.queue_delay_secs"),
    );
    v.insert(
        "virt.verify.tiles".into(),
        r.metrics.count("verify.tiles") as f64,
    );
    v.insert(
        "virt.verify.batches".into(),
        r.metrics.count("verify.batches") as f64,
    );
    let kernels: u64 = r
        .metrics
        .counts
        .iter()
        .filter(|(k, _)| k.starts_with("kernels.class."))
        .map(|(_, n)| n)
        .sum();
    v.insert("virt.kernels".into(), kernels as f64);
}

/// The main request as a factorization request (the proof workload's main
/// request is its `default` configuration's TimingOnly run).
fn main_factor(w: &Workload) -> FactorRequest {
    match w.main_request() {
        Request::Factor(f) => f.clone(),
        Request::Proof { label, n, b, opts } => FactorRequest {
            opts: opts.clone(),
            expect_clean_verify: true,
            ..FactorRequest::enhanced(label, ExecMode::TimingOnly, *n, *b)
        },
        other => panic!("workload starts with a non-factorization request {other:?}"),
    }
}

/// What the traced repeats measured, handed to [`decompose`].
pub struct Traced<'a> {
    /// Per-repeat outputs of the traced repeats.
    pub repeats: &'a [Vec<OpOutput>],
    /// Median wall seconds per repeat of the untraced phase.
    pub wall_s: f64,
}

fn op_wall_median(t: &Traced, idx: usize) -> f64 {
    median(&t.repeats.iter().map(|r| r[idx].wall_s).collect::<Vec<_>>())
}

/// Fill `v` with every per-layer metric except the harness's own
/// `bench.*` (which the caller knows). Every factorization the
/// decomposition runs is counted, and checked, by `checker`.
pub fn decompose(
    v: &mut Values,
    w: &Workload,
    inputs: &Inputs,
    traced: &Traced,
    tr: &mut Tracer,
    checker: &mut Checker,
    scale: Scale,
) {
    let e = Effort::of(scale);
    let profile = &w.profile;
    let f = main_factor(w);
    let (n, b) = (f.n, f.b);
    let resolved = resolve(&f.opts, profile, n, b);
    tr.set_repeat(None);

    let tiles = micro_layers(v, tr, &e);
    plan_layers(v, tr, &e, &f, &resolved);
    let span = tr.open("decompose.core.ops");
    if f.single {
        let input = inputs.a32.as_ref().filter(|_| f.mode.executes());
        ops_layers::<f32>(v, &e, &f, &resolved, profile, input);
    } else {
        let input = inputs.a.as_ref().filter(|_| f.mode.executes());
        ops_layers::<f64>(v, &e, &f, &resolved, profile, input);
    }
    tr.close(span);

    // One run of `req`, its failure (if any) recorded.
    let mut run = |req: &FactorRequest, tr: &mut Tracer, keep: Keep| -> OpOutput {
        let faults = match req.faults {
            Faults::None => FaultPlan::none(),
            _ => inputs.fault_plans[0].clone(),
        };
        let op = run_factor_dyn(req, profile, inputs, faults, tr, keep);
        checker.observe_one_off(&op);
        op
    };

    // Whole-run differencing on the main request: its TimingOnly twin,
    // and that twin with one obs recorder switched (the existing option
    // on minus off) — on the twin so numerics noise cannot drown a
    // recorder's cost.
    let span = tr.open("decompose.twins");
    let execute_s = median(
        &traced
            .repeats
            .iter()
            .map(|r| r[0].run_s)
            .collect::<Vec<_>>(),
    );
    let twin = FactorRequest {
        mode: ExecMode::TimingOnly,
        expect_clean_verify: false,
        validate_report: false,
        ..f.clone()
    };
    let mut variants = [twin.clone(), twin.clone(), twin];
    variants[1].opts.trace_schedule = false;
    variants[2].opts.record_timeline = true;
    let [timing_only_s, t_no_trace, t_timeline] = fastest(e.twin_runs, e.twin_budget_s, |i| {
        run(&variants[i], tr, Keep::default()).wall_s
    });
    v.insert("core.run.execute_s".into(), execute_s);
    v.insert("core.run.timing_only_s".into(), timing_only_s);
    let numerics_s = if f.mode.executes() {
        execute_s - timing_only_s
    } else {
        0.0
    };
    v.insert("core.numerics_s".into(), numerics_s);
    v.insert(
        "core.sim_exec_s".into(),
        timing_only_s - v["core.plan.for_scheme_s"],
    );
    v.insert(
        "core.gflops".into(),
        (n as f64).powi(3) / 3.0 / execute_s / 1e9,
    );
    v.insert(
        "gpusim.nodes_per_s".into(),
        v["core.plan.nodes"] / execute_s,
    );
    v.insert(
        "obs.trace_schedule.overhead_s".into(),
        timing_only_s - t_no_trace,
    );
    v.insert("obs.timeline.overhead_s".into(), t_timeline - timing_only_s);
    tr.close(span);

    // The report path and the modelled side, from one more run of the
    // main request that keeps its outcome.
    let span = tr.open("decompose.report");
    let keep = Keep {
        factor: false,
        detail: true,
    };
    if let Some(d) = run(&f, tr, keep).detail {
        v.insert("obs.report.build_s".into(), d.build_s);
        v.insert("obs.report.to_json_s".into(), d.to_json_s);
        v.insert("obs.report.validate_s".into(), d.validate_s);
        v.insert("obs.report.json_bytes".into(), d.json_bytes as f64);
        virtual_layers(v, &d.report);
    }
    tr.close(span);

    // The four drivers, clean, at the main request's size and mode.
    // MAGMA has no precision-generic driver: the f32 workload's baseline
    // runs on the same matrix widened to f64.
    let span = tr.open("decompose.core.schemes");
    let schemes = ["offline", "online", "enhanced", "magma"];
    let clean = [
        SchemeKind::Offline,
        SchemeKind::Online,
        SchemeKind::Enhanced,
    ]
    .map(|scheme| FactorRequest {
        scheme,
        faults: Faults::None,
        expect_attempts: Some(1),
        ..f.clone()
    });
    let widened = inputs.reference_matrix();
    let magma_input = widened.as_deref().filter(|_| f.mode.executes());
    let scheme_wall: [f64; 4] = fastest(1, e.twin_budget_s, |i| match clean.get(i) {
        Some(req) => run(req, tr, Keep::default()).wall_s,
        None => {
            let magma = || factor_magma(profile, f.mode, n, b, magma_input, false);
            let (res, dt) = tr.timed("core.factor_magma", magma);
            res.expect("MAGMA baseline on a valid SPD input cannot fail");
            dt
        }
    });
    for (name, t) in schemes.iter().zip(scheme_wall) {
        v.insert(format!("core.scheme.{name}.wall_s"), t);
    }
    v.insert(
        "core.abft_host_overhead_pct".into(),
        100.0 * (scheme_wall[2] / scheme_wall[3] - 1.0),
    );
    tr.close(span);

    // Recovery cost: faulted wall minus the same scheme's clean wall.
    for (idx, req) in w.requests.iter().enumerate() {
        let Request::Factor(fr) = req else { continue };
        let (key, clean_s) = match fr.faults {
            Faults::None => continue,
            Faults::Poisson => ("core.recovery.correct_s", scheme_wall[2]),
            Faults::PaperStorage => ("core.recovery.restart_s", scheme_wall[1]),
        };
        v.insert(key.into(), op_wall_median(traced, idx) - clean_s);
    }

    // Exact counts and per-request figures from the last traced repeat.
    let last = traced.repeats.last().expect("at least one traced repeat");
    let sum = |get: fn(&OpOutput) -> u64| last.iter().map(get).sum::<u64>() as f64;
    if w.requests
        .iter()
        .any(|r| matches!(r, Request::Factor(fr) if fr.faults != Faults::None))
    {
        v.insert("core.recovery.attempts".into(), sum(|o| o.counts.attempts));
        v.insert(
            "core.recovery.corrected".into(),
            sum(|o| o.counts.corrected),
        );
        v.insert(
            "core.recovery.detections".into(),
            sum(|o| o.counts.detections),
        );
    }
    v.insert("faults.injected".into(), sum(|o| o.counts.injected));
    v.insert("faults.plan_gen_s".into(), inputs.plan_gen_s);
    v.insert("matrix.generate_s".into(), inputs.generate_s);
    v.insert(
        "analyze.schedule.ops".into(),
        sum(|o| o.counts.schedule_ops),
    );
    v.insert(
        "analyze.coverage.sites".into(),
        sum(|o| o.counts.coverage_sites),
    );

    // Tile-kernel call counts of the Execute requests, and the share of
    // the repeat's wall time they explain at the measured tile times.
    let (mut calls, mut est_s) = ((0u64, 0u64, 0u64), 0.0);
    for (op, req) in last.iter().zip(&w.requests) {
        let Request::Factor(fr) = req else { continue };
        if !fr.mode.executes() {
            continue;
        }
        let (g, t, p) = tile_calls((fr.n / fr.b) as u64);
        let a = op.counts.attempts;
        calls = (calls.0 + a * g, calls.1 + a * t, calls.2 + a * p);
        let key = format!("{}.b{}", if fr.single { "f32" } else { "f64" }, fr.b);
        let tile = |k: &str| tiles.get(&format!("{k}.{key}")).copied().unwrap_or(0.0);
        est_s += a as f64
            * (g as f64 * tile("gemm_nt") + t as f64 * tile("trsm") + p as f64 * tile("potf2"));
    }
    v.insert("blas.gemm_nt.calls".into(), calls.0 as f64);
    v.insert("blas.trsm.calls".into(), calls.1 as f64);
    v.insert("blas.potf2.calls".into(), calls.2 as f64);
    v.insert("blas.est_share".into(), est_s / traced.wall_s);

    // Analyzer time per repeat, from the spans of the traced repeats.
    for (metric, span_name) in [
        ("analyze.check_plan_s", "analyze.check_plan"),
        ("analyze.check_liveness_s", "analyze.check_liveness"),
        ("analyze.check_coverage_s", "analyze.check_coverage"),
        ("analyze.schedule_s", "analyze.schedule"),
    ] {
        let per_repeat = tr.per_repeat_secs(span_name);
        if !per_repeat.is_empty() {
            v.insert(metric.into(), median(&per_repeat));
        }
    }
    if v["analyze.check_coverage_s"] > 0.0 {
        v.insert(
            "analyze.coverage.sites_per_s".into(),
            v["analyze.coverage.sites"] / v["analyze.check_coverage_s"],
        );
    }

    // Per-feature wall and makespan of the proof workload's requests.
    for (idx, req) in w.requests.iter().enumerate() {
        let label = req.label();
        let is_feature = matches!(req, Request::Proof { .. }) && FEATURES.contains(&label);
        if is_feature || matches!(req, Request::Batch { .. }) {
            v.insert(
                format!("core.feature.{label}.wall_s"),
                op_wall_median(traced, idx),
            );
            v.insert(
                format!("virt.feature.{label}.makespan_s"),
                last[idx].virtual_s,
            );
        }
    }
}
