//! Cross-mode observability invariants.
//!
//! * The span tree, metrics, and event stream of a run must be identical
//!   between `Execute` and `TimingOnly` modes for the same configuration —
//!   observability is derived from the virtual clock and the injector
//!   ledger, never from numerical values.
//! * A fault-injection run's report must record the injection, detection,
//!   and correction events fed by the injector ledger.
//! * Per-phase virtual-time totals must sum to the run's total virtual
//!   time (the tiling invariant), and reports must survive a JSON round
//!   trip.

use hchol_core::obs::{RunReport, SpanKind};
use hchol_core::{run_scheme, AbftOptions, FactorOutcome, SchemeKind};
use hchol_faults::FaultPlan;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;
use hchol_matrix::generate::spd_diag_dominant;

const N: usize = 64;
const B: usize = 16;
const TOL: f64 = 1e-9;

fn run(kind: SchemeKind, mode: ExecMode, plan: FaultPlan) -> FactorOutcome {
    let p = SystemProfile::test_profile();
    let opts = AbftOptions::default();
    let input;
    let matrix = if mode.executes() {
        input = spd_diag_dominant(N, 7);
        Some(&input)
    } else {
        None
    };
    run_scheme(kind, &p, mode, N, B, &opts, plan, matrix).expect("factorization succeeds")
}

/// Assert the observability state of two runs is identical up to float
/// rounding: same spans (labels, phases, kinds, tree shape, times), same
/// metrics, same events.
fn assert_obs_equal(a: &FactorOutcome, b: &FactorOutcome) {
    let sa = a.ctx.obs.spans.spans();
    let sb = b.ctx.obs.spans.spans();
    assert_eq!(sa.len(), sb.len(), "span counts differ");
    for (x, y) in sa.iter().zip(sb) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.phase, y.phase);
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.parent, y.parent, "parent of {}", x.name);
        assert!(
            (x.start - y.start).abs() < TOL && (x.end - y.end).abs() < TOL,
            "span {} times differ: [{}, {}] vs [{}, {}]",
            x.name,
            x.start,
            x.end,
            y.start,
            y.end
        );
    }

    let ma = &a.ctx.obs.metrics;
    let mb = &b.ctx.obs.metrics;
    let mut diff: Vec<String> = Vec::new();
    for (k, va) in &ma.counts {
        match mb.counts.get(k) {
            Some(vb) if vb == va => {}
            Some(vb) => diff.push(format!("{k}: {va} vs {vb}")),
            None => diff.push(format!("{k}: {va} vs absent")),
        }
    }
    for (k, vb) in &mb.counts {
        if !ma.counts.contains_key(k) {
            diff.push(format!("{k}: absent vs {vb}"));
        }
    }
    assert!(diff.is_empty(), "counter metrics differ: {diff:?}");
    let mut ka: Vec<_> = ma.sums.keys().collect();
    let mut kb: Vec<_> = mb.sums.keys().collect();
    ka.sort();
    kb.sort();
    assert_eq!(ka, kb, "sum metric keys differ");
    for (k, va) in &ma.sums {
        let vb = mb.sums[k];
        assert!((va - vb).abs() < TOL, "sum {k}: {va} vs {vb}");
    }

    assert_eq!(a.ctx.obs.events, b.ctx.obs.events, "event streams differ");
}

#[test]
fn execute_and_timing_only_produce_identical_observability() {
    for kind in SchemeKind::all() {
        let exec = run(kind, ExecMode::Execute, FaultPlan::none());
        let timing = run(kind, ExecMode::TimingOnly, FaultPlan::none());
        assert_obs_equal(&exec, &timing);
    }
}

#[test]
fn fault_runs_agree_across_modes_and_record_ledger_events() {
    let nt = N / B;
    let plan = FaultPlan::paper_storage_error(nt, B);
    let exec = run(SchemeKind::Enhanced, ExecMode::Execute, plan.clone());
    let timing = run(SchemeKind::Enhanced, ExecMode::TimingOnly, plan);
    assert_obs_equal(&exec, &timing);

    // The Execute run really corrected data; the report must show the
    // injection and the recovery, sourced from the injector ledger.
    assert_eq!(exec.verify.corrected_data, 1);
    let m = &exec.ctx.obs.metrics;
    assert_eq!(m.count("faults.injected"), 1);
    assert_eq!(m.count("verify.corrected_data"), 1);
    assert!(m.count("verify.detections") >= 1);
    let kinds: Vec<&str> = exec
        .ctx
        .obs
        .events
        .iter()
        .map(|e| e.kind.as_str())
        .collect();
    assert!(kinds.contains(&"fault.injected"), "events: {kinds:?}");
    assert!(kinds.contains(&"fault.detected"), "events: {kinds:?}");
    assert!(kinds.contains(&"fault.corrected"), "events: {kinds:?}");
}

#[test]
fn phase_totals_tile_the_run_for_every_scheme() {
    for kind in SchemeKind::all() {
        let out = run(kind, ExecMode::TimingOnly, FaultPlan::none());
        let rep = out.report();
        rep.validate(TOL)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert!((rep.total_secs - out.time.as_secs()).abs() < TOL);
        let sum: f64 = rep.phase_totals.iter().map(|p| p.secs).sum();
        assert!(
            (sum - rep.total_secs).abs() < TOL,
            "{}: phases sum to {sum}, total {}",
            kind.name(),
            rep.total_secs
        );
    }
}

#[test]
fn restart_runs_keep_the_tiling_invariant() {
    // A propagated (storage) error under Offline-ABFT forces a restart;
    // the unwound attempt must not leave gaps in the span tree.
    let nt = N / B;
    let out = run(
        SchemeKind::Offline,
        ExecMode::TimingOnly,
        FaultPlan::paper_storage_error(nt, B),
    );
    assert!(out.attempts > 1, "expected a restart");
    let rep = out.report();
    rep.validate(TOL).expect("tiling holds across restarts");
    let kinds: Vec<&str> = out.ctx.obs.events.iter().map(|e| e.kind.as_str()).collect();
    assert!(kinds.contains(&"run.restart"), "events: {kinds:?}");
}

#[test]
fn report_roundtrips_through_json() {
    // Per-op intervals live in the op log, not the span tree: a run with
    // its timeline recorded reports the same scope tree as one without.
    let opts = AbftOptions {
        record_timeline: true,
        ..AbftOptions::default()
    };
    let out = run_scheme(
        SchemeKind::Enhanced,
        &SystemProfile::test_profile(),
        ExecMode::TimingOnly,
        N,
        B,
        &opts,
        FaultPlan::none(),
        None,
    )
    .expect("factorization succeeds");
    let rep = out.report();
    let json = rep.to_json();
    assert!(json.contains("\"schema_version\""));
    let back = RunReport::from_json(&json).expect("parses");
    assert_eq!(back.name, rep.name);
    assert_eq!(back.config, rep.config);
    assert_eq!(back.spans.len(), rep.spans.len());
    assert_eq!(back.events, rep.events);
    assert!((back.total_secs - rep.total_secs).abs() < TOL);
    // Every span is a scope, and the scopes made it through.
    assert!(!back.spans.is_empty());
    assert!(back.spans.iter().all(|s| s.kind == SpanKind::Scope));
    assert!(out.ctx.log.ops().count() > back.spans.len());
}
