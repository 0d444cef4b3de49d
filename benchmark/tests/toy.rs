//! Checker-under-test: all six workloads at toy size (n=256 b=32, nt=8)
//! through the same harness the measured runs use, plus negative controls
//! showing the correctness check can fail.

use hchol_benchmark::harness::{run_traced, run_untraced, RunConfig, RunResult};
use hchol_benchmark::spec::{MetricDef, Spec};
use hchol_benchmark::trace::Tracer;
use hchol_benchmark::workloads::{
    digest, run_repeat, Checker, Inputs, Keep, OpOutput, Scale, Workload, WORKLOADS,
};
use serde::Value;

fn toy_config() -> RunConfig {
    RunConfig {
        seed: 42,
        // No time budget: each phase runs its minimum number of repeats.
        seconds: 0.0,
        scale: Scale::Toy,
    }
}

fn assert_metrics_match(defs: &[MetricDef], r: &RunResult) {
    let got: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(got, want, "{}: metric names and order", r.workload);
    for (m, d) in r.metrics.iter().zip(defs) {
        assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        assert_eq!(m.unit, d.unit, "{} unit", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

fn assert_spans_nest(tr: &Tracer) {
    let spans = tr.spans();
    assert!(!spans.is_empty(), "traced pass recorded no spans");
    for s in spans {
        assert!(s.end_ns >= s.start_ns, "{} ends before it starts", s.name);
        if let Some(p) = s.parent {
            let parent = &spans[p];
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{} escapes its parent {}",
                s.name,
                parent.name
            );
        }
    }
    for (s, own) in spans.iter().zip(tr.self_ns()) {
        assert!(own >= 0, "{} has negative self time {own}", s.name);
    }
    // Repeats carry their id; the one-off decomposition calls do not.
    assert!(spans
        .iter()
        .any(|s| s.name == "repeat" && s.repeat == Some(0)));
    assert!(spans
        .iter()
        .any(|s| s.name == "decompose" && s.repeat.is_none()));
}

#[test]
fn workload_list_matches_the_contract() {
    let spec = Spec::load();
    assert_eq!(spec.workloads, WORKLOADS);
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    for m in &spec.end_to_end {
        let b = m.bound.expect("every end-to-end metric has a bound");
        assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
    }
    assert!(Workload::build("no_such_workload", Scale::Toy).is_none());
}

#[test]
fn every_workload_emits_every_metric_and_both_clocks_agree() {
    let spec = Spec::load();
    let cfg = toy_config();
    for name in &spec.workloads {
        let w = Workload::build(name, Scale::Toy).expect("known workload");
        let untraced = run_untraced(&w, &cfg, &spec).expect("untraced pass");
        let traced = run_traced(&w, &cfg, &spec).expect("traced pass");

        assert_metrics_match(&spec.end_to_end, &untraced);
        assert_metrics_match(&spec.per_layer, &traced);
        for m in &untraced.metrics {
            assert!(m.value > 0.0, "{name}: end-to-end {} = {}", m.name, m.value);
        }
        for r in [&untraced, &traced] {
            assert!(r.attempted >= 1);
            assert_eq!(r.failed, 0, "{name}: {:?}", r.notes);
            assert!(r.correct());
        }

        // Identical across repeats (the checker fails an operation whose
        // makespan differs from the first repeat's, and none failed) and
        // between the two passes.
        assert_eq!(
            untraced.virtual_s.to_bits(),
            traced.virtual_s.to_bits(),
            "{name}: virtual_s differs between passes"
        );
        assert_eq!(untraced.metric("virtual_s"), Some(untraced.virtual_s));
        assert!(untraced.tracer.is_none());
        assert_spans_nest(traced.tracer.as_ref().expect("traced pass keeps its spans"));

        // The result line holds exactly the contract's four keys.
        let Value::Object(line) = untraced.to_value() else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = line.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn workloads_exercise_the_layers_they_claim() {
    let spec = Spec::load();
    let cfg = toy_config();
    let traced = |name: &str| {
        let w = Workload::build(name, Scale::Toy).expect("known workload");
        run_traced(&w, &cfg, &spec).expect("traced pass")
    };
    let value = |r: &RunResult, m: &str| r.metric(m).unwrap_or_else(|| panic!("no metric {m}"));

    // nt = 8: 84 tile GEMMs, 28 TRSMs, 8 POTF2s per attempt.
    let exec = traced("exec_large_block");
    assert_eq!(value(&exec, "blas.gemm_nt.calls"), 84.0);
    assert_eq!(value(&exec, "blas.trsm.calls"), 28.0);
    assert_eq!(value(&exec, "blas.potf2.calls"), 8.0);
    assert_eq!(value(&exec, "analyze.check_plan_s"), 0.0);
    assert_eq!(value(&exec, "faults.injected"), 0.0);
    let sum = value(&exec, "core.plan.for_scheme_s")
        + value(&exec, "core.sim_exec_s")
        + value(&exec, "core.numerics_s");
    let whole = value(&exec, "core.run.execute_s");
    assert!(
        (sum - whole).abs() <= 1e-9 * whole.max(1.0),
        "{sum} vs {whole}"
    );

    // The faulted workload corrects in place, then restarts once.
    let faulted = traced("exec_faulted");
    assert!(value(&faulted, "faults.injected") >= 2.0);
    assert!(value(&faulted, "core.recovery.corrected") >= 1.0);
    assert!(value(&faulted, "core.recovery.attempts") >= 3.0);
    assert_eq!(value(&faulted, "blas.potf2.calls"), 3.0 * 8.0);

    // No numerics in the simulator workload; analyzers only in the proof one.
    let sim = traced("sim_paper_scale");
    assert_eq!(value(&sim, "blas.gemm_nt.calls"), 0.0);
    assert_eq!(value(&sim, "core.numerics_s"), 0.0);
    assert!(value(&sim, "virt.kernels") > 0.0);
    let proof = traced("proof_feature_cross");
    for m in [
        "analyze.check_plan_s",
        "analyze.check_liveness_s",
        "analyze.check_coverage_s",
        "analyze.schedule_s",
        "analyze.coverage.sites",
        "analyze.schedule.ops",
        "core.feature.shard4.wall_s",
        "virt.feature.batch4.makespan_s",
    ] {
        assert!(value(&proof, m) > 0.0, "{m} = 0 on the proof workload");
    }
}

/// One warm-up repeat of the toy `exec_large_block`, factor kept, already
/// observed by the returned checker (which therefore holds the reference).
fn observed_warm_up() -> (Workload, Inputs, Vec<OpOutput>, Checker) {
    let w = Workload::build("exec_large_block", Scale::Toy).expect("known workload");
    let inputs = Inputs::generate(&w, 42);
    let keep = Keep {
        factor: true,
        detail: false,
    };
    let warm = run_repeat(&w, &inputs, &mut Tracer::new(false), keep);
    let mut checker = Checker::new();
    checker.observe(&warm);
    assert_eq!((checker.attempted, checker.failed), (1, 0));
    (w, inputs, warm, checker)
}

fn failed_frac(c: &Checker) -> f64 {
    c.failed as f64 / c.attempted as f64
}

#[test]
fn negative_control_flipped_element_of_l() {
    let (w, inputs, mut warm, mut checker) = observed_warm_up();
    let a = inputs
        .reference_matrix()
        .expect("Execute workload has a matrix");

    // The honest factor passes the residual check.
    let residual = checker.residuals(&w, &a, &warm);
    assert!(residual < 1e-12, "residual {residual:e}");
    assert_eq!(failed_frac(&checker), 0.0);

    // One flipped element of L: the next repeat's digest no longer matches
    // the reference, and the residual check rejects the factor itself.
    let l = warm[0].factor.as_mut().expect("factor was kept");
    l.set(200, 100, -l.get(200, 100));
    warm[0].digest = warm[0].factor.as_ref().map(digest);
    checker.observe(&warm);
    assert_eq!((checker.attempted, checker.failed), (2, 1));
    let residual = checker.residuals(&w, &a, &warm);
    assert!(
        residual > 1e-12,
        "flipped factor still passes: {residual:e}"
    );
    assert_eq!(checker.failed, 2);
    assert!(failed_frac(&checker) > 0.0);
}

#[test]
fn negative_control_perturbed_makespan_and_library_error() {
    let (_, _, mut warm, mut checker) = observed_warm_up();
    // The smallest possible drift of the virtual clock is a failure.
    warm[0].virtual_s = f64::from_bits(warm[0].virtual_s.to_bits() + 1);
    checker.observe(&warm);
    assert_eq!((checker.attempted, checker.failed), (2, 1));
    assert!(failed_frac(&checker) > 0.0);

    // So is an operation the library itself reported as failed.
    let (_, _, mut warm, mut checker) = observed_warm_up();
    warm[0].error = Some("run ended with uncorrectable corruption".into());
    checker.observe(&warm);
    assert_eq!(checker.failed, 1);
    assert!(checker.notes[0].contains("uncorrectable"));
}
