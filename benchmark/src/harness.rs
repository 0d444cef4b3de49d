//! One benchmark run of one workload: set-up, the measured closed loop,
//! the correctness checks, and (traced pass) the per-layer decomposition.
//!
//! Closed loop, one caller: the next repeat of the request list starts
//! when the previous one has returned. Everything is single-threaded —
//! `hchol-core` never calls `blas::par`.

use crate::env;
use crate::layers::{self, Traced, Values};
use crate::spec::{MetricDef, Spec};
use crate::stats::{high_percentile, median, min, quartiles};
use crate::trace::Tracer;
use crate::workloads::{run_repeat, Checker, Inputs, Keep, OpOutput, Scale, Workload};
use serde::Value;
use std::collections::HashMap;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Fewest measured repeats of a phase, whatever `--seconds` says.
pub const MIN_REPEATS: usize = 3;

/// Share of `--seconds` the traced pass gives to each of its two phases
/// (untraced repeats, then traced repeats); the rest of its time goes to
/// the one-off decomposition calls.
const TRACED_PHASE_SHARE: f64 = 0.3;

/// Parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed: feeds `spd_diag_dominant(n, seed)` only.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Problem sizes.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Operations executed (every request of every repeat, warm-ups and
    /// decomposition runs included).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
    /// The metrics of this pass, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Wall seconds of each measured repeat of the untraced phase; their
    /// count is `R`.
    pub wall_samples: Vec<f64>,
    /// Σ makespans over one repeat — reported by both passes so they can
    /// be compared.
    pub virtual_s: f64,
    /// Worst ‖LLᵀ−A‖/‖A‖ over the checked factors (0 without numerics).
    pub residual: f64,
    /// The recorded spans (traced pass only).
    pub tracer: Option<Tracer>,
}

impl RunResult {
    /// Did every operation pass?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Value of the metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ];
                (m.name.clone(), Value::Object(body))
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

/// Pair measured values with the definitions of `defs`, in their order.
/// A value without a definition, or a definition without a value, is a
/// defect in this package and reported as such.
fn assemble(defs: &[MetricDef], mut values: Values) -> Result<Vec<Metric>, String> {
    let mut out = Vec::with_capacity(defs.len());
    for d in defs {
        let value = values
            .remove(&d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", d.name));
        }
        out.push(Metric {
            name: d.name.clone(),
            value,
            unit: d.unit.clone(),
        });
    }
    match values.keys().next() {
        Some(extra) => Err(format!("metric {extra} is not in BENCHMARK.json")),
        None => Ok(out),
    }
}

fn repeat_wall(outs: &[OpOutput]) -> f64 {
    outs.iter().map(|o| o.wall_s).sum()
}

/// Repeat the request list until `seconds` have passed (at least
/// [`MIN_REPEATS`] times), checking every operation. A repeat that would
/// overrun the budget by more than it stays inside is not started.
fn measure(
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    tr: &mut Tracer,
    checker: &mut Checker,
) -> Vec<Vec<OpOutput>> {
    let start = Instant::now();
    let mut repeats: Vec<Vec<OpOutput>> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let next = repeats.last().map_or(0.0, |r| repeat_wall(r));
        if repeats.len() >= MIN_REPEATS && elapsed + 0.5 * next >= seconds {
            break;
        }
        tr.set_repeat(Some(repeats.len()));
        let span = tr.open("repeat");
        let outs = run_repeat(w, inputs, tr, Keep::default());
        tr.close(span);
        checker.observe(&outs);
        repeats.push(outs);
    }
    tr.set_repeat(None);
    repeats
}

fn walls(repeats: &[Vec<OpOutput>]) -> Vec<f64> {
    repeats.iter().map(|r| repeat_wall(r)).collect()
}

/// `abft_overhead_pct`: Σ makespans over Σ MAGMA baseline makespans − 1.
fn abft_overhead_pct(w: &Workload, virtual_s: f64) -> f64 {
    // Requests of one kind and size share one baseline run.
    let mut memo = HashMap::new();
    let baseline: f64 = w
        .requests
        .iter()
        .map(|r| {
            *memo
                .entry((std::mem::discriminant(r), r.size()))
                .or_insert_with(|| r.baseline_virtual_s(&w.profile))
        })
        .sum();
    100.0 * (virtual_s / baseline - 1.0)
}

/// Check the factors the warm-up kept against the input matrix; returns
/// the worst residual and the seconds the check took.
fn residual_check(w: &Workload, inputs: &Inputs, warm: &[OpOutput], c: &mut Checker) -> (f64, f64) {
    let t0 = Instant::now();
    let residual = match inputs.reference_matrix() {
        Some(a) => c.residuals(w, &a, warm),
        None => 0.0,
    };
    (residual, t0.elapsed().as_secs_f64())
}

/// The untraced pass: every end-to-end metric.
pub fn run_untraced(w: &Workload, cfg: &RunConfig, spec: &Spec) -> Result<RunResult, String> {
    let mut tr = Tracer::new(false);
    let mut checker = Checker::new();

    // Set up several times and report the median: input generation,
    // fault-plan construction and the warm-up repeat. The previous
    // set-up's matrices are freed first so peak memory is one set-up's.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state: Option<(Inputs, Vec<OpOutput>)> = None;
    for k in 0..SETUPS {
        drop(state.take());
        let inputs = Inputs::generate(w, cfg.seed);
        let keep = Keep {
            factor: k + 1 == SETUPS,
            detail: false,
        };
        let warm = run_repeat(w, &inputs, &mut tr, keep);
        setup_s.push(inputs.generate_s + inputs.plan_gen_s + repeat_wall(&warm));
        checker.observe(&warm);
        state = Some((inputs, warm));
    }
    let (inputs, warm) = state.expect("SETUPS is at least 1");

    let repeats = measure(w, &inputs, cfg.seconds, &mut tr, &mut checker);
    let samples = walls(&repeats);
    let virtual_s: f64 = warm.iter().map(|o| o.virtual_s).sum();
    // Read before the residual check so the harness's own L·Lᵀ product
    // cannot mask a change in the library's footprint.
    let peak_rss_mb = env::peak_rss_mib().ok_or("VmHWM is not readable from /proc/self/status")?;
    let (residual, _) = residual_check(w, &inputs, &warm, &mut checker);

    let mut values = Values::new();
    values.insert("wall_s".into(), median(&samples));
    values.insert("virtual_s".into(), virtual_s);
    values.insert("abft_overhead_pct".into(), abft_overhead_pct(w, virtual_s));
    values.insert("peak_rss_mb".into(), peak_rss_mb);
    values.insert("setup_s".into(), median(&setup_s));
    Ok(RunResult {
        workload: w.name,
        attempted: checker.attempted,
        failed: checker.failed,
        notes: checker.notes,
        metrics: assemble(&spec.end_to_end, values)?,
        wall_samples: samples,
        virtual_s,
        residual,
        tracer: None,
    })
}

/// The traced pass: every per-layer metric. It measures a short untraced
/// phase and a traced phase of the same length (their ratio is the
/// tracing overhead), then makes the one-off decomposition calls.
pub fn run_traced(w: &Workload, cfg: &RunConfig, spec: &Spec) -> Result<RunResult, String> {
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut checker = Checker::new();

    let span = tr.open("setup");
    let inputs = Inputs::generate(w, cfg.seed);
    let keep = Keep {
        factor: true,
        detail: false,
    };
    let warm = run_repeat(w, &inputs, &mut off, keep);
    tr.close(span);
    checker.observe(&warm);

    let phase_s = cfg.seconds * TRACED_PHASE_SHARE;
    let untraced = walls(&measure(w, &inputs, phase_s, &mut off, &mut checker));
    let span = tr.open("traced_repeats");
    let traced_repeats = measure(w, &inputs, phase_s, &mut tr, &mut checker);
    tr.close(span);
    let traced = walls(&traced_repeats);

    // Every per-layer metric starts at 0 = "not exercised by this
    // workload"; the measurements below overwrite the ones that are.
    let mut values: Values = spec
        .per_layer
        .iter()
        .map(|d| (d.name.clone(), 0.0))
        .collect();
    let span = tr.open("decompose");
    layers::decompose(
        &mut values,
        w,
        &inputs,
        &Traced {
            repeats: &traced_repeats,
            wall_s: median(&untraced),
        },
        &mut tr,
        &mut checker,
        cfg.scale,
    );
    tr.close(span);

    let span = tr.open("residual_check");
    let (residual, check_s) = residual_check(w, &inputs, &warm, &mut checker);
    tr.close(span);

    let (q1, q3) = quartiles(&untraced);
    let (hi, hi_pct) = high_percentile(&untraced);
    values.insert("bench.samples".into(), untraced.len() as f64);
    values.insert("bench.wall_min_s".into(), min(&untraced));
    values.insert("bench.wall_q1_s".into(), q1);
    values.insert("bench.wall_q3_s".into(), q3);
    values.insert("bench.wall_hi_s".into(), hi);
    values.insert("bench.wall_hi_pct".into(), hi_pct);
    values.insert("bench.check_s".into(), check_s);
    values.insert(
        "bench.trace_overhead_frac".into(),
        median(&traced) / median(&untraced) - 1.0,
    );
    Ok(RunResult {
        workload: w.name,
        attempted: checker.attempted,
        failed: checker.failed,
        notes: checker.notes,
        metrics: assemble(&spec.per_layer, values)?,
        wall_samples: untraced,
        virtual_s: warm.iter().map(|o| o.virtual_s).sum(),
        residual,
        tracer: Some(tr),
    })
}
