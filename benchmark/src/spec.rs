//! The benchmark's contract, read from `BENCHMARK.json` at the repository
//! root: workload names, metric names with unit and direction, and the
//! regression bound of every end-to-end metric. Compiled in, so the
//! harness, `--compare` and the checker-under-test cannot drift from the
//! file the driver reads.

use crate::json::{field, number};
use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// How long one run measures, seconds.
    pub run_seconds: f64,
    /// End-to-end metrics (emitted with `--trace 0`).
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics (emitted with `--trace 1`).
    pub per_layer: Vec<MetricDef>,
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    field(v, key).unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
}

fn num(v: &Value) -> f64 {
    number(v).unwrap_or_else(|| panic!("BENCHMARK.json: expected a number, got {v:?}"))
}

fn metric_defs(v: &Value) -> Vec<MetricDef> {
    v.as_array()
        .expect("BENCHMARK.json: metric list")
        .iter()
        .map(|m| MetricDef {
            name: get(m, "name").as_str().expect("metric name").to_string(),
            unit: get(m, "unit").as_str().expect("metric unit").to_string(),
            lower_is_better: get(m, "better").as_str() == Some("lower"),
            bound: field(m, "bound").map(num),
        })
        .collect()
}

impl Spec {
    /// Parse the compiled-in `BENCHMARK.json`. Panics on a malformed file:
    /// that is a defect in this package, not an input error.
    pub fn load() -> Spec {
        let v = serde_json::value_from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            workloads: get(&v, "workloads")
                .as_array()
                .expect("workloads list")
                .iter()
                .map(|w| get(w, "name").as_str().expect("workload name").to_string())
                .collect(),
            run_seconds: num(get(&v, "run_seconds")),
            end_to_end: metric_defs(get(&v, "end_to_end")),
            per_layer: metric_defs(get(&v, "per_layer")),
        }
    }
}
