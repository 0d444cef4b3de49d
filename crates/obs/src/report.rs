//! The run-report exporter: one JSON document (plus a text rendering)
//! describing a complete factorization run — configuration, per-phase
//! virtual-time totals, metrics, events, and the full span tree.
//!
//! Every JSON artifact the workspace writes — run reports and the bench
//! binaries' tables/traces alike — is wrapped in the same versioned
//! [`envelope`]:
//!
//! ```text
//! { "schema_version": 1, "kind": "...", "name": "...", "body": { ... } }
//! ```
//!
//! Downstream tooling dispatches on `schema_version` and `kind` instead of
//! sniffing shapes. [`RunReport`] is itself the `body` of a
//! `kind = "run_report"` envelope.

use crate::event::RunEvent;
use crate::metrics::MetricsRegistry;
use crate::span::Span;
use crate::Obs;
use std::fmt::Write as _;

/// Version of every JSON artifact schema this crate emits. Bump on any
/// breaking change to [`RunReport`] or the bench table/trace bodies.
pub const SCHEMA_VERSION: u32 = 1;

/// One configuration entry (stringified value, so heterogeneous settings
/// fit one list).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KeyValue {
    /// Setting name, e.g. `n`, `block`, `placement`.
    pub key: String,
    /// Stringified value.
    pub value: String,
}

/// Virtual time attributed to one phase (summed over leaf scope spans).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PhaseTotal {
    /// Phase name (see `Phase::name`).
    pub phase: String,
    /// Total virtual seconds.
    pub secs: f64,
}

/// A complete, serializable description of one run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Driver name ("Enhanced Online-ABFT", "MAGMA hybrid", …).
    pub name: String,
    /// System profile name ("Tardis", "Bulldozer64", "Test1G").
    pub system: String,
    /// Execution mode ("Execute" or "TimingOnly").
    pub mode: String,
    /// Run configuration as key/value pairs.
    pub config: Vec<KeyValue>,
    /// Total virtual time of the run in seconds.
    pub total_secs: f64,
    /// Per-phase totals over leaf scope spans; sums to `total_secs` up to
    /// rounding (see [`RunReport::validate`]).
    pub phase_totals: Vec<PhaseTotal>,
    /// The metrics registry snapshot (idle gauges filled in at build time).
    pub metrics: MetricsRegistry,
    /// Fault/recovery event stream.
    pub events: Vec<RunEvent>,
    /// Full span tree (scopes always; ops when op recording was enabled).
    pub spans: Vec<Span>,
}

impl RunReport {
    /// Build a report from a finished run's observability state.
    ///
    /// Also derives the idle gauges: `idle_secs.gpu`, `idle_secs.host`,
    /// and `idle_secs.cpu_workers` as `total − busy_secs.engine.*`,
    /// clamped at zero (engine busy sums are kernel-seconds and can exceed
    /// wall time under concurrent kernel execution).
    pub fn new(name: &str, system: &str, mode: &str, total_secs: f64, obs: &Obs) -> Self {
        let mut metrics = obs.metrics.clone();
        for (engine, key) in [
            ("gpu", "idle_secs.gpu"),
            ("host", "idle_secs.host"),
            ("cpu_workers", "idle_secs.cpu_workers"),
        ] {
            let busy = metrics.sum(&format!("busy_secs.engine.{engine}"));
            metrics.set_gauge(key, (total_secs - busy).max(0.0));
        }
        let mut phase_totals: Vec<PhaseTotal> = obs
            .spans
            .phase_totals()
            .into_iter()
            .map(|(phase, secs)| PhaseTotal { phase, secs })
            .collect();
        phase_totals.sort_by(|a, b| a.phase.cmp(&b.phase));
        RunReport {
            schema_version: SCHEMA_VERSION,
            name: name.to_string(),
            system: system.to_string(),
            mode: mode.to_string(),
            config: Vec::new(),
            total_secs,
            phase_totals,
            metrics,
            events: obs.events.clone(),
            spans: obs.spans.spans().to_vec(),
        }
    }

    /// Append one configuration entry (builder style).
    pub fn config_kv(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.config.push(KeyValue {
            key: key.to_string(),
            value: value.to_string(),
        });
        self
    }

    /// Check the report's internal invariant: per-phase totals sum to
    /// `total_secs` within `tol` (absolute seconds). Returns a description
    /// of the violation otherwise.
    pub fn validate(&self, tol: f64) -> Result<(), String> {
        let sum: f64 = self.phase_totals.iter().map(|p| p.secs).sum();
        let residual = (sum - self.total_secs).abs();
        if residual > tol {
            return Err(format!(
                "phase totals sum to {sum:.9}s but the run took {:.9}s (residual {residual:.3e})",
                self.total_secs
            ));
        }
        Ok(())
    }

    /// Serialize to pretty-printed JSON wrapped in the versioned envelope.
    pub fn to_json(&self) -> String {
        let env = envelope("run_report", &self.name, serde::Serialize::to_value(self));
        serde_json::to_string_pretty(&env).expect("run report serializes")
    }

    /// Parse a report back from [`RunReport::to_json`] output (accepts the
    /// enveloped form or a bare report body).
    pub fn from_json(s: &str) -> Result<RunReport, serde::Error> {
        let v = serde_json::value_from_str(s).map_err(|e| serde::Error(e.to_string()))?;
        let body = match v.as_object() {
            Some(obj) if obj.iter().any(|(k, _)| k == "body") => serde::field(obj, "body")?.clone(),
            _ => v,
        };
        serde::Deserialize::from_value(&body)
    }

    /// Human-readable summary: config, phase breakdown, engine busy/idle,
    /// fault counters, and the event log.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== run report: {} on {} ({}) — {:.4}s total ==",
            self.name, self.system, self.mode, self.total_secs
        );
        if !self.config.is_empty() {
            let cfg: Vec<String> = self
                .config
                .iter()
                .map(|kv| format!("{}={}", kv.key, kv.value))
                .collect();
            let _ = writeln!(out, "config: {}", cfg.join(" "));
        }
        let _ = writeln!(out, "-- where the time went (host critical path) --");
        let mut phases = self.phase_totals.clone();
        phases.sort_by(|a, b| b.secs.total_cmp(&a.secs));
        for p in &phases {
            let pct = if self.total_secs > 0.0 {
                100.0 * p.secs / self.total_secs
            } else {
                0.0
            };
            let _ = writeln!(out, "  {:<16} {:>12.6}s  {pct:>6.2}%", p.phase, p.secs);
        }
        let _ = writeln!(out, "-- engines --");
        for engine in ["gpu", "host", "cpu_workers", "dma_h2d", "dma_d2h"] {
            let busy = self.metrics.sum(&format!("busy_secs.engine.{engine}"));
            let idle = self.metrics.gauge(&format!("idle_secs.{engine}"));
            match idle {
                Some(i) => {
                    let _ = writeln!(out, "  {engine:<12} busy {busy:>12.6}s  idle {i:>12.6}s");
                }
                None => {
                    let _ = writeln!(out, "  {engine:<12} busy {busy:>12.6}s");
                }
            }
        }
        let pcie = self.metrics.count("pcie.bytes.h2d") + self.metrics.count("pcie.bytes.d2h");
        let _ = writeln!(
            out,
            "  pcie         {pcie} bytes (h2d {}, d2h {})",
            self.metrics.count("pcie.bytes.h2d"),
            self.metrics.count("pcie.bytes.d2h"),
        );
        let _ = writeln!(out, "-- fault tolerance --");
        for key in [
            "verify.batches",
            "verify.tiles",
            "verify.detections",
            "verify.corrected_data",
            "verify.repaired_checksums",
            "verify.uncorrectable_columns",
            "faults.injected",
        ] {
            let _ = writeln!(out, "  {key:<28} {}", self.metrics.count(key));
        }
        if self.events.is_empty() {
            let _ = writeln!(out, "-- events: none --");
        } else {
            let _ = writeln!(out, "-- events ({}) --", self.events.len());
            for e in &self.events {
                let _ = writeln!(out, "  [{:>12.6}s] {:<20} {}", e.t, e.kind, e.detail);
            }
        }
        out
    }
}

/// Wrap a JSON body in the workspace's versioned artifact envelope.
pub fn envelope(kind: &str, name: &str, body: serde::Value) -> serde::Value {
    serde::Value::Object(vec![
        (
            "schema_version".to_string(),
            serde::Value::U64(SCHEMA_VERSION as u64),
        ),
        ("kind".to_string(), serde::Value::Str(kind.to_string())),
        ("name".to_string(), serde::Value::Str(name.to_string())),
        ("body".to_string(), body),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Phase;

    fn sample() -> RunReport {
        let mut obs = Obs::new();
        let run = obs.spans.open("run", Phase::Run, 0.0);
        let e = obs.spans.open("encode", Phase::Encode, 0.0);
        obs.spans.close(e, 1.0);
        let i = obs.spans.open("iter 0", Phase::Iteration, 1.0);
        obs.spans.close(i, 4.0);
        obs.spans.close(run, 4.0);
        obs.metrics.add_f64("busy_secs.engine.gpu", 3.0);
        obs.metrics.inc("verify.batches");
        obs.event(2.0, "fault.injected", "tile (1,0)");
        let mut r = RunReport::new("demo", "Test1G", "TimingOnly", 4.0, &obs);
        r.config_kv("n", 64).config_kv("block", 16);
        r
    }

    #[test]
    fn phase_totals_sum_to_total() {
        let r = sample();
        r.validate(1e-9).expect("partition holds");
        let sum: f64 = r.phase_totals.iter().map(|p| p.secs).sum();
        assert!((sum - 4.0).abs() < 1e-12);
    }

    #[test]
    fn idle_gauges_derived() {
        let r = sample();
        assert_eq!(r.metrics.gauge("idle_secs.gpu"), Some(1.0));
        assert_eq!(r.metrics.gauge("idle_secs.host"), Some(4.0));
    }

    #[test]
    fn json_roundtrip_via_envelope() {
        let r = sample();
        let json = r.to_json();
        assert!(json.contains("\"schema_version\""));
        assert!(json.contains("\"kind\": \"run_report\""));
        let back = RunReport::from_json(&json).expect("parses");
        assert_eq!(back.name, r.name);
        assert_eq!(back.config, r.config);
        assert_eq!(back.events, r.events);
        assert_eq!(back.spans.len(), r.spans.len());
        assert!((back.total_secs - r.total_secs).abs() < 1e-12);
    }

    #[test]
    fn validate_flags_gaps() {
        let mut r = sample();
        r.total_secs = 10.0; // phase totals still sum to 4
        assert!(r.validate(1e-9).is_err());
    }

    #[test]
    fn text_rendering_mentions_key_sections() {
        let txt = sample().render_text();
        assert!(txt.contains("run report: demo"));
        assert!(txt.contains("where the time went"));
        assert!(txt.contains("iteration"));
        assert!(txt.contains("fault.injected"));
    }

    #[test]
    fn envelope_shape() {
        let v = envelope("table", "t01", serde::Value::Null);
        let obj = v.as_object().expect("object");
        assert_eq!(obj[0].0, "schema_version");
        assert_eq!(obj[1].1.as_str(), Some("table"));
    }
}
