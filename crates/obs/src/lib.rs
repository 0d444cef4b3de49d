//! # hchol-obs
//!
//! The workspace's observability layer: a unified answer to "where did the
//! virtual time go, per scheme, per kernel class, per verification pass?"
//! — the question behind every table in Section VI of the paper.
//!
//! Three pieces, all keyed to the simulator's **virtual clock** (seconds of
//! `hchol_gpusim::SimTime`, never host wall-time):
//!
//! * [`SpanRecorder`] — hierarchical scope spans: contiguous host-clock
//!   intervals forming a tree that exactly tiles the run (run →
//!   setup/attempts/drain → encode/iterations → per-phase steps), so
//!   per-phase totals sum to the run's total time. Individual kernels and
//!   transfers are not spans: the simulator's op log records each once,
//!   and its timeline JSON is their export.
//! * [`MetricsRegistry`] — named counters, f64 accumulators, gauges, and
//!   log₂-bucketed virtual-time histograms (per-kernel-class busy time,
//!   PCIe bytes, verification/detection/correction counts, …).
//! * [`RunReport`] — serializes one complete run (config, phase totals,
//!   metrics, events, span tree) to versioned JSON plus a human-readable
//!   text summary. Every artifact the `hchol-bench` experiments write goes
//!   through the same [`envelope`] so downstream tooling can dispatch on
//!   `schema_version`/`kind`.
//!
//! The crate is deliberately free of simulator dependencies (only the
//! in-repo `serde`/`serde_json` shims) so every layer — gpusim, core,
//! bench — can emit into it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod names;
pub mod report;
pub mod span;

pub use event::RunEvent;
pub use metrics::{Histogram, MetricsRegistry};
pub use report::{envelope, KeyValue, PhaseTotal, RunReport, SCHEMA_VERSION};
pub use span::{Phase, Span, SpanId, SpanKind, SpanRecorder};

/// The per-run observability state: one of these lives inside every
/// simulation context and collects everything a [`RunReport`] needs.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Hierarchical span tree over the virtual clock.
    pub spans: SpanRecorder,
    /// Counters, sums, gauges, histograms.
    pub metrics: MetricsRegistry,
    /// Discrete happenings (fault injected / detected / corrected, …).
    pub events: Vec<RunEvent>,
}

impl Obs {
    /// Fresh, empty state.
    pub fn new() -> Self {
        Obs::default()
    }

    /// Append a discrete event at virtual time `t` (seconds).
    pub fn event(&mut self, t: f64, kind: &str, detail: impl Into<String>) {
        self.events.push(RunEvent {
            t,
            kind: kind.to_string(),
            detail: detail.into(),
        });
    }
}
