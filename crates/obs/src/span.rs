//! Hierarchical scope spans over the virtual clock.
//!
//! A scope is a contiguous **host-clock** interval opened and closed by
//! driver code (`run_scheme`, the scheme attempt loops, `factor_magma`, …).
//! Scopes nest strictly: a parent's children are issued back-to-back, so
//! sibling scopes tile their parent exactly and the **leaf** scopes of the
//! tree tile the whole run. That is the invariant behind
//! [`SpanRecorder::phase_totals`] summing to the run's total virtual time.
//!
//! Because scopes measure the host's critical path, their phase totals
//! answer "what was the driver *waiting on*" (verification syncs, the POTF2
//! round trip), while the metrics registry and the simulator's op log (one
//! record per scheduled kernel or transfer) answer "what was each engine
//! *doing*".

use std::collections::HashMap;

/// The fixed phase taxonomy; every span carries one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Phase {
    /// Whole factorization run (the root scope).
    Run,
    /// Buffer/stream allocation and input placement.
    Setup,
    /// One restart attempt of a fault-tolerant scheme.
    Attempt,
    /// Initial checksum encoding of the full matrix.
    Encode,
    /// One outer iteration of the blocked factorization.
    Iteration,
    /// SYRK diagonal update (plus its checksum-update dispatch).
    Syrk,
    /// Panel GEMM (plus its checksum-update dispatch).
    Gemm,
    /// Host POTF2 including the diagonal-block round trip it waits on.
    Potf2,
    /// Panel TRSM (plus its checksum-update dispatch).
    Trsm,
    /// Checksum recalculation + compare + correction.
    Verify,
    /// Host↔device data movement.
    Transfer,
    /// End-of-run (or pre-restart) synchronization draining all engines.
    Drain,
}

impl Phase {
    /// Stable lowercase name used in reports and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Run => "run",
            Phase::Setup => "setup",
            Phase::Attempt => "attempt",
            Phase::Encode => "encode",
            Phase::Iteration => "iteration",
            Phase::Syrk => "syrk",
            Phase::Gemm => "gemm",
            Phase::Potf2 => "potf2",
            Phase::Trsm => "trsm",
            Phase::Verify => "verify",
            Phase::Transfer => "transfer",
            Phase::Drain => "drain",
        }
    }
}

/// The kind of a span, serialized with it. Every span is a scope: a
/// contiguous host-clock interval in the tiling invariant. (Per-op
/// intervals live in the simulator's op log.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SpanKind {
    /// Contiguous host-clock interval; participates in the tiling invariant.
    Scope,
}

/// One node of the span tree. Times are virtual seconds.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Span {
    /// Index of this span in the recorder's arena.
    pub id: usize,
    /// Arena index of the enclosing scope (`None` for roots).
    pub parent: Option<usize>,
    /// Human label ("attempt 1", "iter 3", "GEMM (4,2)", …).
    pub name: String,
    /// Taxonomy bucket.
    pub phase: Phase,
    /// Always [`SpanKind::Scope`].
    pub kind: SpanKind,
    /// Start time (virtual seconds).
    pub start: f64,
    /// End time (virtual seconds); equals `start` while still open.
    pub end: f64,
}

impl Span {
    /// Duration in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle to an open scope span, returned by [`SpanRecorder::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub usize);

/// Arena of spans plus the stack of currently-open scopes.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl SpanRecorder {
    /// Fresh, empty recorder.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Open a scope span starting at virtual time `t`, nested under the
    /// currently-open scope (if any).
    pub fn open(&mut self, name: impl Into<String>, phase: Phase, t: f64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.into(),
            phase,
            kind: SpanKind::Scope,
            start: t,
            end: t,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Close scope `id` at virtual time `t`. Any scopes opened after `id`
    /// and still open are closed first, at the same `t` — this is the
    /// unwind path for early returns (restart, fail-stop), and closing the
    /// whole stack at one instant preserves the tiling invariant. A no-op
    /// if `id` is not on the open stack.
    pub fn close(&mut self, id: SpanId, t: f64) {
        if !self.stack.contains(&id.0) {
            return;
        }
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = t;
            if top == id.0 {
                break;
            }
        }
    }

    /// All recorded spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of scopes currently open.
    pub fn open_count(&self) -> usize {
        self.stack.len()
    }

    /// Total duration of root scopes (spans with no parent) — the run's
    /// wall virtual time when a single root span wraps the run.
    pub fn root_total(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration)
            .sum()
    }

    /// Virtual time per phase, summed over **leaf** scopes (scopes with no
    /// children). By the tiling invariant these totals sum to
    /// [`SpanRecorder::root_total`] up to rounding.
    pub fn phase_totals(&self) -> HashMap<String, f64> {
        let mut has_child = vec![false; self.spans.len()];
        for p in self.spans.iter().filter_map(|s| s.parent) {
            has_child[p] = true;
        }
        let mut totals = HashMap::new();
        for s in &self.spans {
            if !has_child[s.id] {
                *totals.entry(s.phase.name().to_string()).or_insert(0.0) += s.duration();
            }
        }
        totals
    }

    /// `|root_total − Σ leaf scope durations|` — zero (up to rounding) when
    /// the scope tree tiles the run correctly.
    pub fn partition_residual(&self) -> f64 {
        let leaves: f64 = self.phase_totals().values().sum();
        (self.root_total() - leaves).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_tile() {
        let mut r = SpanRecorder::new();
        let run = r.open("run", Phase::Run, 0.0);
        let a = r.open("a", Phase::Encode, 0.0);
        r.close(a, 2.0);
        let b = r.open("b", Phase::Iteration, 2.0);
        r.close(b, 5.0);
        r.close(run, 5.0);
        assert_eq!(r.open_count(), 0);
        assert_eq!(r.root_total(), 5.0);
        let t = r.phase_totals();
        assert_eq!(t["encode"], 2.0);
        assert_eq!(t["iteration"], 3.0);
        assert!(r.partition_residual() < 1e-12);
    }

    #[test]
    fn close_unwinds_inner_scopes() {
        let mut r = SpanRecorder::new();
        let run = r.open("run", Phase::Run, 0.0);
        let _inner = r.open("iter", Phase::Iteration, 0.0);
        let _deeper = r.open("verify", Phase::Verify, 0.0);
        // Early return: only the outer handle is closed.
        r.close(run, 3.0);
        assert_eq!(r.open_count(), 0);
        for s in r.spans() {
            assert_eq!(s.end, 3.0);
        }
        assert!(r.partition_residual() < 1e-12);
    }

    #[test]
    fn close_of_unknown_id_is_noop() {
        let mut r = SpanRecorder::new();
        let a = r.open("a", Phase::Run, 0.0);
        r.close(a, 1.0);
        r.close(a, 9.0); // second close ignored
        assert_eq!(r.spans()[0].end, 1.0);
    }
}
