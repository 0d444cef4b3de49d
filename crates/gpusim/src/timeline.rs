//! Execution trace: who ran what, when.
//!
//! Every operation the [`crate::SimContext`] performs is recorded as a
//! [`TraceEntry`]. The paper's Figure 1 (the MAGMA Cholesky CPU/GPU/transfer
//! overlap chart) is regenerated from this trace by the bench harness, and
//! the overhead experiments use per-lane busy-time summaries from here.

use crate::profile::KernelClass;
use crate::time::SimTime;

/// Which execution lane an operation ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Lane {
    /// A GPU stream.
    GpuStream(usize),
    /// The host→device DMA engine.
    CopyH2D,
    /// The device→host DMA engine.
    CopyD2H,
    /// The host thread driving the computation.
    HostMain,
    /// An offloaded CPU worker lane (Optimization 2's CPU checksum updates).
    CpuWorker(usize),
    /// The outbound peer-link port of one device (sharded multi-GPU runs).
    DevLink(usize),
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::GpuStream(s) => write!(f, "gpu/stream{s}"),
            Lane::CopyH2D => write!(f, "copy/h2d"),
            Lane::CopyD2H => write!(f, "copy/d2h"),
            Lane::HostMain => write!(f, "cpu/main"),
            Lane::CpuWorker(w) => write!(f, "cpu/worker{w}"),
            Lane::DevLink(d) => write!(f, "link/dev{d}"),
        }
    }
}

/// One operation on the virtual timeline.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TraceEntry {
    /// Execution lane.
    pub lane: Lane,
    /// Human-readable operation label, e.g. `"GEMM j=3"`.
    pub label: String,
    /// Cost-model class (None for transfers).
    pub class: Option<KernelClass>,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
    /// FLOPs performed (0 for transfers) — for utilization accounting.
    pub flops: u64,
    /// Bytes moved (0 for kernels).
    pub bytes: u64,
}

/// An append-only trace of the whole simulated run.
#[derive(Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Timeline {
    entries: Vec<TraceEntry>,
    enabled: bool,
}

impl Timeline {
    /// A recording timeline.
    pub fn recording() -> Self {
        Timeline {
            entries: Vec::new(),
            enabled: true,
        }
    }

    /// A disabled timeline (no memory growth on long sweeps).
    pub fn disabled() -> Self {
        Timeline {
            entries: Vec::new(),
            enabled: false,
        }
    }

    /// Record an entry (no-op when disabled).
    pub fn push(&mut self, e: TraceEntry) {
        if self.enabled {
            self.entries.push(e);
        }
    }

    /// All recorded entries in issue order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Total busy time per lane.
    pub fn lane_busy(&self, lane: Lane) -> SimTime {
        SimTime::secs(
            self.entries
                .iter()
                .filter(|e| e.lane == lane)
                .map(|e| e.end.as_secs() - e.start.as_secs())
                .sum(),
        )
    }

    /// Latest end time across all entries.
    pub fn makespan(&self) -> SimTime {
        SimTime::secs(
            self.entries
                .iter()
                .map(|e| e.end.as_secs())
                .fold(0.0, f64::max),
        )
    }

    /// Render a fixed-width ASCII Gantt chart (one row per lane), good
    /// enough to eyeball Figure-1-style overlap in a terminal.
    pub fn ascii_gantt(&self, width: usize) -> String {
        let span = self.makespan().as_secs();
        if span <= 0.0 || self.entries.is_empty() {
            return String::from("(empty timeline)\n");
        }
        let mut lanes: Vec<Lane> = Vec::new();
        for e in &self.entries {
            if !lanes.contains(&e.lane) {
                lanes.push(e.lane);
            }
        }
        let mut out = String::new();
        for lane in lanes {
            let mut row = vec![' '; width];
            for e in self.entries.iter().filter(|e| e.lane == lane) {
                let a = ((e.start.as_secs() / span) * width as f64).floor() as usize;
                let b = ((e.end.as_secs() / span) * width as f64).ceil() as usize;
                let ch = match e.class {
                    Some(KernelClass::Blas3) => 'G',
                    Some(KernelClass::Syrk) => 'S',
                    Some(KernelClass::Trsm) => 'T',
                    Some(KernelClass::Blas2) => 'c',
                    Some(KernelClass::Potf2) => 'P',
                    Some(KernelClass::Light) => '.',
                    Some(KernelClass::FusedEpilogue) => 'F',
                    None => '=',
                };
                for slot in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *slot = ch;
                }
            }
            out.push_str(&format!(
                "{:>12} |{}|\n",
                lane.to_string(),
                row.iter().collect::<String>()
            ));
        }
        out.push_str(&format!(
            "{:>12}  0{}{:.3}s\n",
            "",
            " ".repeat(width.saturating_sub(10)),
            span
        ));
        out
    }

    /// Serialize to JSON (for external plotting).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.entries).expect("trace entries serialize")
    }

    /// Busy time grouped by kernel class (transfers under `None`).
    pub fn class_busy(&self) -> Vec<(Option<KernelClass>, SimTime)> {
        let mut acc: Vec<(Option<KernelClass>, f64)> = Vec::new();
        for e in &self.entries {
            let span = e.end.as_secs() - e.start.as_secs();
            match acc.iter_mut().find(|(c, _)| *c == e.class) {
                Some((_, t)) => *t += span,
                None => acc.push((e.class, span)),
            }
        }
        acc.sort_by(|a, b| b.1.total_cmp(&a.1));
        acc.into_iter()
            .map(|(c, t)| (c, SimTime::secs(t)))
            .collect()
    }

    /// One-line utilization summary: per-lane busy fractions of the
    /// makespan, ordered by contribution.
    pub fn utilization_summary(&self) -> String {
        let span = self.makespan().as_secs();
        if span <= 0.0 {
            return String::from("(empty timeline)");
        }
        let mut lanes: Vec<Lane> = Vec::new();
        for e in &self.entries {
            if !lanes.contains(&e.lane) {
                lanes.push(e.lane);
            }
        }
        let mut parts: Vec<(Lane, f64)> = lanes
            .into_iter()
            .map(|l| (l, self.lane_busy(l).as_secs() / span))
            .collect();
        parts.sort_by(|a, b| b.1.total_cmp(&a.1));
        parts
            .into_iter()
            .map(|(l, f)| format!("{l} {:.0}%", f * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lane: Lane, s: f64, e: f64, class: Option<KernelClass>) -> TraceEntry {
        TraceEntry {
            lane,
            label: "op".into(),
            class,
            start: SimTime::secs(s),
            end: SimTime::secs(e),
            flops: 100,
            bytes: 0,
        }
    }

    #[test]
    fn busy_and_makespan() {
        let mut t = Timeline::recording();
        t.push(entry(
            Lane::GpuStream(0),
            0.0,
            1.0,
            Some(KernelClass::Blas3),
        ));
        t.push(entry(
            Lane::GpuStream(0),
            2.0,
            3.0,
            Some(KernelClass::Blas3),
        ));
        t.push(entry(Lane::HostMain, 0.5, 0.7, Some(KernelClass::Potf2)));
        assert!((t.lane_busy(Lane::GpuStream(0)).as_secs() - 2.0).abs() < 1e-12);
        assert!((t.lane_busy(Lane::HostMain).as_secs() - 0.2).abs() < 1e-12);
        assert_eq!(t.makespan().as_secs(), 3.0);
        assert_eq!(t.entries().len(), 3);
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let mut t = Timeline::disabled();
        t.push(entry(Lane::HostMain, 0.0, 1.0, None));
        assert!(t.entries().is_empty());
        assert_eq!(t.makespan().as_secs(), 0.0);
    }

    #[test]
    fn gantt_renders_rows() {
        let mut t = Timeline::recording();
        t.push(entry(
            Lane::GpuStream(0),
            0.0,
            0.5,
            Some(KernelClass::Blas3),
        ));
        t.push(entry(Lane::HostMain, 0.5, 1.0, Some(KernelClass::Potf2)));
        let g = t.ascii_gantt(40);
        assert!(g.contains("gpu/stream0"));
        assert!(g.contains("cpu/main"));
        assert!(g.contains('G'));
        assert!(g.contains('P'));
    }

    #[test]
    fn empty_gantt_is_graceful() {
        let t = Timeline::recording();
        assert!(t.ascii_gantt(40).contains("empty"));
    }

    #[test]
    fn class_busy_groups_and_sorts() {
        let mut t = Timeline::recording();
        t.push(entry(
            Lane::GpuStream(0),
            0.0,
            2.0,
            Some(KernelClass::Blas3),
        ));
        t.push(entry(
            Lane::GpuStream(0),
            2.0,
            2.5,
            Some(KernelClass::Blas2),
        ));
        t.push(entry(
            Lane::GpuStream(1),
            0.0,
            1.0,
            Some(KernelClass::Blas3),
        ));
        let cb = t.class_busy();
        assert_eq!(cb[0].0, Some(KernelClass::Blas3));
        assert!((cb[0].1.as_secs() - 3.0).abs() < 1e-12);
        assert_eq!(cb[1].0, Some(KernelClass::Blas2));
    }

    #[test]
    fn utilization_summary_mentions_lanes() {
        let mut t = Timeline::recording();
        t.push(entry(
            Lane::GpuStream(0),
            0.0,
            1.0,
            Some(KernelClass::Blas3),
        ));
        t.push(entry(Lane::HostMain, 0.0, 0.5, Some(KernelClass::Potf2)));
        let s = t.utilization_summary();
        assert!(s.contains("gpu/stream0 100%"), "{s}");
        assert!(s.contains("cpu/main 50%"), "{s}");
        assert_eq!(
            Timeline::recording().utilization_summary(),
            "(empty timeline)"
        );
    }

    #[test]
    fn json_roundtrip() {
        let mut t = Timeline::recording();
        t.push(entry(Lane::CopyH2D, 0.0, 0.1, None));
        let j = t.to_json();
        let back: Vec<TraceEntry> = serde_json::from_str(&j).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].lane, Lane::CopyH2D);
    }
}
