//! The op log: one record per scheduled unit of work, interleaved in issue
//! order with the ordering actions the driver issued.
//!
//! [`crate::SimContext`] appends one [`OpRecord`] per kernel, host task,
//! worker task or transfer — label, lane, kernel class, work category,
//! scheduled `(start, end)`, flops or bytes, declared [`AccessSet`] and the
//! fused-verify flag — and one [`TraceAction`] per event, wait and sync.
//! Two readers share the log:
//!
//! * **The timeline view** ([`OpLog::ops`], [`OpLog::lane_busy`],
//!   [`OpLog::ascii_gantt`], [`OpLog::utilization_summary`],
//!   [`OpLog::to_json`]): who ran what, when — the paper's Figure 1 and the
//!   per-lane busy-time summaries.
//! * **The program view** ([`OpLog::program`]): the ordering actions and
//!   the ops that declare accesses (an op with none cannot conflict with
//!   anything). The simulator's virtual clock guarantees only the orderings
//!   the program itself established — stream FIFO order, event edges and
//!   host syncs; `hchol-analyze` replays this view with vector clocks to
//!   find races and check ABFT protocol conformance.
//!
//! Two filters decide what the log keeps. With the **timeline** filter on it
//! keeps every op; with the **program** filter on it keeps the ordering
//! actions and every op that declares accesses. A view whose filter is off
//! reads as empty. New contexts keep both; `hchol-core` runs switch the
//! timeline off unless asked for it, and paper-scale sweeps switch both off
//! ([`crate::SimContext::disable_timeline`],
//! [`crate::SimContext::disable_trace`]). Timeline on with the program off
//! keeps every op and no ordering action: a chart without a program.

use crate::access::AccessSet;
use crate::counters::WorkCategory;
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

/// Where an operation executes, for the happens-before analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecSite {
    /// A device stream (kernels and async transfers enqueued on it).
    Stream(usize),
    /// The host main thread (`cpu_exec` tasks — blocks the driver).
    Host,
    /// An asynchronous CPU worker lane (`cpu_submit` tasks).
    CpuWorker(usize),
}

/// Direction of a DMA transfer (transfers additionally serialize on the
/// per-direction DMA lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDir {
    /// Host → device.
    H2D,
    /// Device → host.
    D2H,
}

/// One scheduled unit of work. Built only by the context's recorder.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Human-readable label, e.g. `"GEMM j=3"`.
    pub label: String,
    /// Declared tile accesses.
    pub access: AccessSet,
    /// Scheduled start.
    pub start: SimTime,
    /// Scheduled end.
    pub end: SimTime,
    /// FLOPs for kernels and tasks (a fused epilogue's included), bytes for
    /// transfers.
    pub work: u64,
    pub(crate) lane: Lane,
    /// The stream that issued a transfer (its lane is a DMA engine or a
    /// peer link, not the stream).
    pub(crate) stream: u32,
    /// Cost-model class (`None` for transfers).
    pub class: Option<KernelClass>,
    /// Accounting category (drives protocol-conformance classification).
    pub category: WorkCategory,
    /// True for kernels with a fused checksum epilogue: the kernel
    /// recalculates the checksums of the tiles it writes in the same
    /// launch, so its writes count as verification input without a
    /// separate recalc kernel reading them back.
    pub fused_verify: bool,
}

impl OpRecord {
    /// The lane the op occupied.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Where the op executes: a transfer runs on the stream that issued it.
    pub fn site(&self) -> ExecSite {
        match self.lane {
            Lane::GpuStream(s) => ExecSite::Stream(s),
            Lane::HostMain => ExecSite::Host,
            Lane::CpuWorker(w) => ExecSite::CpuWorker(w),
            Lane::CopyH2D | Lane::CopyD2H | Lane::DevLink(_) => {
                ExecSite::Stream(self.stream as usize)
            }
        }
    }

    /// DMA direction of a host↔device transfer, `None` otherwise.
    pub fn dma(&self) -> Option<DmaDir> {
        match self.lane {
            Lane::CopyH2D => Some(DmaDir::H2D),
            Lane::CopyD2H => Some(DmaDir::D2H),
            _ => None,
        }
    }
}

/// The timeline row: lane, label, class, start, end, flops, bytes.
impl serde::Serialize for OpRecord {
    fn to_value(&self) -> serde::Value {
        let (flops, bytes) = match self.class {
            Some(_) => (self.work, 0),
            None => (0, self.work),
        };
        serde::Value::Object(vec![
            ("lane".into(), self.lane.to_value()),
            ("label".into(), self.label.to_value()),
            ("class".into(), self.class.to_value()),
            ("start".into(), self.start.to_value()),
            ("end".into(), self.end.to_value()),
            ("flops".into(), flops.to_value()),
            ("bytes".into(), bytes.to_value()),
        ])
    }
}

/// One entry of the log, in issue order.
#[derive(Debug, Clone)]
pub enum TraceAction {
    /// A kernel, CPU task, or transfer.
    Op(OpRecord),
    /// `record_event`: event `event` captured stream `stream`'s frontier.
    RecordEvent {
        /// The recorded event's id.
        event: usize,
        /// The stream whose frontier was captured.
        stream: usize,
    },
    /// `stream_wait_event`: future work on `stream` waits for `event`.
    StreamWaitEvent {
        /// The waiting stream.
        stream: usize,
        /// The awaited event.
        event: usize,
    },
    /// `sync_stream`: the host blocks until `stream` drains.
    SyncStream {
        /// The drained stream.
        stream: usize,
    },
    /// `sync_device`: the host blocks until all streams and DMA lanes drain.
    SyncDevice,
    /// `sync_cpu_workers`: the host blocks until all worker lanes drain.
    SyncCpuWorkers,
}

/// Does the program view read `a`?
fn in_program(a: &TraceAction) -> bool {
    !matches!(a, TraceAction::Op(op) if op.access.is_empty())
}

/// The recorded run of one [`crate::SimContext`] (see the module docs).
#[derive(Debug, Clone)]
pub struct OpLog {
    entries: Vec<TraceAction>,
    pub(crate) timeline: bool,
    pub(crate) program: bool,
}

impl OpLog {
    /// A log keeping both views.
    pub(crate) fn new() -> Self {
        OpLog {
            entries: Vec::new(),
            timeline: true,
            program: true,
        }
    }

    fn keeps(&self, a: &TraceAction) -> bool {
        match a {
            TraceAction::Op(_) if self.timeline => true,
            _ => self.program && in_program(a),
        }
    }

    /// Append `a` if a filter keeps it.
    pub(crate) fn push(&mut self, a: TraceAction) {
        if self.keeps(&a) {
            self.entries.push(a);
        }
    }

    /// Set both filters and drop what neither keeps any more.
    pub(crate) fn set_filters(&mut self, timeline: bool, program: bool) {
        (self.timeline, self.program) = (timeline, program);
        let kept = std::mem::take(&mut self.entries);
        self.entries = kept.into_iter().filter(|a| self.keeps(a)).collect();
    }

    /// Everything kept, in issue order.
    pub fn entries(&self) -> &[TraceAction] {
        &self.entries
    }

    /// Everything kept, for editing in place — how a mutation control
    /// strips one access from a recorded program.
    // lint:allow(dead-pub) mutation control: schedule-analysis strips a recorded access
    pub fn entries_mut(&mut self) -> &mut [TraceAction] {
        &mut self.entries
    }

    /// The program view: each ordering action and each op that declares
    /// accesses, with its index in [`OpLog::entries`]. Issue order is a
    /// valid topological order of the happens-before graph: every edge a
    /// driver can create points from an earlier-issued action to a later
    /// one. Empty when the program filter is off.
    pub fn program(&self) -> impl Iterator<Item = (usize, &TraceAction)> {
        let n = if self.program { self.entries.len() } else { 0 };
        self.entries[..n]
            .iter()
            .enumerate()
            .filter(|(_, a)| in_program(a))
    }

    /// The timeline view: every op in issue order. Empty when the timeline
    /// filter is off.
    pub fn ops(&self) -> impl Iterator<Item = &OpRecord> {
        let n = if self.timeline { self.entries.len() } else { 0 };
        self.entries[..n].iter().filter_map(|a| match a {
            TraceAction::Op(op) => Some(op),
            _ => None,
        })
    }

    /// The lanes of the timeline, in order of first use.
    fn lanes(&self) -> Vec<Lane> {
        let mut lanes: Vec<Lane> = Vec::new();
        for op in self.ops() {
            if !lanes.contains(&op.lane) {
                lanes.push(op.lane);
            }
        }
        lanes
    }

    /// Total busy time per lane.
    pub fn lane_busy(&self, lane: Lane) -> SimTime {
        SimTime::secs(
            self.ops()
                .filter(|op| op.lane == lane)
                .map(|op| op.end.as_secs() - op.start.as_secs())
                .sum(),
        )
    }

    /// Latest end time across the timeline.
    pub fn makespan(&self) -> SimTime {
        SimTime::secs(self.ops().map(|op| op.end.as_secs()).fold(0.0, f64::max))
    }

    /// Render a fixed-width ASCII Gantt chart (one row per lane), good
    /// enough to eyeball Figure-1-style overlap in a terminal.
    pub fn ascii_gantt(&self, width: usize) -> String {
        let span = self.makespan().as_secs();
        if span <= 0.0 {
            return String::from("(empty timeline)\n");
        }
        let mut out = String::new();
        for lane in self.lanes() {
            let mut row = vec![' '; width];
            for op in self.ops().filter(|op| op.lane == lane) {
                let a = ((op.start.as_secs() / span) * width as f64).floor() as usize;
                let b = ((op.end.as_secs() / span) * width as f64).ceil() as usize;
                let ch = match op.class {
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

    /// Serialize the timeline to JSON (for external plotting): an array of
    /// `{lane, label, class, start, end, flops, bytes}` rows.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.ops().collect::<Vec<_>>()).expect("ops serialize")
    }

    /// One-line utilization summary: per-lane busy fractions of the
    /// makespan, ordered by contribution.
    pub fn utilization_summary(&self) -> String {
        let span = self.makespan().as_secs();
        if span <= 0.0 {
            return String::from("(empty timeline)");
        }
        let mut parts: Vec<(Lane, f64)> = self
            .lanes()
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
    use crate::access::TileRef;
    use crate::memory::BufferId;
    use serde::Serialize;

    fn op(lane: Lane, s: f64, e: f64, class: Option<KernelClass>) -> TraceAction {
        TraceAction::Op(OpRecord {
            label: "op".into(),
            access: AccessSet::none(),
            start: SimTime::secs(s),
            end: SimTime::secs(e),
            work: 100,
            lane,
            stream: 0,
            class,
            category: WorkCategory::Factorization,
            fused_verify: false,
        })
    }

    fn timeline(ops: impl IntoIterator<Item = TraceAction>) -> OpLog {
        let mut log = OpLog::new();
        ops.into_iter().for_each(|a| log.push(a));
        log
    }

    const G: Option<KernelClass> = Some(KernelClass::Blas3);

    #[test]
    fn busy_and_makespan() {
        let t = timeline([
            op(Lane::GpuStream(0), 0.0, 1.0, G),
            op(Lane::GpuStream(0), 2.0, 3.0, G),
            op(Lane::HostMain, 0.5, 0.7, Some(KernelClass::Potf2)),
        ]);
        assert!((t.lane_busy(Lane::GpuStream(0)).as_secs() - 2.0).abs() < 1e-12);
        assert!((t.lane_busy(Lane::HostMain).as_secs() - 0.2).abs() < 1e-12);
        assert_eq!(t.makespan().as_secs(), 3.0);
        assert_eq!(t.ops().count(), 3);
    }

    #[test]
    fn filters_decide_what_is_kept_and_what_each_view_reads() {
        let with_access = || {
            let mut a = op(Lane::GpuStream(0), 0.0, 1.0, G);
            if let TraceAction::Op(rec) = &mut a {
                rec.access = AccessSet::new(vec![TileRef::new(BufferId(0), 0, 0)], vec![]);
            }
            a
        };
        let program = || {
            [
                op(Lane::HostMain, 0.0, 1.0, None),
                with_access(),
                TraceAction::SyncDevice,
            ]
        };
        // (timeline, program) → (kept, timeline ops, program entries).
        for (filters, want) in [
            ((true, true), (3, 2, 2)),
            ((false, true), (2, 0, 2)),
            ((true, false), (2, 2, 0)),
            ((false, false), (0, 0, 0)),
        ] {
            let mut log = OpLog::new();
            log.set_filters(filters.0, filters.1);
            program().into_iter().for_each(|a| log.push(a));
            let got = (
                log.entries().len(),
                log.ops().count(),
                log.program().count(),
            );
            assert_eq!(got, want, "{filters:?}");
            // Filtering a full log afterwards keeps the same entries.
            let mut late = timeline(program());
            late.set_filters(filters.0, filters.1);
            assert_eq!(late.entries().len(), want.0, "{filters:?}");
        }
    }

    #[test]
    fn gantt_renders_rows() {
        let t = timeline([
            op(Lane::GpuStream(0), 0.0, 0.5, G),
            op(Lane::HostMain, 0.5, 1.0, Some(KernelClass::Potf2)),
        ]);
        let g = t.ascii_gantt(40);
        assert!(g.contains("gpu/stream0"));
        assert!(g.contains("cpu/main"));
        assert!(g.contains('G'));
        assert!(g.contains('P'));
    }

    #[test]
    fn empty_gantt_is_graceful() {
        assert!(OpLog::new().ascii_gantt(40).contains("empty"));
    }

    #[test]
    fn utilization_summary_mentions_lanes() {
        let t = timeline([
            op(Lane::GpuStream(0), 0.0, 1.0, G),
            op(Lane::HostMain, 0.0, 0.5, Some(KernelClass::Potf2)),
        ]);
        let s = t.utilization_summary();
        assert!(s.contains("gpu/stream0 100%"), "{s}");
        assert!(s.contains("cpu/main 50%"), "{s}");
        assert_eq!(OpLog::new().utilization_summary(), "(empty timeline)");
    }

    #[test]
    fn json_rows_split_work_into_flops_and_bytes() {
        let t = timeline([
            op(Lane::CopyH2D, 0.0, 0.1, None),
            op(Lane::HostMain, 0.0, 0.1, G),
        ]);
        let rows = serde_json::value_from_str(&t.to_json()).unwrap();
        let rows = rows.as_array().unwrap();
        assert_eq!(rows.len(), 2);
        let field = |row: &serde::Value, k: &str| {
            serde::field(row.as_object().unwrap(), k).unwrap().clone()
        };
        assert_eq!(field(&rows[0], "lane"), Lane::CopyH2D.to_value());
        assert_eq!(field(&rows[0], "bytes"), serde::Value::U64(100));
        assert_eq!(field(&rows[0], "flops"), serde::Value::U64(0));
        assert_eq!(field(&rows[1], "flops"), serde::Value::U64(100));
    }

    /// The entry-size budget: every byte above 96 costs about 112 kB of
    /// peak memory on a paper-scale (n = 20480, b = 256) traced run.
    #[test]
    fn a_log_entry_fits_in_120_bytes() {
        assert!(std::mem::size_of::<TraceAction>() <= 120);
    }
}
