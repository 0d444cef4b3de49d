//! The recorded program: every ordering-relevant action the driver issued,
//! in issue order.
//!
//! The simulator's virtual clock guarantees only the orderings the program
//! itself established — stream FIFO order, event edges, and host syncs.
//! Everything else (resource serialization in the kernel scheduler, DMA
//! lane contention) is incidental timing that a correct program must not
//! rely on. This module records exactly the guaranteed-ordering structure:
//!
//! * [`TraceOp`] — one unit of work with its execution site, work category
//!   and declared [`AccessSet`]. Ops that declare no accesses are skipped;
//!   they cannot participate in a data conflict.
//! * Event and synchronization actions ([`TraceAction`]) — the
//!   happens-before edges between sites.
//!
//! `hchol-analyze` replays a [`ProgramTrace`] with vector clocks to detect
//! unordered conflicting accesses (races) and to check ABFT protocol
//! conformance. Recording is on by default — the per-op cost is a few heap
//! cells — and can be switched off for paper-scale sweeps with
//! [`crate::SimContext::disable_trace`].

use crate::access::AccessSet;
use crate::counters::WorkCategory;

/// Where a traced operation executes.
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

/// One unit of work with declared accesses.
#[derive(Debug, Clone)]
pub struct TraceOp {
    /// Trace label (kernel/task/transfer name).
    pub label: String,
    /// Execution site.
    pub site: ExecSite,
    /// DMA direction for transfers, `None` for kernels and CPU tasks.
    pub dma: Option<DmaDir>,
    /// Accounting category (drives protocol-conformance classification).
    pub category: WorkCategory,
    /// Declared tile accesses.
    pub access: AccessSet,
    /// True for kernels with a fused checksum epilogue: the kernel
    /// recalculates the checksums of the tiles it writes in the same
    /// launch, so its writes count as verification input without a
    /// separate recalc kernel reading them back.
    pub fused_verify: bool,
}

/// One ordering-relevant driver action, in issue order.
#[derive(Debug, Clone)]
pub enum TraceAction {
    /// A kernel, CPU task, or transfer with a non-empty access set.
    Op(TraceOp),
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

/// The recorded program of one [`crate::SimContext`] run.
#[derive(Debug)]
pub struct ProgramTrace {
    actions: Vec<TraceAction>,
    enabled: bool,
}

impl Default for ProgramTrace {
    fn default() -> Self {
        ProgramTrace::recording()
    }
}

impl ProgramTrace {
    /// A recording trace (the default for new contexts).
    pub fn recording() -> Self {
        ProgramTrace {
            actions: Vec::new(),
            enabled: true,
        }
    }

    /// A disabled trace.
    pub fn disabled() -> Self {
        ProgramTrace {
            actions: Vec::new(),
            enabled: false,
        }
    }

    /// True if recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stop recording and drop what was recorded.
    pub fn disable(&mut self) {
        self.enabled = false;
        self.actions = Vec::new();
    }

    /// Record a unit of work. Ops with empty access sets are skipped: they
    /// cannot conflict with anything and would only bloat the trace.
    /// `fused_verify` marks a kernel carrying a fused checksum epilogue
    /// (see [`TraceOp::fused_verify`]).
    pub fn push_op(
        &mut self,
        label: &str,
        site: ExecSite,
        dma: Option<DmaDir>,
        category: WorkCategory,
        access: AccessSet,
        fused_verify: bool,
    ) {
        if self.enabled && !access.is_empty() {
            self.actions.push(TraceAction::Op(TraceOp {
                label: label.to_string(),
                site,
                dma,
                category,
                access,
                fused_verify,
            }));
        }
    }

    /// Record a non-op ordering action.
    pub fn push_action(&mut self, action: TraceAction) {
        if self.enabled {
            self.actions.push(action);
        }
    }

    /// The recorded actions, in issue order. Issue order is a valid
    /// topological order of the happens-before graph: every edge a driver
    /// can create points from an earlier-issued action to a later one.
    pub fn actions(&self) -> &[TraceAction] {
        &self.actions
    }

    /// Number of recorded actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessSet, TileRef};
    use crate::memory::BufferId;

    #[test]
    fn empty_access_ops_are_skipped() {
        let mut t = ProgramTrace::recording();
        t.push_op(
            "k",
            ExecSite::Stream(0),
            None,
            WorkCategory::Factorization,
            AccessSet::none(),
            false,
        );
        assert!(t.is_empty());
        t.push_op(
            "k",
            ExecSite::Stream(0),
            None,
            WorkCategory::Factorization,
            AccessSet::new(vec![TileRef::new(BufferId(0), 0, 0)], vec![]),
            false,
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = ProgramTrace::disabled();
        t.push_action(TraceAction::SyncDevice);
        t.push_op(
            "k",
            ExecSite::Host,
            None,
            WorkCategory::Verify,
            AccessSet::new(vec![TileRef::new(BufferId(0), 0, 0)], vec![]),
            false,
        );
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn disable_drops_recorded_actions() {
        let mut t = ProgramTrace::recording();
        t.push_action(TraceAction::SyncDevice);
        assert_eq!(t.len(), 1);
        t.disable();
        assert!(t.is_empty());
    }
}
