//! # hchol-gpusim
//!
//! A simulated heterogeneous system (multicore CPU host + GPU accelerator)
//! standing in for the CUDA machines of the paper (Tardis: Tesla M2075
//! "Fermi"; Bulldozer64: Tesla K40c "Kepler").
//!
//! ## Why a simulator
//!
//! The paper's results are determined by *schedules* and *relative costs*:
//! which operations overlap (CPU POTF2 under GPU GEMM, checksum updating
//! under factorization), how inefficient BLAS-2 kernels are on a GPU, how
//! many kernels can run concurrently (CUDA concurrent kernel execution,
//! the lever behind Optimization 1), and what host-device transfers cost
//! (the lever behind Optimization 2). None of that needs real CUDA silicon —
//! it needs a faithful executor of the same program structure with a
//! calibrated cost model. That is what this crate provides:
//!
//! * [`SimContext`] — the "driver API": launch kernels on streams, issue
//!   async transfers, record/wait events, run host tasks, synchronize.
//! * A **virtual clock**: every operation advances simulated time according
//!   to the [`profile::SystemProfile`] cost model, independent of host
//!   wall-time. The same binary therefore reproduces paper-scale timings
//!   (n = 30720) on a laptop.
//! * **Real numerics**: in [`ExecMode::Execute`] every kernel actually
//!   performs its floating-point work via `hchol-blas`, so fault injection,
//!   checksum verification, and final residuals are bit-faithful. In
//!   [`ExecMode::TimingOnly`] numerics are skipped and only the clock runs,
//!   which is how paper-scale sweeps stay cheap.
//! * A **resource-constrained concurrent-kernel scheduler**
//!   ([`schedule`]) implementing the paper's `P = min(N, M)` concurrency
//!   rule: each kernel class occupies a fraction of the device and the
//!   device caps both total occupancy and kernel count.
//! * One [`oplog::OpLog`]: a record per kernel, task or transfer (lane,
//!   label, class, category, start, end, work, declared [`AccessSet`]),
//!   interleaved in issue order with the events and syncs. Its timeline
//!   view regenerates Figure-1-style execution charts; its program view is
//!   what `hchol-analyze` replays for race and ABFT-protocol-conformance
//!   checking.
//! * An [`obs`] (re-exported `hchol-obs`) attachment on every context:
//!   the span tree, metrics registry, and event stream that
//!   [`obs::RunReport`] serializes — see `DESIGN.md` §"Observability".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hchol_obs as obs;

pub mod access;
pub mod context;
pub mod counters;
pub mod executor;
pub mod memory;
pub mod oplog;
pub mod profile;
pub mod schedule;
pub mod time;

pub use access::{AccessSet, TileRef};
pub use context::{EngineUtilization, EngineWindow, EventId, SimContext, StreamId};
pub use executor::{DagSchedule, IssueDiagnostics, IssuePolicy, NodeMeta};
pub use memory::{BufferId, DeviceMemory, HostBufferId, HostMemory};
pub use oplog::{DmaDir, Edit, ExecSite, Label, Lane, OpLog, OpRecord, TraceAction};
pub use profile::{CpuProfile, DeviceProfile, KernelClass, SystemProfile};
pub use time::SimTime;

/// Whether kernels execute their numerics or only advance the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run every kernel's floating-point work (bit-faithful results) while
    /// also advancing the virtual clock.
    Execute,
    /// Skip all numerics; only the virtual clock and metrics advance.
    /// Used for paper-scale (n >= 20480) timing sweeps.
    TimingOnly,
}

impl ExecMode {
    /// True in [`ExecMode::Execute`].
    pub fn executes(self) -> bool {
        matches!(self, ExecMode::Execute)
    }
}
