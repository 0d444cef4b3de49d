//! The simulated driver context: the API a "host program" (the hybrid
//! Cholesky in `hchol-core`) uses to drive the machine.
//!
//! Semantics mirror the CUDA runtime circa the paper:
//!
//! * **Streams** are FIFO queues of device work; work in different streams
//!   may overlap subject to the [`crate::schedule::KernelScheduler`]'s
//!   resource and concurrency constraints.
//! * **Async transfers** execute on dedicated DMA lanes (one per direction)
//!   but respect the issue order of the stream they were enqueued on.
//! * **Events** capture a stream's current completion frontier; the host or
//!   another stream can wait on them.
//! * **Host tasks** run either synchronously on the main thread (advancing
//!   the host clock — MAGMA's POTF2) or asynchronously on CPU worker lanes
//!   (Optimization 2's CPU checksum updating).
//!
//! Numerics execute **eagerly in program order** while timing is computed
//! for the overlapped schedule. For a race-free program (one whose
//! stream/event usage orders every true dependency) the two give identical
//! results; the context records every unit of work and every ordering
//! action in one [`OpLog`] and `hchol-analyze` checks that assumption at
//! the tile level with a vector-clock happens-before sweep.

use crate::access::AccessSet;
use crate::counters::WorkCategory;
use crate::memory::{DeviceMemory, HostMemory};
use crate::oplog::{Lane, OpLog, OpRecord, TraceAction};
use crate::profile::{KernelClass, SystemProfile};
use crate::schedule::KernelScheduler;
use crate::time::SimTime;
use crate::ExecMode;
use hchol_matrix::Scalar;
use hchol_obs::Obs;

/// A kernel class's metric keys — `kernels.class.<C>`, `busy_secs.class.<C>`,
/// `kernel_secs.class.<C>` — as statics, so recording a kernel formats and
/// allocates no key.
fn class_keys(class: KernelClass) -> [&'static str; 3] {
    macro_rules! keys {
        ($($c:ident),*) => {
            match class {
                $(KernelClass::$c => [
                    concat!("kernels.class.", stringify!($c)),
                    concat!("busy_secs.class.", stringify!($c)),
                    concat!("kernel_secs.class.", stringify!($c)),
                ],)*
            }
        };
    }
    keys!(Blas3, Syrk, Trsm, Blas2, Potf2, Light, FusedEpilogue)
}

/// A work category's `flops.cat.<Category>` key.
fn flops_key(category: WorkCategory) -> &'static str {
    macro_rules! keys {
        ($($c:ident),*) => {
            match category {
                $(WorkCategory::$c => concat!("flops.cat.", stringify!($c)),)*
            }
        };
    }
    keys!(
        Factorization,
        ChecksumEncode,
        ChecksumUpdate,
        ChecksumRecalc,
        FusedRecalc,
        Verify,
        Transfer
    )
}

/// Handle to a device stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub usize);

/// Per-GPU simulator state: each device has its own kernel scheduler
/// (concurrency caps do not span devices), its own pair of host-DMA
/// lanes, and its own peer-link ports (one outbound, one inbound — a send
/// occupies the sender's out port and the receiver's in port).
struct DeviceState {
    sched: KernelScheduler,
    /// This device's `shard.dev.<d>.busy_secs` key.
    busy_key: String,
    /// This device's `shard.dev.<d>.link_bytes` key.
    link_key: String,
    h2d_lane: SimTime,
    d2h_lane: SimTime,
    link_out: SimTime,
    link_in: SimTime,
}

impl DeviceState {
    fn new(dev: usize, max_concurrent_kernels: usize) -> Self {
        DeviceState {
            sched: KernelScheduler::new(max_concurrent_kernels),
            busy_key: format!("shard.dev.{dev}.busy_secs"),
            link_key: format!("shard.dev.{dev}.link_bytes"),
            h2d_lane: SimTime::ZERO,
            d2h_lane: SimTime::ZERO,
            link_out: SimTime::ZERO,
            link_in: SimTime::ZERO,
        }
    }
}

/// Which port(s) a data movement occupies (see `SimContext::transfer`).
enum Route {
    /// Host → device over the stream's device's h2d DMA lane.
    H2D,
    /// Device → host over the stream's device's d2h DMA lane.
    D2H,
    /// Peer link from the stream's device to device `.0`: the sender's
    /// outbound port and the receiver's inbound port.
    Peer(usize),
}

/// Handle to a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub usize);

/// Description of a unit of work for the cost model and the trace.
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Trace label.
    pub label: String,
    /// Cost-model class.
    pub class: KernelClass,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Accounting category.
    pub category: WorkCategory,
    /// Declared tile accesses, carried into the op log for the
    /// happens-before analysis in `hchol-analyze`.
    pub access: AccessSet,
    /// FLOPs of a checksum epilogue fused into this kernel (0 = none).
    /// Charged at the [`KernelClass::FusedEpilogue`] rate with **no** second
    /// kernel startup, booked under [`WorkCategory::FusedRecalc`], and marks
    /// the logged op as fused-verify for the protocol analyzers.
    pub epilogue_flops: u64,
}

impl KernelDesc {
    /// Convenience constructor.
    pub fn new(
        label: impl Into<String>,
        class: KernelClass,
        flops: u64,
        category: WorkCategory,
    ) -> Self {
        KernelDesc {
            label: label.into(),
            class,
            flops,
            category,
            access: AccessSet::none(),
            epilogue_flops: 0,
        }
    }

    /// Builder: declare the tiles this kernel reads and writes (makes the
    /// kernel visible to the schedule analysis).
    pub fn with_access(mut self, access: AccessSet) -> Self {
        self.access = access;
        self
    }

    /// Builder: fuse a checksum-recalculation epilogue of `flops` into this
    /// kernel (see [`KernelDesc::epilogue_flops`]).
    pub fn with_epilogue(mut self, flops: u64) -> Self {
        self.epilogue_flops = flops;
        self
    }
}

/// A point-in-time snapshot of the per-engine busy-time accumulators,
/// taken with [`SimContext::engine_utilization`] at an iteration boundary.
///
/// Two snapshots bracket a window of execution; [`Self::window_since`]
/// turns them into normalized utilizations a feedback controller can act
/// on without knowing absolute times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineUtilization {
    /// Host virtual time of the snapshot, seconds.
    pub at_secs: f64,
    /// Cumulative GPU compute-engine busy time (`busy_secs.engine.gpu`).
    pub gpu_busy_secs: f64,
    /// Cumulative host-thread busy time (`busy_secs.engine.host`).
    pub host_busy_secs: f64,
    /// Cumulative busy time summed over all CPU worker lanes
    /// (`busy_secs.engine.cpu_workers`).
    pub cpu_worker_busy_secs: f64,
    /// Cumulative DMA-lane busy time, both directions.
    pub dma_busy_secs: f64,
    /// Cumulative time kernels waited for device resources
    /// (`sched.queue_delay_secs`).
    pub queue_delay_secs: f64,
    /// Number of CPU worker lanes (normalizes the worker busy sum).
    pub cpu_worker_lanes: usize,
}

/// Normalized utilization of one execution window (see
/// [`EngineUtilization::window_since`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineWindow {
    /// Wall-clock (virtual) length of the window, seconds.
    pub wall_secs: f64,
    /// GPU busy fraction of the window, in `[0, 1]` (clamped).
    pub gpu_util: f64,
    /// Per-lane CPU-worker busy fraction of the window, in `[0, 1]`.
    pub cpu_util: f64,
    /// DMA-lane busy fraction of the window (both directions summed), in
    /// `[0, 1]` — the host↔device link-pressure signal.
    pub dma_util: f64,
    /// Queue-delay accumulated in the window as a fraction of the window.
    pub queue_frac: f64,
}

impl EngineUtilization {
    /// The utilization of the window from `earlier` to `self`. Returns
    /// `None` for an empty (or backwards) window, where fractions are
    /// undefined.
    pub fn window_since(&self, earlier: &EngineUtilization) -> Option<EngineWindow> {
        let wall = self.at_secs - earlier.at_secs;
        if wall <= 0.0 {
            return None;
        }
        let lanes = self.cpu_worker_lanes.max(1) as f64;
        let frac = |x: f64| (x / wall).clamp(0.0, 1.0);
        Some(EngineWindow {
            wall_secs: wall,
            gpu_util: frac(self.gpu_busy_secs - earlier.gpu_busy_secs),
            cpu_util: frac((self.cpu_worker_busy_secs - earlier.cpu_worker_busy_secs) / lanes),
            dma_util: frac(self.dma_busy_secs - earlier.dma_busy_secs),
            queue_frac: frac(self.queue_delay_secs - earlier.queue_delay_secs),
        })
    }
}

/// The simulated machine plus the program clock driving it.
///
/// ```
/// use hchol_gpusim::context::KernelDesc;
/// use hchol_gpusim::counters::WorkCategory;
/// use hchol_gpusim::profile::{KernelClass, SystemProfile};
/// use hchol_gpusim::{ExecMode, SimContext};
///
/// let mut ctx = SimContext::new(SystemProfile::test_profile(), ExecMode::TimingOnly);
/// let s = ctx.default_stream();
/// // One 2-GFLOP BLAS-3 kernel on a 1 GF/s test device ≈ 2 virtual seconds.
/// ctx.launch(
///     s,
///     KernelDesc::new("demo", KernelClass::Blas3, 2_000_000_000, WorkCategory::Factorization),
///     |_mem| { /* numerics skipped in TimingOnly */ },
/// );
/// ctx.sync_device();
/// assert!((ctx.now().as_secs() - 2.0).abs() < 0.01);
/// ```
pub struct SimContext<S: Scalar = f64> {
    /// Execution mode (real numerics vs clock-only).
    pub mode: ExecMode,
    profile: SystemProfile,
    /// Device global memory. Public so fault injectors can corrupt it
    /// "behind the runtime's back", exactly like real DRAM bit flips.
    pub dev_mem: DeviceMemory<S>,
    /// Host (pinned) memory.
    pub host_mem: HostMemory<S>,
    host_clock: SimTime,
    streams: Vec<SimTime>,
    /// Home device of each stream (parallel to `streams`).
    stream_dev: Vec<usize>,
    cpu_workers: Vec<SimTime>,
    events: Vec<SimTime>,
    devices: Vec<DeviceState>,
    /// One record per unit of work and per ordering action, in issue order:
    /// the timeline Figure 1 plots and the program `hchol-analyze` replays.
    pub log: OpLog,
    /// Observability state: span tree, metrics registry, event stream.
    /// Drivers open/close scope spans here; the context itself records
    /// per-kernel metrics on every launch/task/transfer.
    pub obs: Obs,
    /// Emit `verify.recalc_secs` for ChecksumRecalc kernels. Opt-in
    /// (fused-vs-separate comparisons) so default-path run reports stay
    /// byte-identical to the golden fixtures.
    recalc_metric: bool,
}

impl SimContext<f64> {
    /// New double-precision context with one default stream (stream 0) and
    /// the profile's CPU worker lanes. The log keeps both views; drop the
    /// timeline for long sweeps with [`SimContext::disable_timeline`].
    ///
    /// Pinned to `f64` so the element type never needs annotating at the
    /// (many) default-precision call sites; reduced-precision runs use
    /// [`SimContext::new_typed`].
    pub fn new(profile: SystemProfile, mode: ExecMode) -> Self {
        Self::new_typed(profile, mode)
    }
}

impl<S: Scalar> SimContext<S> {
    /// New context of any supported element precision (`SimContext::<f32>::
    /// new_typed(..)`); see [`SimContext::new`].
    pub fn new_typed(profile: SystemProfile, mode: ExecMode) -> Self {
        let workers = profile.cpu.worker_lanes.max(1);
        let maxk = profile.gpu.max_concurrent_kernels;
        let ndev = profile.devices.max(1);
        SimContext {
            mode,
            profile,
            dev_mem: DeviceMemory::default(),
            host_mem: HostMemory::default(),
            host_clock: SimTime::ZERO,
            streams: vec![SimTime::ZERO],
            stream_dev: vec![0],
            cpu_workers: vec![SimTime::ZERO; workers],
            events: Vec::new(),
            devices: (0..ndev).map(|d| DeviceState::new(d, maxk)).collect(),
            log: OpLog::new(),
            obs: Obs::new(),
            recalc_metric: false,
        }
    }

    /// Start accumulating `verify.recalc_secs` (time on separate
    /// checksum-recalculation kernels), for reports that put the recalc
    /// pipeline side by side with `verify.fused.epilogue_secs`.
    pub fn enable_recalc_metric(&mut self) {
        self.recalc_metric = true;
    }

    /// Stop keeping the timeline view: the log keeps only what the program
    /// view reads, dropping the rest. Metrics, scope spans and events (all
    /// O(iterations)) stay on.
    pub fn disable_timeline(&mut self) {
        self.log.set_filters(false, self.log.program);
    }

    /// Stop keeping the program view: the log keeps only what the timeline
    /// view reads, dropping the rest. The program is kept by default —
    /// cheap enough for every driver test — but paper-scale sweeps hold
    /// millions of tile refs and switch it off.
    pub fn disable_trace(&mut self) {
        self.log.set_filters(self.log.timeline, false);
    }

    /// The system profile in use.
    pub fn profile(&self) -> &SystemProfile {
        &self.profile
    }

    /// Snapshot the per-engine busy-time accumulators (and the scheduler's
    /// queue-delay sum) at this instant of virtual time. Drivers take one
    /// snapshot per iteration boundary and difference consecutive snapshots
    /// ([`EngineUtilization::window_since`]) to see where the last window's
    /// work actually ran — the feedback signal `hchol-core`'s runtime load
    /// balancer steers on.
    pub fn engine_utilization(&self) -> EngineUtilization {
        let m = &self.obs.metrics;
        EngineUtilization {
            at_secs: self.host_clock.as_secs(),
            gpu_busy_secs: m.sum("busy_secs.engine.gpu"),
            host_busy_secs: m.sum("busy_secs.engine.host"),
            cpu_worker_busy_secs: m.sum("busy_secs.engine.cpu_workers"),
            dma_busy_secs: m.sum("busy_secs.engine.dma_h2d") + m.sum("busy_secs.engine.dma_d2h"),
            queue_delay_secs: m.sum("sched.queue_delay_secs"),
            cpu_worker_lanes: self.cpu_workers.len(),
        }
    }

    /// Current host-thread virtual time.
    pub fn now(&self) -> SimTime {
        self.host_clock
    }

    /// Create an additional stream on device 0.
    // lint:allow(dead-pub) test tool: schedule-analysis tests build multi-stream programs
    pub fn create_stream(&mut self) -> StreamId {
        self.create_stream_on(0)
    }

    /// Create an additional stream homed on `dev`.
    pub fn create_stream_on(&mut self, dev: usize) -> StreamId {
        assert!(dev < self.devices.len(), "no such device: {dev}");
        self.streams.push(SimTime::ZERO);
        self.stream_dev.push(dev);
        StreamId(self.streams.len() - 1)
    }

    /// Number of simulated GPUs.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The default stream.
    pub fn default_stream(&self) -> StreamId {
        StreamId(0)
    }

    /// Launch a kernel on `stream`. The closure performs the numerics and
    /// runs only in [`ExecMode::Execute`]; timing always advances.
    pub fn launch<F>(&mut self, stream: StreamId, desc: KernelDesc, body: F)
    where
        F: FnOnce(&mut DeviceMemory<S>),
    {
        let dev = self.stream_dev[stream.0];
        // Host pays the launch cost.
        self.host_clock += SimTime::secs(self.profile.gpu.launch_overhead);
        // Keep the scheduler's working set bounded on launch-heavy phases
        // (per-block checksum recalculation issues thousands of kernels
        // between syncs): anything finished before the host clock can no
        // longer influence placement.
        self.devices[dev].sched.prune(self.host_clock);
        let mut duration = self.profile.gpu.kernel_time(desc.class, desc.flops);
        if desc.epilogue_flops > 0 {
            // The fused epilogue extends the same launch: extra flops at the
            // fused-epilogue rate, but no second launch or startup cost —
            // that saving (plus the skipped memory pass, reflected in the
            // class's throughput) is the whole fusion dividend.
            duration += SimTime::secs(
                desc.epilogue_flops as f64
                    / (self.profile.gpu.gflops(KernelClass::FusedEpilogue) * 1e9),
            );
        }
        let resource = self.profile.gpu.resource_fraction(desc.class);
        let earliest = self.host_clock.max(self.streams[stream.0]);
        let (start, end) = self.devices[dev].sched.place(earliest, duration, resource);
        self.streams[stream.0] = end;
        if self.devices.len() > 1 {
            self.obs
                .metrics
                .add_f64(&self.devices[dev].busy_key, (end - start).as_secs());
        }
        let queue_delay = (start - earliest).as_secs();
        self.record(desc, Lane::GpuStream(stream.0), start, end, queue_delay);
        if self.mode.executes() {
            body(&mut self.dev_mem);
        }
    }

    /// The one recording path of a scheduled unit of work — kernel, host
    /// task or worker task: metrics, then its op record. The engine follows
    /// from `lane`.
    fn record(
        &mut self,
        desc: KernelDesc,
        lane: Lane,
        start: SimTime,
        end: SimTime,
        queue_delay: f64,
    ) {
        let engine_busy = match lane {
            Lane::HostMain => "busy_secs.engine.host",
            Lane::CpuWorker(_) => "busy_secs.engine.cpu_workers",
            _ => "busy_secs.engine.gpu",
        };
        let [kernels, class_busy, kernel_secs] = class_keys(desc.class);
        let dur = (end - start).as_secs();
        let m = &mut self.obs.metrics;
        m.inc(kernels);
        m.add_f64(class_busy, dur);
        m.add_f64(engine_busy, dur);
        m.add_count(flops_key(desc.category), desc.flops);
        m.observe(kernel_secs, dur);
        // Time spent on the *separate* recalculation path, so reports can
        // put it side by side with `verify.fused.epilogue_secs`.
        if self.recalc_metric && desc.category == WorkCategory::ChecksumRecalc {
            m.add_f64("verify.recalc_secs", dur);
        }
        if desc.epilogue_flops > 0 {
            m.inc("verify.fused.kernels");
            m.add_count("verify.fused.flops", desc.epilogue_flops);
            m.add_count(flops_key(WorkCategory::FusedRecalc), desc.epilogue_flops);
            m.add_f64(
                "verify.fused.epilogue_secs",
                desc.epilogue_flops as f64
                    / (self.profile.gpu.gflops(KernelClass::FusedEpilogue) * 1e9),
            );
        }
        if queue_delay > 0.0 {
            m.add_f64("sched.queue_delay_secs", queue_delay);
        }
        self.log.push(TraceAction::Op(OpRecord {
            label: desc.label,
            access: desc.access,
            start,
            end,
            work: desc.flops + desc.epilogue_flops,
            lane,
            stream: 0,
            class: Some(desc.class),
            category: desc.category,
            fused_verify: desc.epilogue_flops > 0,
        }));
    }

    /// Account an abstract bulk transfer of `bytes` (e.g. streaming a whole
    /// checksum panel for Optimization 2's CPU updates) without moving
    /// concrete data. The closure performs any real data movement needed and
    /// runs only in Execute mode. `access` declares the device tiles touched
    /// for the schedule analysis (a d2h transfer *reads* device tiles, an
    /// h2d one *writes* them).
    pub fn bulk_transfer_with_access<F>(
        &mut self,
        bytes: u64,
        stream: StreamId,
        to_device: bool,
        access: AccessSet,
        body: F,
    ) where
        F: FnOnce(&mut DeviceMemory<S>, &mut HostMemory<S>),
    {
        let route = if to_device { Route::H2D } else { Route::D2H };
        self.transfer(route, bytes, stream, "bulk", access);
        if self.mode.executes() {
            body(&mut self.dev_mem, &mut self.host_mem);
        }
    }

    /// The one scheduling-and-recording path of a data movement enqueued
    /// on `stream`: it starts once the host has issued it, the stream has
    /// drained and the route's port(s) are free; stream and ports advance
    /// to its finish. Then metrics and its op record.
    fn transfer(
        &mut self,
        route: Route,
        bytes: u64,
        stream: StreamId,
        label: &str,
        access: AccessSet,
    ) {
        let dev = self.stream_dev[stream.0];
        let d = &self.devices;
        let (port_free, duration) = match route {
            Route::H2D => (d[dev].h2d_lane, self.profile.transfer_time(bytes)),
            Route::D2H => (d[dev].d2h_lane, self.profile.transfer_time(bytes)),
            Route::Peer(dst) => (
                d[dev].link_out.max(d[dst].link_in),
                self.profile.link_time(bytes),
            ),
        };
        let start = self.host_clock.max(self.streams[stream.0]).max(port_free);
        let end = start + duration;
        self.streams[stream.0] = end;
        let busy = (end - start).as_secs();
        let m = &mut self.obs.metrics;
        let lane = match route {
            Route::H2D => {
                self.devices[dev].h2d_lane = end;
                m.add_count("pcie.bytes.h2d", bytes);
                m.inc("transfers.h2d");
                m.add_f64("busy_secs.engine.dma_h2d", busy);
                Lane::CopyH2D
            }
            Route::D2H => {
                self.devices[dev].d2h_lane = end;
                m.add_count("pcie.bytes.d2h", bytes);
                m.inc("transfers.d2h");
                m.add_f64("busy_secs.engine.dma_d2h", busy);
                Lane::CopyD2H
            }
            Route::Peer(dst) => {
                self.devices[dev].link_out = end;
                self.devices[dst].link_in = end;
                m.add_count("shard.link.bytes", bytes);
                m.inc("shard.link.transfers");
                m.add_f64("shard.link.busy_secs", busy);
                m.add_count(&self.devices[dev].link_key, bytes);
                Lane::DevLink(dev)
            }
        };
        self.log.push(TraceAction::Op(OpRecord {
            label: label.into(),
            access,
            start,
            end,
            work: bytes,
            lane,
            stream: stream.0 as u32,
            class: None,
            category: WorkCategory::Transfer,
            fused_verify: false,
        }));
    }

    /// A device→device peer-link transfer of `bytes`, enqueued on
    /// `src_stream` (so it is ordered behind the producer's kernels on the
    /// sending device) and bound for `dst_dev`. The send occupies the
    /// source device's outbound link port and the destination's inbound
    /// port; both ports and the source stream advance to the finish time.
    /// The receiving device orders its consumers behind the transfer via
    /// the usual event dance ([`SimContext::record_event`] on `src_stream`
    /// after the send, [`SimContext::stream_wait_event`] on the receiving
    /// streams). The closure performs any real data movement (a no-op in
    /// our single-address-space data plane unless staging is modeled) and
    /// runs only in Execute mode.
    pub fn device_transfer<F>(
        &mut self,
        bytes: u64,
        src_stream: StreamId,
        dst_dev: usize,
        access: AccessSet,
        body: F,
    ) where
        F: FnOnce(&mut DeviceMemory<S>),
    {
        self.transfer(Route::Peer(dst_dev), bytes, src_stream, "dev2dev", access);
        if self.mode.executes() {
            body(&mut self.dev_mem);
        }
    }

    /// Run a task synchronously on the host main thread (blocks the driver —
    /// this is where MAGMA's POTF2 lives). Numerics run only in Execute mode;
    /// the clock always advances.
    pub fn cpu_exec<F>(&mut self, desc: KernelDesc, body: F)
    where
        F: FnOnce(&mut HostMemory<S>),
    {
        debug_assert_eq!(desc.epilogue_flops, 0, "fused epilogues are GPU-only");
        let duration = self.profile.cpu.task_time(desc.class, desc.flops);
        let start = self.host_clock;
        let end = start + duration;
        self.host_clock = end;
        self.record(desc, Lane::HostMain, start, end, 0.0);
        if self.mode.executes() {
            body(&mut self.host_mem);
        }
    }

    /// Submit a task to an idle CPU worker lane (runs concurrently with the
    /// main thread and the GPU — Optimization 2's CPU checksum updating).
    /// The closure may touch both memories (it is host code that can also
    /// write into mapped device buffers in our model).
    pub fn cpu_submit<F>(&mut self, desc: KernelDesc, body: F)
    where
        F: FnOnce(&mut DeviceMemory<S>, &mut HostMemory<S>),
    {
        debug_assert_eq!(desc.epilogue_flops, 0, "fused epilogues are GPU-only");
        // Pick the lane that frees up first.
        let (w, _) = self
            .cpu_workers
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.as_secs().total_cmp(&b.1.as_secs()))
            .expect("at least one worker lane");
        let duration = self.profile.cpu.task_time(desc.class, desc.flops);
        let start = self.host_clock.max(self.cpu_workers[w]);
        let end = start + duration;
        self.cpu_workers[w] = end;
        self.record(desc, Lane::CpuWorker(w), start, end, 0.0);
        if self.mode.executes() {
            body(&mut self.dev_mem, &mut self.host_mem);
        }
    }

    /// Record an event capturing `stream`'s current completion frontier.
    pub fn record_event(&mut self, stream: StreamId) -> EventId {
        self.events.push(self.streams[stream.0]);
        let id = self.events.len() - 1;
        self.log.push(TraceAction::RecordEvent {
            event: id,
            stream: stream.0,
        });
        EventId(id)
    }

    /// Make all *future* work on `stream` wait for `event`.
    pub fn stream_wait_event(&mut self, stream: StreamId, event: EventId) {
        self.streams[stream.0] = self.streams[stream.0].max(self.events[event.0]);
        self.log.push(TraceAction::StreamWaitEvent {
            stream: stream.0,
            event: event.0,
        });
    }

    /// Block the host until all work on `stream` (including its transfers)
    /// has completed.
    pub fn sync_stream(&mut self, stream: StreamId) {
        self.host_clock = self.host_clock.max(self.streams[stream.0]);
        let dev = self.stream_dev[stream.0];
        self.devices[dev].sched.prune(self.host_clock);
        self.log.push(TraceAction::SyncStream { stream: stream.0 });
    }

    /// Block the host until every device (all streams + DMA lanes + peer
    /// links) is idle.
    pub fn sync_device(&mut self) {
        let mut t = self.host_clock;
        for &s in &self.streams {
            t = t.max(s);
        }
        for d in &self.devices {
            t = t
                .max(d.h2d_lane)
                .max(d.d2h_lane)
                .max(d.link_out)
                .max(d.link_in);
        }
        self.host_clock = t;
        for d in &mut self.devices {
            d.sched.prune(t);
        }
        self.log.push(TraceAction::SyncDevice);
    }

    /// Block the host until all CPU worker lanes are idle.
    pub fn sync_cpu_workers(&mut self) {
        let mut t = self.host_clock;
        for &w in &self.cpu_workers {
            t = t.max(w);
        }
        self.host_clock = t;
        self.log.push(TraceAction::SyncCpuWorkers);
    }

    /// Block on everything: device, DMA, CPU workers.
    pub fn sync_all(&mut self) {
        self.sync_device();
        self.sync_cpu_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::TileRef;
    use crate::profile::SystemProfile;
    use hchol_matrix::{Matrix, TileMatrix};

    fn ctx(mode: ExecMode) -> SimContext {
        SimContext::new(SystemProfile::test_profile(), mode)
    }

    fn desc(flops: u64, class: KernelClass) -> KernelDesc {
        KernelDesc::new("k", class, flops, WorkCategory::Factorization)
    }

    /// Flops in every category except `Factorization` — the
    /// fault-tolerance surcharge the paper's overhead model predicts.
    fn overhead_flops(c: &SimContext) -> u64 {
        let cats = c.obs.metrics.counts.iter();
        let total: u64 = cats
            .filter(|(k, _)| k.starts_with("flops.cat."))
            .map(|(_, v)| v)
            .sum();
        total - c.obs.metrics.count("flops.cat.Factorization")
    }

    #[test]
    fn same_stream_serializes() {
        let mut c = ctx(ExecMode::TimingOnly);
        let s = c.default_stream();
        c.launch(s, desc(1_000_000_000, KernelClass::Blas3), |_| {});
        c.launch(s, desc(1_000_000_000, KernelClass::Blas3), |_| {});
        c.sync_stream(s);
        // 1 GF/s profile ⇒ two 1-second kernels back to back.
        assert!(c.now().as_secs() >= 2.0);
        assert!(c.now().as_secs() < 2.1);
    }

    #[test]
    fn different_streams_overlap_blas2() {
        let mut c = ctx(ExecMode::TimingOnly);
        // 4 BLAS-2 kernels of 1s each on 4 streams, resource 0.25 ⇒ overlap.
        let streams: Vec<_> = (0..4).map(|_| c.create_stream()).collect();
        for &s in &streams {
            c.launch(s, desc(1_000_000_000, KernelClass::Blas2), |_| {});
        }
        c.sync_device();
        assert!(c.now().as_secs() < 1.5, "got {}", c.now().as_secs());
    }

    #[test]
    fn blas3_kernels_never_overlap() {
        let mut c = ctx(ExecMode::TimingOnly);
        let s1 = c.create_stream();
        let s2 = c.create_stream();
        c.launch(s1, desc(1_000_000_000, KernelClass::Blas3), |_| {});
        c.launch(s2, desc(1_000_000_000, KernelClass::Blas3), |_| {});
        c.sync_device();
        assert!(c.now().as_secs() >= 2.0, "got {}", c.now().as_secs());
    }

    #[test]
    fn execute_mode_runs_numerics() {
        let mut c = ctx(ExecMode::Execute);
        let buf = c
            .dev_mem
            .alloc(TileMatrix::from_dense(&Matrix::filled(2, 2, 1.0), 2).unwrap());
        let s = c.default_stream();
        c.launch(s, desc(4, KernelClass::Light), move |mem| {
            mem.tile_mut(buf, 0, 0).scale(3.0);
        });
        assert_eq!(c.dev_mem.tile(buf, 0, 0).get(1, 1), 3.0);
    }

    #[test]
    fn timing_only_skips_numerics() {
        let mut c = ctx(ExecMode::TimingOnly);
        let buf = c
            .dev_mem
            .alloc(TileMatrix::from_dense(&Matrix::filled(2, 2, 1.0), 2).unwrap());
        let s = c.default_stream();
        c.launch(s, desc(4, KernelClass::Light), move |mem| {
            mem.tile_mut(buf, 0, 0).scale(3.0);
        });
        assert_eq!(c.dev_mem.tile(buf, 0, 0).get(1, 1), 1.0);
    }

    #[test]
    fn cpu_exec_blocks_host() {
        let mut c = ctx(ExecMode::TimingOnly);
        c.cpu_exec(desc(2_000_000_000, KernelClass::Potf2), |_| {});
        assert!((c.now().as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_submit_overlaps_with_host() {
        let mut c = ctx(ExecMode::TimingOnly);
        c.cpu_submit(desc(1_000_000_000, KernelClass::Blas2), |_, _| {});
        c.cpu_submit(desc(1_000_000_000, KernelClass::Blas2), |_, _| {});
        // Host did not block:
        assert_eq!(c.now().as_secs(), 0.0);
        c.sync_cpu_workers();
        // Two lanes in the test profile ⇒ they ran concurrently.
        assert!((c.now().as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn events_order_cross_stream_work() {
        let mut c = ctx(ExecMode::TimingOnly);
        let s1 = c.create_stream();
        let s2 = c.create_stream();
        c.launch(s1, desc(1_000_000_000, KernelClass::Blas2), |_| {});
        let e = c.record_event(s1);
        c.stream_wait_event(s2, e);
        c.launch(s2, desc(1_000_000_000, KernelClass::Blas2), |_| {});
        c.sync_stream(s2);
        // Despite both being small BLAS-2 kernels, the event serializes them.
        assert!(c.now().as_secs() >= 2.0);
    }

    #[test]
    fn magma_style_overlap_pattern() {
        // GPU GEMM (3 s) while host does POTF2 (1 s): total ≈ 3 s, not 4.
        let mut c = ctx(ExecMode::TimingOnly);
        let s = c.default_stream();
        c.launch(s, desc(3_000_000_000, KernelClass::Blas3), |_| {});
        c.cpu_exec(desc(1_000_000_000, KernelClass::Potf2), |_| {});
        c.sync_device();
        let total = c.now().as_secs();
        assert!((3.0..3.2).contains(&total), "got {total}");
    }

    #[test]
    fn obs_records_metrics_and_the_log_records_ops() {
        let mut c = ctx(ExecMode::TimingOnly);
        let s = c.default_stream();
        c.launch(s, desc(1_000_000_000, KernelClass::Blas3), |_| {});
        c.cpu_exec(desc(1_000_000_000, KernelClass::Potf2), |_| {});
        c.sync_all();
        assert_eq!(c.obs.metrics.count("kernels.class.Blas3"), 1);
        assert_eq!(c.obs.metrics.count("kernels.class.Potf2"), 1);
        assert!(c.obs.metrics.sum("busy_secs.engine.gpu") > 0.9);
        assert!(c.obs.metrics.sum("busy_secs.engine.host") > 0.9);
        assert_eq!(
            c.obs
                .metrics
                .histogram("kernel_secs.class.Blas3")
                .expect("histogram recorded")
                .count,
            1
        );
        // The kernel and the host task are two timed ops on their lanes; the
        // span tree holds scopes only, and none was opened.
        let lanes: Vec<_> = c
            .log
            .ops()
            .map(|op| (op.lane(), op.end > op.start))
            .collect();
        assert_eq!(lanes, [(Lane::GpuStream(0), true), (Lane::HostMain, true)]);
        assert!(c.obs.spans.spans().is_empty());
    }

    #[test]
    fn disable_timeline_drops_access_less_ops_but_not_metrics() {
        let mut c = ctx(ExecMode::TimingOnly);
        c.disable_timeline();
        let s = c.default_stream();
        c.launch(s, desc(1_000_000_000, KernelClass::Blas3), |_| {});
        assert!(c.log.entries().is_empty());
        assert_eq!(c.obs.metrics.count("kernels.class.Blas3"), 1);
    }

    /// One access-declaring kernel, one without, a transfer and a sync,
    /// under the given filters: (entries kept, timeline ops, program actions).
    fn kept_by(setup: impl FnOnce(&mut SimContext)) -> (usize, usize, usize) {
        let mut c = ctx(ExecMode::TimingOnly);
        setup(&mut c);
        let s = c.default_stream();
        let tile = AccessSet::new(vec![TileRef::new(crate::BufferId(0), 0, 0)], vec![]);
        c.launch(s, desc(10, KernelClass::Blas2).with_access(tile), |_| {});
        c.launch(s, desc(10, KernelClass::Blas2), |_| {});
        c.bulk_transfer_with_access(8, s, true, AccessSet::none(), |_, _| {});
        c.sync_device();
        let log = &c.log;
        (
            log.entries().len(),
            log.ops().count(),
            log.program().count(),
        )
    }

    /// The default of `hchol-core` runs: the program view only.
    #[test]
    fn timeline_off_trace_on_keeps_the_program() {
        assert_eq!(kept_by(|c| c.disable_timeline()), (2, 0, 2));
    }

    /// Paper-scale sweeps and batches: nothing.
    #[test]
    fn timeline_off_trace_off_keeps_nothing() {
        assert_eq!(
            kept_by(|c| {
                c.disable_timeline();
                c.disable_trace();
            }),
            (0, 0, 0)
        );
    }

    /// Figure runs: every op, and the program view still skips the op
    /// that declares no accesses.
    #[test]
    fn timeline_on_trace_on_keeps_every_op_and_the_program() {
        assert_eq!(kept_by(|_| {}), (4, 3, 2));
    }

    #[test]
    fn transfers_feed_pcie_metrics() {
        let mut c = ctx(ExecMode::TimingOnly);
        let s = c.default_stream();
        c.bulk_transfer_with_access(1024, s, true, AccessSet::none(), |_, _| {});
        c.bulk_transfer_with_access(256, s, false, AccessSet::none(), |_, _| {});
        c.sync_device();
        assert_eq!(c.obs.metrics.count("pcie.bytes.h2d"), 1024);
        assert_eq!(c.obs.metrics.count("pcie.bytes.d2h"), 256);
        assert_eq!(c.obs.metrics.count("transfers.h2d"), 1);
        assert!(c.obs.metrics.sum("busy_secs.engine.dma_h2d") > 0.0);
    }

    #[test]
    fn fused_epilogue_extends_kernel_without_second_startup() {
        use crate::memory::BufferId;
        let mut c = ctx(ExecMode::TimingOnly);
        let s = c.default_stream();
        let access = AccessSet::new(vec![], vec![TileRef::new(BufferId(0), 0, 0)]);
        c.launch(
            s,
            KernelDesc::new(
                "SYRK+chk",
                KernelClass::Syrk,
                2_000_000_000,
                WorkCategory::Factorization,
            )
            .with_access(access)
            .with_epilogue(1_000_000_000),
            |_| {},
        );
        c.sync_device();
        // 1 GF/s test profile: 2 s kernel + 1 s epilogue, one kernel startup.
        let plain = c
            .profile()
            .gpu
            .kernel_time(KernelClass::Syrk, 2_000_000_000)
            .as_secs();
        assert!((c.now().as_secs() - (plain + 1.0)).abs() < 1e-6);
        // Flops split across categories; epilogue booked as fused recalc.
        assert_eq!(
            c.obs.metrics.count("flops.cat.Factorization"),
            2_000_000_000
        );
        assert_eq!(c.obs.metrics.count("flops.cat.FusedRecalc"), 1_000_000_000);
        assert_eq!(overhead_flops(&c), 1_000_000_000);
        // Fused metrics recorded.
        assert_eq!(c.obs.metrics.count("verify.fused.kernels"), 1);
        assert_eq!(c.obs.metrics.count("verify.fused.flops"), 1_000_000_000);
        assert!(c.obs.metrics.sum("verify.fused.epilogue_secs") > 0.9);
        // The logged op carries the fused-verify marker.
        let fused = c
            .log
            .ops()
            .any(|op| op.label == "SYRK+chk" && op.fused_verify);
        assert!(fused, "logged op should be marked fused-verify");
    }

    #[test]
    fn per_device_schedulers_let_blas3_overlap_across_devices() {
        let mut c = SimContext::new(
            SystemProfile::test_profile().with_devices(2),
            ExecMode::TimingOnly,
        );
        let s0 = c.default_stream();
        let s1 = c.create_stream_on(1);
        // BLAS-3 owns a whole device, but the two kernels sit on different
        // devices, so they run concurrently — unlike the single-device case
        // (`blas3_kernels_never_overlap`).
        c.launch(s0, desc(1_000_000_000, KernelClass::Blas3), |_| {});
        c.launch(s1, desc(1_000_000_000, KernelClass::Blas3), |_| {});
        c.sync_device();
        assert!(c.now().as_secs() < 1.5, "got {}", c.now().as_secs());
        assert_eq!(c.device_count(), 2);
        // Per-device busy accounting was emitted (multi-device only).
        assert!(c.obs.metrics.sum("shard.dev.0.busy_secs") > 0.9);
        assert!(c.obs.metrics.sum("shard.dev.1.busy_secs") > 0.9);
    }

    #[test]
    fn device_transfer_occupies_link_ports_and_orders_consumers() {
        let mut c = SimContext::new(
            SystemProfile::test_profile().with_devices(2),
            ExecMode::TimingOnly,
        );
        let s0 = c.default_stream();
        let s1 = c.create_stream_on(1);
        // 1 GB over a 1 GB/s link = 1 s, enqueued behind a 1 s kernel.
        c.launch(s0, desc(1_000_000_000, KernelClass::Blas2), |_| {});
        c.device_transfer(1_000_000_000, s0, 1, AccessSet::none(), |_| {});
        let sent = c.record_event(s0);
        c.stream_wait_event(s1, sent);
        c.launch(s1, desc(1_000_000_000, KernelClass::Blas2), |_| {});
        c.sync_device();
        // kernel (1 s) + link (1 s) + consumer kernel (1 s), serialized.
        assert!(c.now().as_secs() >= 3.0, "got {}", c.now().as_secs());
        assert_eq!(c.obs.metrics.count("shard.link.bytes"), 1_000_000_000);
        assert_eq!(c.obs.metrics.count("shard.link.transfers"), 1);
        assert_eq!(c.obs.metrics.count("shard.dev.0.link_bytes"), 1_000_000_000);
        // The link send landed on the sender's link lane in the timeline.
        assert!(c.log.ops().any(|op| op.lane() == Lane::DevLink(0)));
    }

    /// Every way work enters the simulator goes through one recorder (two
    /// flavours: work, transfer): under either timeline filter, each call
    /// appends exactly one op record — on its lane, at its site — and its
    /// own flop / byte increment. An op that declares no accesses is kept
    /// only while the timeline filter is on.
    #[test]
    fn every_entry_point_records_exactly_once() {
        use crate::oplog::ExecSite;
        use WorkCategory::*;
        for timeline in [true, false] {
            let mut c = SimContext::new(
                SystemProfile::test_profile().with_devices(2),
                ExecMode::TimingOnly,
            );
            if !timeline {
                c.disable_timeline();
            }
            let c = &mut c;
            let s = c.default_stream();
            let dev = c.dev_mem.alloc_zeros(2, 2, 2).unwrap();
            let tile = || AccessSet::new(vec![TileRef::new(dev, 0, 0)], vec![]);
            let work =
                |cat, access| KernelDesc::new("w", KernelClass::Light, 10, cat).with_access(access);
            let mut check = |what: &str,
                             (lane, site): (Lane, ExecSite),
                             (metric, by): (&str, u64),
                             call: &dyn Fn(&mut SimContext)| {
                let before = (c.log.entries().len(), c.obs.metrics.count(metric));
                call(c);
                let after = (c.log.entries().len(), c.obs.metrics.count(metric));
                let what = format!("{what}, timeline {timeline}: (log entries, {metric})");
                assert_eq!(after, (before.0 + 1, before.1 + by), "{what}");
                let Some(TraceAction::Op(op)) = c.log.entries().last() else {
                    panic!("{what}: the last entry is not an op");
                };
                assert_eq!((op.lane(), op.site()), (lane, site), "{what}");
            };
            let stream = ExecSite::Stream(0);
            check(
                "launch",
                (Lane::GpuStream(0), stream),
                ("flops.cat.Factorization", 10),
                &|c| c.launch(s, work(Factorization, tile()), |_| {}),
            );
            check(
                "cpu_exec",
                (Lane::HostMain, ExecSite::Host),
                ("flops.cat.ChecksumUpdate", 10),
                &|c| c.cpu_exec(work(ChecksumUpdate, tile()), |_| {}),
            );
            check(
                "cpu_submit",
                (Lane::CpuWorker(0), ExecSite::CpuWorker(0)),
                ("flops.cat.ChecksumEncode", 10),
                &|c| c.cpu_submit(work(ChecksumEncode, tile()), |_, _| {}),
            );
            check(
                "h2d",
                (Lane::CopyH2D, stream),
                ("pcie.bytes.h2d", 32),
                &|c| c.bulk_transfer_with_access(32, s, true, tile(), |_, _| {}),
            );
            check(
                "d2h",
                (Lane::CopyD2H, stream),
                ("pcie.bytes.d2h", 32),
                &|c| c.bulk_transfer_with_access(32, s, false, tile(), |_, _| {}),
            );
            check(
                "device_transfer",
                (Lane::DevLink(0), stream),
                ("shard.link.bytes", 64),
                &|c| c.device_transfer(64, s, 1, tile(), |_| {}),
            );
            let before = c.log.entries().len();
            c.launch(s, work(Verify, AccessSet::none()), |_| {});
            assert_eq!(c.log.entries().len(), before + usize::from(timeline));
        }
    }

    /// The static keys are the `{:?}`-formatted ones the recorder used to
    /// build per kernel, and each is in the obs name registry (the source
    /// lint sees literals at call sites only).
    #[test]
    fn static_metric_keys_spell_the_registered_names() {
        use hchol_obs::names::metric_registered;
        use KernelClass::*;
        for class in [Blas3, Syrk, Trsm, Blas2, Potf2, Light, FusedEpilogue] {
            let families = ["kernels.class", "busy_secs.class", "kernel_secs.class"];
            for (key, family) in class_keys(class).into_iter().zip(families) {
                assert_eq!(key, format!("{family}.{class:?}"));
                assert!(metric_registered(key), "{key}");
            }
        }
        use WorkCategory::*;
        for cat in [
            Factorization,
            ChecksumEncode,
            ChecksumUpdate,
            ChecksumRecalc,
            FusedRecalc,
            Verify,
            Transfer,
        ] {
            assert_eq!(flops_key(cat), format!("flops.cat.{cat:?}"));
            assert!(metric_registered(flops_key(cat)));
        }
        let dev = DeviceState::new(3, 1);
        assert!(metric_registered(&dev.busy_key));
        assert!(metric_registered(&dev.link_key));
    }

    #[test]
    fn flops_are_attributed_by_category() {
        let mut c = ctx(ExecMode::TimingOnly);
        let s = c.default_stream();
        c.launch(
            s,
            KernelDesc::new("r", KernelClass::Blas2, 500, WorkCategory::ChecksumRecalc),
            |_| {},
        );
        assert_eq!(c.obs.metrics.count("flops.cat.ChecksumRecalc"), 500);
        assert_eq!(overhead_flops(&c), 500);
    }
}
