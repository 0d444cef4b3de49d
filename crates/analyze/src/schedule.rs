//! Vector-clock schedule analysis: race detection and ABFT protocol
//! conformance over the program view of a gpusim op log.
//!
//! # Happens-before model
//!
//! The simulator guarantees exactly these orderings (and a correct program
//! relies on nothing else — in particular not on resource serialization in
//! the kernel scheduler):
//!
//! * **Issue → start**: every device op starts no earlier than the host
//!   clock at issue time, so the host's current knowledge flows into every
//!   launch.
//! * **Stream FIFO**: ops on one stream complete in issue order; DMA
//!   transfers additionally serialize on their per-direction lane.
//! * **Events**: `record_event` captures a stream's frontier;
//!   `stream_wait_event` joins it into the waiter.
//! * **Syncs**: `sync_stream`/`sync_device`/`sync_cpu_workers` join the
//!   drained lanes into the host.
//!
//! Each *agent* (host main thread, each stream, each CPU worker lane, each
//! DMA lane) carries a vector clock; one linear sweep over the program (issue
//! order is a valid topological order — every edge points forward) assigns
//! each op a clock and checks each declared tile access against the tile's
//! last writer and readers-since-last-write, FastTrack style. Unordered
//! conflicting pairs are RAW/WAR/WAW [`Race`]s. The sweep is
//! `O(actions · agents + accesses)` — cheap enough to run by default in
//! every driver test, replacing the old quadratic interval scan.
//!
//! # Protocol conformance
//!
//! The same sweep maintains, per tile, the set of *verify marks* (reads by
//! `Verify`/`ChecksumRecalc`-category ops) since the tile's last write, and
//! checks the per-scheme ABFT contract (see `DESIGN.md` §8):
//!
//! * [`Protocol::Enhanced`] — every `Factorization` read of a tile must be
//!   happens-before-preceded by a verify of that tile since its last write
//!   (tiles never written still need one: that is the storage-error window
//!   the paper closes).
//! * [`Protocol::Online`] — the same read rule, but only for tiles that
//!   *have* been written (post-update verification), plus an end-of-trace
//!   rule: every tile whose last writer is factorization/transfer work must
//!   be verified after that write (the final acceptance sweep).
//! * [`Protocol::Offline`] — encode-once (every factorization-written tile
//!   is read by exactly one `ChecksumEncode` op, before its first write)
//!   and verify-at-end; reads are deliberately unchecked.
//!
//! Conformance is specified for clean, single-attempt schedules with the
//! verification interval `K = 1`; K-gated (`K > 1`) runs intentionally
//! relax the Enhanced read rule (the paper's Optimization 3), so such runs
//! get race analysis only (see [`analyze_outcome`]).

use hchol_core::plan::{FactorPlan, NodeId, TaskKind};
use hchol_core::schemes::{FactorOutcome, SchemeKind};
use hchol_gpusim::counters::WorkCategory;
use hchol_gpusim::oplog::{DmaDir, ExecSite, OpLog, OpRecord, TraceAction};
use hchol_gpusim::{BufferId, TileRef};

/// Which ABFT contract to check on top of the race analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Encode before, verify at the very end, nothing in between.
    Offline,
    /// Verify every block after it is written; final acceptance sweep.
    Online,
    /// Verify every block immediately before it is read.
    Enhanced,
}

impl Protocol {
    /// The contract a scheme claims to implement.
    pub fn for_scheme(kind: SchemeKind) -> Protocol {
        match kind {
            SchemeKind::Offline => Protocol::Offline,
            SchemeKind::Online => Protocol::Online,
            SchemeKind::Enhanced => Protocol::Enhanced,
        }
    }
}

/// Kind of an unordered conflicting access pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Read-after-write not ordered behind the write.
    Raw,
    /// Write-after-read not ordered behind the read.
    War,
    /// Write-after-write not ordered behind the earlier write.
    Waw,
}

impl RaceKind {
    /// Canonical three-letter name.
    pub fn name(self) -> &'static str {
        match self {
            RaceKind::Raw => "RAW",
            RaceKind::War => "WAR",
            RaceKind::Waw => "WAW",
        }
    }
}

/// An unordered conflicting pair of accesses to one tile.
#[derive(Debug, Clone)]
pub struct Race {
    /// RAW / WAR / WAW.
    pub kind: RaceKind,
    /// The contested tile.
    pub tile: TileRef,
    /// Label of the earlier-issued op.
    pub first: String,
    /// Label of the later-issued op (the one found unordered).
    pub second: String,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} race on {} between `{}` and `{}`",
            self.kind.name(),
            self.tile,
            self.first,
            self.second
        )
    }
}

/// A violation of the checked ABFT protocol.
#[derive(Debug, Clone)]
pub enum Violation {
    /// A factorization op read a tile with no verify since its last write.
    UnverifiedRead {
        /// The tile read too early.
        tile: TileRef,
        /// Label of the reading op.
        reader: String,
    },
    /// A written tile was never verified after its last write (offline /
    /// online verify-at-end rule).
    MissingFinalVerify {
        /// The tile left unverified.
        tile: TileRef,
        /// Label of the last writer.
        writer: String,
    },
    /// Offline: a factorization op wrote a tile that was never encoded.
    MissingEncode {
        /// The tile written without a prior encode.
        tile: TileRef,
        /// Label of the writing op.
        writer: String,
    },
    /// Offline: a tile was encoded more than once.
    DuplicateEncode {
        /// The doubly-encoded tile.
        tile: TileRef,
        /// How many encodes were seen.
        count: u32,
    },
}

impl Violation {
    /// Short machine-readable kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::UnverifiedRead { .. } => "unverified_read",
            Violation::MissingFinalVerify { .. } => "missing_final_verify",
            Violation::MissingEncode { .. } => "missing_encode",
            Violation::DuplicateEncode { .. } => "duplicate_encode",
        }
    }

    /// The tile the violation concerns.
    pub fn tile(&self) -> TileRef {
        match self {
            Violation::UnverifiedRead { tile, .. }
            | Violation::MissingFinalVerify { tile, .. }
            | Violation::MissingEncode { tile, .. }
            | Violation::DuplicateEncode { tile, .. } => *tile,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::UnverifiedRead { tile, reader } => {
                write!(f, "`{reader}` reads {tile} without a preceding verify")
            }
            Violation::MissingFinalVerify { tile, writer } => {
                write!(f, "{tile} never verified after its last write (`{writer}`)")
            }
            Violation::MissingEncode { tile, writer } => {
                write!(f, "`{writer}` writes {tile} which was never encoded")
            }
            Violation::DuplicateEncode { tile, count } => {
                write!(f, "{tile} encoded {count} times (expected once)")
            }
        }
    }
}

/// Result of one schedule analysis.
#[derive(Debug, Clone, Default)]
pub struct ScheduleAnalysis {
    /// Number of access-declaring ops analyzed.
    pub ops: usize,
    /// Which protocol was checked (`None` = race analysis only).
    pub protocol: Option<Protocol>,
    /// Unordered conflicting access pairs.
    pub races: Vec<Race>,
    /// Protocol-contract violations.
    pub violations: Vec<Violation>,
}

impl ScheduleAnalysis {
    /// True when no race and no violation was found.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.violations.is_empty()
    }

    /// Multi-line human-readable summary of all findings.
    pub fn render_text(&self) -> String {
        let mut s = format!(
            "schedule analysis: {} ops, {} races, {} violations\n",
            self.ops,
            self.races.len(),
            self.violations.len()
        );
        for r in &self.races {
            s.push_str(&format!("  race: {r}\n"));
        }
        for v in &self.violations {
            s.push_str(&format!("  violation [{}]: {v}\n", v.kind()));
        }
        s
    }
}

/// Race-only analysis of a recorded program.
pub fn analyze_schedule(log: &OpLog) -> ScheduleAnalysis {
    Sweep::new(log, None).run()
}

/// Race analysis plus conformance checking against `protocol`.
pub fn analyze_with_protocol(log: &OpLog, protocol: Protocol) -> ScheduleAnalysis {
    Sweep::new(log, Some(protocol)).run()
}

/// Analyze a finished factorization: always race-checks; additionally
/// conformance-checks when the contract applies to the recorded schedule —
/// a clean single attempt with verification interval `K = 1` (restarted
/// attempts re-encode and re-write, and `K > 1` deliberately relaxes the
/// Enhanced read rule). A balanced run is downgraded to race-only
/// analysis only when it **actually relaxed** the interval: either the
/// controller's floor keeps `K > 1` from the start (`k_min > 1`), or the
/// recorded decision log shows a window where `K` was raised above 1.
/// A balanced run that merely *could* have raised `K` (`k_max > 1`) but
/// never did executed a fully `K = 1`-conformant schedule, and full
/// conformance checking still applies.
pub fn analyze_outcome(out: &FactorOutcome) -> ScheduleAnalysis {
    let relaxed_k = out.opts.balance.as_ref().is_some_and(|b| b.k_min > 1)
        || out.balance_log.as_ref().is_some_and(|log| log.max_k() > 1);
    let strict = out.attempts == 1 && !out.failed && out.opts.verify_interval == 1 && !relaxed_k;
    if strict {
        analyze_with_protocol(&out.ctx.log, Protocol::for_scheme(out.scheme))
    } else {
        analyze_schedule(&out.ctx.log)
    }
}

/// Mutation control: `log`, recorded from a lone in-order run of `plan`, as
/// that run would have recorded it had every [`TaskKind::DeviceRecv`]
/// skipped its stream waits — consumer devices no longer ordered behind the
/// peer-link transfers they read. The analyzer replays happens-before only,
/// so the edited log is the broken run's program, and it must race. Panics
/// unless the log's marks step `plan`'s issue order on lane 0: with another
/// plan the ids would name the wrong nodes.
// lint:allow(dead-pub) mutation control: the shard and schedule suites drop a run's recv waits
pub fn drop_recv_waits(log: &mut OpLog, plan: &FactorPlan) {
    let stepped = log.marks().map(|(node, _)| node);
    let order = plan.order().iter().map(|id| (0, id.0));
    assert!(
        stepped.eq(order),
        "the log is not a lone in-order run of the plan"
    );
    log.edit(|node, e| {
        let recv = node
            .is_some_and(|(_, n)| matches!(plan.node(NodeId(n)).kind, TaskKind::DeviceRecv { .. }));
        !(recv && matches!(e.action(), TraceAction::StreamWaitEvent { .. }))
    });
}

/// One recorded access for the per-tile state: which agent, at which of its
/// ticks, by which log entry.
#[derive(Debug, Clone, Copy)]
struct Access {
    agent: usize,
    tick: u32,
    action: usize,
}

#[derive(Debug, Default)]
struct TileState {
    last_write: Option<Access>,
    last_write_cat: Option<WorkCategory>,
    /// Readers since the last write, at most one (latest) per agent.
    readers: Vec<Access>,
    /// Verify-reads since the last write, at most one (latest) per agent.
    verified: Vec<Access>,
    encodes: u32,
    encode_flagged: bool,
}

fn upsert(list: &mut Vec<Access>, a: Access) {
    match list.iter_mut().find(|x| x.agent == a.agent) {
        Some(x) => *x = a,
        None => list.push(a),
    }
}

/// Dense ids for the tiles a program touches: each buffer is a row-major
/// grid as large as the largest tile index the program declares on it, the
/// grids laid end to end — so a tile's state is one arithmetic lookup per
/// access, and ascending id is ascending `(buffer, row, column)`.
struct TileIds {
    /// Per buffer: first id and grid width (`bound` is one past the last).
    grids: Vec<(usize, usize)>,
    bound: usize,
}

impl TileIds {
    fn of(log: &OpLog) -> Self {
        let mut dims: Vec<(usize, usize)> = Vec::new();
        for (_, a) in log.program() {
            let TraceAction::Op(op) = a else { continue };
            for t in log.reads(op).chain(log.writes(op)) {
                if dims.len() <= t.buf.0 {
                    dims.resize(t.buf.0 + 1, (0, 0));
                }
                let d = &mut dims[t.buf.0];
                *d = (d.0.max(t.bi + 1), d.1.max(t.bj + 1));
            }
        }
        let mut bound = 0;
        let grids = dims.iter().map(|&(rows, cols)| {
            bound += rows * cols;
            (bound - rows * cols, cols)
        });
        TileIds {
            grids: grids.collect(),
            bound,
        }
    }

    #[inline]
    fn id(&self, t: &TileRef) -> usize {
        let (base, cols) = self.grids[t.buf.0];
        base + t.bi * cols + t.bj
    }

    /// The tile behind a dense id.
    fn tile(&self, id: usize) -> TileRef {
        let buf = self.grids.partition_point(|g| g.0 <= id) - 1;
        let (base, cols) = self.grids[buf];
        TileRef::new(BufferId(buf), (id - base) / cols, (id - base) % cols)
    }
}

struct Sweep<'a> {
    log: &'a OpLog,
    protocol: Option<Protocol>,
    /// Vector clocks, one per agent: `0` = host, then streams, then CPU
    /// workers, then the two DMA lanes.
    clocks: Vec<Vec<u32>>,
    /// The clock of the op being visited (reused across ops).
    scratch: Vec<u32>,
    events: Vec<Option<Vec<u32>>>,
    n_streams: usize,
    n_workers: usize,
    ids: TileIds,
    tiles: Vec<TileState>,
    out: ScheduleAnalysis,
}

const HOST: usize = 0;

impl<'a> Sweep<'a> {
    fn new(log: &'a OpLog, protocol: Option<Protocol>) -> Self {
        let mut max_stream = 0usize;
        let mut max_worker = 0usize;
        let mut max_event = 0usize;
        for (_, a) in log.program() {
            match a {
                TraceAction::Op(op) => match op.site() {
                    ExecSite::Stream(s) => max_stream = max_stream.max(s),
                    ExecSite::CpuWorker(w) => max_worker = max_worker.max(w),
                    ExecSite::Host => {}
                },
                TraceAction::RecordEvent { event, stream } => {
                    max_event = max_event.max(*event);
                    max_stream = max_stream.max(*stream);
                }
                TraceAction::StreamWaitEvent { stream, event } => {
                    max_stream = max_stream.max(*stream);
                    max_event = max_event.max(*event);
                }
                TraceAction::SyncStream { stream } => max_stream = max_stream.max(*stream),
                _ => {}
            }
        }
        let n_streams = max_stream + 1;
        let n_workers = max_worker + 1;
        let n_agents = 1 + n_streams + n_workers + 2;
        let ids = TileIds::of(log);
        Sweep {
            log,
            protocol,
            clocks: vec![vec![0; n_agents]; n_agents],
            scratch: vec![0; n_agents],
            events: vec![None; max_event + 1],
            n_streams,
            n_workers,
            tiles: std::iter::repeat_with(TileState::default)
                .take(ids.bound)
                .collect(),
            ids,
            out: ScheduleAnalysis {
                protocol,
                ..ScheduleAnalysis::default()
            },
        }
    }

    fn stream_agent(&self, s: usize) -> usize {
        1 + s
    }

    fn worker_agent(&self, w: usize) -> usize {
        1 + self.n_streams + w
    }

    fn dma_agent(&self, d: DmaDir) -> usize {
        let base = 1 + self.n_streams + self.n_workers;
        match d {
            DmaDir::H2D => base,
            DmaDir::D2H => base + 1,
        }
    }

    /// Join lane `agent`'s clock into the host's.
    fn host_joins(&mut self, agent: usize) {
        let (host, lanes) = self.clocks.split_first_mut().expect("the host lane exists");
        join(host, &lanes[agent - 1]);
    }

    fn run(mut self) -> ScheduleAnalysis {
        for (idx, action) in self.log.program() {
            match action {
                TraceAction::Op(op) => self.visit_op(idx, op),
                TraceAction::RecordEvent { event, stream } => {
                    self.events[*event] = Some(self.clocks[self.stream_agent(*stream)].clone());
                }
                TraceAction::StreamWaitEvent { stream, event } => {
                    let agent = self.stream_agent(*stream);
                    if let Some(vc) = &self.events[*event] {
                        join(&mut self.clocks[agent], vc);
                    }
                }
                TraceAction::SyncStream { stream } => self.host_joins(self.stream_agent(*stream)),
                TraceAction::SyncDevice => {
                    for s in 0..self.n_streams {
                        self.host_joins(self.stream_agent(s));
                    }
                    for d in [DmaDir::H2D, DmaDir::D2H] {
                        self.host_joins(self.dma_agent(d));
                    }
                }
                TraceAction::SyncCpuWorkers => {
                    for w in 0..self.n_workers {
                        self.host_joins(self.worker_agent(w));
                    }
                }
            }
        }
        self.finish();
        self.out
    }

    fn visit_op(&mut self, idx: usize, op: &OpRecord) {
        self.out.ops += 1;
        let log = self.log;
        let agent = match op.site() {
            ExecSite::Stream(s) => self.stream_agent(s),
            ExecSite::Host => HOST,
            ExecSite::CpuWorker(w) => self.worker_agent(w),
        };
        // The op's clock: its own lane joined with the host's knowledge at
        // issue time (every start waits for the host clock), plus the DMA
        // lane for transfers.
        let mut vc = std::mem::take(&mut self.scratch);
        vc.copy_from_slice(&self.clocks[agent]);
        join(&mut vc, &self.clocks[HOST]);
        if let Some(dir) = op.dma() {
            join(&mut vc, &self.clocks[self.dma_agent(dir)]);
        }
        vc[agent] += 1;
        let me = Access {
            agent,
            tick: vc[agent],
            action: idx,
        };
        let hb = |a: &Access| vc[a.agent] >= a.tick;

        // --- Checks against the pre-state. ---
        for r in log.reads(op) {
            let st = &mut self.tiles[self.ids.id(&r)];
            if let Some(w) = &st.last_write {
                if !hb(w) {
                    let race = Race {
                        kind: RaceKind::Raw,
                        tile: r,
                        first: label_of(self.log, w.action),
                        second: log.label(op).to_string(),
                    };
                    self.out.races.push(race);
                }
            }
            // Protocol read rules (factorization reads only — checksum and
            // transfer machinery is the verification mechanism itself).
            if op.category == WorkCategory::Factorization {
                let needs_verify = match self.protocol {
                    Some(Protocol::Enhanced) => true,
                    Some(Protocol::Online) => st.last_write.is_some(),
                    _ => false,
                };
                if needs_verify && !st.verified.iter().any(&hb) {
                    self.out.violations.push(Violation::UnverifiedRead {
                        tile: r,
                        reader: log.label(op).to_string(),
                    });
                }
            }
            if op.category == WorkCategory::ChecksumEncode {
                st.encodes += 1;
                if st.encodes == 2 && self.protocol == Some(Protocol::Offline) {
                    self.out
                        .violations
                        .push(Violation::DuplicateEncode { tile: r, count: 2 });
                }
            }
        }
        for w in log.writes(op) {
            let st = &mut self.tiles[self.ids.id(&w)];
            if let Some(pw) = &st.last_write {
                if !hb(pw) {
                    self.out.races.push(Race {
                        kind: RaceKind::Waw,
                        tile: w,
                        first: label_of(self.log, pw.action),
                        second: log.label(op).to_string(),
                    });
                }
            }
            for rd in &st.readers {
                // Skip this op's own read of the same tile (RMW ops).
                if rd.agent == me.agent && rd.tick == me.tick {
                    continue;
                }
                if !hb(rd) {
                    self.out.races.push(Race {
                        kind: RaceKind::War,
                        tile: w,
                        first: label_of(self.log, rd.action),
                        second: log.label(op).to_string(),
                    });
                }
            }
            if op.category == WorkCategory::Factorization
                && self.protocol == Some(Protocol::Offline)
                && st.encodes == 0
                && !st.encode_flagged
            {
                st.encode_flagged = true;
                self.out.violations.push(Violation::MissingEncode {
                    tile: w,
                    writer: log.label(op).to_string(),
                });
            }
        }

        // --- State updates. ---
        let is_verify = matches!(
            op.category,
            WorkCategory::Verify | WorkCategory::ChecksumRecalc
        );
        for r in log.reads(op) {
            let st = &mut self.tiles[self.ids.id(&r)];
            upsert(&mut st.readers, me);
            if is_verify {
                upsert(&mut st.verified, me);
            }
        }
        for w in log.writes(op) {
            let st = &mut self.tiles[self.ids.id(&w)];
            st.last_write = Some(me);
            st.last_write_cat = Some(op.category);
            st.readers.clear();
            st.verified.clear();
            // A fused-epilogue kernel recalculates the checksums of every
            // tile it writes inside the same launch: the write carries its
            // own verify mark (the compare-only batch that consumes the
            // deposit declares no matrix reads, so this is the only mark).
            if op.fused_verify {
                upsert(&mut st.verified, me);
            }
        }

        // Publish the op's clock to its lane(s).
        self.clocks[agent].copy_from_slice(&vc);
        if let Some(dir) = op.dma() {
            let lane = self.dma_agent(dir);
            self.clocks[lane].copy_from_slice(&vc);
        }
        self.scratch = vc;
    }

    /// End-of-trace rules (verify-at-end for offline/online), in ascending
    /// `(buffer, row, column)` order — the order of the dense ids.
    fn finish(&mut self) {
        if !matches!(
            self.protocol,
            Some(Protocol::Offline) | Some(Protocol::Online)
        ) {
            return;
        }
        for (id, st) in self.tiles.iter().enumerate() {
            let Some(w) = &st.last_write else { continue };
            let data_write = matches!(
                st.last_write_cat,
                Some(WorkCategory::Factorization) | Some(WorkCategory::Transfer)
            );
            if data_write && st.verified.is_empty() {
                self.out.violations.push(Violation::MissingFinalVerify {
                    tile: self.ids.tile(id),
                    writer: label_of(self.log, w.action),
                });
            }
        }
    }
}

fn join(dst: &mut [u32], src: &[u32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

fn label_of(log: &OpLog, entry: usize) -> String {
    match log.entry(entry) {
        TraceAction::Op(op) => log.label(op).to_string(),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_gpusim::access::{AccessSet, TileRef};
    use hchol_gpusim::context::KernelDesc;
    use hchol_gpusim::profile::{KernelClass, SystemProfile};
    use hchol_gpusim::{BufferId, ExecMode, SimContext};
    use std::collections::HashMap;

    fn ctx() -> SimContext {
        SimContext::new(SystemProfile::test_profile(), ExecMode::TimingOnly)
    }

    fn tile(i: usize, j: usize) -> TileRef {
        TileRef::new(BufferId(0), i, j)
    }

    /// The sweep as it stood before the dense tile ids and the reused
    /// scratch clock, verbatim: per-tile state in a hashed map looked up two
    /// to four times per access, four clock clones per op. The reference
    /// the differential tests hold the new sweep to — races and violations
    /// in the same order, op for op.
    struct OracleSweep<'a> {
        log: &'a OpLog,
        protocol: Option<Protocol>,
        /// Vector clocks, one per agent: `0` = host, then streams, then CPU
        /// workers, then the two DMA lanes.
        clocks: Vec<Vec<u32>>,
        events: Vec<Option<Vec<u32>>>,
        n_streams: usize,
        n_workers: usize,
        tiles: HashMap<TileRef, TileState>,
        out: ScheduleAnalysis,
    }

    impl<'a> OracleSweep<'a> {
        fn new(log: &'a OpLog, protocol: Option<Protocol>) -> Self {
            let mut max_stream = 0usize;
            let mut max_worker = 0usize;
            let mut max_event = 0usize;
            for (_, a) in log.program() {
                match a {
                    TraceAction::Op(op) => match op.site() {
                        ExecSite::Stream(s) => max_stream = max_stream.max(s),
                        ExecSite::CpuWorker(w) => max_worker = max_worker.max(w),
                        ExecSite::Host => {}
                    },
                    TraceAction::RecordEvent { event, stream } => {
                        max_event = max_event.max(*event);
                        max_stream = max_stream.max(*stream);
                    }
                    TraceAction::StreamWaitEvent { stream, event } => {
                        max_stream = max_stream.max(*stream);
                        max_event = max_event.max(*event);
                    }
                    TraceAction::SyncStream { stream } => max_stream = max_stream.max(*stream),
                    _ => {}
                }
            }
            let n_streams = max_stream + 1;
            let n_workers = max_worker + 1;
            let n_agents = 1 + n_streams + n_workers + 2;
            OracleSweep {
                log,
                protocol,
                clocks: vec![vec![0; n_agents]; n_agents],
                events: vec![None; max_event + 1],
                n_streams,
                n_workers,
                tiles: HashMap::new(),
                out: ScheduleAnalysis {
                    protocol,
                    ..ScheduleAnalysis::default()
                },
            }
        }

        fn stream_agent(&self, s: usize) -> usize {
            1 + s
        }

        fn worker_agent(&self, w: usize) -> usize {
            1 + self.n_streams + w
        }

        fn dma_agent(&self, d: DmaDir) -> usize {
            let base = 1 + self.n_streams + self.n_workers;
            match d {
                DmaDir::H2D => base,
                DmaDir::D2H => base + 1,
            }
        }

        fn run(mut self) -> ScheduleAnalysis {
            for (idx, action) in self.log.program() {
                match action {
                    TraceAction::Op(op) => self.visit_op(idx, op),
                    TraceAction::RecordEvent { event, stream } => {
                        self.events[*event] = Some(self.clocks[self.stream_agent(*stream)].clone());
                    }
                    TraceAction::StreamWaitEvent { stream, event } => {
                        if let Some(vc) = self.events[*event].clone() {
                            let agent = self.stream_agent(*stream);
                            join(&mut self.clocks[agent], &vc);
                        }
                    }
                    TraceAction::SyncStream { stream } => {
                        let vc = self.clocks[self.stream_agent(*stream)].clone();
                        join(&mut self.clocks[HOST], &vc);
                    }
                    TraceAction::SyncDevice => {
                        for s in 0..self.n_streams {
                            let vc = self.clocks[self.stream_agent(s)].clone();
                            join(&mut self.clocks[HOST], &vc);
                        }
                        for d in [DmaDir::H2D, DmaDir::D2H] {
                            let vc = self.clocks[self.dma_agent(d)].clone();
                            join(&mut self.clocks[HOST], &vc);
                        }
                    }
                    TraceAction::SyncCpuWorkers => {
                        for w in 0..self.n_workers {
                            let vc = self.clocks[self.worker_agent(w)].clone();
                            join(&mut self.clocks[HOST], &vc);
                        }
                    }
                }
            }
            self.finish();
            self.out
        }

        fn visit_op(&mut self, idx: usize, op: &OpRecord) {
            self.out.ops += 1;
            let log = self.log;
            let agent = match op.site() {
                ExecSite::Stream(s) => self.stream_agent(s),
                ExecSite::Host => HOST,
                ExecSite::CpuWorker(w) => self.worker_agent(w),
            };
            // The op's clock: its own lane joined with the host's knowledge at
            // issue time (every start waits for the host clock), plus the DMA
            // lane for transfers.
            let mut vc = self.clocks[agent].clone();
            join(&mut vc, &self.clocks[HOST].clone());
            if let Some(dir) = op.dma() {
                join(&mut vc, &self.clocks[self.dma_agent(dir)].clone());
            }
            vc[agent] += 1;
            let me = Access {
                agent,
                tick: vc[agent],
                action: idx,
            };
            let hb = |a: &Access| vc[a.agent] >= a.tick;

            // --- Checks against the pre-state. ---
            for r in log.reads(op) {
                let st = self.tiles.entry(r).or_default();
                if let Some(w) = &st.last_write {
                    if !hb(w) {
                        let race = Race {
                            kind: RaceKind::Raw,
                            tile: r,
                            first: label_of(self.log, w.action),
                            second: log.label(op).to_string(),
                        };
                        self.out.races.push(race);
                    }
                }
                // Protocol read rules (factorization reads only — checksum and
                // transfer machinery is the verification mechanism itself).
                if op.category == WorkCategory::Factorization {
                    let needs_verify = match self.protocol {
                        Some(Protocol::Enhanced) => true,
                        Some(Protocol::Online) => st.last_write.is_some(),
                        _ => false,
                    };
                    if needs_verify && !st.verified.iter().any(&hb) {
                        self.out.violations.push(Violation::UnverifiedRead {
                            tile: r,
                            reader: log.label(op).to_string(),
                        });
                    }
                }
                if op.category == WorkCategory::ChecksumEncode {
                    st.encodes += 1;
                    if st.encodes == 2 && self.protocol == Some(Protocol::Offline) {
                        self.out
                            .violations
                            .push(Violation::DuplicateEncode { tile: r, count: 2 });
                    }
                }
            }
            for w in log.writes(op) {
                let st = self.tiles.entry(w).or_default();
                if let Some(pw) = &st.last_write {
                    if !hb(pw) {
                        self.out.races.push(Race {
                            kind: RaceKind::Waw,
                            tile: w,
                            first: label_of(self.log, pw.action),
                            second: log.label(op).to_string(),
                        });
                    }
                }
                for rd in &st.readers {
                    // Skip this op's own read of the same tile (RMW ops).
                    if rd.agent == me.agent && rd.tick == me.tick {
                        continue;
                    }
                    if !hb(rd) {
                        self.out.races.push(Race {
                            kind: RaceKind::War,
                            tile: w,
                            first: label_of(self.log, rd.action),
                            second: log.label(op).to_string(),
                        });
                    }
                }
                if op.category == WorkCategory::Factorization
                    && self.protocol == Some(Protocol::Offline)
                    && st.encodes == 0
                    && !st.encode_flagged
                {
                    st.encode_flagged = true;
                    self.out.violations.push(Violation::MissingEncode {
                        tile: w,
                        writer: log.label(op).to_string(),
                    });
                }
            }

            // --- State updates. ---
            let is_verify = matches!(
                op.category,
                WorkCategory::Verify | WorkCategory::ChecksumRecalc
            );
            for r in log.reads(op) {
                let st = self.tiles.entry(r).or_default();
                upsert(&mut st.readers, me);
                if is_verify {
                    upsert(&mut st.verified, me);
                }
            }
            for w in log.writes(op) {
                let st = self.tiles.entry(w).or_default();
                st.last_write = Some(me);
                st.last_write_cat = Some(op.category);
                st.readers.clear();
                st.verified.clear();
                // A fused-epilogue kernel recalculates the checksums of every
                // tile it writes inside the same launch: the write carries its
                // own verify mark (the compare-only batch that consumes the
                // deposit declares no matrix reads, so this is the only mark).
                if op.fused_verify {
                    upsert(&mut st.verified, me);
                }
            }

            // Publish the op's clock to its lane(s).
            self.clocks[agent] = vc.clone();
            if let Some(dir) = op.dma() {
                let lane = self.dma_agent(dir);
                self.clocks[lane] = vc;
            }
        }

        /// End-of-trace rules (verify-at-end for offline/online).
        fn finish(&mut self) {
            if !matches!(
                self.protocol,
                Some(Protocol::Offline) | Some(Protocol::Online)
            ) {
                return;
            }
            let mut missing: Vec<Violation> = Vec::new();
            for (tile, st) in &self.tiles {
                let Some(w) = &st.last_write else { continue };
                let data_write = matches!(
                    st.last_write_cat,
                    Some(WorkCategory::Factorization) | Some(WorkCategory::Transfer)
                );
                if data_write && st.verified.is_empty() {
                    missing.push(Violation::MissingFinalVerify {
                        tile: *tile,
                        writer: label_of(self.log, w.action),
                    });
                }
            }
            // Deterministic order for reporting (HashMap iteration is not).
            missing.sort_by_key(|v| {
                let t = v.tile();
                (t.buf.0, t.bi, t.bj)
            });
            self.out.violations.extend(missing);
        }
    }

    /// Both sweeps over one program, race-only and under every protocol:
    /// `ops`, and every race and violation in order.
    fn assert_same_analysis(log: &OpLog, what: &str) -> usize {
        let mut findings = 0;
        let protocols = [
            None,
            Some(Protocol::Offline),
            Some(Protocol::Online),
            Some(Protocol::Enhanced),
        ];
        for protocol in protocols {
            let new = Sweep::new(log, protocol).run();
            let old = OracleSweep::new(log, protocol).run();
            assert_eq!(new.ops, old.ops, "{what} {protocol:?}");
            assert_eq!(
                format!("{:?}", new.races),
                format!("{:?}", old.races),
                "{what} {protocol:?}"
            );
            assert_eq!(
                format!("{:?}", new.violations),
                format!("{:?}", old.violations),
                "{what} {protocol:?}"
            );
            findings += new.races.len() + new.violations.len();
        }
        findings
    }

    /// New vs oracle on recorded factorizations: scheme × grid × feature
    /// (clean, faulted-and-restarted, and a shard-2 run with its receive
    /// waits dropped from the log so the trace really races), each trace
    /// also held to the two protocols it does not implement so the
    /// violation paths run.
    #[test]
    fn dense_sweep_matches_the_hashed_oracle_on_recorded_runs() {
        use crate::index::tests::{configs, gpu, nt_max};
        use hchol_core::options::ShardOptions;
        use hchol_core::schemes::run_scheme;
        use hchol_faults::FaultPlan;
        let profile = SystemProfile::tardis();
        let b = 16;
        let racy = gpu().with_shard(ShardOptions::new(2));
        let mut configs = configs();
        configs.push(("racy shard2", racy, false));
        let (mut findings, mut racy_findings) = (0, 0);
        for nt in 1..=nt_max() {
            for (name, opts, faulty) in &configs {
                for kind in SchemeKind::all() {
                    if hchol_core::validate_options(opts).is_err() {
                        continue;
                    }
                    let faults = match faulty {
                        true => FaultPlan::paper_storage_error(nt, b),
                        false => FaultPlan::none(),
                    };
                    let out = run_scheme(
                        kind,
                        &profile,
                        ExecMode::TimingOnly,
                        nt * b,
                        b,
                        opts,
                        faults,
                        None,
                    )
                    .expect("the TimingOnly run completes");
                    let what = format!("{} nt={nt} {name}", kind.name());
                    let mut log = out.ctx.log;
                    if *name == "racy shard2" {
                        assert!(analyze_schedule(&log).is_clean(), "{what}: unmutated");
                        let plan = hchol_core::plan::for_scheme(kind, nt, &out.opts, false);
                        drop_recv_waits(&mut log, &plan);
                        let races = analyze_schedule(&log).races;
                        racy_findings += races.iter().filter(|r| r.kind == RaceKind::Raw).count();
                    }
                    findings += assert_same_analysis(&log, &what);
                }
            }
        }
        assert!(findings > 1000, "mismatched protocols raise violations");
        assert!(racy_findings > 0, "dropped receive waits raise RAW races");
    }

    /// New vs oracle on random programs: random tiles of random buffers read
    /// and written from random streams, workers and the host, with events
    /// and syncs sprinkled in — RAW, WAR and WAW races by the hundred.
    #[test]
    fn dense_sweep_matches_the_hashed_oracle_on_random_programs() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut rnd = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let cats = [
            WorkCategory::Factorization,
            WorkCategory::ChecksumEncode,
            WorkCategory::ChecksumRecalc,
            WorkCategory::Verify,
            WorkCategory::Transfer,
        ];
        let mut findings = 0;
        for program in 0..64 {
            let mut c = ctx();
            let streams: Vec<_> = (0..1 + rnd(3)).map(|_| c.create_stream()).collect();
            let mut events = Vec::new();
            for step in 0..40 + rnd(60) {
                let mut pick = |n: usize| -> Vec<TileRef> {
                    (0..rnd(n))
                        .map(|_| TileRef::new(BufferId(rnd(3) * 2), rnd(3), rnd(4)))
                        .collect()
                };
                let access = AccessSet::new(pick(4), pick(3));
                let cat = cats[rnd(cats.len())];
                let desc = KernelDesc::new(format!("op{step}"), KernelClass::Blas3, 1_000, cat)
                    .with_access(access);
                match rnd(10) {
                    0 => c.cpu_submit(desc, |_, _| {}),
                    1 => events.push(c.record_event(streams[rnd(streams.len())])),
                    2 if !events.is_empty() => {
                        c.stream_wait_event(streams[rnd(streams.len())], events[rnd(events.len())])
                    }
                    3 => c.sync_stream(streams[rnd(streams.len())]),
                    4 if rnd(4) == 0 => c.sync_cpu_workers(),
                    _ => c.launch(streams[rnd(streams.len())], desc, |_| {}),
                }
            }
            findings += assert_same_analysis(&c.log, &format!("random program {program}"));
        }
        assert!(findings > 1000, "random programs race, got {findings}");
    }

    fn kernel(
        label: &'static str,
        reads: &[(usize, usize)],
        writes: &[(usize, usize)],
    ) -> KernelDesc {
        KernelDesc::new(
            label,
            KernelClass::Blas3,
            1_000,
            WorkCategory::Factorization,
        )
        .with_access(AccessSet::new(
            reads.iter().map(|&(i, j)| tile(i, j)).collect(),
            writes.iter().map(|&(i, j)| tile(i, j)).collect(),
        ))
    }

    #[test]
    fn same_stream_raw_is_ordered() {
        let mut c = ctx();
        let s = c.default_stream();
        c.launch(s, kernel("w", &[], &[(0, 0)]), |_| {});
        c.launch(s, kernel("r", &[(0, 0)], &[]), |_| {});
        let a = analyze_schedule(&c.log);
        assert_eq!(a.ops, 2);
        assert!(a.is_clean(), "{}", a.render_text());
    }

    #[test]
    fn cross_stream_unordered_raw_fires() {
        let mut c = ctx();
        let s1 = c.create_stream();
        let s2 = c.create_stream();
        c.launch(s1, kernel("w", &[], &[(0, 0)]), |_| {});
        c.launch(s2, kernel("r", &[(0, 0)], &[]), |_| {});
        let a = analyze_schedule(&c.log);
        assert_eq!(a.races.len(), 1);
        assert_eq!(a.races[0].kind, RaceKind::Raw);
        assert_eq!(a.races[0].first, "w");
        assert_eq!(a.races[0].second, "r");
    }

    #[test]
    fn event_edge_orders_cross_stream_raw() {
        let mut c = ctx();
        let s1 = c.create_stream();
        let s2 = c.create_stream();
        c.launch(s1, kernel("w", &[], &[(0, 0)]), |_| {});
        let e = c.record_event(s1);
        c.stream_wait_event(s2, e);
        c.launch(s2, kernel("r", &[(0, 0)], &[]), |_| {});
        assert!(analyze_schedule(&c.log).is_clean());
    }

    #[test]
    fn sync_orders_via_host() {
        let mut c = ctx();
        let s1 = c.create_stream();
        let s2 = c.create_stream();
        c.launch(s1, kernel("w", &[], &[(0, 0)]), |_| {});
        c.sync_stream(s1);
        // The next launch starts after the host clock, which waited for s1.
        c.launch(s2, kernel("r", &[(0, 0)], &[]), |_| {});
        assert!(analyze_schedule(&c.log).is_clean());
    }

    #[test]
    fn waw_and_war_detection() {
        let mut c = ctx();
        let s1 = c.create_stream();
        let s2 = c.create_stream();
        c.launch(s1, kernel("a", &[(1, 1)], &[(0, 0)]), |_| {});
        c.launch(s2, kernel("b", &[], &[(0, 0), (1, 1)]), |_| {});
        let kinds: Vec<_> = analyze_schedule(&c.log)
            .races
            .iter()
            .map(|r| r.kind)
            .collect();
        assert!(kinds.contains(&RaceKind::Waw));
        assert!(kinds.contains(&RaceKind::War));
    }

    #[test]
    fn rmw_on_one_op_is_not_a_war() {
        let mut c = ctx();
        let s = c.default_stream();
        c.launch(s, kernel("rmw", &[(0, 0)], &[(0, 0)]), |_| {});
        assert!(analyze_schedule(&c.log).is_clean());
    }

    #[test]
    fn concurrent_readers_are_fine() {
        let mut c = ctx();
        let s1 = c.create_stream();
        let s2 = c.create_stream();
        c.launch(s1, kernel("r1", &[(0, 0)], &[]), |_| {});
        c.launch(s2, kernel("r2", &[(0, 0)], &[]), |_| {});
        assert!(analyze_schedule(&c.log).is_clean());
    }

    #[test]
    fn enhanced_requires_verify_before_read() {
        let mut c = ctx();
        let s = c.default_stream();
        c.launch(s, kernel("read", &[(0, 0)], &[]), |_| {});
        let a = analyze_with_protocol(&c.log, Protocol::Enhanced);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].kind(), "unverified_read");
    }

    #[test]
    fn enhanced_verify_then_read_is_conformant() {
        let mut c = ctx();
        let s = c.default_stream();
        let ver = KernelDesc::new("REC", KernelClass::Blas2, 10, WorkCategory::ChecksumRecalc)
            .with_access(AccessSet::new(vec![tile(0, 0)], vec![]));
        c.launch(s, ver, |_| {});
        c.launch(s, kernel("read", &[(0, 0)], &[]), |_| {});
        assert!(analyze_with_protocol(&c.log, Protocol::Enhanced).is_clean());
    }

    #[test]
    fn write_invalidates_verify_marks() {
        let mut c = ctx();
        let s = c.default_stream();
        let ver = KernelDesc::new("REC", KernelClass::Blas2, 10, WorkCategory::ChecksumRecalc)
            .with_access(AccessSet::new(vec![tile(0, 0)], vec![]));
        c.launch(s, ver, |_| {});
        c.launch(s, kernel("w", &[], &[(0, 0)]), |_| {});
        c.launch(s, kernel("r", &[(0, 0)], &[]), |_| {});
        let a = analyze_with_protocol(&c.log, Protocol::Enhanced);
        assert_eq!(a.violations.len(), 1, "{}", a.render_text());
    }

    #[test]
    fn online_ignores_reads_of_never_written_tiles_but_wants_final_verify() {
        let mut c = ctx();
        let s = c.default_stream();
        c.launch(s, kernel("r", &[(0, 0)], &[]), |_| {});
        c.launch(s, kernel("w", &[], &[(1, 0)]), |_| {});
        let a = analyze_with_protocol(&c.log, Protocol::Online);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].kind(), "missing_final_verify");
        assert_eq!(a.violations[0].tile(), tile(1, 0));
    }

    #[test]
    fn offline_encode_once_rules() {
        let mut c = ctx();
        let s = c.default_stream();
        let enc = |l: &'static str| {
            KernelDesc::new(l, KernelClass::Blas2, 10, WorkCategory::ChecksumEncode).with_access(
                AccessSet::new(vec![tile(0, 0)], vec![TileRef::new(BufferId(1), 0, 0)]),
            )
        };
        // Unencoded write fires missing_encode.
        c.launch(s, kernel("w", &[], &[(0, 0)]), |_| {});
        let a = analyze_with_protocol(&c.log, Protocol::Offline);
        assert!(a
            .violations
            .iter()
            .any(|v| v.kind() == "missing_encode" && v.tile() == tile(0, 0)));

        // Encode-write-verify is conformant.
        let mut c = ctx();
        let s = c.default_stream();
        c.launch(s, enc("enc"), |_| {});
        c.launch(s, kernel("w", &[], &[(0, 0)]), |_| {});
        let ver = KernelDesc::new("REC", KernelClass::Blas2, 10, WorkCategory::ChecksumRecalc)
            .with_access(AccessSet::new(vec![tile(0, 0)], vec![]));
        c.launch(s, ver, |_| {});
        let a = analyze_with_protocol(&c.log, Protocol::Offline);
        assert!(a.is_clean(), "{}", a.render_text());

        // Double encode fires.
        let mut c = ctx();
        let s = c.default_stream();
        c.launch(s, enc("enc1"), |_| {});
        c.launch(s, enc("enc2"), |_| {});
        let a = analyze_with_protocol(&c.log, Protocol::Offline);
        assert!(a.violations.iter().any(|v| v.kind() == "duplicate_encode"));
    }

    #[test]
    fn dma_lane_orders_same_direction_transfers() {
        // Two h2d transfers on different streams serialize on the h2d lane,
        // so a WAW between them is ordered.
        let mut c = ctx();
        let dev = c.dev_mem.alloc_zeros(2, 2, 2).unwrap();
        let s1 = c.create_stream();
        let s2 = c.create_stream();
        let w = AccessSet::new(vec![], vec![TileRef::new(dev, 0, 0)]);
        c.bulk_transfer_with_access(64, s1, true, w.clone(), |_, _| {});
        c.bulk_transfer_with_access(64, s2, true, w, |_, _| {});
        assert!(analyze_schedule(&c.log).is_clean());
    }

    #[test]
    fn cpu_worker_needs_sync_to_order_against_gpu() {
        let mut c = ctx();
        let s = c.default_stream();
        let task = KernelDesc::new("task", KernelClass::Blas2, 10, WorkCategory::ChecksumUpdate)
            .with_access(AccessSet::new(vec![], vec![tile(0, 0)]));
        c.cpu_submit(task, |_, _| {});
        c.launch(s, kernel("r", &[(0, 0)], &[]), |_| {});
        assert_eq!(analyze_schedule(&c.log).races.len(), 1);

        let mut c = ctx();
        let s = c.default_stream();
        let task = KernelDesc::new("task", KernelClass::Blas2, 10, WorkCategory::ChecksumUpdate)
            .with_access(AccessSet::new(vec![], vec![tile(0, 0)]));
        c.cpu_submit(task, |_, _| {});
        c.sync_cpu_workers();
        c.launch(s, kernel("r", &[(0, 0)], &[]), |_| {});
        assert!(analyze_schedule(&c.log).is_clean());
    }
}
