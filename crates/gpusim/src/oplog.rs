//! The op log: one record per scheduled unit of work, interleaved in issue
//! order with the ordering actions the driver issued.
//!
//! [`crate::SimContext`] appends one [`OpRecord`] per kernel, host task,
//! worker task or transfer — label, lane, kernel class, work category,
//! scheduled `(start, end)`, flops or bytes, declared [`AccessSet`](crate::access::AccessSet) and the
//! fused-verify flag — and one [`TraceAction`] per event, wait and sync.
//! A record is a fixed-size row with no heap of its own: the log renders
//! the op's [`Label`] recipe into its text pages and copies the declared
//! tiles, packed, into its tile pages, and the record keeps offsets
//! ([`OpLog::label`], [`OpLog::reads`], [`OpLog::writes`]). Entries, text
//! and tiles grow page by page, so recording never copies what it holds.
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
//!
//! Beside the entries the log keeps one mark per plan node a driver stepped
//! ([`OpLog::mark`]): the `(lane, node)` it named and the stretch of
//! entries the node issued ([`OpLog::marks`]). Every op and
//! ordering action reads back to the node that issued it, or to none: work
//! issued between nodes has no mark. A log that keeps nothing keeps no
//! marks either.

use crate::access::TileRef;
use crate::counters::WorkCategory;
use crate::memory::BufferId;
use crate::profile::KernelClass;
use crate::time::SimTime;
use std::cell::RefCell;
use std::ops::Range;
use std::thread::LocalKey;

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

/// A trace label as a recipe: a static name and up to two integers in one
/// of the fixed forms. The log renders it into its text pages only when it
/// keeps the op, so a label costs no allocation per launch;
/// [`Label::Owned`] carries an ad-hoc caller's text verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Label {
    /// `"{name}"`, e.g. `"bulk"`.
    Name(&'static str),
    /// `"{name} j={j}"`, e.g. `"POTF2 j=3"`.
    Iter(&'static str, usize),
    /// `"{name} j={j} {key}={v}"`, e.g. `"GEMM+CHK j=3 d=1"`.
    IterAnd(&'static str, usize, char, usize),
    /// `"{name} ({i},{j})"`: one tile, e.g. `"REC (3,4)"`.
    Tile(&'static str, usize, usize),
    /// `"{name} x{n}"`: a batch of `n`, e.g. `"CMP x12"`.
    Count(&'static str, usize),
    /// Any other text, verbatim.
    Owned(String),
}

impl Label {
    /// An upper bound on the rendered length in bytes: a `usize` prints in
    /// at most 20 digits, and a form adds at most 10 bytes around two.
    fn max_len(&self) -> usize {
        match self {
            Label::Owned(text) => text.len(),
            Label::Name(name)
            | Label::Iter(name, ..)
            | Label::IterAnd(name, ..)
            | Label::Tile(name, ..)
            | Label::Count(name, ..) => name.len() + 50,
        }
    }

    /// Append the text to `out`. Digits are written by hand: the formatting
    /// machinery would cost more than the rest of recording an op.
    fn render(&self, out: &mut Vec<u8>) {
        let mut put = |text: &str| out.extend_from_slice(text.as_bytes());
        match *self {
            Label::Name(name) => put(name),
            Label::Iter(name, j) => {
                put(name);
                put(" j=");
                decimal(out, j);
            }
            Label::IterAnd(name, j, key, v) => {
                put(name);
                put(" j=");
                decimal(out, j);
                out.push(b' ');
                out.extend_from_slice(key.encode_utf8(&mut [0; 4]).as_bytes());
                out.push(b'=');
                decimal(out, v);
            }
            Label::Tile(name, i, j) => {
                put(name);
                put(" (");
                decimal(out, i);
                out.push(b',');
                decimal(out, j);
                out.push(b')');
            }
            Label::Count(name, n) => {
                put(name);
                put(" x");
                decimal(out, n);
            }
            Label::Owned(ref text) => put(text),
        }
    }
}

/// Append `n` in decimal.
fn decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0; 20];
    let mut first = digits.len();
    loop {
        first -= 1;
        digits[first] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[first..]);
}

impl From<&'static str> for Label {
    fn from(name: &'static str) -> Self {
        Label::Name(name)
    }
}

impl From<String> for Label {
    fn from(text: String) -> Self {
        Label::Owned(text)
    }
}

/// A [`Lane`] in four bytes: the variant in the low three bits, the index
/// above them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedLane(u32);

impl From<Lane> for PackedLane {
    fn from(lane: Lane) -> Self {
        let (tag, index) = match lane {
            Lane::GpuStream(s) => (0, s),
            Lane::CopyH2D => (1, 0),
            Lane::CopyD2H => (2, 0),
            Lane::HostMain => (3, 0),
            Lane::CpuWorker(w) => (4, w),
            Lane::DevLink(d) => (5, d),
        };
        let index = u32::try_from(index).ok().filter(|&i| i < 1 << 29);
        PackedLane(index.expect("a lane index fits 29 bits") << 3 | tag)
    }
}

impl PackedLane {
    fn get(self) -> Lane {
        let index = (self.0 >> 3) as usize;
        match self.0 & 7 {
            0 => Lane::GpuStream(index),
            1 => Lane::CopyH2D,
            2 => Lane::CopyD2H,
            3 => Lane::HostMain,
            4 => Lane::CpuWorker(index),
            _ => Lane::DevLink(index),
        }
    }
}

/// A [`TileRef`] in twelve bytes: how the log's tile pages keep it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedTile([u32; 3]);

impl From<&TileRef> for PackedTile {
    fn from(t: &TileRef) -> Self {
        PackedTile([t.buf.0, t.bi, t.bj].map(|x| u32::try_from(x).expect("a tile ref fits u32s")))
    }
}

impl PackedTile {
    fn get(self) -> TileRef {
        let [buf, bi, bj] = self.0.map(|x| x as usize);
        TileRef::new(BufferId(buf), bi, bj)
    }
}

/// A log offset or count as the record keeps it.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("the op log stays under 4 Gi text bytes and tiles")
}

/// One scheduled unit of work: a fixed-size row with no heap of its own.
/// Its label and declared tiles live in the log that kept it — read them
/// through [`OpLog::label`], [`OpLog::reads`] and [`OpLog::writes`]. Built
/// only by the context's recorder.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Scheduled start.
    pub start: SimTime,
    /// Scheduled end.
    pub end: SimTime,
    /// FLOPs for kernels and tasks (a fused epilogue's included), bytes for
    /// transfers.
    pub work: u64,
    /// The label in the log's text pages: offset and length in bytes.
    pub(crate) label: (u32, u32),
    /// The declared tiles in the log's tile pages: the offset, then the
    /// number of reads and of writes, reads first.
    pub(crate) tiles: (u32, u32, u32),
    pub(crate) lane: PackedLane,
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
        self.lane.get()
    }

    /// Where the op executes: a transfer runs on the stream that issued it.
    pub fn site(&self) -> ExecSite {
        match self.lane() {
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
        match self.lane() {
            Lane::CopyH2D => Some(DmaDir::H2D),
            Lane::CopyD2H => Some(DmaDir::D2H),
            _ => None,
        }
    }

    /// Does the op declare any tile access?
    fn declares(&self) -> bool {
        self.tiles.1 > 0 || self.tiles.2 > 0
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
    !matches!(a, TraceAction::Op(op) if !op.declares())
}

/// One entry as [`OpLog::edit`] hands it over.
pub struct Edit<'a> {
    action: &'a mut TraceAction,
    tiles: &'a mut Paged<PackedTile, TILE_PAGE>,
}

impl Edit<'_> {
    /// The entry.
    pub fn action(&self) -> &TraceAction {
        self.action
    }

    /// Keep, in order, only the reads `keep` accepts (an ordering action
    /// has none). An op left with no access leaves the program view.
    // lint:allow(dead-pub) mutation control: the schedule suites drop a recorded op's verify reads
    pub fn retain_reads(&mut self, mut keep: impl FnMut(TileRef) -> bool) {
        let TraceAction::Op(op) = &mut *self.action else {
            return;
        };
        let (at, reads, writes) = (op.tiles.0 as usize, op.tiles.1 as usize, op.tiles.2);
        let tiles = self.tiles.get_mut(at, reads + writes as usize);
        let mut kept = 0;
        for i in 0..reads {
            if keep(tiles[i].get()) {
                tiles[kept] = tiles[i];
                kept += 1;
            }
        }
        tiles.copy_within(reads.., kept);
        op.tiles.1 = offset(kept);
    }
}

/// Entries per page of the log: 2048 × 56 B.
const ENTRY_PAGE: usize = 1 << 11;
/// Tile refs per page: 8192 × 12 B.
const TILE_PAGE: usize = 1 << 13;
/// Label bytes per page.
const TEXT_PAGE: usize = 1 << 16;

/// An append-only sequence kept in pages of `PAGE` items. Growing it
/// takes the next page and never moves or copies what it holds, so a long
/// run leaves no outgrown buffers behind in the allocator. Offset `i` is
/// item `i % PAGE` of page `i / PAGE`. A stretch that must stay contiguous
/// (one op's tiles, one label) starts a fresh page when the open one cannot
/// take all of it; a stretch longer than a page gets a page spanning as
/// many slots, the slots after it held by empty pages. A dropped sequence
/// hands its pages to its thread's spares ([`Spare`]).
#[derive(Debug, Clone)]
pub(crate) struct Paged<T: Spare, const PAGE: usize> {
    pages: Vec<Vec<T>>,
}

/// Bytes of emptied pages a thread keeps per page type.
const SPARE_BYTES: usize = 32 << 20;

/// A page type with a per-thread stock of emptied pages: the next log on
/// the thread fills the pages the last one was done with, instead of
/// having the allocator hand fresh memory back and forth (a run's log is
/// most of what a run allocates, so between runs it would be returned to
/// the system and faulted in again, page by page).
pub(crate) trait Spare: Sized + 'static {
    fn spares() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>>;
}

thread_local! {
    static SPARE_ENTRIES: RefCell<Vec<Vec<TraceAction>>> = const { RefCell::new(Vec::new()) };
    static SPARE_TILES: RefCell<Vec<Vec<PackedTile>>> = const { RefCell::new(Vec::new()) };
    static SPARE_TEXT: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

impl Spare for TraceAction {
    fn spares() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>> {
        &SPARE_ENTRIES
    }
}

impl Spare for PackedTile {
    fn spares() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>> {
        &SPARE_TILES
    }
}

impl Spare for u8 {
    fn spares() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>> {
        &SPARE_TEXT
    }
}

impl<T: Spare, const PAGE: usize> Drop for Paged<T, PAGE> {
    fn drop(&mut self) {
        let keep = SPARE_BYTES / (PAGE * std::mem::size_of::<T>());
        // A thread tearing down its spares frees the pages instead.
        let _ = T::spares().try_with(|spares| {
            let mut spares = spares.borrow_mut();
            for mut page in self.pages.drain(..) {
                if page.capacity() == PAGE && spares.len() < keep {
                    page.clear();
                    spares.push(page);
                }
            }
        });
    }
}

impl<T: Spare, const PAGE: usize> Paged<T, PAGE> {
    fn new() -> Self {
        Paged { pages: Vec::new() }
    }

    /// Append a stretch of at most `max` items through `fill`; returns its
    /// offset and length. A stretch of none takes no page.
    fn append(&mut self, max: usize, fill: impl FnOnce(&mut Vec<T>)) -> (usize, usize) {
        if max == 0 {
            return (0, 0);
        }
        // An empty page is a slot of the oversized page before it.
        let open = self
            .pages
            .last()
            .is_some_and(|p| p.capacity() > 0 && p.len() + max <= PAGE);
        let slot = if open {
            self.pages.len() - 1
        } else {
            let slots = max.div_ceil(PAGE);
            let spare = (slots == 1)
                .then(|| T::spares().with(|spares| spares.borrow_mut().pop()))
                .flatten()
                .filter(|page| page.capacity() == PAGE);
            let page = spare.unwrap_or_else(|| Vec::with_capacity(slots * PAGE));
            self.pages.push(page);
            self.pages
                .resize_with(self.pages.len() + slots - 1, Vec::new);
            self.pages.len() - slots
        };
        let page = &mut self.pages[slot];
        let first = page.len();
        fill(page);
        let len = page.len() - first;
        assert!(len <= max, "a stretch of {len} items overran its {max}");
        (slot * PAGE + first, len)
    }

    /// The `len` items at offset `at`.
    fn get(&self, at: usize, len: usize) -> &[T] {
        match len {
            0 => &[],
            _ => &self.pages[at / PAGE][at % PAGE..at % PAGE + len],
        }
    }

    fn get_mut(&mut self, at: usize, len: usize) -> &mut [T] {
        match len {
            0 => &mut [],
            _ => &mut self.pages[at / PAGE][at % PAGE..at % PAGE + len],
        }
    }

    /// How many items a sequence of single items holds: every page but the
    /// last is full.
    fn len(&self) -> usize {
        self.pages
            .last()
            .map_or(0, |p| (self.pages.len() - 1) * PAGE + p.len())
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flatten()
    }
}

/// The recorded run of one [`crate::SimContext`] (see the module docs).
#[derive(Debug, Clone)]
pub struct OpLog {
    entries: Paged<TraceAction, ENTRY_PAGE>,
    /// The kept ops' labels, end to end.
    text: Paged<u8, TEXT_PAGE>,
    /// The kept ops' declared tiles, each op's reads then its writes.
    tiles: Paged<PackedTile, TILE_PAGE>,
    /// The node each run of entries was issued under (`None` between
    /// nodes), with the run's first index, in issue order: a run ends where
    /// the next begins.
    runs: Vec<(Option<(usize, usize)>, usize)>,
    pub(crate) timeline: bool,
    pub(crate) program: bool,
}

impl OpLog {
    /// A log keeping both views.
    pub(crate) fn new() -> Self {
        OpLog {
            entries: Paged::new(),
            text: Paged::new(),
            tiles: Paged::new(),
            runs: Vec::new(),
            timeline: true,
            program: true,
        }
    }

    /// Append `a`: an op [`OpLog::stow`] kept, or an ordering action if the
    /// program filter is on.
    pub(crate) fn push(&mut self, a: TraceAction) {
        if matches!(a, TraceAction::Op(_)) || self.program {
            self.entries.append(1, |page| page.push(a));
        }
    }

    /// Whether a filter keeps `op`, labelled `label` and declaring `reads`
    /// and `writes`. If one does, the label is rendered into the text pages
    /// and the tiles are copied into the tile pages, and `op` notes where;
    /// if none does, neither costs anything.
    pub(crate) fn stow(
        &mut self,
        op: &mut OpRecord,
        label: &Label,
        (reads, writes): (&[TileRef], &[TileRef]),
    ) -> bool {
        op.tiles = (0, offset(reads.len()), offset(writes.len()));
        if !(self.timeline || self.program && op.declares()) {
            return false;
        }
        let (at, len) = self.text.append(label.max_len(), |page| label.render(page));
        op.label = (offset(at), offset(len));
        let (at, _) = self.tiles.append(reads.len() + writes.len(), |page| {
            page.extend(reads.iter().chain(writes).map(PackedTile::from))
        });
        op.tiles.0 = offset(at);
        true
    }

    /// Set both filters. Only before anything is recorded: a filter decides
    /// what is kept, not what is dropped later.
    pub(crate) fn set_filters(&mut self, timeline: bool, program: bool) {
        assert!(
            self.is_empty() && self.runs.is_empty(),
            "log filters are set before recording"
        );
        (self.timeline, self.program) = (timeline, program);
    }

    /// Record what follows as issued by node `(lane, node)`, or by none: a
    /// driver names each node before it steps it and `None` after. A gap
    /// between nodes that issued nothing leaves no run. A log whose filters
    /// keep nothing keeps no marks.
    pub fn mark(&mut self, node: Option<(usize, usize)>) {
        let first = self.len();
        if self.runs.last() == Some(&(None, first)) {
            self.runs.pop();
        }
        if self.timeline || self.program {
            self.runs.push((node, first));
        }
    }

    /// How many entries the log keeps.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Does the log keep no entry?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `i` in issue order.
    pub fn entry(&self, i: usize) -> &TraceAction {
        &self.entries.get(i, 1)[0]
    }

    /// The entries of `range` in issue order — a mark's stretch, or
    /// `0..len()` for all of them.
    pub fn entries(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = &TraceAction> {
        range.map(|i| self.entry(i))
    }

    /// The label of `op`, one of this log's entries.
    pub fn label(&self, op: &OpRecord) -> &str {
        let bytes = self.text.get(op.label.0 as usize, op.label.1 as usize);
        std::str::from_utf8(bytes).expect("labels are rendered text")
    }

    /// The tiles `op`, one of this log's entries, declares: its reads, then
    /// its writes.
    fn declared(&self, op: &OpRecord) -> (&[PackedTile], &[PackedTile]) {
        let (at, reads, writes) = (op.tiles.0 as usize, op.tiles.1 as usize, op.tiles.2);
        self.tiles.get(at, reads + writes as usize).split_at(reads)
    }

    /// The tiles `op`, one of this log's entries, declares it reads, in
    /// declaration order.
    pub fn reads(&self, op: &OpRecord) -> impl ExactSizeIterator<Item = TileRef> + '_ {
        self.declared(op).0.iter().map(|t| t.get())
    }

    /// The tiles `op`, one of this log's entries, declares it writes, in
    /// declaration order.
    pub fn writes(&self, op: &OpRecord) -> impl ExactSizeIterator<Item = TileRef> + '_ {
        self.declared(op).1.iter().map(|t| t.get())
    }

    /// The node marks in issue order: each stepped node `(lane, node)` —
    /// node `node` of the plan driven as lane `lane`; a lone run is lane 0,
    /// a batch numbers its plans — with the stretch of entries it issued
    /// ([`OpLog::entries`]).
    pub fn marks(&self) -> impl Iterator<Item = ((usize, usize), Range<usize>)> + '_ {
        let ends = self.runs.iter().skip(1).map(|r| r.1);
        let ends = ends.chain([self.len()]);
        self.runs
            .iter()
            .zip(ends)
            .filter_map(|(&(node, first), end)| Some((node?, first..end)))
    }

    /// Hand `f` every entry with the node it was issued under (`None`
    /// between nodes); `f` may narrow an op's reads ([`Edit::retain_reads`]),
    /// and drops the entry by returning `false`. The marks close up around
    /// dropped entries; their text and tiles stay in the pages, unread.
    /// How a mutation control turns a recorded run into the run a broken
    /// driver would have recorded.
    pub fn edit(&mut self, mut f: impl FnMut(Option<(usize, usize)>, &mut Edit<'_>) -> bool) {
        let mut old = std::mem::replace(&mut self.entries, Paged::new());
        let (runs, tiles, kept) = (&mut self.runs, &mut self.tiles, &mut self.entries);
        let mut r = 0;
        let old = old.pages.iter_mut().flat_map(|page| page.drain(..));
        for (i, mut action) in old.enumerate() {
            // The runs that begin at entry `i` now begin at the kept count.
            while runs.get(r).is_some_and(|run| run.1 <= i) {
                runs[r].1 = kept.len();
                r += 1;
            }
            let node = r.checked_sub(1).and_then(|r| runs[r].0);
            if f(
                node,
                &mut Edit {
                    action: &mut action,
                    tiles,
                },
            ) {
                kept.append(1, |page| page.push(action));
            }
        }
        let end = kept.len();
        runs[r..].iter_mut().for_each(|run| run.1 = end);
    }

    /// The program view: each ordering action and each op that declares
    /// accesses, with its index in [`OpLog::entries`]. Issue order is a
    /// valid topological order of the happens-before graph: every edge a
    /// driver can create points from an earlier-issued action to a later
    /// one. Empty when the program filter is off.
    pub fn program(&self) -> impl Iterator<Item = (usize, &TraceAction)> {
        let n = if self.program { self.len() } else { 0 };
        self.entries
            .iter()
            .take(n)
            .enumerate()
            .filter(|(_, a)| in_program(a))
    }

    /// The timeline view: every op in issue order. Empty when the timeline
    /// filter is off.
    pub fn ops(&self) -> impl Iterator<Item = &OpRecord> {
        let n = if self.timeline { self.len() } else { 0 };
        self.entries.iter().take(n).filter_map(|a| match a {
            TraceAction::Op(op) => Some(op),
            _ => None,
        })
    }

    /// The lanes of the timeline, in order of first use.
    fn lanes(&self) -> Vec<Lane> {
        let mut lanes: Vec<Lane> = Vec::new();
        for op in self.ops() {
            if !lanes.contains(&op.lane()) {
                lanes.push(op.lane());
            }
        }
        lanes
    }

    /// Total busy time per lane.
    pub fn lane_busy(&self, lane: Lane) -> SimTime {
        SimTime::secs(
            self.ops()
                .filter(|op| op.lane() == lane)
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
            for op in self.ops().filter(|op| op.lane() == lane) {
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
        let rows: Vec<_> = self.ops().map(|op| self.row(op)).collect();
        serde_json::to_string_pretty(&rows).expect("ops serialize")
    }

    /// The timeline row of `op`: lane, label, class, start, end, flops,
    /// bytes.
    fn row(&self, op: &OpRecord) -> serde::Value {
        use serde::Serialize;
        let (flops, bytes) = match op.class {
            Some(_) => (op.work, 0),
            None => (0, op.work),
        };
        serde::Value::Object(vec![
            ("lane".into(), op.lane().to_value()),
            ("label".into(), self.label(op).to_value()),
            ("class".into(), op.class.to_value()),
            ("start".into(), op.start.to_value()),
            ("end".into(), op.end.to_value()),
            ("flops".into(), flops.to_value()),
            ("bytes".into(), bytes.to_value()),
        ])
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
    use crate::access::AccessSet;
    use serde::Serialize;

    fn op(lane: Lane, s: f64, e: f64, class: Option<KernelClass>) -> TraceAction {
        TraceAction::Op(OpRecord {
            start: SimTime::secs(s),
            end: SimTime::secs(e),
            work: 100,
            label: (0, 0),
            tiles: (0, 0, 0),
            lane: lane.into(),
            stream: 0,
            class,
            category: WorkCategory::Factorization,
            fused_verify: false,
        })
    }

    /// Record `a` as the context does; an op as `"op"`, declaring
    /// `access`.
    fn record(log: &mut OpLog, a: TraceAction, access: &AccessSet) {
        record_as(log, a, &Label::Name("op"), access);
    }

    fn record_as(log: &mut OpLog, mut a: TraceAction, label: &Label, access: &AccessSet) {
        if let TraceAction::Op(op) = &mut a {
            if !log.stow(op, label, (&access.reads, &access.writes)) {
                return;
            }
        }
        log.push(a);
    }

    fn timeline(ops: impl IntoIterator<Item = TraceAction>) -> OpLog {
        let mut log = OpLog::new();
        ops.into_iter()
            .for_each(|a| record(&mut log, a, &AccessSet::none()));
        log
    }

    const G: Option<KernelClass> = Some(KernelClass::Blas3);

    fn tile(buf: usize, bi: usize, bj: usize) -> TileRef {
        TileRef::new(BufferId(buf), bi, bj)
    }

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
        let access = AccessSet::new(vec![tile(0, 0, 0)], vec![]);
        // (timeline, program) → (kept, timeline ops, program entries).
        for (filters, want) in [
            ((true, true), (3, 2, 2)),
            ((false, true), (2, 0, 2)),
            ((true, false), (2, 2, 0)),
            ((false, false), (0, 0, 0)),
        ] {
            let mut log = OpLog::new();
            log.set_filters(filters.0, filters.1);
            record(
                &mut log,
                op(Lane::HostMain, 0.0, 1.0, None),
                &AccessSet::none(),
            );
            record(&mut log, op(Lane::GpuStream(0), 0.0, 1.0, G), &access);
            record(&mut log, TraceAction::SyncDevice, &AccessSet::none());
            let got = (log.len(), log.ops().count(), log.program().count());
            assert_eq!(got, want, "{filters:?}");
            // A dropped op leaves nothing in the text or the tile pages.
            let ops: Vec<_> = log
                .entries(0..log.len())
                .filter(|a| matches!(a, TraceAction::Op(_)))
                .collect();
            assert_eq!(log.text.len(), 2 * ops.len(), "{filters:?}");
            let declared = ops.iter().filter(|a| in_program(a)).count();
            assert_eq!(log.tiles.len(), declared, "{filters:?}");
        }
    }

    #[test]
    #[should_panic(expected = "log filters are set before recording")]
    fn filters_are_set_before_recording() {
        let mut log = timeline([TraceAction::SyncDevice]);
        log.set_filters(true, false);
    }

    /// Each label form renders as the text it replaces, and every op reads
    /// its own label and tiles back out of the shared buffers.
    #[test]
    fn labels_and_tiles_read_back_per_op() {
        let cases = [
            (Label::Name("bulk"), "bulk"),
            (Label::Iter("POTF2", 3), "POTF2 j=3"),
            (Label::IterAnd("GEMM+CHK", 3, 'd', 1), "GEMM+CHK j=3 d=1"),
            (Label::Tile("REC", 3, 4), "REC (3,4)"),
            (Label::Count("CMP", 12), "CMP x12"),
            (Label::Owned("flagged 2 of 9".into()), "flagged 2 of 9"),
            (
                Label::IterAnd("TSYRK", usize::MAX, 'k', 0),
                "TSYRK j=18446744073709551615 k=0",
            ),
        ];
        let mut log = OpLog::new();
        for (k, (label, _)) in cases.iter().enumerate() {
            let access = AccessSet::new(vec![tile(k, k, 0); k], vec![tile(9, 0, k)]);
            record_as(
                &mut log,
                op(Lane::GpuStream(k), 0.0, 1.0, G),
                label,
                &access,
            );
        }
        assert_eq!(log.ops().count(), cases.len());
        for (k, (op, (label, text))) in log.ops().zip(&cases).enumerate() {
            assert_eq!(log.label(op), *text);
            assert!(text.len() <= label.max_len(), "{text}");
            assert_eq!(op.lane(), Lane::GpuStream(k));
            assert!(log.reads(op).eq(vec![tile(k, k, 0); k]));
            assert!(log.writes(op).eq([tile(9, 0, k)]));
        }
    }

    /// Stretches fill a page in order, one that does not fit opens the
    /// next, one longer than a page gets slots of its own; no page a
    /// stretch went into moves, and a clone appends past its partial page.
    #[test]
    fn paged_stretches_stay_contiguous_and_never_move() {
        let mut p: Paged<u8, 4> = Paged::new();
        let put = |p: &mut Paged<u8, 4>, items: &[u8]| {
            p.append(items.len(), |page| page.extend_from_slice(items))
        };
        assert_eq!(put(&mut p, &[1, 2, 3]), (0, 3));
        let first = p.pages[0].as_ptr();
        assert_eq!(put(&mut p, &[4, 5]), (4, 2));
        assert_eq!(put(&mut p, &[]), (0, 0));
        assert_eq!(put(&mut p, &[6, 7, 8, 9, 10, 11]), (8, 6));
        assert_eq!(put(&mut p, &[12]), (16, 1));
        assert_eq!(p.pages.len(), 5, "the long stretch spans slots 2 and 3");
        assert_eq!(p.pages[0].as_ptr(), first);
        assert_eq!(p.get(4, 2), &[4, 5]);
        assert_eq!(p.get(8, 6), &[6, 7, 8, 9, 10, 11]);
        assert_eq!(p.get(16, 1), &[12]);
        let mut q = p.clone();
        assert_eq!(put(&mut q, &[13, 14]), (17, 2));
        assert_eq!(q.get(16, 3), &[12, 13, 14]);

        let mut one: Paged<u8, 4> = Paged::new();
        for i in 0..9u8 {
            assert_eq!(one.append(1, |page| page.push(i)), (usize::from(i), 1));
        }
        assert_eq!(one.len(), 9);
        assert!(one.iter().copied().eq(0..9));
        // A dropped sequence's full pages go to the spares, emptied.
        drop(one);
        let mut again: Paged<u8, 4> = Paged::new();
        again.append(1, |page| page.push(7));
        assert_eq!(again.get(0, 1), &[7]);
    }

    #[test]
    fn packed_lanes_round_trip() {
        let lanes = [
            Lane::GpuStream(0),
            Lane::GpuStream(77),
            Lane::CopyH2D,
            Lane::CopyD2H,
            Lane::HostMain,
            Lane::CpuWorker(5),
            Lane::DevLink(3),
        ];
        for lane in lanes {
            assert_eq!(PackedLane::from(lane).get(), lane);
        }
    }

    /// Node 7 of lane 1 issues two entries, one is issued between nodes,
    /// node 3 of lane 0 issues one, node 4 none; `edit` drops the syncs
    /// under a node.
    #[test]
    fn marks_name_each_entrys_node_and_edits_keep_them() {
        let mut log = OpLog::new();
        log.mark(Some((1, 7)));
        record(
            &mut log,
            op(Lane::HostMain, 0.0, 1.0, G),
            &AccessSet::none(),
        );
        log.push(TraceAction::SyncDevice);
        log.mark(None);
        log.push(TraceAction::SyncCpuWorkers);
        log.mark(Some((0, 3)));
        log.push(TraceAction::SyncDevice);
        log.mark(None);
        log.mark(Some((0, 4)));
        log.mark(None);
        let mut under = Vec::new();
        log.edit(|node, e| {
            under.push(node.map(|(_, n)| n));
            !matches!(e.action(), TraceAction::SyncDevice)
        });
        assert_eq!(under, [Some(7), Some(7), None, Some(3)]);
        assert_eq!(log.len(), 2);
        let marks: Vec<_> = log.marks().collect();
        assert_eq!(marks, [((1, 7), 0..1), ((0, 3), 2..2), ((0, 4), 2..2)]);
        // A log that keeps nothing keeps no marks.
        let mut off = OpLog::new();
        off.set_filters(false, false);
        off.mark(Some((0, 1)));
        off.push(TraceAction::SyncDevice);
        assert!(off.is_empty() && off.marks().next().is_none());
    }

    /// Narrowing one op's reads leaves its writes and every other op's
    /// tiles as they were; an op left with no access leaves the program
    /// view.
    #[test]
    fn edit_narrows_reads_in_place() {
        let mut log = OpLog::new();
        log.set_filters(false, true);
        let ops = [
            AccessSet::new(
                vec![tile(0, 0, 0), tile(1, 0, 0), tile(0, 1, 0)],
                vec![tile(2, 0, 0)],
            ),
            AccessSet::new(vec![tile(0, 0, 0)], vec![]),
            AccessSet::new(vec![tile(1, 1, 1)], vec![tile(0, 0, 0)]),
        ];
        for access in &ops {
            record_as(
                &mut log,
                op(Lane::GpuStream(0), 0.0, 1.0, G),
                &Label::Name("k"),
                access,
            );
        }
        log.edit(|_, e| {
            e.retain_reads(|t| t.buf.0 != 0);
            true
        });
        let kept: Vec<_> = log
            .program()
            .map(|(i, a)| {
                let TraceAction::Op(op) = a else {
                    unreachable!()
                };
                let reads: Vec<_> = log.reads(op).collect();
                (i, reads, log.writes(op).collect::<Vec<_>>())
            })
            .collect();
        assert_eq!(
            kept,
            [
                (0, vec![tile(1, 0, 0)], vec![tile(2, 0, 0)]),
                (2, vec![tile(1, 1, 1)], vec![tile(0, 0, 0)]),
            ]
        );
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
        assert_eq!(field(&rows[0], "label"), "op".to_value());
        assert_eq!(field(&rows[0], "bytes"), serde::Value::U64(100));
        assert_eq!(field(&rows[0], "flops"), serde::Value::U64(0));
        assert_eq!(field(&rows[1], "flops"), serde::Value::U64(100));
    }

    /// The entry-size budget: every byte of an entry costs about 112 kB of
    /// peak memory on a paper-scale (n = 20480, b = 256) traced run; the
    /// label and the tiles live in the log's buffers, not in the entry.
    #[test]
    fn a_log_entry_fits_in_64_bytes() {
        assert!(std::mem::size_of::<TraceAction>() <= 64);
        assert_eq!(std::mem::size_of::<PackedTile>(), 12);
    }
}
