//! Allocation budget of recording an op.
//!
//! A traced run keeps one log entry per launch that declares tiles — about
//! nt³ of them in an Enhanced run — so a per-op allocation is a per-op cost
//! in time and in live heap. The log keeps each op as a fixed-size row: its
//! label recipe is rendered into the log's text pages and its tiles are
//! copied into its tile pages. This pins that contract with a counting
//! allocator:
//!
//! * launches labelled by library recipes ([`Label`]) with up to three
//!   declared tiles allocate nothing per op: the calls a run of them makes
//!   are the log's new pages and the scheduler's amortized growth;
//! * a batch of per-tile checksum kernels issued as one `launch_batch`
//!   allocates nothing per kernel, building the kernels included: it
//!   streams them through and keeps no list of them, each declares its two
//!   tiles inline, and its staged metric updates live in the context;
//! * a `String` label is kept verbatim;
//! * an edit that narrows an op's reads leaves its writes and its neighbours
//!   as they were.
//!
//! Building a launch's [`AccessSet`] is the caller's cost, so the descs are
//! built before the counted stretch.

use hchol_gpusim::context::KernelDesc;
use hchol_gpusim::counters::WorkCategory;
use hchol_gpusim::profile::{KernelClass, SystemProfile};
use hchol_gpusim::{
    AccessSet, BufferId, ExecMode, Label, OpLog, OpRecord, SimContext, TileRef, TraceAction,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made by the current thread (`alloc` and `realloc`).
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a thread-local call counter with a const initializer and no
// destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocation calls this thread makes while running `f`.
fn calls(f: impl FnOnce()) -> usize {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

fn tile(bi: usize, bj: usize) -> TileRef {
    TileRef::new(BufferId(0), bi, bj)
}

/// Launch `k` of a run: each recipe form in turn, one to three tiles.
fn desc(k: usize) -> KernelDesc {
    let (i, j) = (k % 13, k % 7);
    let label = match k % 5 {
        0 => Label::Iter("POTF2", j),
        1 => Label::IterAnd("GEMM+CHK", j, 'd', 1),
        2 => Label::Tile("REC", i, j),
        3 => Label::Count("CMP", k),
        _ => Label::Name("bulk"),
    };
    let access = match k % 3 {
        0 => AccessSet::new(vec![tile(i, j)], vec![]),
        1 => AccessSet::new(vec![tile(i, j)], vec![tile(j, i)]),
        _ => AccessSet::new(vec![tile(i, j), tile(j, j)], vec![tile(i, i)]),
    };
    KernelDesc::new(
        label,
        KernelClass::Blas3,
        1_000,
        WorkCategory::Factorization,
    )
    .with_access(access)
}

/// The ops of the program view, in issue order.
fn ops(log: &OpLog) -> impl Iterator<Item = &OpRecord> {
    log.program().filter_map(|(_, a)| match a {
        TraceAction::Op(op) => Some(op),
        _ => None,
    })
}

/// A context keeping what a traced run keeps: the program view only.
fn traced() -> SimContext {
    let mut ctx = SimContext::new(SystemProfile::tardis(), ExecMode::TimingOnly);
    ctx.disable_timeline();
    ctx
}

/// Allocation calls of `n` launches on two streams, after a warm-up that
/// creates every metric key the launches touch.
fn launch_calls(n: usize) -> usize {
    let mut ctx = traced();
    let streams = [ctx.default_stream(), ctx.create_stream()];
    for k in 0..8 {
        ctx.launch(streams[k % 2], desc(k), |_| {});
    }
    let descs: Vec<_> = (0..n).map(desc).collect();
    let calls = calls(|| {
        for (k, d) in descs.into_iter().enumerate() {
            ctx.launch(streams[k % 2], d, |_| {});
        }
    });
    assert_eq!(ctx.log.len(), 8 + n, "every launch declares tiles");
    calls
}

#[test]
fn recipe_labelled_launches_allocate_nothing_per_op() {
    let (small, large) = (launch_calls(1 << 10), launch_calls(1 << 14));
    // Sixteen times the launches: a few more pages and scheduler
    // doublings, never one call per op.
    assert!(small < 64, "{small} allocation calls for 1024 launches");
    assert!(
        large <= small + 32,
        "{large} calls for 16384 launches, {small} for 1024"
    );
}

/// Checksum kernel `k` of a verification batch: one tile read, one
/// scratch tile written.
fn checksum(k: usize) -> KernelDesc {
    let (i, j) = (k % 13, k % 7);
    let desc = KernelDesc::new(
        Label::Tile("REC", i, j),
        KernelClass::Blas2,
        1_000,
        WorkCategory::ChecksumRecalc,
    );
    desc.with_read_write(tile(i, j), TileRef::new(BufferId(1), 0, k % 16))
}

/// Allocation calls of one batch of `n` checksum kernels on four streams,
/// built as the batch streams them, after a warm-up batch that creates
/// every metric key the kernels touch.
fn batch_calls(n: usize) -> usize {
    let mut ctx = traced();
    let streams = [0; 4].map(|_| ctx.create_stream());
    let batch = |n: usize| (0..n).map(move |k| (streams[k % 4], checksum(k)));
    ctx.launch_batch(batch(8), |_| {});
    let calls = calls(|| ctx.launch_batch(batch(n), |_| {}));
    assert_eq!(ctx.log.len(), 8 + n, "every kernel declares tiles");
    calls
}

#[test]
fn a_batch_allocates_nothing_per_kernel() {
    let (small, large) = (batch_calls(1 << 10), batch_calls(1 << 14));
    assert!(small < 64, "{small} allocation calls for a batch of 1024");
    assert!(
        large <= small + 32,
        "{large} calls for a batch of 16384, {small} for 1024"
    );
}

#[test]
fn recipes_and_string_labels_render_verbatim() {
    let mut ctx = traced();
    let s = ctx.default_stream();
    for k in 0..5 {
        ctx.launch(s, desc(k), |_| {});
    }
    let owned = KernelDesc::new(
        format!("flagged {} of {} tiles", 2, 9),
        KernelClass::Light,
        10,
        WorkCategory::Verify,
    );
    ctx.launch(
        s,
        owned.with_access(AccessSet::new(vec![tile(0, 0)], vec![])),
        |_| {},
    );
    let labels: Vec<_> = ops(&ctx.log).map(|op| ctx.log.label(op)).collect();
    assert_eq!(
        labels,
        [
            "POTF2 j=0",
            "GEMM+CHK j=1 d=1",
            "REC (2,2)",
            "CMP x3",
            "bulk",
            "flagged 2 of 9 tiles"
        ]
    );
}

/// The mutation `tests/schedule_analysis.rs` makes: the verify reads of one
/// tile dropped from a recorded run.
#[test]
fn an_edit_narrows_one_ops_reads() {
    let mut ctx = traced();
    let s = ctx.default_stream();
    for k in 0..6 {
        ctx.launch(s, desc(k), |_| {});
    }
    let tiles = |log: &OpLog| -> Vec<(Vec<TileRef>, Vec<TileRef>)> {
        ops(log)
            .map(|op| (log.reads(op).collect(), log.writes(op).collect()))
            .collect()
    };
    let before = tiles(&ctx.log);
    let victim = tile(2, 2);
    let mut log = ctx.log.clone();
    let mut k = 0;
    log.edit(|_, e| {
        if k == 2 {
            e.retain_reads(|t| t != victim);
        }
        k += 1;
        true
    });
    let after = tiles(&log);
    let mut want = before.clone();
    want[2].0.retain(|&t| t != victim);
    assert_eq!(before[2].0, [victim, victim], "op 2 reads the victim twice");
    assert_eq!(after, want);
    assert!(matches!(log.entry(2), TraceAction::Op(_)));
}
