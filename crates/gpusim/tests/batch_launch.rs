//! A batch launch is the same N launches issued one at a time.
//!
//! `SimContext::launch_batch` places, meters and records a sequence of
//! kernels in one call: it works out a kernel's cost once while class and
//! flops repeat, prunes the scheduler once per device run, and writes each
//! metric key once per stretch of like kernels instead of once per kernel.
//! None of that may show. Each scenario drives two twin contexts through
//! the same history — single launches, host and worker tasks, transfers,
//! events and syncs around the batches — with every batch issued whole on
//! one twin and kernel by kernel on the other, and then requires them to
//! agree on every `(start, end)` to the bit, on the whole metrics registry
//! (counts, each sum's bits, every histogram) and on the op log: entries,
//! labels, tiles and node marks.

use hchol_gpusim::context::KernelDesc;
use hchol_gpusim::counters::WorkCategory;
use hchol_gpusim::obs::MetricsRegistry;
use hchol_gpusim::profile::{KernelClass, SystemProfile};
use hchol_gpusim::{
    AccessSet, BufferId, ExecMode, Label, SimContext, StreamId, TileRef, TraceAction,
};
use std::cell::Cell;

/// Kernel `k` of a batch: runs of like checksum kernels (the shape the
/// verification batches issue) broken by kernels of another class,
/// category, size or with a fused epilogue.
fn desc(k: usize) -> KernelDesc {
    let (i, j) = (k % 11, k % 5);
    let (label, class, flops, category) = match k % 23 {
        17 => (
            Label::Iter("GEMM", j),
            KernelClass::Blas3,
            40_000_000,
            WorkCategory::Factorization,
        ),
        19 => (
            Label::Count("CMP", k),
            KernelClass::Light,
            4_096,
            WorkCategory::Verify,
        ),
        20 | 21 => (
            Label::Tile("ENC", i, j),
            KernelClass::Blas2,
            1 << 17,
            WorkCategory::ChecksumEncode,
        ),
        // Runs of four equal sizes: the cost is reused within a run, and
        // durations differ across runs, so a sum's bits show its order.
        _ => (
            Label::Tile("REC", i, j),
            KernelClass::Blas2,
            (1 << 17) + (k / 4 % 3) as u64 * 997,
            WorkCategory::ChecksumRecalc,
        ),
    };
    // Checksum kernels declare their tiles inline, the rest as a set.
    let (read, write) = (
        TileRef::new(BufferId(0), i, j),
        TileRef::new(BufferId(1), 0, k % 3),
    );
    let desc = KernelDesc::new(label, class, flops, category);
    let desc = match category {
        WorkCategory::ChecksumRecalc | WorkCategory::ChecksumEncode => {
            desc.with_read_write(read, write)
        }
        _ => desc.with_access(AccessSet::new(vec![read], vec![write])),
    };
    if k % 29 == 13 {
        desc.with_epilogue(1 << 20)
    } else {
        desc
    }
}

/// How one twin issues a batch.
#[derive(Clone, Copy, PartialEq)]
enum Issue {
    Whole,
    OneByOne,
}

/// A scenario: devices, streams per device, batch sizes, log filters.
struct Scenario {
    devices: usize,
    streams_per_device: usize,
    batches: &'static [usize],
    timeline: bool,
    mode: ExecMode,
}

/// Drive one twin through the scenario; returns it and how many times the
/// numerics bodies ran.
fn drive(sc: &Scenario, issue: Issue) -> (SimContext, usize) {
    let profile = SystemProfile::tardis().with_devices(sc.devices);
    let mut ctx = SimContext::new(profile, sc.mode);
    ctx.enable_recalc_metric();
    if !sc.timeline {
        ctx.disable_timeline();
    }
    let mut streams: Vec<StreamId> = vec![ctx.default_stream()];
    for dev in 0..sc.devices {
        while streams.len() < (dev + 1) * sc.streams_per_device {
            streams.push(ctx.create_stream_on(dev));
        }
    }
    let ran = Cell::new(0);
    let mut next = 0;
    for (node, &n) in sc.batches.iter().enumerate() {
        // Work between batches on every entry point, so each batch starts
        // from sums, histograms and frontiers its predecessors left.
        let s = streams[node % streams.len()];
        ctx.launch(s, desc(17), |_| ran.set(ran.get() + 1));
        ctx.cpu_submit(desc(1), |_, _| {});
        ctx.cpu_exec(desc(2), |_| {});
        ctx.bulk_transfer_with_access(1 << 20, s, false, AccessSet::none(), |_, _| {});
        let e = ctx.record_event(s);
        for &t in &streams {
            ctx.stream_wait_event(t, e);
        }
        ctx.log.mark(Some((0, node)));
        let kernels = (next..next + n).map(|k| (streams[k * 7 % streams.len()], desc(k)));
        match issue {
            Issue::Whole => ctx.launch_batch(kernels, |_| ran.set(ran.get() + 1)),
            Issue::OneByOne => {
                for (s, d) in kernels {
                    ctx.launch(s, d, |_| ran.set(ran.get() + 1));
                }
            }
        }
        ctx.log.mark(None);
        next += n;
        if node % 2 == 1 {
            ctx.sync_device();
        }
    }
    ctx.sync_all();
    (ctx, ran.get())
}

/// Every metric, floats as bits, in key order.
fn registry(m: &MetricsRegistry) -> Vec<String> {
    let mut out: Vec<String> = m
        .counts
        .iter()
        .map(|(k, v)| format!("count {k} {v}"))
        .collect();
    out.extend(
        m.sums
            .iter()
            .map(|(k, v)| format!("sum {k} {:#x}", v.to_bits())),
    );
    out.extend(
        m.gauges
            .iter()
            .map(|(k, v)| format!("gauge {k} {:#x}", v.to_bits())),
    );
    out.extend(m.histograms.iter().map(|(k, h)| {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        format!(
            "hist {k} n={} sum={:#x} min={:x?} max={:x?} {:?}",
            h.count,
            h.sum.to_bits(),
            bits(h.min),
            bits(h.max),
            h.buckets
        )
    }));
    out.sort();
    out
}

/// Every log entry with its times as bits, label and tiles; then the marks.
fn log(ctx: &SimContext) -> Vec<String> {
    let log = &ctx.log;
    let mut out: Vec<String> = log
        .entries(0..log.len())
        .map(|a| match a {
            TraceAction::Op(op) => format!(
                "op {:#x} {:#x} {} {:?} {:?} {:?} {} {:?} {:?} {:?}",
                op.start.as_secs().to_bits(),
                op.end.as_secs().to_bits(),
                op.work,
                op.lane(),
                op.class,
                op.category,
                op.fused_verify,
                log.label(op),
                log.reads(op).collect::<Vec<_>>(),
                log.writes(op).collect::<Vec<_>>(),
            ),
            other => format!("{other:?}"),
        })
        .collect();
    out.extend(
        log.marks()
            .map(|(node, range)| format!("mark {node:?} {range:?}")),
    );
    out
}

/// The two twins of `sc` agree; returns the batched one.
fn twins_agree(sc: &Scenario) -> SimContext {
    let (whole, ran_whole) = drive(sc, Issue::Whole);
    let (one, ran_one) = drive(sc, Issue::OneByOne);
    assert_eq!(registry(&whole.obs.metrics), registry(&one.obs.metrics));
    assert_eq!(log(&whole), log(&one));
    assert_eq!(
        whole.now().as_secs().to_bits(),
        one.now().as_secs().to_bits()
    );
    // Numerics: one body per batch against one per kernel, Execute only.
    let kernels: usize = sc.batches.iter().sum();
    let singles = sc.batches.len();
    let (want_whole, want_one) = match sc.mode {
        ExecMode::Execute => (singles + sc.batches.len(), singles + kernels),
        ExecMode::TimingOnly => (0, 0),
    };
    assert_eq!((ran_whole, ran_one), (want_whole, want_one));
    whole
}

#[test]
fn mixed_streams_on_one_device_queue_and_agree_to_the_bit() {
    for timeline in [true, false] {
        let ctx = twins_agree(&Scenario {
            devices: 1,
            streams_per_device: 6,
            batches: &[64, 23, 1, 200, 7],
            timeline,
            mode: ExecMode::TimingOnly,
        });
        let m = &ctx.obs.metrics;
        assert!(m.sum("sched.queue_delay_secs") > 0.0, "kernels queued");
        assert!(m.sum("verify.recalc_secs") > 0.0);
        assert!(m.count("verify.fused.kernels") > 0);
        assert!(m
            .histogram("kernel_secs.class.Blas2")
            .is_some_and(|h| h.count > 200));
        assert_eq!(ctx.log.marks().count(), 5);
    }
}

#[test]
fn batches_spanning_two_devices_agree_on_each_devices_busy_time() {
    let ctx = twins_agree(&Scenario {
        devices: 2,
        streams_per_device: 3,
        batches: &[48, 1, 96],
        timeline: true,
        mode: ExecMode::TimingOnly,
    });
    let m = &ctx.obs.metrics;
    assert!(m.sum("shard.dev.0.busy_secs") > 0.0);
    assert!(m.sum("shard.dev.1.busy_secs") > 0.0);
}

#[test]
fn a_batch_of_one_is_a_launch() {
    twins_agree(&Scenario {
        devices: 1,
        streams_per_device: 2,
        batches: &[1, 1, 1],
        timeline: true,
        mode: ExecMode::TimingOnly,
    });
}

#[test]
fn execute_runs_one_body_per_batch() {
    twins_agree(&Scenario {
        devices: 1,
        streams_per_device: 4,
        batches: &[16, 5],
        timeline: false,
        mode: ExecMode::Execute,
    });
}
