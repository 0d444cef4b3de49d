//! Recording pins: FNV-1a digests of what the simulator records about a
//! run, in the two renderings its readers consume — the timeline JSON that
//! Fig. 1 plots, and a canonical text of the program the schedule analyzer
//! replays (each op's site, DMA direction, category, access set and
//! fused-verify flag, and each ordering action, in issue order).
//!
//! The program text leaves labels out on purpose: the timeline JSON already
//! pins every label. A refactor of the recording path must move no digest;
//! on a mismatch the test prints this build's digests in pasteable form.

use hchol::core::magma::factor_magma;
use hchol::core::options::ShardOptions;
use hchol::gpusim::{DmaDir, ExecSite, TraceAction};
use hchol::gpusim::{SimContext, TileRef};
use hchol::prelude::*;
use std::fmt::Write;

fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn tiles(out: &mut String, tag: &str, ts: impl Iterator<Item = TileRef>) {
    out.push_str(tag);
    for t in ts {
        let _ = write!(out, " {}.{}.{}", t.buf.0, t.bi, t.bj);
    }
}

/// The program view, one line per recorded action, labels excluded.
fn program_text(ctx: &SimContext) -> String {
    let mut out = String::new();
    for (_, action) in ctx.log.program() {
        match action {
            TraceAction::Op(op) => {
                let site = match op.site() {
                    ExecSite::Stream(s) => format!("s{s}"),
                    ExecSite::Host => "host".into(),
                    ExecSite::CpuWorker(w) => format!("w{w}"),
                };
                let dma = match op.dma() {
                    Some(DmaDir::H2D) => "h2d",
                    Some(DmaDir::D2H) => "d2h",
                    None => "-",
                };
                let _ = write!(out, "op {site} {dma} {:?} ", op.category);
                tiles(&mut out, "r", ctx.log.reads(op));
                tiles(&mut out, " w", ctx.log.writes(op));
                out.push_str(if op.fused_verify { " fused\n" } else { "\n" });
            }
            TraceAction::RecordEvent { event, stream } => {
                let _ = writeln!(out, "record e{event} s{stream}");
            }
            TraceAction::StreamWaitEvent { stream, event } => {
                let _ = writeln!(out, "wait s{stream} e{event}");
            }
            TraceAction::SyncStream { stream } => {
                let _ = writeln!(out, "sync s{stream}");
            }
            TraceAction::SyncDevice => out.push_str("sync device\n"),
            TraceAction::SyncCpuWorkers => out.push_str("sync workers\n"),
        }
    }
    out
}

fn enhanced(opts: AbftOptions) -> SimContext {
    run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis(),
        ExecMode::TimingOnly,
        1024,
        128,
        &opts,
        None,
    )
    .expect("scheme runs")
    .ctx
}

#[test]
fn recorded_views_are_pinned_to_the_captured_digests() {
    let timeline = || AbftOptions {
        record_timeline: true,
        ..AbftOptions::default()
    };
    let untraced = AbftOptions {
        trace_schedule: false,
        ..AbftOptions::default()
    };
    let req = |n| BatchRequest {
        kind: SchemeKind::Enhanced,
        n,
        b: 128,
        opts: AbftOptions::default(),
    };
    let runs: Vec<(&str, SimContext)> = vec![
        (
            "magma",
            factor_magma(
                &SystemProfile::tardis(),
                ExecMode::TimingOnly,
                2048,
                256,
                None,
                true,
            )
            .expect("baseline runs")
            .ctx,
        ),
        ("timeline", enhanced(timeline())),
        ("timeline fused", enhanced(timeline().with_chk_fused(true))),
        (
            "timeline cpu",
            enhanced(timeline().with_placement(ChecksumPlacement::Cpu)),
        ),
        (
            "timeline gpu",
            enhanced(timeline().with_placement(ChecksumPlacement::Gpu)),
        ),
        (
            "timeline shard2",
            enhanced(timeline().with_shard(ShardOptions::new(2))),
        ),
        ("default", enhanced(AbftOptions::default())),
        ("untraced", enhanced(untraced)),
        (
            "batch x2",
            run_batch(&SystemProfile::tardis(), &[req(1024), req(512)])
                .expect("batch runs")
                .ctx,
        ),
    ];
    // (what, timeline JSON digest, program text digest). Auto placement
    // resolves to the CPU on Tardis, so `timeline cpu` reads as `timeline`;
    // the empty timeline of an untimed run is `[]`.
    let pins: [(&str, u64, u64); 9] = [
        ("magma", 0x7eefb87a61dfb95e, 0xbb3b2f4dbb6c32c6),
        ("timeline", 0x7a1c7794ee47357b, 0xe0d6c0661aaa500f),
        ("timeline fused", 0x878275998d4bcaf1, 0xa0faf2d03b1e04b0),
        ("timeline cpu", 0x7a1c7794ee47357b, 0xe0d6c0661aaa500f),
        ("timeline gpu", 0x0e4a4026cbe84e4d, 0x9aba13776707f93d),
        ("timeline shard2", 0x2c1418f59b3db352, 0x7a1eecd16c2483a2),
        ("default", 0x09612b07b5ecb5a5, 0xe0d6c0661aaa500f),
        ("untraced", 0x09612b07b5ecb5a5, 0xcbf29ce484222325),
        ("batch x2", 0x09612b07b5ecb5a5, 0x17eca69040c305c0),
    ];
    let got: Vec<(&str, u64, u64)> = runs
        .iter()
        .map(|(what, ctx)| (*what, fnv(&ctx.log.to_json()), fnv(&program_text(ctx))))
        .collect();
    let (_, untraced) = &runs[7];
    assert!(
        program_text(untraced).is_empty(),
        "an untraced run records no program"
    );
    assert_eq!(got, pins, "this build's pins: {got:#x?}");
}

/// The paper-scale run (Enhanced, TimingOnly, n = 20480, b = 256, nt = 80,
/// default options on Tardis): digests of its RunReport JSON and of its
/// program view, about a hundred thousand ops, almost all of them the
/// per-tile checksum kernels of the verification batches.
#[test]
fn paper_scale_run_is_pinned_to_the_captured_digests() {
    let out = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis(),
        ExecMode::TimingOnly,
        20480,
        256,
        &AbftOptions::default(),
        None,
    )
    .expect("scheme runs");
    let got = (
        fnv(&out.report().to_json()),
        fnv(&program_text(&out.ctx)),
        out.ctx.log.len(),
    );
    let pins = (0x5c16c15ff9a74857, 0xb98027f24af20b1e, 112_003);
    assert_eq!(got, pins, "this build's pins: {got:#x?}");
}
