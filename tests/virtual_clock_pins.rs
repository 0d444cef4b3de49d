//! Virtual-clock pins: the modelled makespan of every driver entry point,
//! compared bit-for-bit with constants captured before the executor and the
//! simulator's recording paths were folded into one loop and one recorder.
//!
//! The golden fixtures pin the default unfused path only; the benchmark
//! gates `virtual_s` at 1e-9 on every feature. This test brings that gate
//! into tier-1: an executor or simulator refactor that moves one virtual
//! second anywhere — fused, balanced, sharded, reordered, K-gated, batched
//! (lanes of equal and of unequal length), on either baseline or on the
//! outer-product variant — fails here, before the benchmark is ever built.

use hchol::core::cula::factor_cula;
use hchol::core::magma::{factor_magma, factor_outer};
use hchol::core::options::ShardOptions;
use hchol::prelude::*;

fn enhanced(opts: AbftOptions) -> u64 {
    run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis(),
        ExecMode::TimingOnly,
        2560,
        256,
        &opts,
        None,
    )
    .expect("scheme runs")
    .time
    .as_secs()
    .to_bits()
}

/// A batch of Enhanced runs at the given sizes (unequal sizes make lanes of
/// unequal length, so the short ones drain while the long ones keep going).
fn batch(sizes: &[usize]) -> u64 {
    let reqs: Vec<BatchRequest> = sizes
        .iter()
        .map(|&n| BatchRequest {
            kind: SchemeKind::Enhanced,
            n,
            b: 256,
            opts: AbftOptions::default(),
        })
        .collect();
    run_batch(&SystemProfile::tardis(), &reqs)
        .expect("batch runs")
        .time
        .as_secs()
        .to_bits()
}

#[test]
fn virtual_makespans_are_bit_identical_to_the_captured_constants() {
    let tardis = SystemProfile::tardis();
    let baseline = |rep: hchol::core::magma::BaselineReport| rep.time.as_secs().to_bits();
    let magma = factor_magma(&tardis, ExecMode::TimingOnly, 2560, 256, None, false);
    let cula = factor_cula(&tardis, ExecMode::TimingOnly, 2560, 256, None);
    let outer = |p: &SystemProfile, n, b| {
        let rep = factor_outer(p, ExecMode::TimingOnly, n, b, None, false);
        baseline(rep.expect("outer-product variant runs"))
    };
    let d = AbftOptions::default;
    // (what, this build's makespan bits, the pinned bits).
    let pins = [
        ("default", enhanced(d()), 0x3fa05d6ba2da4774),
        (
            "chk_fused",
            enhanced(d().with_chk_fused(true)),
            0x3fa04f3efd4c94cb,
        ),
        (
            "balance",
            enhanced(d().with_balance(BalanceOptions::default())),
            0x3f9f025517528d0e,
        ),
        (
            "shard4",
            enhanced(d().with_shard(ShardOptions::new(4))),
            0x3fa086dce1f697c7,
        ),
        (
            "lookahead2",
            enhanced(d().with_lookahead(2)),
            0x3fa05d6ba2da4774,
        ),
        (
            "interval3",
            enhanced(d().with_interval(3)),
            0x3f9cc9d08fcb2f11,
        ),
        ("batch x1", batch(&[1280]), 0x3f8097c64efeb4f3),
        ("batch x4", batch(&[1280; 4]), 0x3f9f8eea73536840),
        (
            "batch uneven",
            batch(&[1792, 512, 1280]),
            0x3f9871d030d3a2de,
        ),
        (
            "magma",
            baseline(magma.expect("baseline runs")),
            0x3f98b34f18d2e1fd,
        ),
        (
            "cula",
            baseline(cula.expect("baseline runs")),
            0x3fa2695f43d95365,
        ),
        (
            "outer tardis",
            outer(&tardis, 2560, 256),
            0x3f9f98b7fdd2d839,
        ),
        (
            "outer bulldozer64",
            outer(&SystemProfile::bulldozer64(), 5120, 512),
            0x3fb9e5ff337a8d55,
        ),
    ];
    let moved: Vec<_> = pins.iter().filter(|(_, got, want)| got != want).collect();
    assert!(
        moved.is_empty(),
        "virtual makespan moved — (what, this build, pinned): {moved:x?}"
    );
}

/// One TimingOnly Enhanced run on Tardis at `n`, b = 256: its makespan bits.
fn enhanced_at(n: usize, opts: AbftOptions) -> u64 {
    let out = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis(),
        ExecMode::TimingOnly,
        n,
        256,
        &opts,
        None,
    );
    out.expect("scheme runs").time.as_secs().to_bits()
}

/// The benchmark's two simulator-bound requests, pinned at their own sizes:
/// the paper-scale run (n = 20480, nt = 80, default options) and the six
/// feature configurations it crosses at nt = 40. Launch-heavy phases of
/// these runs issue thousands of checksum kernels between syncs, far more
/// than the nt = 10 pins above.
#[test]
fn paper_scale_makespans_are_bit_identical_to_the_captured_constants() {
    let d = AbftOptions::default;
    let pins = [
        ("nt80 default", enhanced_at(20480, d()), 0x4024d798d2e4801d),
        ("nt40 default", enhanced_at(10240, d()), 0x3ff63287534c2ba1),
        (
            "nt40 fused",
            enhanced_at(10240, d().with_chk_fused(true)),
            0x3ff62cb5e8e73bf2,
        ),
        (
            "nt40 balance",
            enhanced_at(10240, d().with_balance(BalanceOptions::default())),
            0x3ff4bf9442ee6951,
        ),
        (
            "nt40 shard4",
            enhanced_at(10240, d().with_shard(ShardOptions::new(4))),
            0x3fe7605709d714f9,
        ),
        (
            "nt40 lookahead2",
            enhanced_at(10240, d().with_lookahead(2)),
            0x3ff63287534c2ba1,
        ),
        (
            "nt40 k3",
            enhanced_at(10240, d().with_interval(3)),
            0x3ff4dffd387b856c,
        ),
    ];
    let moved: Vec<_> = pins.iter().filter(|(_, got, want)| got != want).collect();
    assert!(
        moved.is_empty(),
        "virtual makespan moved — (what, this build, pinned): {moved:x?}"
    );
}
