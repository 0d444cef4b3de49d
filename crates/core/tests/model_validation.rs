//! Validation of the Section-VI analytic model against the work the
//! implementation actually recorded (`flops.cat.*`, `pcie.bytes.*`), across
//! sizes, block sizes, and K — closing the loop between the paper's
//! overhead analysis and the code.

use hchol_core::options::AbftOptions;
use hchol_core::overhead::ModelParams;
use hchol_core::schemes::{run_clean, SchemeKind};
use hchol_gpusim::counters::WorkCategory;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::{ExecMode, SimContext, TraceAction};

/// The recorded work of one run, read back per [`WorkCategory`].
struct Work(SimContext);

impl Work {
    /// Flops charged to `cat`.
    fn flops(&self, cat: WorkCategory) -> u64 {
        self.0.obs.metrics.count(&format!("flops.cat.{cat:?}"))
    }

    /// Bytes moved over PCIe (both directions) and the peer links.
    fn transfer_bytes(&self) -> u64 {
        let m = &self.0.obs.metrics;
        m.count("pcie.bytes.h2d") + m.count("pcie.bytes.d2h") + m.count("shard.link.bytes")
    }

    /// Kernels of `cat` in the recorded program (every kernel counted here
    /// declares its accesses, so the program view holds them all).
    fn kernel_count(&self, cat: WorkCategory) -> u64 {
        let ops = self.0.log.program();
        ops.filter(|(_, a)| matches!(a, TraceAction::Op(op) if op.category == cat))
            .count() as u64
    }
}

fn run_with(kind: SchemeKind, n: usize, b: usize, opts: &AbftOptions) -> Work {
    let out = run_clean(
        kind,
        &SystemProfile::tardis(),
        ExecMode::TimingOnly,
        n,
        b,
        opts,
        None,
    )
    .expect("scheme runs");
    Work(out.ctx)
}

fn counters_for(kind: SchemeKind, n: usize, b: usize, k: usize) -> Work {
    run_with(kind, n, b, &AbftOptions::default().with_interval(k))
}

/// Measured-to-model ratio must approach 1 as n grows (leading-order
/// formulas drop boundary terms of relative size O(B/n)).
#[test]
fn enhanced_recalc_flops_track_model_as_n_grows() {
    let b = 128;
    let mut last_err = f64::INFINITY;
    for n in [1024usize, 2048, 4096] {
        let c = counters_for(SchemeKind::Enhanced, n, b, 1);
        let model = ModelParams::new(n, b, 1).recalc_flops_enhanced();
        let measured = c.flops(WorkCategory::ChecksumRecalc) as f64;
        let err = (measured / model - 1.0).abs();
        assert!(
            err < last_err + 0.02,
            "n={n}: ratio error {err} did not shrink from {last_err}"
        );
        last_err = err;
    }
    assert!(last_err < 0.25, "final ratio error {last_err}");
}

#[test]
fn update_flops_identical_across_schemes() {
    // "Checksum updating ... is also same in both ABFTs" (Section VI.2).
    let (n, b) = (2048usize, 128usize);
    let off = counters_for(SchemeKind::Offline, n, b, 1).flops(WorkCategory::ChecksumUpdate);
    let on = counters_for(SchemeKind::Online, n, b, 1).flops(WorkCategory::ChecksumUpdate);
    let enh = counters_for(SchemeKind::Enhanced, n, b, 1).flops(WorkCategory::ChecksumUpdate);
    assert_eq!(off, on);
    assert_eq!(on, enh);
}

#[test]
fn encode_flops_identical_across_schemes_and_match_model() {
    let (n, b) = (2048usize, 128usize);
    let model = ModelParams::new(n, b, 1).encode_flops();
    for kind in SchemeKind::all() {
        let measured = counters_for(kind, n, b, 1).flops(WorkCategory::ChecksumEncode) as f64;
        // Model halves the block count (symmetric matrix); implementation
        // encodes the full lower triangle including diagonal: ratio within
        // (1, 1.1] for modest nt.
        let ratio = measured / model;
        assert!(
            (0.95..1.15).contains(&ratio),
            "{}: encode ratio {ratio}",
            kind.name()
        );
    }
}

#[test]
fn recalc_ordering_offline_lt_online_lt_enhanced() {
    let (n, b) = (2048usize, 128usize);
    let off = counters_for(SchemeKind::Offline, n, b, 1).flops(WorkCategory::ChecksumRecalc);
    let on = counters_for(SchemeKind::Online, n, b, 1).flops(WorkCategory::ChecksumRecalc);
    let enh = counters_for(SchemeKind::Enhanced, n, b, 1).flops(WorkCategory::ChecksumRecalc);
    assert!(
        off < on,
        "offline verifies once, online per update: {off} vs {on}"
    );
    assert!(on < enh, "enhanced verifies per read: {on} vs {enh}");
}

#[test]
fn k_scales_enhanced_recalc_but_not_updates() {
    let (n, b) = (2048usize, 128usize);
    let k1 = counters_for(SchemeKind::Enhanced, n, b, 1);
    let k4 = counters_for(SchemeKind::Enhanced, n, b, 4);
    let r1 = k1.flops(WorkCategory::ChecksumRecalc) as f64;
    let r4 = k4.flops(WorkCategory::ChecksumRecalc) as f64;
    // The dominant 2n³/(3BK) term shrinks ~4x; the SYRK/POTF2-input share
    // is K-independent, so the overall ratio sits between 2 and 4.
    let ratio = r1 / r4;
    assert!(
        (2.0..4.5).contains(&ratio),
        "recalc K-scaling ratio {ratio}"
    );
    assert_eq!(
        k1.flops(WorkCategory::ChecksumUpdate),
        k4.flops(WorkCategory::ChecksumUpdate),
        "updates are mandatory regardless of K"
    );
}

#[test]
fn factorization_flops_match_n3_over_3() {
    let (n, b) = (2048usize, 128usize);
    for kind in SchemeKind::all() {
        let measured = counters_for(kind, n, b, 1).flops(WorkCategory::Factorization) as f64;
        let model = ModelParams::new(n, b, 1).cholesky_flops();
        let ratio = measured / model;
        // Full-tile SYRK updates (for exact checksums) cost slightly more
        // than the triangle-only n³/3 count.
        assert!((0.95..1.25).contains(&ratio), "{}: {ratio}", kind.name());
    }
}

#[test]
fn transfer_bytes_scale_with_cpu_placement_model() {
    use hchol_core::options::ChecksumPlacement;
    let (n, b) = (2048usize, 128usize);
    let run = |placement| {
        let opts = AbftOptions::default().with_placement(placement);
        run_with(SchemeKind::Enhanced, n, b, &opts).transfer_bytes()
    };
    let gpu = run(ChecksumPlacement::Gpu);
    let cpu = run(ChecksumPlacement::Cpu);
    // GPU placement only moves the diagonal blocks: 2 · nt · B² doubles.
    let diag_bytes = (2 * (n / b) * b * b * 8) as u64;
    assert_eq!(gpu, diag_bytes);
    // CPU placement adds ~8x the Section-VI element count (initial 2n²/B +
    // updating n²/2 + verification n³/3KB²).
    let nf = n as f64;
    let bf = b as f64;
    let model_extra = 8.0 * (2.0 * nf * nf / bf + nf * nf / 2.0 + nf.powi(3) / (3.0 * bf * bf));
    let extra = (cpu - gpu) as f64;
    let ratio = extra / model_extra;
    assert!((0.8..1.3).contains(&ratio), "transfer ratio {ratio}");
}

#[test]
fn verification_kernel_counts_match_table1_orders() {
    let (n, b) = (2048usize, 128usize);
    let nt = n / b; // 16
    let online =
        counters_for(SchemeKind::Online, n, b, 1).kernel_count(WorkCategory::ChecksumRecalc) as f64;
    let enhanced = counters_for(SchemeKind::Enhanced, n, b, 1)
        .kernel_count(WorkCategory::ChecksumRecalc) as f64;
    // Online: Θ(nt²); Enhanced: Θ(nt³/6). Constants are small; check the
    // growth orders within generous factors.
    let ntf = nt as f64;
    assert!(
        online > ntf * ntf * 0.5 && online < ntf * ntf * 4.0,
        "online {online}"
    );
    assert!(
        enhanced > ntf.powi(3) / 6.0 && enhanced < ntf.powi(3),
        "enhanced {enhanced}"
    );
}
