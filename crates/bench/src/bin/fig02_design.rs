//! Figure 2 — the Enhanced Online-ABFT overall design, as executable
//! traces: strategy (a) checksums updated on a concurrent GPU stream, and
//! strategy (b) checksums updated on the otherwise-idle CPU.
//!
//! The paper's Figure 2 is a schematic; here both assignment strategies run
//! on the simulator and print their actual timelines, making the schematic
//! checkable: in (a) the checksum work (`c`) appears on a separate GPU
//! stream, in (b) it appears on CPU worker lanes while the GPU factorizes.

use hchol_bench::BenchArgs;
use hchol_core::options::{AbftOptions, ChecksumPlacement};
use hchol_core::schemes::{run_clean, SchemeKind};
use hchol_gpusim::ExecMode;

fn main() {
    let args = BenchArgs::parse();
    let profile = args.systems().remove(0);
    let n = if args.quick { 1024 } else { 2048 };
    let b = profile.default_block.min(n / 4);

    for (tag, placement, blurb) in [
        (
            "(a)",
            ChecksumPlacement::Gpu,
            "checksum updating on a concurrent GPU stream",
        ),
        (
            "(b)",
            ChecksumPlacement::Cpu,
            "checksum updating on the idle CPU cores",
        ),
    ] {
        let opts = AbftOptions {
            record_timeline: true,
            ..AbftOptions::default().with_placement(placement)
        };
        let out = run_clean(
            SchemeKind::Enhanced,
            &profile,
            ExecMode::TimingOnly,
            n,
            b,
            &opts,
            None,
        )
        .expect("scheme runs");
        println!(
            "# Figure 2{tag} — Enhanced Online-ABFT on {}, {blurb} (n = {n}, B = {b})",
            profile.name
        );
        println!(
            "# total {:.4}s | legend: S=SYRK G=GEMM T=TRSM P=POTF2 c=checksum ops .=compare ==transfer",
            out.time.as_secs()
        );
        println!("{}", out.ctx.log.ascii_gantt(100));
        println!("lane utilization: {}\n", out.ctx.log.utilization_summary());
    }
    println!(
        "reading: every input is verified (recalc `c` kernels on the recalc streams)\n\
         before SYRK/GEMM/POTF2/TRSM touch it; the *updating* checksum work then rides\n\
         a GPU stream in (a) or the CPU worker lanes in (b) — the paper's two\n\
         assignment strategies, chosen per system by the Optimization-2 model."
    );
}
