//! Figure 1 — the MAGMA hybrid Cholesky execution trace: GPU kernels,
//! transfers, and the CPU POTF2 hiding under the GPU GEMM.
//!
//! Prints an ASCII Gantt chart of a few middle iterations and dumps the
//! full JSON trace under `bench_results/` for external plotting.

use hchol_bench::report;
use hchol_bench::BenchArgs;
use hchol_core::magma::factor_magma;
use hchol_gpusim::ExecMode;

fn main() {
    let args = BenchArgs::parse();
    for profile in args.systems() {
        let n = if args.quick { 2048 } else { 8192 };
        let b = profile.default_block;
        let rep =
            factor_magma(&profile, ExecMode::TimingOnly, n, b, None, true).expect("baseline runs");
        println!(
            "# Figure 1 — MAGMA hybrid Cholesky trace on {} (n = {n}, B = {b})",
            profile.name
        );
        println!(
            "# total {:.4}s | legend: S=SYRK G=GEMM T=TRSM P=POTF2(CPU) ==transfer",
            rep.time.as_secs()
        );
        println!("{}", rep.ctx.log.ascii_gantt(100));
        println!("lane utilization: {}", rep.ctx.log.utilization_summary());
        let busy_gpu = rep.ctx.log.lane_busy(hchol_gpusim::Lane::GpuStream(0));
        let busy_cpu = rep.ctx.log.lane_busy(hchol_gpusim::Lane::HostMain);
        println!(
            "gpu busy {:.4}s ({:.1}%), cpu busy {:.4}s ({:.1}%) — the CPU is idle most of the time, which Optimization 2 exploits\n",
            busy_gpu.as_secs(),
            100.0 * busy_gpu.as_secs() / rep.time.as_secs(),
            busy_cpu.as_secs(),
            100.0 * busy_cpu.as_secs() / rep.time.as_secs(),
        );
        if args.json {
            let tag = profile.name.to_lowercase();
            let trace =
                serde_json::value_from_str(&rep.ctx.log.to_json()).expect("trace serializes");
            let path = report::save_envelope(
                "trace",
                &format!("MAGMA hybrid trace on {}", profile.name),
                &format!("fig01_trace_{tag}.json"),
                trace,
            );
            println!("trace written to {}", path.display());
            let run = report::save(
                &format!("fig01_run_report_{tag}.json"),
                &rep.report("MAGMA hybrid").to_json(),
            );
            println!("run report written to {}", run.display());
        }
    }
}
