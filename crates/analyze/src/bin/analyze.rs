//! Schedule-analyzer runner: `cargo run -p hchol-analyze --bin analyze`.
//!
//! Runs all three ABFT schemes (TimingOnly, fault-free) over a sweep of
//! grid sizes, analyzes every recorded schedule for races and protocol
//! conformance, and prints one `analysis_report` JSON envelope per run.
//! Exits nonzero when any finding survives, so CI can gate on it.
//!
//! Usage: `analyze [nt ...]` — grid sizes default to 4 8 16 40 (at the
//! paper's block size b = 256).

use hchol_analyze::{analyze_outcome, AnalysisReport};
use hchol_core::options::AbftOptions;
use hchol_core::schemes::{run_clean, SchemeKind};
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut grids: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().unwrap_or_else(|_| panic!("bad grid size `{a}`")))
        .collect();
    if grids.is_empty() {
        grids = vec![4, 8, 16, 40];
    }
    let profile = SystemProfile::tardis();
    let opts = AbftOptions::default();
    let mut findings = 0usize;
    let b = 256;
    for &nt in &grids {
        let n = nt * b;
        for kind in SchemeKind::all() {
            let out = run_clean(kind, &profile, ExecMode::TimingOnly, n, b, &opts, None)
                .expect("fault-free TimingOnly run succeeds");
            let analysis = analyze_outcome(&out);
            let name = format!("{} nt={nt} n={n} b={b}", kind.name());
            println!(
                "{}",
                AnalysisReport::from_analysis(&analysis).to_json(&name)
            );
            if !analysis.is_clean() {
                eprintln!("{name}:\n{}", analysis.render_text());
                findings += analysis.races.len() + analysis.violations.len();
            }
        }
    }
    if findings == 0 {
        println!("analyze: all schedules race-free and protocol-conformant");
        ExitCode::SUCCESS
    } else {
        eprintln!("analyze: {findings} finding(s)");
        ExitCode::FAILURE
    }
}
