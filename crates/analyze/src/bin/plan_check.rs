//! Static plan checker runner: `cargo run -p hchol-analyze --bin
//! plan_check`.
//!
//! Builds the [`hchol_core::plan::FactorPlan`] for every scheme over the
//! shared configuration cross ([`hchol_analyze::config_cross`]: verify
//! interval × fused checksum epilogues × placement × shard grid) at each
//! grid size, checks each plan's dependency edges against the scheme's
//! ABFT contract (see [`hchol_analyze::plancheck`]), and exits nonzero on
//! any violation so CI can gate on it. This runs *before* any simulation —
//! a broken policy pass is caught without executing a single node.
//! Combinations the composition matrix refuses (DESIGN.md §12.5) are
//! skipped — `validate_options` is the same gate `run_scheme` applies.
//!
//! Usage: `plan_check [nt ...]` — grid sizes default to 4 8 16 40 80 (the
//! last is the paper's largest Tardis point, n = 20480 at b = 256).

use hchol_analyze::{check_scheme_plan, config_cross};
use hchol_core::schemes::SchemeKind;
use hchol_core::validate_options;
use hchol_gpusim::profile::SystemProfile;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut grids: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().unwrap_or_else(|_| panic!("bad grid size `{a}`")))
        .collect();
    if grids.is_empty() {
        grids = vec![4, 8, 16, 40, 80];
    }
    let profile = SystemProfile::tardis();
    let mut violations = 0usize;
    // The paper's block size.
    let b = 256;
    for &nt in &grids {
        let n = nt * b;
        for kind in SchemeKind::all() {
            for opts in config_cross(kind).filter(|o| validate_options(o).is_ok()) {
                let chk = check_scheme_plan(kind, &profile, n, b, &opts);
                println!(
                    "plan_check: {} nt={nt} n={n} b={b} K={} fused={} {:?} D={}: \
                     {} nodes, {} edges, {}",
                    kind.name(),
                    opts.verify_interval,
                    opts.chk_fused,
                    opts.placement,
                    opts.shard_devices(),
                    chk.nodes,
                    chk.edges,
                    if chk.is_clean() {
                        "clean".to_string()
                    } else {
                        format!("{} violation(s)", chk.violations.len())
                    }
                );
                if !chk.is_clean() {
                    eprintln!("{}", chk.render_text());
                    violations += chk.violations.len();
                }
            }
        }
    }
    if violations == 0 {
        println!("plan_check: every plan satisfies its scheme's ABFT contract");
        ExitCode::SUCCESS
    } else {
        eprintln!("plan_check: {violations} violation(s)");
        ExitCode::FAILURE
    }
}
