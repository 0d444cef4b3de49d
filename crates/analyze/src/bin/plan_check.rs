//! Static plan checker runner: `cargo run -p hchol-analyze --bin
//! plan_check`.
//!
//! Builds the [`hchol_core::plan::FactorPlan`] for every scheme over the
//! full configuration cross — grid sizes × verify interval `K ∈ {1, 4}` ×
//! fused checksum epilogues × placement × shard grid `D ∈ {1, 2, 4}` —
//! checks each plan's dependency edges against the scheme's ABFT
//! contract (see [`hchol_analyze::plancheck`]), and exits nonzero on any
//! violation so CI can gate on it. This runs *before* any simulation — a broken policy
//! pass is caught without executing a single node.
//!
//! Usage: `plan_check [nt ...]` — grid sizes default to 4 8 16 40 80 (the
//! last is the paper's largest Tardis point, n = 20480 at b = 256).

use hchol_analyze::check_scheme_plan;
use hchol_core::options::AbftOptions;
use hchol_core::schemes::SchemeKind;
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
    // The paper's block size: `Auto` placement resolves as it does there.
    let b = 256;
    for &nt in &grids {
        let n = nt * b;
        for kind in SchemeKind::all() {
            // The full configuration cross: K sweeps the verification
            // interval, the fused flag swaps in compare-only epilogues
            // (Enhanced only), placement moves checksum updates between
            // devices, and D sweeps the block-cyclic shard grid.
            // Combinations the composition matrix refuses (DESIGN.md
            // §12) are skipped — `validate_options` is the same gate
            // `run_scheme` applies.
            for k in [1usize, 4] {
                for fused in [false, true] {
                    if fused && kind != SchemeKind::Enhanced {
                        continue; // the fused rewrite only applies to Enhanced
                    }
                    for placement in [
                        hchol_core::options::ChecksumPlacement::Auto,
                        hchol_core::options::ChecksumPlacement::Cpu,
                    ] {
                        for d in [1usize, 2, 4] {
                            let mut opts = AbftOptions::default()
                                .with_interval(k)
                                .with_chk_fused(fused)
                                .with_placement(placement);
                            if d > 1 {
                                opts = opts.with_shard(hchol_core::options::ShardOptions::new(d));
                            }
                            if hchol_core::validate_options(&opts).is_err() {
                                continue;
                            }
                            let chk = check_scheme_plan(kind, &profile, n, b, &opts);
                            println!(
                                "plan_check: {} nt={nt} n={n} b={b} K={k} fused={fused} \
                                 {placement:?} D={d}: {} nodes, {} edges, {}",
                                kind.name(),
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
