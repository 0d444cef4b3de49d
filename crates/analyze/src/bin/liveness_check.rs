//! Static liveness gate: `cargo run -p hchol-analyze --bin
//! liveness_check`.
//!
//! Sweeps grid size × scheme × the shared configuration cross
//! ([`hchol_analyze::config_cross`]: verify interval × fused checksum
//! epilogues × placement × shard grid) × issue policy (in-order and
//! lookahead-2), unions each plan's dependency edges with the executor's
//! induced orderings, and proves deadlock-freedom and receive-completeness
//! ([`hchol_analyze::liveness`]). Combinations the composition matrix
//! refuses (DESIGN.md §12.5) are skipped — `validate_options` is the same
//! gate `run_scheme` applies. Prints the window-fallback counts the
//! lookahead diagnostics report and exits nonzero on any finding so CI can
//! gate on it.
//!
//! Usage: `liveness_check [nt ...]` — grid sizes default to 6 8 40 80,
//! the largest grid `plan_check` sweeps too.

use hchol_analyze::{check_liveness, config_cross};
use hchol_core::plan::for_scheme;
use hchol_core::schemes::SchemeKind;
use hchol_core::validate_options;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut grids: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().unwrap_or_else(|_| panic!("bad grid size `{a}`")))
        .collect();
    if grids.is_empty() {
        grids = vec![6, 8, 40, 80];
    }
    let mut findings = 0usize;
    for &nt in &grids {
        for kind in SchemeKind::all() {
            for cross in config_cross(kind).filter(|o| validate_options(o).is_ok()) {
                for la in [0usize, 2] {
                    let opts = cross.clone().with_lookahead(la);
                    let plan = for_scheme(kind, nt, &opts, false);
                    let rep = check_liveness(kind, &plan, &opts);
                    println!(
                        "liveness_check: {} nt={nt} K={} fused={} {:?} D={} lookahead={la}: \
                         {} nodes, {} plan edges + {} induced, {} window fallback(s), \
                         {} finding(s)",
                        kind.name(),
                        opts.verify_interval,
                        opts.chk_fused,
                        opts.placement,
                        opts.shard_devices(),
                        rep.nodes,
                        rep.plan_edges,
                        rep.induced_edges,
                        rep.window_fallbacks,
                        rep.findings.len()
                    );
                    if !rep.is_live() {
                        eprintln!("{}", rep.render_text());
                        findings += rep.findings.len();
                    }
                }
            }
        }
    }
    if findings == 0 {
        println!("liveness_check: every plan is deadlock-free and receive-complete");
        ExitCode::SUCCESS
    } else {
        eprintln!("liveness_check: {findings} finding(s)");
        ExitCode::FAILURE
    }
}
