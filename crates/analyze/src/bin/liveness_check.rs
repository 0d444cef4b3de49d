//! Static liveness gate: `cargo run -p hchol-analyze --bin
//! liveness_check`.
//!
//! Sweeps grid size × scheme × shard grid `D ∈ {1, 2, 4}` × issue policy
//! (in-order and lookahead-2), unions each plan's dependency edges with
//! the executor's induced orderings, and proves deadlock-freedom and
//! receive-completeness ([`hchol_analyze::liveness`]). Prints the
//! window-fallback counts the lookahead diagnostics report and exits
//! nonzero on any finding so CI can gate on it.
//!
//! Usage: `liveness_check [nt ...]` — grid sizes default to 6 8 40 80,
//! the largest grid `plan_check` sweeps too.

use hchol_analyze::check_liveness;
use hchol_core::options::AbftOptions;
use hchol_core::plan::for_scheme;
use hchol_core::schemes::SchemeKind;
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
            for d in [1usize, 2, 4] {
                for la in [0usize, 2] {
                    let mut opts = AbftOptions::default()
                        .with_placement(hchol_core::options::ChecksumPlacement::Gpu);
                    opts.lookahead = la;
                    if d > 1 {
                        opts = opts.with_shard(hchol_core::options::ShardOptions::new(d));
                    }
                    let plan = for_scheme(kind, nt, &opts, false);
                    let rep = check_liveness(kind, &plan, &opts);
                    println!(
                        "liveness_check: {} nt={nt} D={d} lookahead={la}: {} nodes, \
                         {} plan edges + {} induced, {} window fallback(s), {} finding(s)",
                        kind.name(),
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
