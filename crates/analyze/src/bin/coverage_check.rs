//! Static fault-coverage gate: `cargo run -p hchol-analyze --bin
//! coverage_check`.
//!
//! Sweeps every supported scheme × configuration combination — verify
//! interval `K ∈ {1, 4}`, fused checksum epilogues, checksum placement,
//! shard grid `D ∈ {1, 2, 4}` — builds each plan, enumerates every
//! injectable fault site (plus device-loss sites on sharded plans), and
//! statically proves each one a rung of the coverage lattice
//! ([`hchol_analyze::coverage`]) alongside the liveness obligations
//! ([`hchol_analyze::liveness`]). Exits nonzero on any uncovered site or
//! liveness finding so CI can gate on it, and exports the sweep as a
//! versioned `COVERAGE_static.json` artifact.
//!
//! Combinations the composition matrix refuses
//! ([`hchol_core::validate_options`], DESIGN.md §12) are skipped as
//! *refused* — a typed refusal is a correct answer, not a gap.
//!
//! Mutation controls (`--mutate=strip-verify | sever-recv | drop-parity`)
//! apply one targeted defect to an otherwise-clean plan and exit
//! **nonzero when the checker catches it** — CI runs them as
//! failing-expected steps, so a checker that stops seeing planted defects
//! turns the build red.

use hchol_analyze::{check_coverage, check_liveness, check_scheme_coverage};
use hchol_core::options::{AbftOptions, ChecksumPlacement};
use hchol_core::plan::{for_scheme, SweepKind, TaskKind};
use hchol_core::schemes::SchemeKind;
use hchol_core::validate_options;
use hchol_gpusim::profile::SystemProfile;
use serde::Serialize;
use std::process::ExitCode;

/// One sweep combination's headline numbers (artifact body row).
#[derive(Serialize)]
struct ComboRecord {
    scheme: String,
    n: u64,
    b: u64,
    k: u64,
    chk_fused: bool,
    placement: String,
    devices: u64,
    sites: u64,
    covered: u64,
    uncovered: u64,
    detect_correct: u64,
    detect_restart: u64,
    parity_recover: u64,
    liveness_findings: u64,
    window_fallbacks: u64,
    scratch_peak: u64,
    broadcast_peak: u64,
}

#[derive(Serialize)]
struct SweepBody {
    combos: Vec<ComboRecord>,
    refused: u64,
}

fn artifact_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("COVERAGE_static.json")
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        let mode = arg
            .strip_prefix("--mutate=")
            .unwrap_or_else(|| panic!("unknown argument `{arg}`"));
        return mutate(mode);
    }

    let profile = SystemProfile::tardis();
    let mut combos = Vec::new();
    let mut refused = 0u64;
    let mut bad = 0usize;
    for &(n, b) in &[(96usize, 16usize), (128, 16)] {
        for kind in SchemeKind::all() {
            for k in [1usize, 4] {
                for fused in [false, true] {
                    if fused && kind != SchemeKind::Enhanced {
                        continue; // the fused rewrite only applies to Enhanced
                    }
                    for placement in [ChecksumPlacement::Gpu, ChecksumPlacement::Cpu] {
                        for d in [1usize, 2, 4] {
                            let mut opts = AbftOptions::default()
                                .with_interval(k)
                                .with_chk_fused(fused)
                                .with_placement(placement);
                            if d > 1 {
                                opts = opts.with_shard(hchol_core::options::ShardOptions::new(d));
                            }
                            if let Err(e) = validate_options(&opts) {
                                refused += 1;
                                println!(
                                    "coverage_check: {} n={n} K={k} fused={fused} \
                                     {placement:?} D={d}: refused ({e})",
                                    kind.name()
                                );
                                continue;
                            }
                            let cov = check_scheme_coverage(kind, &profile, n, b, &opts);
                            let live = {
                                let plan = for_scheme(kind, n / b, &opts, false);
                                check_liveness(kind, &plan, &opts)
                            };
                            println!(
                                "coverage_check: {} n={n} b={b} K={k} fused={fused} \
                                 {placement:?} D={d}: {} sites, {} covered, {} uncovered, \
                                 {} liveness finding(s)",
                                kind.name(),
                                cov.total_sites(),
                                cov.covered_sites(),
                                cov.uncovered_sites(),
                                live.findings.len()
                            );
                            if !cov.is_covered() {
                                eprintln!("{}", cov.render_text());
                            }
                            if !live.is_live() {
                                eprintln!("{}", live.render_text());
                            }
                            bad += cov.uncovered_sites() + live.findings.len();
                            let s = cov.summary();
                            combos.push(ComboRecord {
                                scheme: kind.name().to_string(),
                                n: n as u64,
                                b: b as u64,
                                k: k as u64,
                                chk_fused: fused,
                                placement: format!("{placement:?}"),
                                devices: d as u64,
                                sites: s.sites,
                                covered: s.covered,
                                uncovered: s.uncovered,
                                detect_correct: s.detect_correct,
                                detect_restart: s.detect_restart,
                                parity_recover: s.parity_recover,
                                liveness_findings: live.findings.len() as u64,
                                window_fallbacks: live.window_fallbacks as u64,
                                scratch_peak: s.resources.scratch_peak,
                                broadcast_peak: s.resources.broadcast_peak,
                            });
                        }
                    }
                }
            }
        }
    }

    let body = SweepBody { combos, refused };
    let doc = hchol_obs::envelope("coverage_report", "static sweep", body.to_value());
    let json = serde_json::to_string_pretty(&doc).expect("sweep serializes");
    let path = artifact_path();
    std::fs::write(&path, json).expect("write COVERAGE_static.json");
    println!(
        "coverage_check: wrote {} ({} combos, {} refused)",
        path.display(),
        body.combos.len(),
        body.refused
    );

    if bad == 0 {
        println!("coverage_check: every enumerated site is covered on every clean combination");
        ExitCode::SUCCESS
    } else {
        eprintln!("coverage_check: {bad} uncovered site(s) / liveness finding(s)");
        ExitCode::FAILURE
    }
}

/// Apply one planted defect and exit nonzero iff the checker catches it
/// (failing-expected CI steps invert the sense).
fn mutate(mode: &str) -> ExitCode {
    let gpu = AbftOptions::default().with_placement(ChecksumPlacement::Gpu);
    let caught = match mode {
        // Strip one final-sweep verify batch from an Offline plan: its
        // tiles lose their only witness.
        "strip-verify" => {
            let mut plan = for_scheme(SchemeKind::Offline, 6, &gpu, false);
            let victim = plan
                .find(|n| matches!(&n.kind, TaskKind::VerifyBatch { sweep, .. } if *sweep == SweepKind::Final))
                .expect("final sweep exists");
            plan.remove(victim);
            let rep = check_coverage(SchemeKind::Offline, &plan, &gpu);
            println!("{}", rep.render_text());
            rep.uncovered_sites() > 0
        }
        // Sever a chunked-ring receive's out-edges: its device's
        // consumers lose the recv→send chain.
        "sever-recv" => {
            let opts = gpu.with_shard(hchol_core::options::ShardOptions::new(2));
            let plan = for_scheme(SchemeKind::Offline, 8, &opts, false);
            let victim = plan
                .find(|n| {
                    matches!(
                        n.kind,
                        TaskKind::DeviceRecv {
                            what: hchol_core::plan::ShardXfer::RowPanel,
                            ..
                        } if n.iter >= Some(2)
                    )
                })
                .expect("a row-panel recv exists");
            let mut mutated = plan.clone();
            mutated.drop_edges_from(victim);
            let rep = check_liveness(SchemeKind::Offline, &mutated, &opts);
            println!("{}", rep.render_text());
            !rep.is_live()
        }
        // Drop one end-of-column parity refresh: later device losses
        // cannot reconstruct that column.
        "drop-parity" => {
            let opts = gpu.with_shard(hchol_core::options::ShardOptions::new(2));
            let mut plan = for_scheme(SchemeKind::Offline, 6, &opts, false);
            let victim = plan
                .find(|n| matches!(n.kind, TaskKind::ShardParity { j: 1 }))
                .expect("column-1 parity refresh exists");
            plan.remove(victim);
            let rep = check_coverage(SchemeKind::Offline, &plan, &opts);
            println!("{}", rep.render_text());
            rep.losses
                .iter()
                .any(|l| !l.coverage.is_covered() && l.missing_columns.contains(&1))
        }
        other => panic!("unknown mutation `{other}`"),
    };
    if caught {
        eprintln!("coverage_check: mutation `{mode}` caught (exiting nonzero as expected)");
        ExitCode::FAILURE
    } else {
        println!("coverage_check: mutation `{mode}` NOT caught — checker regression");
        ExitCode::SUCCESS
    }
}
