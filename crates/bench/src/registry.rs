//! The registry: every experiment `bench` runs, in the paper's section
//! order — what it reproduces, its grid, and its run function.

use crate::driver::{paper_sizes, Experiment, Run, Systems};
use crate::figure::{Figure, Metric};
use crate::runner::Variant;
use crate::{paper, sweeps};
use hchol_core::decision;
use hchol_core::options::{AbftOptions, ChecksumPlacement};
use hchol_core::schemes::SchemeKind;
use hchol_gpusim::profile::SystemProfile;

/// The checksum-update placement Optimization 2's decision model picks on
/// `p` (at n = 20480, K = 1).
fn opt2_placement(p: &SystemProfile) -> ChecksumPlacement {
    decision::choose(ChecksumPlacement::Auto, p, 20480, p.default_block, 1)
}

const OFFLINE: Variant = Variant::Scheme(SchemeKind::Offline);
const ONLINE: Variant = Variant::Scheme(SchemeKind::Online);
const ENHANCED: Variant = Variant::Scheme(SchemeKind::Enhanced);

/// The size of Tables VII/VIII and the full Tables II–VI on `p`.
fn headline_n(p: &SystemProfile) -> usize {
    if p.name == "Bulldozer64" {
        30720
    } else {
        20480
    }
}

/// `quick` or `full`, whichever this run asks for.
fn pick(quick: bool, quick_sizes: &[usize], full: &[usize]) -> Vec<usize> {
    (if quick { quick_sizes } else { full }).to_vec()
}

fn defaults(_: &SystemProfile) -> AbftOptions {
    AbftOptions::default()
}

fn both(_: bool) -> Vec<SystemProfile> {
    vec![SystemProfile::tardis(), SystemProfile::bulldozer64()]
}

fn bulldozer(_: bool) -> Vec<SystemProfile> {
    vec![SystemProfile::bulldozer64()]
}

/// Every experiment, in the order `bench all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig01_trace",
        about: "Figure 1 — the MAGMA hybrid Cholesky execution trace: GPU kernels, transfers, \
                and the CPU POTF2 hiding under the GPU GEMM. Prints an ASCII Gantt chart and \
                writes the trace and its run report as JSON.",
        systems: Systems::Both,
        sizes: |_, quick| vec![if quick { 2048 } else { 8192 }],
        run: Run::Text(paper::fig01_trace),
    },
    Experiment {
        id: "fig02_design",
        about: "Figure 2 — the Enhanced Online-ABFT design as executable traces: checksums \
                updated (a) on a concurrent GPU stream, (b) on the otherwise idle CPU. In (a) \
                the checksum work (`c`) rides a separate GPU stream, in (b) CPU worker lanes.",
        systems: Systems::One,
        sizes: |_, quick| vec![if quick { 1024 } else { 2048 }],
        run: Run::Text(paper::fig02_design),
    },
    Experiment {
        id: "table01_verification",
        about: "Table I — blocks verified per operation, Online vs Enhanced, cross-checked \
                against the recalculation kernels each scheme really issued on Tardis.",
        systems: Systems::Fixed(|_| vec![SystemProfile::tardis()]),
        sizes: |_, quick| vec![if quick { 4096 } else { 10240 }],
        run: Run::Text(paper::table01_verification),
    },
    Experiment {
        id: "table03_06_overhead",
        about: "Tables II–VI — the Section-VI analytic overhead model, and its closed forms \
                against the flops the runtime counted.",
        systems: Systems::One,
        sizes: |p, quick| vec![if quick { 5120 } else { headline_n(p) }],
        run: Run::Text(paper::table03_06_overhead),
    },
    Experiment {
        id: "table07_capability",
        about: "Tables VII & VIII — the three schemes under no error, one computing and one \
                storage error mid-run: only Enhanced absorbs both without the ~2x re-run. An \
                Execute-mode replica at n = 512 shows the same with real corrections.",
        systems: Systems::Both,
        sizes: |p, quick| vec![headline_n(p) / if quick { 4 } else { 1 }],
        run: Run::Text(paper::table07_capability),
    },
    Experiment {
        id: "fig08_09_opt1",
        about: "Figures 8 & 9 — Optimization 1, concurrent checksum-recalculation kernels: \
                Enhanced overhead before and after. A modest gain on Tardis (Fermi barely \
                co-executes kernels), a large one on Bulldozer64 (Hyper-Q runs them 32-wide).",
        systems: Systems::Both,
        sizes: paper_sizes,
        run: Run::Figure(Figure {
            first: 8,
            slug: "opt1",
            caption: |p| {
                format!(
                    "Opt. 1 on {} (Enhanced overhead vs MAGMA, before/after concurrent recalculation)",
                    p.name
                )
            },
            columns: &[
                ("before (1 stream)", ENHANCED, |_| {
                    AbftOptions::default().with_concurrent_recalc(false)
                }),
                ("after (N streams)", ENHANCED, |_| {
                    AbftOptions::default().with_concurrent_recalc(true)
                }),
            ],
            metric: Metric::Overhead,
            gain: true,
            footer: None,
        }),
    },
    Experiment {
        id: "fig10_11_opt2",
        about: "Figures 10 & 11 — Optimization 2, checksum-update placement: Enhanced overhead \
                with updates inline on the compute stream, then offloaded where the decision \
                model puts them (CPU workers on Tardis, a GPU stream on Bulldozer64).",
        systems: Systems::Both,
        sizes: paper_sizes,
        run: Run::Figure(Figure {
            first: 10,
            slug: "opt2",
            caption: |p| {
                let picks = match opt2_placement(p) {
                    ChecksumPlacement::Cpu => "CPU",
                    ChecksumPlacement::Gpu => "GPU stream",
                    _ => "?",
                };
                format!(
                    "Opt. 2 on {} (Enhanced overhead; decision model picks {picks} updating)",
                    p.name
                )
            },
            columns: &[
                ("before (inline)", ENHANCED, |_| {
                    AbftOptions::default().with_placement(ChecksumPlacement::Inline)
                }),
                ("after (offloaded)", ENHANCED, |p| {
                    AbftOptions::default().with_placement(opt2_placement(p))
                }),
            ],
            metric: Metric::Overhead,
            gain: true,
            footer: None,
        }),
    },
    Experiment {
        id: "fig12_13_opt3",
        about: "Figures 12 & 13 — Optimization 3, verify every K iterations: Enhanced overhead \
                at K = 1, 3, 5. It drops steeply with K, since recalculating the GEMM input \
                panels, the dominant cost, is gated to every K-th iteration.",
        systems: Systems::Both,
        sizes: paper_sizes,
        run: Run::Figure(Figure {
            first: 12,
            slug: "opt3",
            caption: |p| {
                format!(
                    "Opt. 3 on {} (Enhanced overhead vs MAGMA for K = 1, 3, 5)",
                    p.name
                )
            },
            columns: &[
                ("K=1", ENHANCED, |_| AbftOptions::default().with_interval(1)),
                ("K=3", ENHANCED, |_| AbftOptions::default().with_interval(3)),
                ("K=5", ENHANCED, |_| AbftOptions::default().with_interval(5)),
            ],
            metric: Metric::Overhead,
            gain: false,
            footer: None,
        }),
    },
    Experiment {
        id: "fig14_15_overhead",
        about: "Figures 14 & 15 — overhead of Offline, Online and Enhanced Online-ABFT against \
                MAGMA, all optimizations on. Overheads fall with n toward small constants; \
                Enhanced sits slightly above the other two.",
        systems: Systems::Both,
        sizes: paper_sizes,
        run: Run::Figure(Figure {
            first: 14,
            slug: "overhead",
            caption: |p| {
                format!(
                    "relative overhead vs MAGMA on {} (all optimizations on, K = 1)",
                    p.name
                )
            },
            columns: &[
                ("Offline-ABFT", OFFLINE, defaults),
                ("Online-ABFT", ONLINE, defaults),
                ("Enhanced Online-ABFT", ENHANCED, defaults),
            ],
            metric: Metric::Overhead,
            gain: false,
            footer: None,
        }),
    },
    Experiment {
        id: "fig16_17_performance",
        about: "Figures 16 & 17 — GFLOP/s of MAGMA, CULA and the three ABFT schemes. MAGMA on \
                top, the ABFT variants just below and nearly indistinguishable, CULA last: the \
                fully protected routine still beats the vendor library.",
        systems: Systems::Both,
        sizes: paper_sizes,
        run: Run::Figure(Figure {
            first: 16,
            slug: "performance",
            caption: |p| format!("performance on {} (GFLOP/s)", p.name),
            columns: &[
                ("MAGMA", Variant::Magma, defaults),
                ("CULA", Variant::Cula, defaults),
                ("Offline-ABFT", OFFLINE, defaults),
                ("Online-ABFT", ONLINE, defaults),
                ("Enhanced Online-ABFT", ENHANCED, defaults),
            ],
            metric: Metric::Gflops,
            gain: false,
            footer: Some(|g| {
                format!(
                    "at the largest size: MAGMA {:.0} ≥ Enhanced {:.0} > CULA {:.0} GFLOP/s — the ABFT-protected routine still beats the vendor library\n",
                    g[0], g[4], g[1]
                )
            }),
        }),
    },
    Experiment {
        id: "ablation_block",
        about: "Ablation, block size B at fixed n: MAGMA time, Enhanced overhead and the \
                analytic (2K+2)/(BK) asymptote side by side. Doubling B should roughly halve \
                the overhead until per-kernel costs and lost POTF2/GEMM overlap take over.",
        systems: Systems::Both,
        sizes: |_, quick| vec![if quick { 5120 } else { 15360 }],
        run: Run::Text(paper::ablation_block),
    },
    Experiment {
        id: "ablation_ecc",
        about: "Ablation, ECC vs ABFT: 24 storage upsets of realistic bit multiplicity, \
                filtered through the SEC-DED model, and what ECC alone, ABFT alone and both \
                leave uncorrected in an Enhanced Execute-mode run.",
        systems: Systems::Fixed(bulldozer),
        sizes: |_, quick| vec![if quick { 128 } else { 256 }],
        run: Run::Text(paper::ablation_ecc),
    },
    Experiment {
        id: "ablation_variant",
        about: "Ablation, algorithm variant: the inner-product form MAGMA chose against the \
                outer-product form (Section II-A), beside Enhanced ABFT and the DMR/TMR \
                100 %/200 % redundancy baselines (Section I).",
        systems: Systems::Both,
        sizes: |p, quick| paper_sizes(p, quick).into_iter().take(6).collect(),
        run: Run::Text(paper::ablation_variant),
    },
    Experiment {
        id: "campaign_survival",
        about: "Extension, survival under Poisson storage-error storms: per (rate, K) cell, a \
                multi-seed Execute-mode campaign of Enhanced Online-ABFT reporting survival, \
                restarts and mean cost — the capability side of Optimization 3.",
        systems: Systems::Fixed(bulldozer),
        sizes: |_, _| vec![192],
        run: Run::Text(paper::campaign_survival),
    },
    Experiment {
        id: "run_report",
        about: "One Enhanced Online-ABFT run with a mid-run storage error, fully instrumented: \
                phase breakdown, engine busy/idle, fault-tolerance counters and event log, \
                and the versioned JSON report.",
        systems: Systems::Both,
        sizes: |_, quick| vec![if quick { 2048 } else { 10240 }],
        run: Run::Text(paper::run_report),
    },
    Experiment {
        id: "fused_overhead",
        about: "Fused-epilogue verification: Enhanced overhead over MAGMA with checksum \
                recalculation as separate kernels or deposited by the SYRK/GEMM epilogue, with \
                the time each path spends -> BENCH_fused.json.",
        systems: Systems::Fixed(both),
        sizes: |_, quick| pick(quick, &[512, 1024], &[512, 1024, 2048]),
        run: Run::Bench {
            name: "fused",
            run: sweeps::fused_overhead,
            check: |_| Ok(()),
        },
    },
    Experiment {
        id: "balance_sweep",
        about: "Static vs adaptive checksum-update placement: the feedback balancer against \
                the Optimization-2 decision on both paper systems and on Tardis-Skewed (a \
                degraded PCIe link the model does not know about) -> BENCH_balance.json.",
        systems: Systems::Fixed(|_| {
            let mut v = both(false);
            v.push(SystemProfile::tardis_skewed());
            v
        }),
        sizes: |_, quick| pick(quick, &[1024, 2048], &[1024, 2048, 4096]),
        run: Run::Bench {
            name: "balance",
            run: sweeps::balance_sweep,
            check: sweeps::balance_check,
        },
    },
    Experiment {
        id: "shard_sweep",
        about: "Multi-device sharding: strong and weak scaling over D ∈ {1, 2, 4, 8} simulated \
                GPUs, and the cost of a mid-run device-loss recovery -> BENCH_shard.json. \
                Small matrices lose; the win is required at the sweep's largest size.",
        systems: Systems::Fixed(|quick| match quick {
            true => vec![SystemProfile::tardis()],
            false => both(quick),
        }),
        sizes: |_, quick| pick(quick, &[2048, 8192], &[2048, 4096, 8192, 16384]),
        run: Run::Bench {
            name: "shard",
            run: sweeps::shard_sweep,
            check: sweeps::shard_check,
        },
    },
    Experiment {
        id: "precision_sweep",
        about: "Precision: one factorization and fault campaign at f64 and f32, under the \
                fixed and the adaptive tolerance -> BENCH_precision.json. Fixed thresholds trip \
                on f32 round-off; adaptive ones stay silent and still catch every fault.",
        systems: Systems::Fixed(|_| vec![SystemProfile::test_profile()]),
        sizes: |_, quick| pick(quick, &[192], &[192, 384]),
        run: Run::Bench {
            name: "precision",
            run: sweeps::precision_sweep,
            check: sweeps::precision_check,
        },
    },
    Experiment {
        id: "batch_sweep",
        about: "Batched runs: B ∈ {1, 4, 8} concurrent n = 512 factorizations per scheme \
                interleaved through one simulator context, against the same runs back to \
                back -> BENCH_batch.json.",
        systems: Systems::Fixed(both),
        sizes: |_, _| vec![512],
        run: Run::Bench {
            name: "batch",
            run: sweeps::batch_sweep,
            check: |_| Ok(()),
        },
    },
    Experiment {
        id: crate::driver::GOLDEN,
        about: "Rewrite tests/fixtures/golden/, the RunReport bytes and factor hashes \
                tests/golden_equivalence.rs replays. Run only for an intentional schedule \
                change; the fixture diff then documents what moved.",
        systems: Systems::Fixed(|_| vec![SystemProfile::test_profile()]),
        sizes: |_, _| vec![64, 192, 256],
        run: Run::Text(sweeps::golden_capture),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Bulldozer64's panel of each paired figure is the odd-numbered one,
    /// named as the committed `bench_results/` series are.
    #[test]
    fn paired_figures_are_numbered_by_system() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
        let (tardis, bulldozer) = (SystemProfile::tardis(), SystemProfile::bulldozer64());
        let mut figures = 0;
        for e in EXPERIMENTS {
            let Run::Figure(f) = &e.run else { continue };
            figures += 1;
            for (p, number) in [(&tardis, f.first), (&bulldozer, f.first + 1)] {
                assert_eq!(f.number(p), number);
                let csv = root.join(format!("{}.csv", f.stem(p)));
                assert!(csv.exists(), "{} is not a committed series", csv.display());
            }
        }
        assert_eq!(figures, 5);
    }
}
