//! The run functions of the text experiments: each prints its tables and
//! writes them under `bench_results/`. What each reproduces is in its
//! registry entry ([`crate::registry::EXPERIMENTS`]).

use crate::driver::Grid;
use crate::report::{fmt_pct, fmt_secs, Table};
use crate::runner::{overhead_pct, residual, Case, Variant};
use hchol_core::magma::factor_magma;
use hchol_core::options::{AbftOptions, ChecksumPlacement};
use hchol_core::overhead::{table1_rows, ModelParams};
use hchol_core::schemes::SchemeKind;
use hchol_faults::ecc::effective_flips;
use hchol_faults::poisson::storage_plan;
use hchol_faults::{run_campaign, TrialOutcome};
use hchol_faults::{FaultKind, FaultPlan, FaultSpec, FaultTarget, InjectionPoint};
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::{ExecMode, Lane};
use hchol_matrix::generate::{rng, spd_diag_dominant};
use rand::Rng;

fn tag(p: &SystemProfile) -> String {
    p.name.to_lowercase()
}

pub fn fig01_trace(g: &Grid) {
    for p in &g.systems {
        let (n, b) = (g.n(p), p.default_block);
        let rep = factor_magma(p, ExecMode::TimingOnly, n, b, None, true).expect("baseline runs");
        let total = rep.time.as_secs();
        println!(
            "# Figure 1 — MAGMA hybrid Cholesky trace on {} (n = {n}, B = {b})",
            p.name
        );
        println!("# total {total:.4}s | legend: S=SYRK G=GEMM T=TRSM P=POTF2(CPU) ==transfer");
        println!("{}", rep.ctx.log.ascii_gantt(100));
        println!("lane utilization: {}", rep.ctx.log.utilization_summary());
        let gpu = rep.ctx.log.lane_busy(Lane::GpuStream(0)).as_secs();
        let cpu = rep.ctx.log.lane_busy(Lane::HostMain).as_secs();
        println!(
            "gpu busy {gpu:.4}s ({:.1}%), cpu busy {cpu:.4}s ({:.1}%) — the CPU is idle most of the time, which Optimization 2 exploits\n",
            100.0 * gpu / total,
            100.0 * cpu / total,
        );
        let file = |what: &str| format!("bench_results/fig01_{what}_{}.json", tag(p));
        let trace = serde_json::value_from_str(&rep.ctx.log.to_json()).expect("trace serializes");
        let name = format!("MAGMA hybrid trace on {}", p.name);
        g.json(&file("trace"), "trace", &name, trace);
        g.write(&file("run_report"), &rep.report("MAGMA hybrid").to_json());
    }
}

pub fn fig02_design(g: &Grid) {
    let p = &g.systems[0];
    let n = g.n(p);
    let b = p.default_block.min(n / 4);
    let gpu = (ChecksumPlacement::Gpu, "a concurrent GPU stream");
    let cpu = (ChecksumPlacement::Cpu, "the idle CPU cores");
    for (label, (placement, site)) in [("(a)", gpu), ("(b)", cpu)] {
        let opts = AbftOptions {
            record_timeline: true,
            ..AbftOptions::default().with_placement(placement)
        };
        let out = Case::new(p, n, b).with_opts(opts).run(SchemeKind::Enhanced);
        println!(
            "# Figure 2{label} — Enhanced Online-ABFT on {}, checksum updating on {site} (n = {n}, B = {b})",
            p.name
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

pub fn table01_verification(g: &Grid) {
    let mut t = Table::new(
        "Table I — verification comparison (blocks verified per iteration)",
        &["Operation", "Online-ABFT verifies", "Enhanced verifies"],
    );
    for (op, online, enhanced) in table1_rows() {
        t.row(&[op.to_string(), online.to_string(), enhanced.to_string()]);
    }
    g.table(&t, "table01_verification.json");

    let p = &g.systems[0];
    let (n, b) = (g.n(p), p.default_block);
    let nt = n / b;
    let mut m = Table::new(
        &format!(
            "Measured recalculation kernels ({}, n = {n}, B = {b}, nt = {nt})",
            p.name
        ),
        &["Scheme", "recalc kernels", "predicted order"],
    );
    for (kind, predicted) in [
        (SchemeKind::Online, format!("O(nt²) = {}", nt * nt)),
        (
            SchemeKind::Enhanced,
            format!("O(nt³/6) = {}", nt * nt * nt / 6),
        ),
    ] {
        // One recalculation kernel per verified tile.
        let out = Case::new(p, n, b).run(kind);
        let tiles = out.ctx.obs.metrics.count("verify.tiles");
        m.row(&[kind.name().to_string(), tiles.to_string(), predicted]);
    }
    g.table(&m, "table01_measured.json");
    println!(
        "Enhanced verifies each block O(n) times on average (every read), Online O(1) (every write) — the ratio above grows with nt as the paper's Table I predicts."
    );
}

pub fn table03_06_overhead(g: &Grid) {
    let p = &g.systems[0];
    let (n, b, k) = (g.n(p), p.default_block, 1usize);
    let m = ModelParams::new(n, b, k);

    let mut t2 = Table::new("Table II — symbols", &["Symbol", "Description", "Value"]);
    for (symbol, what, value) in [
        ("n", "input matrix size", n),
        ("B", "matrix block size", b),
        ("K", "verify every K iterations", k),
    ] {
        t2.row(&[symbol.into(), what.into(), value.to_string()]);
    }
    g.table(&t2, "table02_symbols.json");

    let chol = m.cholesky_flops();
    let (nf, bf) = (n as f64, b as f64);
    let mut t3 = Table::new(
        "Table III — checksum updating overhead",
        &["Operation", "O_updating (flops)", "Relative overhead"],
    );
    let (potf2, trsm, gemm) = (2.0 * bf * nf, 2.0 * nf * nf, 2.0 * nf.powi(3) / (3.0 * bf));
    for (op, formula, flops, pct) in [
        ("POTF2", "2Bn = ", potf2, 100.0 * 2.0 * bf * nf / chol),
        ("TRSM", "2n² = ", trsm, 100.0 * 2.0 * nf * nf / chol),
        ("SYRK", "2n² = ", trsm, 100.0 * 2.0 * nf * nf / chol),
        ("GEMM", "2n³/3B = ", gemm, 100.0 * 2.0 / bf),
        ("total", "", m.update_flops(), 100.0 * m.update_relative()),
    ] {
        t3.row(&[op.into(), format!("{formula}{flops:.3e}"), fmt_pct(pct)]);
    }
    g.table(&t3, "table03_encode.json");

    let mut t45 = Table::new(
        "Tables IV/V — checksum recalculation overhead",
        &["Scheme", "O_recalc (flops)", "Relative overhead"],
    );
    for (scheme, flops, rel) in [
        (
            "Online-ABFT (Table IV)",
            m.recalc_flops_online(),
            m.recalc_relative_online(),
        ),
        (
            "Enhanced (Table V)",
            m.recalc_flops_enhanced(),
            m.recalc_relative_enhanced(),
        ),
    ] {
        t45.row(&[scheme.into(), format!("{flops:.3e}"), fmt_pct(100.0 * rel)]);
    }
    g.table(&t45, "table04_05_update.json");

    let mut t6 = Table::new(
        "Table VI — overall relative overhead",
        &["Scheme", "Overall relative overhead", "n → ∞ limit"],
    );
    let online = (m.total_relative_online(), m.asymptote_online());
    let enhanced = (m.total_relative_enhanced(), m.asymptote_enhanced());
    for (scheme, total, limit, (t, l)) in [
        ("Online-ABFT", "30/n + 2/B", "2/B", online),
        (
            "Enhanced Online-ABFT",
            "(24K+6)/(nK) + (2K+2)/(BK)",
            "(2K+2)/(BK)",
            enhanced,
        ),
    ] {
        let (t, l) = (fmt_pct(100.0 * t), fmt_pct(100.0 * l));
        t6.row(&[
            scheme.into(),
            format!("{total} = {t}"),
            format!("{limit} = {l}"),
        ]);
    }
    g.table(&t6, "table06_recalc.json");

    // The closed forms against the flops the Enhanced scheme counted.
    let run_n = n.min(20480);
    let mm = ModelParams::new(run_n, b, k);
    let out = Case::new(p, run_n, b).run(SchemeKind::Enhanced);
    let measured = |cat: &str| out.ctx.obs.metrics.count(&format!("flops.cat.{cat}")) as f64;
    let mut x = Table::new(
        &format!(
            "Model vs measured flops — Enhanced, {} (n = {run_n}, B = {b}, K = {k})",
            p.name
        ),
        &["Category", "Model", "Measured", "Measured/Model"],
    );
    let (recalc, chol) = (mm.recalc_flops_enhanced(), mm.cholesky_flops());
    for (cat, model, meas) in [
        ("encode", mm.encode_flops(), measured("ChecksumEncode")),
        ("update", mm.update_flops(), measured("ChecksumUpdate")),
        ("recalc", recalc, measured("ChecksumRecalc")),
        ("factorization", chol, measured("Factorization")),
    ] {
        x.row(&[
            cat.into(),
            format!("{model:.4e}"),
            format!("{meas:.4e}"),
            format!("{:.3}", meas / model),
        ]);
    }
    g.table(&x, "table_model_vs_measured.json");
    println!(
        "(Ratios near 1.0 confirm the implementation performs the work volumes the paper's Section VI budgets — the encode row counts the full lower triangle, slightly above the paper's n²-halving approximation.)"
    );
}

/// The paper's three scenarios: no error, one computing error, one storage
/// error, each mid-run.
fn scenarios(nt: usize, b: usize) -> [(&'static str, FaultPlan); 3] {
    [
        ("none", FaultPlan::none()),
        ("computing", FaultPlan::paper_computing_error(nt, b)),
        ("storage", FaultPlan::paper_storage_error(nt, b)),
    ]
}

pub fn table07_capability(g: &Grid) {
    for p in &g.systems {
        let table_no = if p.name == "Bulldozer64" {
            "VIII"
        } else {
            "VII"
        };
        let (n, b) = (g.n(p), p.default_block);
        let mut t = Table::new(
            &format!(
                "Table {table_no} — fault tolerance capability on {} with {n}x{n} Cholesky decomposition",
                p.name
            ),
            &["Scheme", "No Error", "Computation Error", "Memory Error"],
        );
        for kind in SchemeKind::all() {
            let mut cells = vec![kind.name().to_string()];
            for (_, plan) in scenarios(n / b, b) {
                let out = Case::new(p, n, b).with_faults(plan).run(kind);
                cells.push(fmt_secs(out.time.as_secs()));
            }
            t.row(&cells);
        }
        g.table(&t, &format!("table07_capability_{}.json", tag(p)));
    }

    println!("— Execute-mode replica (real arithmetic, scaled to n = 512) —");
    let p = SystemProfile::tardis();
    let (n, b) = (512usize, 32usize);
    let a = spd_diag_dominant(n, 20260705);
    let mut t = Table::new(
        "Same scenarios with real data (virtual time; residual = ‖LLᵀ−A‖/‖A‖)",
        &[
            "Scheme",
            "Scenario",
            "Time",
            "Attempts",
            "Corrected",
            "Residual",
        ],
    );
    for kind in SchemeKind::all() {
        for (label, plan) in scenarios(n / b, b) {
            let out = Case::new(&p, n, b).with_faults(plan).execute(kind, &a);
            t.row(&[
                kind.name().to_string(),
                label.to_string(),
                fmt_secs(out.time.as_secs()),
                out.attempts.to_string(),
                out.verify.corrected_data.to_string(),
                format!("{:.2e}", residual(&out, &a)),
            ]);
        }
    }
    g.table(&t, "table07_execute_replica.json");
    println!(
        "Reading: Enhanced absorbs both error kinds in-place (1 attempt, tiny residual).\n\
         Online corrects the computing error but must re-run after the storage error.\n\
         Offline re-runs for both. Re-runs ≈ double the no-error time, as in the paper."
    );
}

pub fn ablation_block(g: &Grid) {
    for p in &g.systems {
        let n = g.n(p);
        let mut t = Table::new(
            &format!(
                "Ablation — block size on {} (n = {n}, Enhanced, all optimizations, K = 1)",
                p.name
            ),
            &[
                "B",
                "MAGMA (s)",
                "Enhanced (s)",
                "overhead",
                "model (2K+2)/(BK) + O(1/n)",
            ],
        );
        for b in [64usize, 128, 256, 512, 1024] {
            if !n.is_multiple_of(b) {
                continue;
            }
            let case = Case::new(p, n, b);
            let base = case.secs(Variant::Magma);
            let enh = case.secs(Variant::Scheme(SchemeKind::Enhanced));
            let model = ModelParams::new(n, b, 1).total_relative_enhanced() * 100.0;
            t.row(&[
                b.to_string(),
                format!("{base:.3}"),
                format!("{enh:.3}"),
                fmt_pct(overhead_pct(enh, base)),
                fmt_pct(model),
            ]);
        }
        g.table(&t, &format!("ablation_block_{}.json", tag(p)));
        println!(
            "reading: overhead falls roughly as 1/B (the checksum rows shrink relative to the block) until per-iteration fixed costs take over; MAGMA's defaults sit near the sweet spot.\n"
        );
    }
}

/// Draw `count` storage upsets: mostly single-bit, a tail of multi-bit
/// bursts (the mix large-scale DRAM studies report).
fn upset_population(count: usize, grid: usize, block: usize, seed: u64) -> Vec<FaultSpec> {
    let mut r = rng(seed);
    (0..count)
        .map(|_| {
            let width = match r.gen_range(0..10) {
                0..=6 => 1usize, // ~70% single-bit
                7..=8 => 2,      // ~20% double-bit
                _ => 3,          // ~10% wider burst
            };
            let bits: Vec<u32> = (0..width).map(|_| r.gen_range(20..62)).collect();
            let iter = r.gen_range(1..grid);
            let bi = r.gen_range(iter..grid);
            FaultSpec {
                point: InjectionPoint::IterStart { iter },
                target: FaultTarget {
                    bi,
                    bj: r.gen_range(0..=bi),
                    row: r.gen_range(0..block),
                    col: r.gen_range(0..block),
                },
                kind: FaultKind::Storage { bits },
            }
        })
        .collect()
}

pub fn ablation_ecc(g: &Grid) {
    let p = &g.systems[0];
    let (n, b) = (g.n(p), 16usize);
    let a = spd_diag_dominant(n, 77);
    let population = upset_population(24, n / b, b, 20260705);
    let mut t = Table::new(
        &format!("Ablation — ECC vs ABFT on {n}x{n} (24 storage upsets, Enhanced, K = 1)"),
        &[
            "Configuration",
            "upsets reaching memory",
            "attempts",
            "ABFT corrections",
            "residual",
        ],
    );
    // "minimal" keeps only the scheme's mandatory positive-definiteness
    // guards (SYRK/POTF2 input checks cannot be disabled — without them the
    // run fail-stops); K = huge turns off all panel verification.
    for (label, ecc_on, abft_on) in [
        ("minimal (PD guards only)", false, false),
        ("ECC + minimal", true, false),
        ("ABFT only", false, true),
        ("ECC + ABFT", true, true),
    ] {
        // ECC filters the upset population before it reaches memory.
        let surviving: Vec<FaultSpec> = population
            .iter()
            .filter(|f| matches!(&f.kind, FaultKind::Storage { bits } if effective_flips(bits.len(), ecc_on) > 0))
            .cloned()
            .collect();
        let reached = surviving.len();
        let plan = FaultPlan {
            faults: surviving,
            ..FaultPlan::default()
        };
        let opts = AbftOptions {
            // "ABFT off" = never verify (K beyond the iteration count) and
            // never restart: errors sail through, exactly like an
            // unprotected MAGMA run.
            verify_interval: if abft_on { 1 } else { usize::MAX / 2 },
            max_restarts: if abft_on { 4 } else { 0 },
            ..AbftOptions::default()
        };
        let out = Case::new(p, n, b)
            .with_opts(opts)
            .with_faults(plan)
            .execute(SchemeKind::Enhanced, &a);
        t.row(&[
            label.to_string(),
            reached.to_string(),
            out.attempts.to_string(),
            out.verify.corrected_data.to_string(),
            format!("{:.1e}", residual(&out, &a)),
        ]);
    }
    g.table(&t, "ablation_ecc.json");
    println!(
        "reading: ECC thins the population (single-bit upsets vanish) but multi-bit\n\
         upsets still corrupt the factor (wrong residual, no recovery); only the two\n\
         full-ABFT rows end clean. Together they are cheapest: ABFT sees fewer events,\n\
         so fewer corrections and the smallest residual."
    );
}

pub fn ablation_variant(g: &Grid) {
    for p in &g.systems {
        let b = p.default_block;
        let mut t = Table::new(
            &format!(
                "Ablation — algorithm variant & redundancy baselines on {} (overhead vs inner-product MAGMA)",
                p.name
            ),
            &["n", "inner (s)", "outer-product", "Enhanced ABFT", "DMR (detect only)", "TMR (correct)"],
        );
        for n in g.sizes(p) {
            let case = Case::new(p, n, b);
            let inner = case.secs(Variant::Magma);
            let outer = case.secs(Variant::Outer);
            let enhanced = case.secs(Variant::Scheme(SchemeKind::Enhanced));
            // DMR: run twice and compare (detection only). TMR: thrice and
            // vote (correction). Their overheads are definitional.
            let (dmr, tmr) = (2.0 * inner, 3.0 * inner);
            t.row(&[
                n.to_string(),
                format!("{inner:.3}"),
                fmt_pct(overhead_pct(outer, inner)),
                fmt_pct(overhead_pct(enhanced, inner)),
                fmt_pct(overhead_pct(dmr, inner)),
                fmt_pct(overhead_pct(tmr, inner)),
            ]);
        }
        g.table(&t, &format!("ablation_variant_{}.json", tag(p)));
    }
    println!(
        "reading: the outer-product form pays its exposed POTF2 round trips (Section\n\
         II-A's rationale for MAGMA's choice); Enhanced Online-ABFT corrects BOTH error\n\
         species for ~1-7% where replication pays 100-200% (Section I's motivation)."
    );
}

pub fn campaign_survival(g: &Grid) {
    let p = &g.systems[0];
    let (n, b) = (g.n(p), 16usize);
    let trials = if g.quick { 5 } else { 20 };
    let a = spd_diag_dominant(n, 1);
    let mut t = Table::new(
        &format!(
            "Survival under Poisson storage-error storms (Enhanced, n = {n}, B = {b}, {trials} trials/cell)"
        ),
        &["rate/iter", "K", "survival", "restart rate", "mean corrections", "mean time"],
    );
    for rate in [0.1f64, 0.5, 2.0] {
        for k in [1usize, 3, 5] {
            let opts = AbftOptions {
                max_restarts: 6,
                ..AbftOptions::default().with_interval(k)
            };
            let stats = run_campaign(trials, 4242, |seed| {
                let out = Case::new(p, n, b)
                    .with_opts(opts.clone())
                    .with_faults(storage_plan(n / b, b, rate, seed))
                    .execute(SchemeKind::Enhanced, &a);
                TrialOutcome {
                    correct: !out.failed && residual(&out, &a) < 1e-9,
                    attempts: out.attempts,
                    corrected: out.verify.corrected_data,
                    seconds: out.time.as_secs(),
                }
            });
            let per_trial = |x: usize| x as f64 / stats.trials as f64;
            t.row(&[
                format!("{rate:.1}"),
                k.to_string(),
                format!("{:.0}%", 100.0 * stats.survival_rate()),
                format!("{:.0}%", 100.0 * per_trial(stats.restarted)),
                format!("{:.1}", per_trial(stats.total_corrected)),
                format!("{:.3}ms", stats.mean_seconds * 1e3),
            ]);
        }
    }
    g.table(&t, "campaign_survival.json");
    println!(
        "reading: the crossover the paper's Optimization 3 is about, measured. At low\n\
         rates, larger K is cheapest (less verification, rare restarts). As the rate\n\
         grows, K > 1 restarts on almost every run and its advantage evaporates, while\n\
         K = 1 absorbs nearly everything in place (its rare restarts are two errors\n\
         landing in one block column — beyond two-checksum correction capability)."
    );
    g.csv(&t, "campaign_survival.csv");
}

pub fn run_report(g: &Grid) {
    for p in &g.systems {
        let (n, b) = (g.n(p), p.default_block);
        let out = Case::new(p, n, b)
            .with_faults(FaultPlan::paper_storage_error(n / b, b))
            .run(SchemeKind::Enhanced);
        let rep = out.report();
        rep.validate(1e-6)
            .expect("per-phase totals sum to the run's total virtual time");
        print!("{}", rep.render_text());
        let phase_sum: f64 = rep.phase_totals.iter().map(|p| p.secs).sum();
        println!(
            "partition check: Σ phases = {phase_sum:.6}s vs total {:.6}s ✓\n",
            rep.total_secs
        );
        let file = format!("bench_results/run_report_{}.json", tag(p));
        g.write(&file, &rep.to_json());
    }
}
