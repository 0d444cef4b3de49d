//! The run functions of the `BENCH_*.json` sweeps and their write-time
//! checks, and the golden-fixture capture. What each sweep measures is in
//! its registry entry ([`crate::registry::EXPERIMENTS`]); each returns its
//! artifact body, an object whose rows carry the fields in the order
//! written.

use crate::driver::Grid;
use crate::runner::{gflops, overhead_pct, residual, Case, Variant};
use hchol_core::cula::factor_cula;
use hchol_core::magma::factor_magma;
use hchol_core::options::{AbftOptions, BalanceOptions, ChecksumPlacement, ShardOptions};
use hchol_core::schemes::{FactorOutcome, SchemeKind};
use hchol_core::verify::VerifyOutcome;
use hchol_faults::{FaultKind, FaultPlan, FaultSpec, FaultTarget, InjectionPoint};
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;
use hchol_matrix::generate::spd_diag_dominant;
use hchol_matrix::{DType, Matrix, Scalar};
use serde::{Serialize, Value};

/// A JSON object of the named fields, in order; `key` alone takes the
/// variable of that name.
macro_rules! obj {
    ($($key:ident $(: $value:expr)?),* $(,)?) => {
        Value::Object(vec![$((stringify!($key).to_string(), obj!(@value $key $($value)?))),*])
    };
    (@value $key:ident $value:expr) => { Serialize::to_value(&$value) };
    (@value $key:ident) => { Serialize::to_value(&$key) };
}

/// The value of `key` in the object `v`.
fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// The array `key` of a sweep body.
fn rows<'a>(body: &'a Value, key: &str) -> &'a [Value] {
    field(body, key).and_then(Value::as_array).unwrap_or(&[])
}

/// The number `key` of a row (NaN when absent).
fn num(row: &Value, key: &str) -> f64 {
    match field(row, key) {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(x)) => *x as f64,
        Some(Value::I64(x)) => *x as f64,
        _ => f64::NAN,
    }
}

/// The string `key` of a row (empty when absent).
fn text<'a>(row: &'a Value, key: &str) -> &'a str {
    field(row, key).and_then(Value::as_str).unwrap_or("")
}

fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    ok.then_some(()).ok_or_else(why)
}

/// Enhanced overhead over MAGMA with and without the fused epilogue, and
/// the virtual time the verification pipeline spends on separate
/// recalculation kernels and on fused epilogues (zero unfused).
pub fn fused_overhead(g: &Grid) -> Value {
    let mut results = Vec::new();
    for p in &g.systems {
        for n in g.sizes(p) {
            let block = p.default_block.min(n / 4);
            let case = Case::new(p, n, block);
            let magma_secs = case.secs(Variant::Magma);
            // The unfused baseline opts into recalc-time reporting so both
            // variants expose `verify.recalc_secs`.
            let run = |fused: bool| {
                let opts = AbftOptions::default().with_chk_fused(fused);
                case.clone()
                    .with_opts(opts.with_report_recalc_secs(true))
                    .run(SchemeKind::Enhanced)
            };
            let (unfused, fused) = (run(false), run(true));
            let (unfused_secs, fused_secs) = (unfused.time.as_secs(), fused.time.as_secs());
            let ou = overhead_pct(unfused_secs, magma_secs);
            let of = overhead_pct(fused_secs, magma_secs);
            // Overhead removed by fusion, as a fraction of the unfused overhead.
            let drop = (ou - of) / ou * 100.0;
            let metric = |out: &FactorOutcome, name: &str| out.ctx.obs.metrics.sum(name);
            println!(
                "{:<12} n={n:<5} b={block:<4} MAGMA {magma_secs:>8.4}s | overhead unfused {ou:>6.2}% fused {of:>6.2}% | drop {drop:>5.2}%",
                p.name
            );
            results.push(obj! {
                system: p.name, n, block, magma_secs, unfused_secs, fused_secs,
                unfused_overhead_pct: ou, fused_overhead_pct: of, overhead_drop_pct: drop,
                unfused_recalc_secs: metric(&unfused, "verify.recalc_secs"),
                fused_recalc_secs: metric(&fused, "verify.recalc_secs"),
                fused_epilogue_secs: metric(&fused, "verify.fused.epilogue_secs"),
            });
        }
    }
    obj! { scheme: SchemeKind::Enhanced.name(), quick: g.quick, results }
}

/// Enhanced with the analytic model's one-shot placement against the
/// feedback balancer: the gain (positive = balancer wins), its switches,
/// the largest K it installed, and its last window's `balance.*` gauges.
pub fn balance_sweep(g: &Grid) -> Value {
    let balance = BalanceOptions::default().with_update_interval(2);
    let mut results = Vec::new();
    for p in &g.systems {
        for n in g.sizes(p) {
            let block = 128usize.min(n / 4);
            let case = Case::new(p, n, block);
            let stat = case.run(SchemeKind::Enhanced);
            let opts = AbftOptions::default().with_balance(balance.clone());
            let adap = case.clone().with_opts(opts).run(SchemeKind::Enhanced);
            let (ts, ta) = (stat.time.as_secs(), adap.time.as_secs());
            let gain = (ts - ta) / ts * 100.0;
            let log = adap.balance_log.as_ref().expect("adaptive run keeps a log");
            let (switches, max_k) = (log.switches(), log.max_k());
            let placement = format!("{:?}", stat.opts.placement);
            let gauge = |name: &str| adap.ctx.obs.metrics.gauge(name).unwrap_or(0.0);
            println!(
                "{:<14} n={n:<5} b={block:<4} static({placement:<4}) {ts:>8.4}s adaptive {ta:>8.4}s | gain {gain:>6.2}% switches {switches} max_k {max_k}",
                p.name
            );
            results.push(obj! {
                system: p.name, n, block, static_placement: placement,
                static_secs: ts, adaptive_secs: ta, adaptive_gain_pct: gain, switches, max_k,
                gpu_util: gauge("balance.gpu_util"), cpu_util: gauge("balance.cpu_util"),
                dma_util: gauge("balance.dma_util"), queue_frac: gauge("balance.queue_frac"),
            });
        }
    }
    obj! { scheme: SchemeKind::Enhanced.name(), quick: g.quick, balance, results }
}

/// Adaptive is never worse than static beyond noise, and clearly faster
/// (after at least one migration) where the static placement is wrong.
pub fn balance_check(body: &Value) -> Result<(), String> {
    for r in rows(body, "results") {
        let (system, n) = (text(r, "system"), num(r, "n"));
        let (gain, switches) = (num(r, "adaptive_gain_pct"), num(r, "switches"));
        let skewed = system == "Tardis-Skewed";
        ensure(
            gain > -0.5 && (!skewed || (switches >= 1.0 && gain > 5.0)),
            || format!("{system} n={n}: adaptive gained {gain:.2}% after {switches} switches"),
        )?;
    }
    Ok(())
}

const DEVICES: [usize; 4] = [1, 2, 4, 8];
const SHARD_BLOCK: usize = 256;
const SHARD_SCHEMES: [SchemeKind; 2] = [SchemeKind::Enhanced, SchemeKind::Offline];

/// `n × n` on a grid of `d` GPUs (`d = 1`: unsharded), checksums on the GPUs.
fn sharded(p: &SystemProfile, n: usize, d: usize) -> Case<'_> {
    let o = AbftOptions::default().with_placement(ChecksumPlacement::Gpu);
    let o = if d > 1 {
        o.with_shard(ShardOptions::new(d))
    } else {
        o
    };
    Case::new(p, n, SHARD_BLOCK).with_opts(o)
}

/// Strong scaling (`speedup_vs_one` = t(D=1) / t(D), peer-link traffic,
/// mean per-device busy fraction), weak scaling (n ∝ √D; per-device
/// GFLOP/s, flat is perfect) and a device lost halfway, against the
/// fault-free makespan.
pub fn shard_sweep(g: &Grid) -> Value {
    let block = SHARD_BLOCK;
    let mut strong = Vec::new();
    for p in &g.systems {
        for kind in SHARD_SCHEMES {
            for n in g.sizes(p) {
                let mut t1 = f64::NAN;
                for devices in DEVICES {
                    let out = sharded(p, n, devices).run(kind);
                    let secs = out.time.as_secs();
                    if devices == 1 {
                        t1 = secs;
                    }
                    let m = &out.ctx.obs.metrics;
                    let busy: f64 = (0..devices)
                        .map(|i| m.sum(&format!("shard.dev.{i}.busy_secs")))
                        .sum();
                    let speedup = t1 / secs;
                    let link_gib = m.count("shard.link.bytes") as f64 / (1u64 << 30) as f64;
                    let busy_frac = if devices > 1 && secs > 0.0 {
                        busy / (devices as f64 * secs)
                    } else {
                        0.0
                    };
                    println!(
                        "strong {:<12} {:<13} n={n:<6} D={devices}: {secs:>8.4}s  speedup {speedup:>5.2}x  link {link_gib:>7.3} GiB  busy {:>5.1}%",
                        p.name, kind.name(), busy_frac * 100.0
                    );
                    strong.push(obj! {
                        system: p.name, scheme: kind.name(), n, block, devices, secs,
                        speedup_vs_one: speedup, link_gib, mean_dev_busy_frac: busy_frac,
                    });
                }
            }
        }
    }

    // Weak scaling: per-device tile memory ≈ constant → n ∝ √D, rounded
    // to whole blocks.
    let tardis = SystemProfile::tardis();
    let n_base = if g.quick { 4096usize } else { 8192 };
    let mut weak = Vec::new();
    for kind in SHARD_SCHEMES {
        for devices in DEVICES {
            let n =
                ((n_base as f64 * (devices as f64).sqrt()) / block as f64).round() as usize * block;
            let secs = sharded(&tardis, n, devices).run(kind).time.as_secs();
            let per_device = gflops(n, devices as f64 * secs);
            println!(
                "weak   {:<12} {:<13} n={n:<6} D={devices}: {secs:>8.4}s  {per_device:>8.1} GFLOP/s per device",
                tardis.name,
                kind.name()
            );
            weak.push(obj! {
                system: tardis.name, scheme: kind.name(), n, block, devices, secs,
                per_device_gflops: per_device,
            });
        }
    }

    // Device-loss recovery: the same grid, one device lost halfway.
    let (n, devices) = (if g.quick { 2048usize } else { 8192 }, 4usize);
    let loss_iter = n / block / 2;
    let mut device_loss = Vec::new();
    for kind in SHARD_SCHEMES {
        let tf = sharded(&tardis, n, devices).run(kind).time.as_secs();
        let lost = sharded(&tardis, n, devices)
            .with_faults(FaultPlan::device_loss(1, loss_iter))
            .run(kind);
        assert_eq!(lost.attempts, 1, "recovery must not restart the run");
        let tl = lost.time.as_secs();
        let m = &lost.ctx.obs.metrics;
        let (recovery, pct) = (m.sum("shard.recovery_secs"), overhead_pct(tl, tf));
        println!(
            "loss   {:<12} {:<13} n={n:<6} D={devices}: fault-free {tf:>8.4}s  with loss {tl:>8.4}s  recovery {recovery:>8.4}s  (+{pct:.2}%)",
            tardis.name,
            kind.name()
        );
        device_loss.push(obj! {
            system: tardis.name, scheme: kind.name(), n, block, devices, lost_device: 1usize,
            loss_iter, faultfree_secs: tf, loss_secs: tl, recovery_secs: recovery,
            recovered_tiles: m.count("shard.recovered_tiles"), overhead_pct: pct,
        });
    }
    obj! { quick: g.quick, strong, weak, device_loss }
}

/// At the sweep's largest size four Tardis GPUs beat one for every
/// scheme, and losing a device costs measurable but bounded recovery.
pub fn shard_check(body: &Value) -> Result<(), String> {
    let strong = rows(body, "strong");
    let n_max = strong.iter().map(|r| num(r, "n")).fold(0.0, f64::max);
    let secs = |scheme: &str, d: f64| {
        strong
            .iter()
            .find(|r| {
                (text(r, "system"), text(r, "scheme")) == ("Tardis", scheme)
                    && (num(r, "n"), num(r, "devices")) == (n_max, d)
            })
            .map_or(f64::NAN, |r| num(r, "secs"))
    };
    for kind in SHARD_SCHEMES {
        let (t1, t4) = (secs(kind.name(), 1.0), secs(kind.name(), 4.0));
        ensure(t4 < t1, || {
            format!(
                "{} n={n_max}: D=4 ({t4:.4}s) must beat D=1 ({t1:.4}s)",
                kind.name()
            )
        })?;
    }
    for r in rows(body, "device_loss") {
        let (scheme, pct) = (text(r, "scheme"), num(r, "overhead_pct"));
        ensure(num(r, "recovery_secs") > 0.0, || {
            format!("{scheme}: free recovery")
        })?;
        ensure(pct < 100.0, || {
            format!("{scheme}: recovery more than doubled the run ({pct:.1}%)")
        })?;
    }
    Ok(())
}

/// Fault grid: one computing error and one storage upset at an early and a
/// late iteration, targets in the live lower triangle. The storage bits
/// are f32-sized (exponent bit 27 + mantissa bit 10) so the comparison
/// measures threshold quality, not the separate overflow failure mode.
fn fault_grid(nt: usize) -> Vec<FaultSpec> {
    let mut v = Vec::new();
    for iter in [1usize, nt - 2] {
        for kind in [
            FaultKind::computing(),
            FaultKind::Storage { bits: vec![27, 10] },
        ] {
            v.push(FaultSpec {
                point: InjectionPoint::IterStart { iter },
                target: FaultTarget {
                    bi: (iter + 1).min(nt - 1),
                    bj: iter.min(nt - 2),
                    row: 3,
                    col: 5,
                },
                kind,
            });
        }
    }
    v
}

/// Residual below which a finished factor counts as numerically correct
/// for the precision (clean-run accuracy is ~1e-15 / ~1e-6; correction
/// precision is bounded by the checksum sums' accumulated round-off).
fn correct_bound(dtype: DType) -> f64 {
    match dtype {
        DType::F64 => 1e-11,
        DType::F32 => 2e-3,
    }
}

/// Every event by which verification acted on a tile.
fn detections(v: &VerifyOutcome) -> usize {
    v.corrected_data + v.repaired_checksums + v.uncorrectable_columns + v.tiles_flagged
}

/// One row: the clean run's spurious detections, attempts, residual and
/// virtual seconds (f32 halves the PCIe traffic), then the fault grid's
/// runs, those that ended numerically correct, and those where
/// verification visibly acted.
fn precision_row<S: Scalar>(
    p: &SystemProfile,
    kind: SchemeKind,
    n: usize,
    adaptive: bool,
) -> Value {
    let block = 32usize;
    let a64 = spd_diag_dominant(n, 7);
    let a = Matrix::<S>::from_fn(n, n, |i, j| S::from_f64(a64.get(i, j)));
    let mut opts = AbftOptions {
        max_restarts: 2,
        ..AbftOptions::default()
    };
    if adaptive {
        opts = opts.with_adaptive_tolerance();
    }
    let case = Case::new(p, n, block).with_opts(opts);
    let clean = case.execute(kind, &a);
    let (mut fault_runs, mut fault_runs_correct, mut fault_runs_detected) =
        (0usize, 0usize, 0usize);
    for spec in fault_grid(n / block) {
        let out = case
            .clone()
            .with_faults(FaultPlan::single(spec))
            .execute(kind, &a);
        fault_runs += 1;
        fault_runs_correct +=
            usize::from(!out.failed && residual(&out, &a) < correct_bound(S::DTYPE));
        fault_runs_detected += usize::from(detections(&out.verify) > 0 || out.attempts > 1);
    }
    let (scheme, dtype) = (kind.name(), S::DTYPE.name());
    let tolerance = if adaptive { "adaptive" } else { "fixed" };
    let (fp, resid) = (detections(&clean.verify), residual(&clean, &a));
    let attempts = clean.attempts;
    println!(
        "{scheme:<20} {dtype:<4} {tolerance:<8} n={n:<5} clean fp={fp} attempts={attempts} resid={resid:.2e} | faults {fault_runs_correct}/{fault_runs} correct, {fault_runs_detected}/{fault_runs} detected"
    );
    obj! {
        scheme, dtype, tolerance, n, block, clean_false_positives: fp, clean_attempts: attempts,
        clean_residual: resid, fault_runs, fault_runs_correct, fault_runs_detected,
        clean_virtual_secs: clean.time.as_secs(),
    }
}

/// A clean run and a fault campaign at f64 and f32, under the fixed and
/// the adaptive tolerance.
pub fn precision_sweep(g: &Grid) -> Value {
    let p = &g.systems[0];
    // The quick grid leaves Online out.
    let schemes = SchemeKind::all()
        .into_iter()
        .filter(|&k| !g.quick || k != SchemeKind::Online);
    let mut results = Vec::new();
    for n in g.sizes(p) {
        for kind in schemes.clone() {
            for adaptive in [false, true] {
                results.push(precision_row::<f64>(p, kind, n, adaptive));
                results.push(precision_row::<f32>(p, kind, n, adaptive));
            }
        }
    }
    obj! { quick: g.quick, results }
}

/// Adaptive at f32 stays free of false positives and ends every faulted
/// run numerically correct (a fault it leaves undetected fell below the
/// adaptive threshold — by construction insignificant at the precision);
/// fixed at f32 visibly misbehaves somewhere, the contrast the sweep is
/// for.
pub fn precision_check(body: &Value) -> Result<(), String> {
    let rows = rows(body, "results");
    let f32_rows = |tolerance: &'static str| {
        rows.iter()
            .filter(move |r| (text(r, "dtype"), text(r, "tolerance")) == ("f32", tolerance))
    };
    ensure(
        f32_rows("adaptive").all(|r| {
            num(r, "clean_false_positives") == 0.0
                && num(r, "clean_attempts") == 1.0
                && num(r, "fault_runs_correct") == num(r, "fault_runs")
        }),
        || "adaptive tolerance lost its f32 guarantees".into(),
    )?;
    ensure(
        f32_rows("fixed").any(|r| {
            num(r, "clean_false_positives") > 0.0
                || num(r, "clean_attempts") > 1.0
                || num(r, "clean_residual").is_nan()
        }),
        || "fixed f64 thresholds unexpectedly survived f32 round-off".into(),
    )
}

pub fn batch_sweep(g: &Grid) -> Value {
    let n = g.n(&g.systems[0]);
    let mut results = Vec::new();
    for p in &g.systems {
        for kind in SchemeKind::all() {
            for batch in [1usize, 4, 8] {
                let (b, scheme) = (64usize, kind.name());
                let (sequential_secs, batched_secs) = Case::new(p, n, b).batched(kind, batch);
                let speedup = sequential_secs / batched_secs;
                println!(
                    "{:<12} {scheme:<22} B={batch}: sequential {sequential_secs:.4}s, batched {batched_secs:.4}s, {speedup:.2}x",
                    p.name
                );
                let result = obj! { scheme, n, b, batch, sequential_secs, batched_secs, speedup };
                results.push(obj! { system: p.name, result });
            }
        }
    }
    obj! { n, quick: g.quick, results }
}

/// FNV-1a over the factor's bits, row-major.
fn hash_factor(m: &Matrix) -> u64 {
    let (rows, cols) = m.shape();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..rows {
        for j in 0..cols {
            for byte in m.get(i, j).to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Rewrite `tests/fixtures/golden/`: per configuration, the serialized
/// `RunReport` and an FNV-1a hash of the factor bits (Execute mode).
pub fn golden_capture(g: &Grid) {
    let (p, b) = (&g.systems[0], 32usize);
    let default = AbftOptions::default;
    let mut configs = Vec::new();
    for kind in SchemeKind::all() {
        for n in g.sizes(p) {
            configs.push((kind, n, default(), false, "clean"));
            configs.push((kind, n, default(), true, "faulted"));
        }
    }
    // Option-space corners: CPU placement (mirror/flush path), the
    // unoptimized baseline (inline updates, serial recalc), K-gated verify.
    let (enhanced, cpu) = (SchemeKind::Enhanced, ChecksumPlacement::Cpu);
    configs.push((enhanced, 192, default().with_placement(cpu), false, "cpu"));
    configs.push((enhanced, 192, AbftOptions::unoptimized(), false, "unopt"));
    configs.push((enhanced, 256, default().with_interval(4), false, "k4"));
    // (slug, report JSON, factor hash)
    let mut cases: Vec<(String, String, u64)> = Vec::new();
    for (kind, n, opts, faulted, tag) in configs {
        let nt = n / b;
        let plan = if faulted {
            FaultPlan::paper_computing_error(nt, b).merged(FaultPlan::paper_storage_error(nt, b))
        } else {
            FaultPlan::none()
        };
        let a = spd_diag_dominant(n, 7);
        let out = Case::new(p, n, b)
            .with_opts(opts)
            .with_faults(plan)
            .execute(kind, &a);
        let report = serde_json::to_string(&out.report()).expect("report serializes");
        let hash = hash_factor(out.factor.as_ref().expect("Execute mode yields a factor"));
        cases.push((format!("{kind:?}_{n}_{tag}").to_lowercase(), report, hash));
    }
    let (n, a) = (192usize, spd_diag_dominant(192, 7));
    let magma = factor_magma(p, ExecMode::Execute, n, b, Some(&a), false).expect("magma runs");
    let cula = factor_cula(p, ExecMode::Execute, n, b, Some(&a)).expect("cula runs");
    for (name, display, rep) in [
        ("magma", "MAGMA hybrid", magma),
        ("cula", "CULA dpotrf", cula),
    ] {
        let report = serde_json::to_string(&rep.report(display)).expect("report serializes");
        let hash = hash_factor(rep.factor.as_ref().expect("Execute mode yields a factor"));
        cases.push((format!("{name}_{n}"), report, hash));
    }

    let dir = "tests/fixtures/golden";
    let mut manifest = String::from("{\n");
    for (i, (slug, report, hash)) in cases.iter().enumerate() {
        g.write(&format!("{dir}/{slug}.report.json"), report);
        let sep = if i + 1 == cases.len() { "" } else { "," };
        manifest.push_str(&format!("  \"{slug}\": \"{hash:016x}\"{sep}\n"));
    }
    manifest.push_str("}\n");
    g.write(&format!("{dir}/factors.json"), &manifest);
    println!("wrote {} fixtures", cases.len());
}
