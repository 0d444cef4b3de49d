//! Multi-device sharding suite.
//!
//! The sharded executor must be *invisible* in the factor bits: splitting
//! the panel updates across D devices changes only the schedule, never a
//! single tile's accumulation order, so every sharded run — including one
//! that loses a whole device mid-factorization and rebuilds it from XOR
//! parity — must produce the exact bits of the plain single-device run.

mod common;

use common::replayed_plans;
use hchol_analyze::{check_coverage, check_liveness, check_plan};
use hchol_core::options::{AbftOptions, BalanceOptions, ChecksumPlacement, ShardOptions};
use hchol_core::schemes::{run_clean, run_scheme, SchemeKind};
use hchol_faults::FaultPlan;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;
use hchol_matrix::generate::spd_diag_dominant;
use hchol_matrix::{Matrix, MatrixError};

fn hash_factor(m: &Matrix) -> u64 {
    let (rows, cols) = m.shape();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..rows {
        for j in 0..cols {
            for byte in m.get(i, j).to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn gpu_opts() -> AbftOptions {
    AbftOptions::default().with_placement(ChecksumPlacement::Gpu)
}

fn sharded_opts(d: usize) -> AbftOptions {
    gpu_opts().with_shard(ShardOptions::new(d))
}

/// The unsharded options sharding composes with: GPU updates, fused
/// epilogues (every deposit lands in a checksum row the depositing device
/// owns) and inline updates (on the owning GPU's compute stream).
fn composed_opts() -> [(&'static str, AbftOptions); 3] {
    [
        ("gpu", gpu_opts()),
        ("fused", gpu_opts().with_chk_fused(true)),
        (
            "inline",
            AbftOptions::default().with_placement(ChecksumPlacement::Inline),
        ),
    ]
}

/// Factor hash of the plain (unsharded) GPU-placement run.
fn baseline_hash(kind: SchemeKind, n: usize, b: usize) -> u64 {
    let a = spd_diag_dominant(n, 7);
    let out = run_clean(
        kind,
        &SystemProfile::tardis(),
        ExecMode::Execute,
        n,
        b,
        &gpu_opts(),
        Some(&a),
    )
    .expect("baseline run");
    assert!(!out.failed);
    hash_factor(out.factor.as_ref().expect("factor"))
}

#[test]
fn sharded_factor_bits_match_unsharded_for_all_schemes() {
    let n = 256;
    let b = 32;
    for kind in SchemeKind::all() {
        let want = baseline_hash(kind, n, b);
        for (name, opts) in composed_opts() {
            for d in [2usize, 3, 4] {
                let a = spd_diag_dominant(n, 7);
                let out = run_clean(
                    kind,
                    &SystemProfile::tardis(),
                    ExecMode::Execute,
                    n,
                    b,
                    &opts.clone().with_shard(ShardOptions::new(d)),
                    Some(&a),
                )
                .unwrap_or_else(|e| panic!("{kind:?} {name} D={d}: {e}"));
                assert!(!out.failed, "{kind:?} {name} D={d} failed");
                assert_eq!(out.opts.placement, opts.placement, "{name}: placement kept");
                assert_eq!(
                    hash_factor(out.factor.as_ref().unwrap()),
                    want,
                    "{kind:?} {name} D={d}: sharded factor bits diverged"
                );
                let m = &out.ctx.obs.metrics;
                assert_eq!(m.gauge("shard.devices"), Some(d as f64));
                assert!(m.count("shard.link.transfers") > 0);
                let fused = m.count("verify.fused.batches") > 0;
                assert_eq!(fused, opts.chk_fused && kind == SchemeKind::Enhanced);
            }
        }
    }
}

#[test]
fn one_device_sharding_is_a_complete_noop() {
    // `devices: 1` must not even tint the report: same plan, same
    // schedule, same serialized RunReport as the unsharded run.
    let n = 192;
    let b = 32;
    let a = spd_diag_dominant(n, 7);
    let plain = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis(),
        ExecMode::Execute,
        n,
        b,
        &gpu_opts(),
        Some(&a),
    )
    .unwrap();
    let d1 = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis(),
        ExecMode::Execute,
        n,
        b,
        &sharded_opts(1),
        Some(&a),
    )
    .unwrap();
    assert_eq!(
        hash_factor(plain.factor.as_ref().unwrap()),
        hash_factor(d1.factor.as_ref().unwrap())
    );
    assert_eq!(
        serde_json::to_string(&plain.report()).unwrap(),
        serde_json::to_string(&d1.report()).unwrap(),
        "D=1 sharding must leave the report byte-identical"
    );
}

#[test]
fn device_loss_recovery_is_bit_identical_to_fault_free() {
    for &(n, d) in &[(256usize, 2usize), (256, 4), (512, 2), (512, 4)] {
        let b = 32;
        let nt = n / b;
        for kind in [SchemeKind::Enhanced, SchemeKind::Online] {
            let want = {
                let a = spd_diag_dominant(n, 7);
                let out = run_clean(
                    kind,
                    &SystemProfile::tardis(),
                    ExecMode::Execute,
                    n,
                    b,
                    &sharded_opts(d),
                    Some(&a),
                )
                .unwrap();
                hash_factor(out.factor.as_ref().unwrap())
            };
            let a = spd_diag_dominant(n, 7);
            let lost = run_scheme(
                kind,
                &SystemProfile::tardis(),
                ExecMode::Execute,
                n,
                b,
                &sharded_opts(d),
                FaultPlan::device_loss(1, nt / 2),
                Some(&a),
            )
            .unwrap_or_else(|e| panic!("{kind:?} n={n} D={d}: {e}"));
            assert!(!lost.failed, "{kind:?} n={n} D={d}: device-loss run failed");
            assert_eq!(lost.attempts, 1, "recovery must not restart the run");
            assert_eq!(
                hash_factor(lost.factor.as_ref().unwrap()),
                want,
                "{kind:?} n={n} D={d}: factor bits diverged after device loss"
            );
            let m = &lost.ctx.obs.metrics;
            assert!(
                m.sum("shard.recovery_secs") > 0.0,
                "recovery overhead must be accounted"
            );
            assert!(m.count("shard.recovered_tiles") > 0);
            let kinds: Vec<&str> = lost
                .ctx
                .obs
                .events
                .iter()
                .map(|e| e.kind.as_str())
                .collect();
            assert!(kinds.contains(&"device.lost"));
            assert!(kinds.contains(&"device.recovered"));
        }
    }
}

#[test]
fn device_loss_at_first_and_last_iteration_recovers() {
    let n = 256;
    let b = 32;
    let nt = n / b;
    let want = {
        let a = spd_diag_dominant(n, 7);
        let out = run_clean(
            SchemeKind::Enhanced,
            &SystemProfile::tardis(),
            ExecMode::Execute,
            n,
            b,
            &sharded_opts(2),
            Some(&a),
        )
        .unwrap();
        hash_factor(out.factor.as_ref().unwrap())
    };
    for at_iter in [0, nt - 1] {
        let a = spd_diag_dominant(n, 7);
        let out = run_scheme(
            SchemeKind::Enhanced,
            &SystemProfile::tardis(),
            ExecMode::Execute,
            n,
            b,
            &sharded_opts(2),
            FaultPlan::device_loss(0, at_iter),
            Some(&a),
        )
        .unwrap();
        assert!(!out.failed);
        assert_eq!(
            hash_factor(out.factor.as_ref().unwrap()),
            want,
            "loss at iteration {at_iter} diverged"
        );
    }
}

#[test]
fn element_faults_are_still_corrected_under_sharding() {
    // Sharding must not loosen the ABFT net: the paper's computing-error
    // scenario is detected and corrected exactly as on one device.
    let n = 256;
    let b = 32;
    let nt = n / b;
    // Reference: the same fault corrected on one device (a correction is
    // checksum arithmetic, so it need not match the *clean* bits — but
    // sharded and unsharded corrections must agree exactly).
    let want = {
        let a = spd_diag_dominant(n, 7);
        let out = run_scheme(
            SchemeKind::Enhanced,
            &SystemProfile::tardis(),
            ExecMode::Execute,
            n,
            b,
            &gpu_opts(),
            FaultPlan::paper_computing_error(nt, b),
            Some(&a),
        )
        .unwrap();
        assert!(!out.failed);
        hash_factor(out.factor.as_ref().unwrap())
    };
    let a = spd_diag_dominant(n, 7);
    let out = run_scheme(
        SchemeKind::Enhanced,
        &SystemProfile::tardis(),
        ExecMode::Execute,
        n,
        b,
        &sharded_opts(2),
        FaultPlan::paper_computing_error(nt, b),
        Some(&a),
    )
    .unwrap();
    assert!(!out.failed);
    assert!(
        out.verify.corrected_data > 0,
        "the injected fault must be caught"
    );
    assert_eq!(hash_factor(out.factor.as_ref().unwrap()), want);
}

#[test]
fn non_composing_options_are_refused() {
    let n = 128;
    let b = 32;
    let a = spd_diag_dominant(n, 7);
    let refuse = |opts: &AbftOptions| {
        let r = run_clean(
            SchemeKind::Enhanced,
            &SystemProfile::tardis(),
            ExecMode::Execute,
            n,
            b,
            opts,
            Some(&a),
        );
        match r {
            Err(MatrixError::UnsupportedConfig(_)) => {}
            Err(e) => panic!("expected UnsupportedConfig, got {e:?}"),
            Ok(_) => panic!("expected UnsupportedConfig, got a completed run"),
        }
    };
    refuse(&sharded_opts(2).with_placement(ChecksumPlacement::Cpu));
}

/// Sharding × balance: the law migrates no sharded run, so the balancer
/// adapts `K` alone. For every scheme, `D ∈ {2, 3, 4}`, plain
/// and fused (Enhanced only): the factor bits equal the unbalanced sharded
/// run's, nothing switches, `K` relaxes in three rewrites, the recorded
/// schedule is clean, and every rewritten plan — rebuilt from the log —
/// passes the contract, liveness and coverage checks. Losing device 1 at
/// iteration 5 recovers in one attempt with the same bits.
#[test]
fn balanced_sharded_runs_keep_the_unbalanced_bits() {
    let (n, b) = (512, 32);
    let a = spd_diag_dominant(n, 7);
    let balance = BalanceOptions::default()
        .with_update_interval(2)
        .with_k_bounds(1, 4);
    for kind in SchemeKind::all() {
        let fused: &[bool] = if kind == SchemeKind::Enhanced {
            &[false, true]
        } else {
            &[false]
        };
        for (&fused, d) in fused.iter().flat_map(|f| [2usize, 3, 4].map(|d| (f, d))) {
            let what = format!("{kind:?} D={d} fused={fused}");
            let run = |opts: &AbftOptions, plan| {
                let p = SystemProfile::tardis();
                let out = run_scheme(kind, &p, ExecMode::Execute, n, b, opts, plan, Some(&a))
                    .unwrap_or_else(|e| panic!("{what}: {e:?}"));
                assert!(!out.failed, "{what}");
                assert_eq!(out.attempts, 1, "{what}");
                out
            };
            let opts = sharded_opts(d).with_chk_fused(fused);
            let want = hash_factor(run(&opts, FaultPlan::none()).factor.as_ref().unwrap());
            let opts = opts.with_balance(balance.clone());
            let out = run(&opts, FaultPlan::none());
            assert_eq!(hash_factor(out.factor.as_ref().unwrap()), want, "{what}");
            let log = out.balance_log.as_ref().unwrap();
            assert_eq!((log.switches(), log.rewrites.len()), (0, 3), "{what}");
            let analysis = hchol_analyze::analyze_outcome(&out);
            assert!(analysis.is_clean(), "{what}:\n{}", analysis.render_text());
            // Check each rewritten plan under the loosest K installed so
            // far (a rewrite re-gates future iterations only).
            let mut loosest = out.opts.verify_interval;
            for (rw, plan) in replayed_plans(kind, n / b, &out, false) {
                loosest = loosest.max(rw.k);
                let state = out.opts.clone().with_interval(loosest);
                let chk = check_plan(kind, &plan, &state);
                assert!(chk.is_clean(), "{what}:\n{}", chk.render_text());
                let live = check_liveness(kind, &plan, &state);
                assert!(live.is_live(), "{what}:\n{}", live.render_text());
                let cov = check_coverage(kind, &plan, &state);
                assert!(cov.is_covered(), "{what}:\n{}", cov.render_text());
            }
            let lost = run(&opts, FaultPlan::device_loss(1, 5));
            assert_eq!(
                hash_factor(lost.factor.as_ref().unwrap()),
                want,
                "{what}: device loss"
            );
        }
    }
}

#[test]
fn device_loss_under_fused_epilogues_recovers_in_one_attempt() {
    let (n, b) = (256, 32);
    let a = spd_diag_dominant(n, 7);
    let opts = sharded_opts(3).with_chk_fused(true);
    let out = run_scheme(
        SchemeKind::Enhanced,
        &SystemProfile::tardis(),
        ExecMode::Execute,
        n,
        b,
        &opts,
        FaultPlan::device_loss(1, 3),
        Some(&a),
    )
    .expect("fused device-loss run");
    assert!(!out.failed);
    assert_eq!(out.attempts, 1, "recovery must not restart the run");
    assert!(out.ctx.obs.metrics.count("shard.recovered_tiles") > 0);
    assert_eq!(
        hash_factor(out.factor.as_ref().unwrap()),
        baseline_hash(SchemeKind::Enhanced, n, b),
        "fused factor bits diverged after device loss"
    );
}

#[test]
fn sharded_schedules_are_race_free_and_conformant() {
    // The recorded multi-device program — broadcasts riding the ring,
    // per-shard panel slices, split verify pairs, parity refreshes — must
    // order every true dependency through streams and events alone. The
    // vector-clock analyzer re-proves each scheme's run race-free and
    // conformant with its ABFT protocol, now across device boundaries.
    use hchol_analyze::{analyze_outcome, Protocol};
    for kind in SchemeKind::all() {
        for (name, opts) in composed_opts() {
            for d in [2usize, 3, 4] {
                let out = run_clean(
                    kind,
                    &SystemProfile::tardis(),
                    ExecMode::TimingOnly,
                    256,
                    32,
                    &opts.clone().with_shard(ShardOptions::new(d)),
                    None,
                )
                .unwrap();
                let analysis = analyze_outcome(&out);
                assert_eq!(
                    analysis.protocol,
                    Some(Protocol::for_scheme(kind)),
                    "{kind:?} {name} D={d}: clean sharded run must get the strict check"
                );
                assert!(
                    analysis.is_clean(),
                    "{kind:?} {name} D={d}:\n{}",
                    analysis.render_text()
                );
            }
        }
    }
}

#[test]
fn dropped_recv_sync_is_a_cross_device_race() {
    // Mutation control for the analyzer: dropping the waits every
    // `DeviceRecv` issued from the recorded run leaves a consumer's panel
    // read ordered against the owner's writes by scheduling luck only.
    // Offline is the honest victim — Enhanced and Online host-sync every
    // iteration to compare checksums, which happens to re-order the panel
    // reads through the host even without the receive edge.
    use hchol_analyze::{analyze_schedule, drop_recv_waits, RaceKind};
    let (n, b) = (256, 32);
    let out = run_clean(
        SchemeKind::Offline,
        &SystemProfile::tardis(),
        ExecMode::TimingOnly,
        n,
        b,
        &sharded_opts(2),
        None,
    )
    .unwrap();
    // Control: with the waits in place the run is clean.
    assert!(analyze_schedule(&out.ctx.log).is_clean());
    let plan = hchol_core::plan::for_scheme(SchemeKind::Offline, n / b, &out.opts, false);
    let mut racy = out.ctx.log.clone();
    drop_recv_waits(&mut racy, &plan);
    assert!(racy.len() < out.ctx.log.len());
    let analysis = analyze_schedule(&racy);
    assert!(
        analysis.races.iter().any(|r| r.kind == RaceKind::Raw),
        "dropping the recv waits must surface a cross-device RAW race:\n{}",
        analysis.render_text()
    );
}

#[test]
fn sharded_runs_expose_device_lanes_and_metrics() {
    // Observability satellite: a sharded run renders per-device peer-link
    // lanes on the timeline and accounts busy time and link traffic per
    // device under the registered `shard.*` names.
    use hchol_gpusim::Lane;
    let d = 4usize;
    let mut opts = sharded_opts(d);
    opts.record_timeline = true;
    let out = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis(),
        ExecMode::TimingOnly,
        512,
        64,
        &opts,
        None,
    )
    .unwrap();
    let tl = &out.ctx.log;
    for dev in 0..d {
        assert!(
            tl.lane_busy(Lane::DevLink(dev)).as_secs() > 0.0,
            "device {dev} never used its peer link"
        );
    }
    let gantt = tl.ascii_gantt(72);
    assert!(
        gantt.contains("link/dev0") && gantt.contains("link/dev3"),
        "{gantt}"
    );
    let m = &out.ctx.obs.metrics;
    for dev in 0..d {
        assert!(
            m.sum(&format!("shard.dev.{dev}.busy_secs")) > 0.0,
            "device {dev} has no busy-time accounting"
        );
        assert!(hchol_obs::names::metric_registered("shard.dev.*.busy_secs"));
    }
    assert!(m.count("shard.link.bytes") > 0);
    // One refresh per column at setup, one as each iteration finalizes it.
    assert_eq!(m.count("shard.parity_refreshes"), 2 * (512 / 64) as u64);
}

#[test]
fn sharding_scales_the_panel_work() {
    // Strong-scaling sanity on the virtual clock: once the per-iteration
    // panel is big enough to amortize broadcast and parity traffic, four
    // devices beat one (the crossover sits near n=4096 on Tardis — see
    // EXPERIMENTS.md).
    let n = 8192;
    let b = 256;
    for kind in [SchemeKind::Enhanced, SchemeKind::Offline] {
        let t1 = run_clean(
            kind,
            &SystemProfile::tardis(),
            ExecMode::TimingOnly,
            n,
            b,
            &gpu_opts(),
            None,
        )
        .unwrap()
        .time;
        let t4 = run_clean(
            kind,
            &SystemProfile::tardis(),
            ExecMode::TimingOnly,
            n,
            b,
            &sharded_opts(4),
            None,
        )
        .unwrap()
        .time;
        assert!(
            t4 < t1,
            "{kind:?}: D=4 ({:.4}s) should beat D=1 ({:.4}s) at n={n}",
            t4.as_secs(),
            t1.as_secs()
        );
    }
}
