//! Property-based closure of the configuration space: every syntactically
//! expressible [`AbftOptions`] either passes the composition matrix
//! ([`hchol_core::validate_options`], DESIGN.md §12) and then builds a
//! plan that is **contract-clean, fully fault-covered, and live** for
//! every scheme — or is refused with a typed
//! [`MatrixError::UnsupportedConfig`]. There is no third outcome: no
//! panic, no silently degraded plan, no uncovered site.

use hchol_analyze::{check_coverage, check_liveness, check_plan};
use hchol_core::options::{AbftOptions, BalanceOptions, ChecksumPlacement, ShardOptions};
use hchol_core::plan::for_scheme;
use hchol_core::schemes::SchemeKind;
use hchol_core::validate_options;
use hchol_matrix::MatrixError;
use proptest::prelude::*;

/// Build an arbitrary options value from raw proptest scalars. Placement
/// is pinned away from `Auto` because plan construction needs a resolved
/// placement (the drivers resolve `Auto` against a system profile first).
#[allow(clippy::too_many_arguments)]
fn build_opts(
    placement: u8,
    k: usize,
    fused: bool,
    restarts: usize,
    lookahead: usize,
    balanced: bool,
    k_bounds: (usize, usize),
    devices: usize,
) -> AbftOptions {
    let mut o = AbftOptions::default()
        .with_interval(k)
        .with_chk_fused(fused)
        .with_placement(match placement % 3 {
            0 => ChecksumPlacement::Gpu,
            1 => ChecksumPlacement::Cpu,
            _ => ChecksumPlacement::Inline,
        });
    o.max_restarts = restarts;
    o.lookahead = lookahead;
    if balanced {
        o = o.with_balance(BalanceOptions::default().with_k_bounds(k_bounds.0, k_bounds.1));
    }
    if devices > 1 {
        o = o.with_shard(ShardOptions::new(devices));
    }
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Accepted configurations prove the whole static tower; refused ones
    /// carry a typed reason. Nothing panics either way.
    #[test]
    fn every_config_is_clean_or_typed_refused(
        placement in 0u8..3,
        k in 1usize..5,
        fused in any::<bool>(),
        restarts in 0usize..3,
        lookahead in 0usize..3,
        balanced in any::<bool>(),
        k_lo in 1usize..3,
        k_hi in 1usize..5,
        devices in 1usize..5,
        nt in 3usize..7,
    ) {
        let opts = build_opts(
            placement, k, fused, restarts, lookahead,
            balanced, (k_lo, k_hi), devices,
        );
        match validate_options(&opts) {
            Ok(()) => {
                for kind in SchemeKind::all() {
                    // The fused rewrite only applies to Enhanced; other
                    // schemes ignore the flag, which is also part of the
                    // "no third outcome" contract: the plan still checks.
                    let plan = for_scheme(kind, nt, &opts, false);
                    let chk = check_plan(kind, &plan, &opts);
                    prop_assert!(
                        chk.is_clean(),
                        "{} nt={nt} {opts:?}:\n{}", kind.name(), chk.render_text()
                    );
                    let cov = check_coverage(kind, &plan, &opts);
                    prop_assert!(cov.total_sites() > 0);
                    // With restarts forbidden the restart rung vanishes;
                    // only then may sites be uncovered.
                    if opts.max_restarts >= 1 {
                        prop_assert!(
                            cov.is_covered(),
                            "{} nt={nt} {opts:?}:\n{}", kind.name(), cov.render_text()
                        );
                    }
                    let live = check_liveness(kind, &plan, &opts);
                    prop_assert!(
                        live.is_live(),
                        "{} nt={nt} {opts:?}:\n{}", kind.name(), live.render_text()
                    );
                }
            }
            Err(MatrixError::UnsupportedConfig(reason)) => {
                prop_assert!(!reason.is_empty());
            }
            Err(other) => {
                prop_assert!(false, "refusal must be typed UnsupportedConfig, got {other:?}");
            }
        }
    }
}

/// The composition matrix is the same gate `run_scheme` applies: a
/// `validate_options` refusal and a `run_scheme` refusal agree, reason
/// for reason. The list is every refusal arm `validate_options` has; the
/// combinations it no longer refuses run.
#[test]
fn run_scheme_refusals_match_validate_options() {
    use hchol_gpusim::profile::SystemProfile;
    use hchol_gpusim::ExecMode;
    let run = |opts: &AbftOptions| {
        hchol_core::run_scheme(
            SchemeKind::Enhanced,
            &SystemProfile::test_profile(),
            ExecMode::TimingOnly,
            96,
            16,
            opts,
            hchol_faults::FaultPlan::none(),
            None,
        )
    };
    let sharded = AbftOptions::default().with_shard(ShardOptions::new(2));
    let refused = [
        AbftOptions::default().with_shard(ShardOptions::new(1025)),
        sharded.clone().with_placement(ChecksumPlacement::Cpu),
    ];
    for opts in refused {
        let expect = validate_options(&opts).expect_err("matrix refuses");
        let got = match run(&opts) {
            Err(e) => e,
            Ok(_) => panic!("run_scheme must refuse {opts:?}"),
        };
        assert_eq!(format!("{expect:?}"), format!("{got:?}"));
    }
    let composed = [
        sharded.clone().with_chk_fused(true),
        sharded.clone().with_placement(ChecksumPlacement::Inline),
        AbftOptions::default()
            .with_balance(BalanceOptions::default())
            .with_chk_fused(true),
        sharded.clone().with_balance(BalanceOptions::default()),
        AbftOptions::default()
            .with_balance(BalanceOptions::default())
            .with_lookahead(2),
    ];
    for opts in composed {
        assert_eq!(validate_options(&opts), Ok(()), "{opts:?}");
        assert!(run(&opts).is_ok(), "run_scheme must run {opts:?}");
    }
}

/// `BalanceOptions`' fields are public, so a literal can carry `K` bounds
/// no builder would produce (crossed, or zero). The controller normalises
/// them as `with_k_bounds` does: such a run completes with every decision
/// inside the normalised bounds — it must never panic.
#[test]
fn unnormalised_balance_literals_run() {
    use hchol_gpusim::profile::SystemProfile;
    use hchol_gpusim::ExecMode;
    let literals = [
        BalanceOptions {
            k_min: 3,
            k_max: 2,
            ..Default::default()
        },
        BalanceOptions {
            k_max: 0,
            ..Default::default()
        },
        BalanceOptions {
            k_min: 0,
            k_max: 0,
            update_interval: 0,
        },
    ];
    for lit in literals {
        let (lo, hi) = (lit.k_min.max(1), lit.k_max.max(lit.k_min.max(1)));
        let out = hchol_core::run_scheme(
            SchemeKind::Enhanced,
            &SystemProfile::test_profile(),
            ExecMode::TimingOnly,
            96,
            16,
            &AbftOptions::default().with_balance(lit.clone()),
            hchol_faults::FaultPlan::none(),
            None,
        )
        .unwrap_or_else(|e| panic!("{lit:?}: a legal composition must run, got {e:?}"));
        let log = out.balance_log.expect("balanced run keeps a log");
        assert!(!log.decisions.is_empty(), "{lit:?}: the controller woke");
        assert!(
            log.decisions.iter().all(|d| (lo..=hi).contains(&d.k)),
            "{lit:?}: K left [{lo}, {hi}]: {:?}",
            log.decisions
        );
    }
}

/// Options-literal closure: each settable value of [`AbftOptions`] and its
/// nested structs, varied alone from its default — over `{0, 1, a typical
/// value, usize::MAX}`, an enum over all its variants, a flag both ways —
/// runs every scheme in TimingOnly at n = 64, b = 16 to `Ok` or a typed
/// `Err`. Never a panic.
#[test]
fn every_options_literal_runs_or_is_refused() {
    use hchol_core::options::ToleranceModel;
    use hchol_gpusim::profile::SystemProfile;
    use hchol_gpusim::ExecMode;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let with = |f: &dyn Fn(&mut AbftOptions)| {
        let mut o = AbftOptions::default();
        f(&mut o);
        o
    };
    let balanced = |f: &dyn Fn(&mut BalanceOptions)| {
        let mut b = BalanceOptions::default();
        f(&mut b);
        with(&|o| o.balance = Some(b.clone()))
    };
    let mut cases: Vec<(String, AbftOptions)> = Vec::new();
    let placements = [
        ChecksumPlacement::Inline,
        ChecksumPlacement::Gpu,
        ChecksumPlacement::Cpu,
        ChecksumPlacement::Auto,
    ];
    for p in placements {
        cases.push((format!("{p:?}"), with(&|o| o.placement = p)));
    }
    for t in [ToleranceModel::Fixed, ToleranceModel::Adaptive] {
        cases.push((format!("{t:?}"), with(&|o| o.tolerance = t)));
    }
    for on in [false, true] {
        cases.extend([
            (
                format!("concurrent_recalc {on}"),
                with(&|o| o.concurrent_recalc = on),
            ),
            (
                format!("record_timeline {on}"),
                with(&|o| o.record_timeline = on),
            ),
            (
                format!("trace_schedule {on}"),
                with(&|o| o.trace_schedule = on),
            ),
            (format!("chk_fused {on}"), with(&|o| o.chk_fused = on)),
            (
                format!("report_recalc_secs {on}"),
                with(&|o| o.report_recalc_secs = on),
            ),
        ]);
    }
    // Each count over {0, 1, a typical value, usize::MAX}.
    let values = |typical: usize| [0, 1, typical, usize::MAX];
    for v in values(3) {
        cases.push((
            format!("verify_interval {v}"),
            with(&|o| o.verify_interval = v),
        ));
    }
    for v in values(2) {
        cases.extend([
            (format!("max_restarts {v}"), with(&|o| o.max_restarts = v)),
            (format!("lookahead {v}"), with(&|o| o.lookahead = v)),
            (
                format!("update_interval {v}"),
                balanced(&|b| b.update_interval = v),
            ),
            (format!("k_min {v}"), balanced(&|b| b.k_min = v)),
            (
                format!("devices {v}"),
                with(&|o| o.shard = Some(ShardOptions { devices: v })),
            ),
        ]);
    }
    for v in values(4) {
        cases.push((format!("k_max {v}"), balanced(&|b| b.k_max = v)));
    }
    cases.extend([
        ("balance None".into(), with(&|o| o.balance = None)),
        ("balance Some".into(), balanced(&|_| ())),
        ("shard None".into(), with(&|o| o.shard = None)),
        (
            "shard Some".into(),
            with(&|o| o.shard = Some(ShardOptions::new(2))),
        ),
    ]);

    let profile = SystemProfile::test_profile();
    let run = |kind, opts: &AbftOptions| {
        let none = hchol_faults::FaultPlan::none();
        let mode = ExecMode::TimingOnly;
        hchol_core::run_scheme(kind, &profile, mode, 64, 16, opts, none, None).map(|_| ())
    };
    let mut panicked = Vec::new();
    for (name, opts) in &cases {
        for kind in SchemeKind::all() {
            if catch_unwind(AssertUnwindSafe(|| run(kind, opts))).is_err() {
                panicked.push(format!("{name} {kind:?}"));
            }
        }
    }
    assert!(panicked.is_empty(), "panicked: {panicked:?}");
    // The device bound's edge: a run may span 1024 devices, not 1025.
    let sharded = |d| with(&|o| o.shard = Some(ShardOptions::new(d)));
    for kind in SchemeKind::all() {
        assert_eq!(run(kind, &sharded(1024)), Ok(()), "{kind:?}: 1024 devices");
        let refused = run(kind, &sharded(1025));
        assert!(
            matches!(refused, Err(MatrixError::UnsupportedConfig(_))),
            "{kind:?}: 1025 devices: {refused:?}"
        );
    }
}
