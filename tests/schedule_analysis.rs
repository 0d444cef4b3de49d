//! Integration: vector-clock schedule analysis of every driver's program.
//!
//! The simulator executes numerics eagerly while timing an overlapped
//! schedule — sound only if the drivers order every true dependency through
//! streams, events, and syncs. Each kernel declares its tile accesses; this
//! suite replays every driver configuration's recorded program through
//! `hchol-analyze` and requires it race-free *and* conformant with the
//! scheme's ABFT protocol. Controls at the end show the analyzer has teeth:
//! a deliberately unsynchronized program is flagged, and an Enhanced
//! schedule with one pre-read verify removed is caught by the conformance
//! checker.

use hchol::core::cula::factor_cula;
use hchol::core::magma::{factor_magma, factor_outer};
use hchol::prelude::*;
use hchol_analyze::{analyze_outcome, analyze_schedule, analyze_with_protocol, Protocol, RaceKind};
use hchol_gpusim::context::KernelDesc;
use hchol_gpusim::counters::WorkCategory;
use hchol_gpusim::profile::KernelClass;
use hchol_gpusim::TraceAction;
use hchol_gpusim::{AccessSet, SimContext, TileRef};
use hchol_matrix::generate::spd_diag_dominant;

/// Every scheme, the acceptance size ladder, default options: race-free and
/// protocol-conformant (the default-on trace makes this check free to keep).
#[test]
fn all_schemes_race_free_and_conformant_by_default() {
    let p = SystemProfile::test_profile();
    for kind in SchemeKind::all() {
        for n in [64usize, 128, 256, 512] {
            let b = (n / 4).max(16);
            let out = run_clean(
                kind,
                &p,
                ExecMode::TimingOnly,
                n,
                b,
                &AbftOptions::default(),
                None,
            )
            .expect("scheme runs");
            let analysis = analyze_outcome(&out);
            assert_eq!(
                analysis.protocol,
                Some(Protocol::for_scheme(kind)),
                "clean K=1 run must get the strict conformance check"
            );
            assert!(
                analysis.is_clean(),
                "{} n={n}:\n{}",
                kind.name(),
                analysis.render_text()
            );
        }
    }
}

/// Execute mode runs the same drivers with real numerics — same program,
/// same verdict.
#[test]
fn execute_mode_schedules_are_clean() {
    let (n, b) = (96usize, 16usize);
    let a = spd_diag_dominant(n, 1);
    let p = SystemProfile::test_profile();
    for kind in SchemeKind::all() {
        let out = run_clean(
            kind,
            &p,
            ExecMode::Execute,
            n,
            b,
            &AbftOptions::default(),
            Some(&a),
        )
        .expect("scheme runs");
        let analysis = analyze_outcome(&out);
        assert!(
            analysis.is_clean(),
            "{}:\n{}",
            kind.name(),
            analysis.render_text()
        );
    }
}

#[test]
fn schemes_clean_on_real_profiles_and_placements() {
    let (n, b) = (1024usize, 128usize);
    for profile in [SystemProfile::tardis(), SystemProfile::bulldozer64()] {
        for placement in [
            ChecksumPlacement::Gpu,
            ChecksumPlacement::Cpu,
            ChecksumPlacement::Inline,
        ] {
            let opts = AbftOptions {
                placement,
                ..AbftOptions::default()
            };
            let out = run_clean(
                SchemeKind::Enhanced,
                &profile,
                ExecMode::TimingOnly,
                n,
                b,
                &opts,
                None,
            )
            .expect("scheme runs");
            let analysis = analyze_outcome(&out);
            assert!(
                analysis.is_clean(),
                "{} / {placement:?}:\n{}",
                profile.name,
                analysis.render_text()
            );
        }
    }
}

/// K-gated (`K > 1`) runs deliberately relax the Enhanced read rule, so
/// `analyze_outcome` downgrades them to race analysis — which must still be
/// clean. `K = 1` keeps the full conformance check.
#[test]
fn k_gated_and_serial_recalc_variants_are_race_free() {
    let (n, b) = (768usize, 128usize);
    for k in [1usize, 3] {
        for concurrent in [true, false] {
            let opts = AbftOptions::default()
                .with_interval(k)
                .with_concurrent_recalc(concurrent);
            let out = run_clean(
                SchemeKind::Enhanced,
                &SystemProfile::bulldozer64(),
                ExecMode::TimingOnly,
                n,
                b,
                &opts,
                None,
            )
            .expect("scheme runs");
            let analysis = analyze_outcome(&out);
            assert_eq!(analysis.protocol.is_some(), k == 1, "K={k}");
            assert!(
                analysis.is_clean(),
                "K={k} concurrent={concurrent}:\n{}",
                analysis.render_text()
            );
        }
    }
}

/// Balanced runs rewrite the plan mid-flight — placement migrations splice
/// mirror nodes in and out and ship the checksum block across the link
/// between iterations. The recorded schedule of a run that actually
/// migrated must still be race-free, and with `k_max == 1` (no adaptive
/// relaxation) it keeps the *strict* conformance check.
#[test]
fn balanced_run_with_migration_is_race_free_and_conformant() {
    use hchol_core::options::BalanceOptions;
    let out = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis_skewed(),
        ExecMode::TimingOnly,
        2048,
        128,
        &AbftOptions::default().with_balance(
            BalanceOptions::default()
                .with_update_interval(2)
                .with_k_bounds(1, 1),
        ),
        None,
    )
    .expect("balanced run");
    assert!(
        out.balance_log.as_ref().unwrap().switches() >= 1,
        "the skewed profile must force a migration"
    );
    let analysis = analyze_outcome(&out);
    assert_eq!(
        analysis.protocol,
        Some(Protocol::Enhanced),
        "k_max == 1 keeps the strict conformance check"
    );
    assert!(analysis.is_clean(), "{}", analysis.render_text());
}

/// A run whose decision log shows the controller actually raised `K`
/// above 1 relaxed the Enhanced read rule mid-flight, so
/// `analyze_outcome` downgrades to race-only analysis (mirroring the
/// static `K > 1` rule) — which must still be clean.
#[test]
fn adaptive_k_run_downgrades_to_race_analysis() {
    use hchol_core::options::BalanceOptions;
    let out = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis_skewed(),
        ExecMode::TimingOnly,
        2048,
        128,
        &AbftOptions::default().with_balance(
            BalanceOptions::default()
                .with_update_interval(2)
                .with_k_bounds(1, 4),
        ),
        None,
    )
    .expect("balanced run");
    assert!(
        out.balance_log.as_ref().unwrap().max_k() > 1,
        "a fault-free run must have relaxed K at some wake-up"
    );
    let analysis = analyze_outcome(&out);
    assert_eq!(
        analysis.protocol, None,
        "a run that relaxed K must drop the strict protocol check"
    );
    assert!(analysis.is_clean(), "{}", analysis.render_text());
}

/// Pin the downgrade rule: a balanced run that *could* have relaxed `K`
/// (`k_max > 1`) but never woke up (update interval beyond the iteration
/// count → empty decision log) executed a fully `K = 1` schedule, and
/// keeps the strict conformance check — the blanket `k_max > 1`
/// downgrade was a false negative.
#[test]
fn balanced_run_that_never_relaxed_keeps_conformance() {
    use hchol_core::options::BalanceOptions;
    let out = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis_skewed(),
        ExecMode::TimingOnly,
        2048,
        128,
        &AbftOptions::default().with_balance(
            BalanceOptions::default()
                .with_update_interval(64) // > nt = 16: never due
                .with_k_bounds(1, 4),
        ),
        None,
    )
    .expect("balanced run");
    let log = out.balance_log.as_ref().unwrap();
    assert_eq!(log.max_k(), 1, "no wake-up may have relaxed K");
    let analysis = analyze_outcome(&out);
    assert_eq!(
        analysis.protocol,
        Some(Protocol::Enhanced),
        "an un-relaxed balanced run keeps the strict conformance check"
    );
    assert!(analysis.is_clean(), "{}", analysis.render_text());
}

/// Pin the other half: a `k_min > 1` floor relaxes the interval from the
/// first iteration even with an empty decision log, so the downgrade to
/// race-only analysis applies.
#[test]
fn k_floor_balanced_run_downgrades() {
    use hchol_core::options::BalanceOptions;
    let out = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis_skewed(),
        ExecMode::TimingOnly,
        2048,
        128,
        &AbftOptions::default().with_balance(
            BalanceOptions::default()
                .with_update_interval(64)
                .with_k_bounds(4, 4),
        ),
        None,
    )
    .expect("balanced run");
    let analysis = analyze_outcome(&out);
    assert_eq!(
        analysis.protocol, None,
        "a K floor above 1 must drop the strict protocol check"
    );
    assert!(analysis.is_clean(), "{}", analysis.render_text());
}

/// The baselines — MAGMA's overlapped plan, CULA's synchronous one and the
/// right-looking (outer-product) variant — run on the plan executor like
/// the schemes: each recorded program is race-free, and every op issued
/// after setup lies under a plan node's mark.
#[test]
fn every_baseline_schedule_is_race_free() {
    let p = SystemProfile::test_profile();
    let mode = ExecMode::TimingOnly;
    let runs = [
        ("MAGMA", factor_magma(&p, mode, 256, 32, None, true)),
        ("CULA", factor_cula(&p, mode, 256, 32, None)),
        ("Outer", factor_outer(&p, mode, 256, 32, None, true)),
    ];
    for (name, rep) in runs {
        let rep = rep.expect("runs");
        let log = &rep.ctx.log;
        let analysis = analyze_schedule(log);
        assert!(analysis.ops > 0, "{name} must record a program");
        assert!(analysis.is_clean(), "{name}: {}", analysis.render_text());
        let mut marked = vec![false; log.len()];
        let mut setup_end = log.len();
        for (_, span) in log.marks() {
            setup_end = setup_end.min(span.start);
            marked[span].fill(true);
        }
        let unmarked: Vec<usize> = (setup_end..log.len())
            .filter(|&i| !marked[i] && matches!(log.entry(i), TraceAction::Op(_)))
            .collect();
        assert!(setup_end < log.len(), "{name}: the plan issued nothing");
        assert!(
            unmarked.is_empty(),
            "{name}: ops under no node: {unmarked:?}"
        );
    }
}

/// Control: a same-stream read→write pair is ordered by stream FIFO — no
/// WAR.
#[test]
fn same_stream_war_is_ordered() {
    let mut ctx = SimContext::new(SystemProfile::test_profile(), ExecMode::TimingOnly);
    let buf = ctx.dev_mem.alloc_zeros(4, 4, 4).unwrap();
    let s = ctx.default_stream();
    let tile = TileRef::new(buf, 0, 0);
    ctx.launch(
        s,
        KernelDesc::new(
            "reader",
            KernelClass::Blas2,
            1_000_000,
            WorkCategory::Factorization,
        )
        .with_access(AccessSet::new(vec![tile], vec![])),
        |_| {},
    );
    ctx.launch(
        s,
        KernelDesc::new(
            "writer",
            KernelClass::Blas2,
            1_000_000,
            WorkCategory::Factorization,
        )
        .with_access(AccessSet::new(vec![], vec![tile])),
        |_| {},
    );
    ctx.sync_all();
    let analysis = analyze_schedule(&ctx.log);
    assert!(analysis.is_clean(), "{}", analysis.render_text());
}

/// Control: writer on stream 1, reader on stream 2, event edge dropped —
/// the RAW must fire. Adding the edge back silences it.
#[test]
fn cross_stream_raw_without_event_is_flagged() {
    let run = |with_event: bool| {
        let mut ctx = SimContext::new(SystemProfile::test_profile(), ExecMode::TimingOnly);
        let buf = ctx.dev_mem.alloc_zeros(4, 4, 4).unwrap();
        let s1 = ctx.default_stream();
        let s2 = ctx.create_stream();
        let tile = TileRef::new(buf, 0, 0);
        ctx.launch(
            s1,
            KernelDesc::new(
                "writer",
                KernelClass::Blas2,
                1_000_000,
                WorkCategory::Factorization,
            )
            .with_access(AccessSet::new(vec![], vec![tile])),
            |_| {},
        );
        if with_event {
            let e = ctx.record_event(s1);
            ctx.stream_wait_event(s2, e);
        }
        ctx.launch(
            s2,
            KernelDesc::new(
                "reader",
                KernelClass::Blas2,
                1_000_000,
                WorkCategory::Factorization,
            )
            .with_access(AccessSet::new(vec![tile], vec![])),
            |_| {},
        );
        ctx.sync_all();
        analyze_schedule(&ctx.log)
    };

    let flagged = run(false);
    assert_eq!(flagged.races.len(), 1, "{}", flagged.render_text());
    assert_eq!(flagged.races[0].kind, RaceKind::Raw);
    assert_eq!(flagged.races[0].first, "writer");
    assert_eq!(flagged.races[0].second, "reader");

    let ordered = run(true);
    assert!(ordered.is_clean(), "{}", ordered.render_text());
}

/// Control: take a real Enhanced schedule and strip one tile's pre-read
/// verification (every `Verify`/`ChecksumRecalc` read of it) — the
/// conformance checker must flag an unverified read of exactly that tile.
#[test]
fn enhanced_schedule_missing_pre_read_verify_is_flagged() {
    let out = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::test_profile(),
        ExecMode::TimingOnly,
        128,
        32,
        &AbftOptions::default(),
        None,
    )
    .expect("scheme runs");

    // The victim: the first tile a factorization kernel reads.
    let log = &out.ctx.log;
    let victim = log
        .program()
        .find_map(|(_, a)| match a {
            TraceAction::Op(op) if op.category == WorkCategory::Factorization => {
                log.reads(op).next()
            }
            _ => None,
        })
        .expect("some factorization kernel reads a tile");

    // The same program minus every verification read of the victim tile.
    let mut mutated = out.ctx.log.clone();
    mutated.edit(|_, e| {
        if let TraceAction::Op(op) = e.action() {
            if matches!(
                op.category,
                WorkCategory::Verify | WorkCategory::ChecksumRecalc
            ) {
                e.retain_reads(|t| t != victim);
            }
        }
        true
    });

    let sane = analyze_with_protocol(&out.ctx.log, Protocol::Enhanced);
    assert!(
        sane.is_clean(),
        "unmutated control:\n{}",
        sane.render_text()
    );

    let analysis = analyze_with_protocol(&mutated, Protocol::Enhanced);
    assert!(
        analysis
            .violations
            .iter()
            .any(|v| v.kind() == "unverified_read" && v.tile() == victim),
        "expected an unverified read of {victim}, got:\n{}",
        analysis.render_text()
    );
}
