//! Integration: degenerate and boundary configurations every driver must
//! handle — single-tile matrices, two-tile grids, block = n, K larger than
//! the iteration count, and zero-restart budgets.

use hchol::prelude::*;
use hchol_blas::potrf::reconstruct_lower;
use hchol_core::cula::factor_cula;
use hchol_core::magma::{factor_magma, factor_outer};
use hchol_matrix::generate::spd_diag_dominant;
use hchol_matrix::relative_residual;
use hchol_matrix::MatrixError;

fn check_correct(out: &FactorOutcome, a: &hchol_matrix::Matrix, label: &str) {
    let l = out.factor.as_ref().expect("factor");
    let r = relative_residual(&reconstruct_lower(l), a);
    assert!(r < 1e-12, "{label}: residual {r:.2e}");
}

#[test]
fn single_tile_matrix_works_for_all_schemes() {
    // nt = 1: no SYRK, no GEMM, no TRSM — just the POTF2 round trip.
    let n = 16;
    let a = spd_diag_dominant(n, 1);
    let p = SystemProfile::test_profile();
    for kind in SchemeKind::all() {
        let out = run_clean(
            kind,
            &p,
            ExecMode::Execute,
            n,
            n,
            &AbftOptions::default(),
            Some(&a),
        )
        .expect("single tile");
        assert_eq!(out.attempts, 1);
        check_correct(&out, &a, kind.name());
    }
}

#[test]
fn two_tile_grid_works_for_all_schemes() {
    let n = 16;
    let a = spd_diag_dominant(n, 2);
    let p = SystemProfile::test_profile();
    for kind in SchemeKind::all() {
        let out = run_clean(
            kind,
            &p,
            ExecMode::Execute,
            n,
            n / 2,
            &AbftOptions::default(),
            Some(&a),
        )
        .expect("two tiles");
        check_correct(&out, &a, kind.name());
    }
}

#[test]
fn k_larger_than_iteration_count_still_correct_when_clean() {
    let n = 64;
    let a = spd_diag_dominant(n, 3);
    let p = SystemProfile::test_profile();
    let opts = AbftOptions::default().with_interval(1000);
    let out = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::Execute,
        n,
        16,
        &opts,
        Some(&a),
    )
    .expect("huge K");
    assert_eq!(out.attempts, 1);
    check_correct(&out, &a, "K=1000");
}

#[test]
fn zero_restart_budget_reports_failure_instead_of_looping() {
    let n = 64;
    let b = 16;
    let a = spd_diag_dominant(n, 4);
    let p = SystemProfile::test_profile();
    let opts = AbftOptions {
        max_restarts: 0,
        ..AbftOptions::default()
    };
    // Offline cannot correct a propagated computing error; with no restarts
    // allowed it must end `failed` rather than retry.
    let out = run_scheme(
        SchemeKind::Offline,
        &p,
        ExecMode::Execute,
        n,
        b,
        &opts,
        FaultPlan::paper_computing_error(n / b, b),
        Some(&a),
    )
    .expect("run completes");
    assert!(out.failed);
    assert_eq!(out.attempts, 1);
}

#[test]
fn genuinely_indefinite_input_is_an_error_not_a_retry_loop() {
    let n = 32;
    let mut a = spd_diag_dominant(n, 5);
    a.set(17, 17, -100.0); // break positive definiteness for real
    let p = SystemProfile::test_profile();
    let at_pivot_17 = |r: Result<(), MatrixError>, name: &str| {
        assert!(
            matches!(r, Err(MatrixError::NotPositiveDefinite { pivot: 17, .. })),
            "{name} must report the indefinite input at pivot 17: {r:?}"
        );
    };
    let mode = ExecMode::Execute;
    for kind in SchemeKind::all() {
        let r = run_clean(kind, &p, mode, n, 8, &AbftOptions::default(), Some(&a));
        at_pivot_17(r.map(drop), kind.name());
    }
    // The baselines defer POTF2's error to the end of its iteration; it
    // still surfaces, typed, at the same pivot.
    at_pivot_17(
        factor_magma(&p, mode, n, 8, Some(&a), false).map(drop),
        "MAGMA",
    );
    at_pivot_17(factor_cula(&p, mode, n, 8, Some(&a)).map(drop), "CULA");
    at_pivot_17(
        factor_outer(&p, mode, n, 8, Some(&a), false).map(drop),
        "Outer",
    );
}

#[test]
fn tiny_blocks_exercise_deep_grids() {
    let n = 64;
    let a = spd_diag_dominant(n, 6);
    let p = SystemProfile::test_profile();
    let out = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::Execute,
        n,
        4, // nt = 16 with 4x4 tiles
        &AbftOptions::default(),
        Some(&a),
    )
    .expect("deep grid");
    check_correct(&out, &a, "B=4");
}

#[test]
fn fault_on_the_first_and_last_iterations() {
    let n = 96;
    let b = 16;
    let nt = n / b;
    let a = spd_diag_dominant(n, 7);
    let p = SystemProfile::test_profile();
    for iter in [0usize, nt - 1] {
        let plan = FaultPlan::single(FaultSpec {
            point: hchol_faults::InjectionPoint::IterStart { iter },
            target: hchol_faults::FaultTarget {
                bi: nt - 1,
                bj: if iter == 0 { 0 } else { iter - 1 },
                row: 1,
                col: 2,
            },
            kind: FaultKind::storage(),
        });
        let out = run_scheme(
            SchemeKind::Enhanced,
            &p,
            ExecMode::Execute,
            n,
            b,
            &AbftOptions::default(),
            plan,
            Some(&a),
        )
        .expect("boundary iteration");
        assert_eq!(out.attempts, 1, "iter {iter}");
        check_correct(&out, &a, &format!("iter {iter}"));
    }
}

#[test]
fn cpu_and_inline_placements_produce_identical_factors() {
    let n = 64;
    let b = 16;
    let a = spd_diag_dominant(n, 8);
    let p = SystemProfile::test_profile();
    let mut factors = Vec::new();
    for placement in [
        ChecksumPlacement::Gpu,
        ChecksumPlacement::Cpu,
        ChecksumPlacement::Inline,
    ] {
        let opts = AbftOptions::default().with_placement(placement);
        let out = run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::Execute,
            n,
            b,
            &opts,
            Some(&a),
        )
        .expect("placement variant");
        factors.push(out.factor.unwrap());
    }
    assert_eq!(factors[0], factors[1], "placement must not change numerics");
    assert_eq!(factors[1], factors[2]);
}

/// The shape closure: every Execute run over a hostile grid — empty and
/// one-element matrices, a block larger than the matrix, blocks that do not
/// divide `n` — ends in a correct factor or a typed error, never a panic;
/// and so does a missing or mis-shaped input.
#[test]
fn hostile_shapes_factor_or_refuse_but_never_panic() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let p = SystemProfile::test_profile();
    let mut panicked = Vec::new();
    let mut run = |kind: SchemeKind, n, b, input: Option<&hchol_matrix::Matrix>| {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_clean(
                kind,
                &p,
                ExecMode::Execute,
                n,
                b,
                &AbftOptions::default(),
                input,
            )
        }));
        if r.is_err() {
            panicked.push(format!("{} n={n} b={b}", kind.name()));
        }
        r.ok()
    };
    for n in [0, 1, 5, 8, 10] {
        let a = spd_diag_dominant(n, 9);
        for b in [1, 3, 4, 16] {
            for kind in SchemeKind::all() {
                let label = format!("{} n={n} b={b}", kind.name());
                match run(kind, n, b, Some(&a)) {
                    Some(Ok(out)) if n == 0 => {
                        assert_eq!(out.factor.map(|l| l.shape()), Some((0, 0)), "{label}")
                    }
                    Some(Ok(out)) => check_correct(&out, &a, &label),
                    _ => {}
                }
            }
        }
    }
    let a = spd_diag_dominant(8, 10);
    for kind in SchemeKind::all() {
        for (what, input) in [("missing", None), ("mismatched", Some(&a))] {
            let r = run(kind, 12, 4, input);
            assert!(
                matches!(r, Some(Err(_)) | None),
                "{} with a {what} input must be refused",
                kind.name()
            );
        }
    }
    assert!(panicked.is_empty(), "panicked: {panicked:#?}");
}

#[test]
fn fault_plans_outside_the_run_are_refused_with_a_typed_error() {
    use hchol::core::options::ShardOptions;
    use hchol_faults::{FaultTarget, InjectionPoint};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    // nt = 7; the last tile row and column are 4 wide.
    let (n, b) = (100, 16);
    let a = spd_diag_dominant(n, 11);
    let p = SystemProfile::test_profile();
    let strike = |bi, bj, row, col| {
        FaultPlan::single(FaultSpec {
            point: InjectionPoint::PostGemm { iter: 1 },
            target: FaultTarget { bi, bj, row, col },
            kind: FaultKind::computing(),
        })
    };
    let one = AbftOptions::default();
    let two = AbftOptions::default().with_shard(ShardOptions::new(2));
    let cases = [
        ("row 10 of the 4-row tile (6,0)", strike(6, 0, 10, 0), &one),
        (
            "column 10 of the 4-column tile (6,6)",
            strike(6, 6, 0, 10),
            &one,
        ),
        ("tile (9,0) outside the grid", strike(9, 0, 0, 0), &one),
        (
            "a strike at iteration 7 of 7",
            FaultPlan::single(FaultSpec {
                point: InjectionPoint::IterStart { iter: 7 },
                target: FaultTarget {
                    bi: 6,
                    bj: 5,
                    row: 1,
                    col: 1,
                },
                kind: FaultKind::storage(),
            }),
            &one,
        ),
        (
            "a loss of device 5 on D = 2",
            FaultPlan::device_loss(5, 1),
            &two,
        ),
        (
            "a loss at iteration 99",
            FaultPlan::device_loss(1, 99),
            &two,
        ),
        (
            "a loss on an unsharded run",
            FaultPlan::device_loss(1, 1),
            &one,
        ),
    ];
    let mut wrong = Vec::new();
    for mode in [ExecMode::Execute, ExecMode::TimingOnly] {
        let input = (mode == ExecMode::Execute).then_some(&a);
        for kind in SchemeKind::all() {
            for (what, plan, opts) in &cases {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    run_scheme(kind, &p, mode, n, b, opts, plan.clone(), input)
                }));
                match r {
                    Ok(Err(MatrixError::FaultOutsideRun(_))) => {}
                    Ok(Err(e)) => wrong.push(format!("{mode:?} {kind:?} {what}: {e}")),
                    Ok(Ok(_)) => wrong.push(format!("{mode:?} {kind:?} {what}: accepted")),
                    Err(_) => wrong.push(format!("{mode:?} {kind:?} {what}: panicked")),
                }
            }
            // An upper-triangle target names a tile the run has: accepted.
            let upper = run_scheme(kind, &p, mode, n, b, &one, strike(0, 6, 1, 3), input);
            if let Err(e) = upper {
                wrong.push(format!("{mode:?} {kind:?} upper-triangle target: {e}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}
