//! Integration: the fused in-kernel ABFT path (`AbftOptions::chk_fused`).
//!
//! With the flag on, the Enhanced scheme's SYRK/GEMM kernels deposit fresh
//! column checksums of the tiles they write in their own epilogue, and the
//! verify batches covering those tiles become compare-only — no separate
//! recalculation kernels on the critical path. This suite pins the whole
//! contract: identical factor bits, numerically equivalent checksums
//! (within the documented ~1e-12 relative epsilon — summation order
//! differs), conformant and race-free schedules, fault detection through
//! the deposits, and a strictly lower verification overhead.

use hchol::prelude::*;
use hchol_analyze::{analyze_outcome, Protocol};
use hchol_blas::potrf::{potrf_blocked, reconstruct_lower};
use hchol_blas::{gemm, gemm_fused};
use hchol_core::checksum::encode;
use hchol_faults::{FaultTarget, InjectionPoint};
use hchol_gpusim::{ExecSite, TraceAction};
use hchol_matrix::generate::spd_diag_dominant;
use hchol_matrix::{approx_eq, relative_residual, Trans};
use proptest::prelude::*;
use std::collections::HashSet;

fn fused_opts() -> AbftOptions {
    AbftOptions::default().with_chk_fused(true)
}

/// The fused epilogue is a pure add-on: the factor bits of an Execute-mode
/// Enhanced run are identical with and without it (the product math is the
/// same blocked path; only the checksum deposits differ).
#[test]
fn fused_execute_factor_is_bit_identical_to_unfused() {
    let (n, b) = (96usize, 16usize);
    let a = spd_diag_dominant(n, 11);
    let p = SystemProfile::test_profile();
    let run = |opts: &AbftOptions| {
        run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::Execute,
            n,
            b,
            opts,
            Some(&a),
        )
        .expect("scheme runs")
        .factor
        .expect("Execute mode factor")
    };
    let base = run(&AbftOptions::default());
    let fused = run(&fused_opts());
    let (rows, cols) = base.shape();
    for i in 0..rows {
        for j in 0..cols {
            assert_eq!(
                base.get(i, j).to_bits(),
                fused.get(i, j).to_bits(),
                "factor bits differ at ({i},{j})"
            );
        }
    }
    // And the factor is actually right.
    let mut oracle = a.clone();
    potrf_blocked(&mut oracle, b).unwrap();
    assert!(approx_eq(&fused, &oracle, 1e-9));
}

/// Fused runs are race-free and conformant with the Enhanced
/// verify-before-read protocol across the size ladder: the producer's
/// fused write is its own verify mark, and the dependency edges carry the
/// rest. The run must actually exercise the fused machinery (fused
/// kernels, fused batches, epilogue time) while keeping some plain batches
/// (SYRK inputs are TRSM-written and stay on the recalc path).
#[test]
fn fused_runs_are_conformant_and_exercise_the_fused_path() {
    let p = SystemProfile::test_profile();
    for n in [64usize, 128, 256, 512] {
        let b = (n / 4).max(16);
        let out = run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::TimingOnly,
            n,
            b,
            &fused_opts(),
            None,
        )
        .expect("scheme runs");
        let analysis = analyze_outcome(&out);
        assert_eq!(analysis.protocol, Some(Protocol::Enhanced));
        assert!(analysis.is_clean(), "n={n}:\n{}", analysis.render_text());
        let m = &out.ctx.obs.metrics;
        assert!(m.count("verify.fused.kernels") > 0, "n={n}: fused kernels");
        assert!(m.count("verify.fused.batches") > 0, "n={n}: fused batches");
        assert!(
            m.sum("verify.fused.epilogue_secs") > 0.0,
            "n={n}: epilogue time"
        );
        assert!(
            m.count("verify.batches") > m.count("verify.fused.batches"),
            "n={n}: SYRK-input checks must stay on the plain recalc path"
        );
        // The report records the toggle and both time series.
        let report = out.report().to_json();
        assert!(report.contains("chk_fused"), "n={n}: report toggle");
        assert!(report.contains("verify.fused.epilogue_secs"), "n={n}");
        assert!(report.contains("verify.recalc_secs"), "n={n}");
    }
}

/// The relaxed verification interval (K > 1) and the CPU checksum
/// placement compose with the fused rewrite without races.
#[test]
fn fused_composes_with_interval_and_placement() {
    let p = SystemProfile::test_profile();
    for (k, placement) in [
        (2usize, ChecksumPlacement::Gpu),
        (1, ChecksumPlacement::Cpu),
        (3, ChecksumPlacement::Cpu),
    ] {
        let opts = fused_opts().with_interval(k).with_placement(placement);
        let out = run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::TimingOnly,
            256,
            64,
            &opts,
            None,
        )
        .expect("scheme runs");
        let analysis = analyze_outcome(&out);
        assert!(
            analysis.is_clean(),
            "K={k} {placement:?}:\n{}",
            analysis.render_text()
        );
        assert!(out.ctx.obs.metrics.count("verify.fused.batches") > 0);
    }
}

/// Dropping the separate recalculation kernels must show up as time: at a
/// paper-scale size the fused Enhanced run strictly beats the unfused one,
/// and the epilogue time it pays is smaller than the recalc time it saves.
/// Runs on the Tardis profile — the fusion's advantage is the rate gap
/// between cache-hot level-3 epilogue flops and memory-bound GEMV recalc
/// kernels, which the flat-rate test rig deliberately does not model.
#[test]
fn fused_lowers_verification_overhead() {
    let p = SystemProfile::tardis();
    let (n, b) = (1024usize, 256usize);
    let run = |opts: &AbftOptions| {
        run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::TimingOnly,
            n,
            b,
            opts,
            None,
        )
        .expect("scheme runs")
    };
    let unfused = run(&AbftOptions::default().with_report_recalc_secs(true));
    let fused = run(&fused_opts());
    assert!(
        fused.time.as_secs() < unfused.time.as_secs(),
        "fused {} should beat unfused {}",
        fused.time,
        unfused.time
    );
    let saved = unfused.ctx.obs.metrics.sum("verify.recalc_secs")
        - fused.ctx.obs.metrics.sum("verify.recalc_secs");
    let paid = fused.ctx.obs.metrics.sum("verify.fused.epilogue_secs");
    assert!(
        paid < saved,
        "epilogue cost {paid:.3e}s must undercut the recalc time saved {saved:.3e}s"
    );
}

/// Execute mode: a fault striking a panel tile *before* its fused producer
/// is caught by the compare-only batch (the epilogue deposit reflects the
/// corruption, the maintained checksum does not) and corrected in place —
/// one attempt, correct factor.
#[test]
fn fused_deposits_detect_and_correct_a_panel_fault() {
    let (n, b) = (96usize, 16usize);
    let nt = n / b;
    let a = spd_diag_dominant(n, 7);
    let p = SystemProfile::test_profile();
    for (iter, bi) in [(1usize, 3usize), (2, 4), (nt - 2, nt - 1)] {
        let plan = FaultPlan::single(FaultSpec {
            point: InjectionPoint::IterStart { iter },
            target: FaultTarget {
                bi,
                bj: iter,
                row: 3,
                col: 5,
            },
            kind: FaultKind::storage(),
        });
        let out = run_scheme(
            SchemeKind::Enhanced,
            &p,
            ExecMode::Execute,
            n,
            b,
            &fused_opts(),
            plan,
            Some(&a),
        )
        .expect("scheme runs");
        assert!(!out.failed, "iter={iter} bi={bi}");
        assert_eq!(out.attempts, 1, "iter={iter} bi={bi}: no restart needed");
        assert!(out.verify.corrected_data > 0, "iter={iter} bi={bi}");
        let resid = relative_residual(&reconstruct_lower(out.factor.as_ref().unwrap()), &a);
        assert!(resid < 1e-11, "iter={iter} bi={bi}: residual {resid:.2e}");
    }
}

/// TimingOnly mode: the same fault is detected through the injector's
/// ledger on the fused batches, and the fused run records the detection in
/// the shared `verify.*` metrics.
#[test]
fn fused_timing_only_fault_detection_via_ledger() {
    let (n, b) = (128usize, 32usize);
    let p = SystemProfile::test_profile();
    let plan = FaultPlan::single(FaultSpec {
        point: InjectionPoint::IterStart { iter: 1 },
        target: FaultTarget {
            bi: 2,
            bj: 1,
            row: 1,
            col: 1,
        },
        kind: FaultKind::computing(),
    });
    let out = run_scheme(
        SchemeKind::Enhanced,
        &p,
        ExecMode::TimingOnly,
        n,
        b,
        &fused_opts(),
        plan,
        None,
    )
    .expect("scheme runs");
    assert!(!out.failed);
    assert_eq!(out.attempts, 1);
    assert!(out.verify.corrected_data > 0);
    assert!(out.ctx.obs.metrics.count("verify.detections") > 0);
}

/// Regression (recalc stream round-robin): a verify batch with more tiles
/// than recalc streams must spread its REC kernels over *all* the streams
/// — and the recorded program must stay race-free, which pins the matching
/// wait/sync coverage of every used stream.
#[test]
fn recalc_round_robin_handles_more_tiles_than_streams() {
    let p = SystemProfile::test_profile();
    let streams = p.gpu.max_concurrent_kernels; // 4 on the test rig
    let (n, b) = (96usize, 16usize); // nt = 6 > streams
    let out = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::TimingOnly,
        n,
        b,
        &AbftOptions::default(),
        None,
    )
    .expect("scheme runs");
    let mut rec_sites: HashSet<usize> = HashSet::new();
    let mut rec_total = 0usize;
    for (_, act) in out.ctx.log.program() {
        if let TraceAction::Op(op) = act {
            if op.label.starts_with("REC ") {
                rec_total += 1;
                if let ExecSite::Stream(s) = op.site() {
                    rec_sites.insert(s);
                }
            }
        }
    }
    assert!(
        rec_total > streams,
        "need a batch larger than the stream pool ({rec_total} vs {streams})"
    );
    assert_eq!(
        rec_sites.len(),
        streams,
        "REC kernels must round-robin across every recalc stream"
    );
    let analysis = analyze_outcome(&out);
    assert!(analysis.is_clean(), "{}", analysis.render_text());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: the fused-epilogue checksums match a separate
    /// re-encoding of the finished product within the documented epsilon,
    /// across shapes (straddling the blocking threshold) and transposes —
    /// and the product itself is bit-identical to the unfused kernel's.
    /// The host team's deposits are checked bit for bit at team sizes 1–4
    /// in `hchol_blas::par`'s own tests.
    #[test]
    fn fused_checksums_match_separate_recalc(
        seed in 0u64..10_000,
        m in 8usize..96,
        n in 8usize..96,
        k in 8usize..96,
        ta in any::<bool>(),
        tb in any::<bool>(),
    ) {
        let (ta, tb) = (
            if ta { Trans::Yes } else { Trans::No },
            if tb { Trans::Yes } else { Trans::No },
        );
        let rnd = |r: usize, c: usize, salt: u64| {
            let mut x = hchol_matrix::Matrix::zeros(r, c);
            let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(salt);
            for i in 0..r {
                for j in 0..c {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    x.set(i, j, ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5);
                }
            }
            x
        };
        let a = match ta { Trans::No => rnd(m, k, 1), Trans::Yes => rnd(k, m, 1) };
        let b = match tb { Trans::No => rnd(k, n, 2), Trans::Yes => rnd(n, k, 2) };
        let mut c_ref = rnd(m, n, 3);
        let mut c_fused = c_ref.clone();
        let mut chk = hchol_matrix::Matrix::zeros(2, n);

        gemm(ta, tb, 1.0, &a, &b, -0.5, &mut c_ref);
        gemm_fused(ta, tb, 1.0, &a, &b, -0.5, &mut c_fused, &mut chk);

        // Product: bit-identical.
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(c_ref.get(i, j).to_bits(), c_fused.get(i, j).to_bits());
            }
        }
        // Checksums: equal to a separate re-encode within the documented
        // ~1e-12 relative epsilon (column magnitude scaled).
        let reference = encode(&c_ref);
        for j in 0..n {
            let col_abs: f64 = (0..m).map(|i| c_ref.get(i, j).abs()).sum();
            let tol = 1e-12 * (col_abs * m as f64 + 1.0);
            for r in 0..2 {
                let (got, want) = (chk.get(r, j), reference.get(r, j));
                prop_assert!(
                    (got - want).abs() <= tol,
                    "chk[{r}][{j}]: {got} vs {want} (tol {tol:.3e})"
                );
            }
        }
    }
}

/// The degenerate fused cases fall back to a plain ascending column sweep
/// over the finished product, bit-for-bit.
#[test]
fn fused_degenerate_cases_encode_exactly() {
    // Ascending-order reference matching the documented fallback sweep.
    let sweep = |c: &hchol_matrix::Matrix, j: usize| {
        let (mut s1, mut s2) = (0.0f64, 0.0f64);
        for i in 0..c.rows() {
            s1 += c.get(i, j);
            s2 += (i + 1) as f64 * c.get(i, j);
        }
        (s1, s2)
    };
    let a = spd_diag_dominant(8, 5);
    let b = spd_diag_dominant(8, 6);
    let mut c = spd_diag_dominant(8, 7);
    let mut chk = hchol_matrix::Matrix::zeros(2, 8);
    // alpha == 0: C is only scaled; the deposit is a sweep of the result.
    gemm_fused(Trans::No, Trans::No, 0.0, &a, &b, 2.0, &mut c, &mut chk);
    for j in 0..8 {
        let (s1, s2) = sweep(&c, j);
        assert_eq!(chk.get(0, j).to_bits(), s1.to_bits());
        assert_eq!(chk.get(1, j).to_bits(), s2.to_bits());
    }
    // Plain small product below the blocking threshold: naive fallback,
    // identical product to the unfused kernel, then the same sweep.
    let mut c2 = spd_diag_dominant(8, 7);
    let mut c2_ref = c2.clone();
    gemm_fused(Trans::No, Trans::Yes, -1.0, &a, &b, 1.0, &mut c2, &mut chk);
    gemm(Trans::No, Trans::Yes, -1.0, &a, &b, 1.0, &mut c2_ref);
    for j in 0..8 {
        for i in 0..8 {
            assert_eq!(c2.get(i, j).to_bits(), c2_ref.get(i, j).to_bits());
        }
        let (s1, s2) = sweep(&c2, j);
        assert_eq!(chk.get(0, j).to_bits(), s1.to_bits());
        assert_eq!(chk.get(1, j).to_bits(), s2.to_bits());
    }
}
