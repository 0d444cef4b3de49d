//! Golden-equivalence suite for the plan-driven drivers.
//!
//! The fixtures under `tests/fixtures/golden/` were captured from the
//! pre-plan imperative drivers (one hand-written loop per scheme plus the
//! MAGMA/CULA baselines). Every configuration is replayed here through the
//! current `FactorPlan` + executor path and must reproduce the recorded
//! behavior exactly:
//!
//! * the serialized [`RunReport`] must be **byte-identical** — same span
//!   tree, same virtual timestamps, same metrics, same config block;
//! * the factor must be **bit-identical** — checked via an FNV-1a hash of
//!   the element bits recorded in `factors.json`.
//!
//! If a schedule change is intentional, regenerate the fixtures with
//! `cargo run --release -p hchol-bench -- golden_capture` and review the
//! diff.

use hchol_core::cula::factor_cula;
use hchol_core::magma::factor_magma;
use hchol_core::options::{AbftOptions, ChecksumPlacement};
use hchol_core::schemes::{run_scheme, run_scheme_typed, SchemeKind};
use hchol_faults::{FaultKind, FaultPlan, FaultSpec, FaultTarget, InjectionPoint};
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;
use hchol_matrix::generate::spd_diag_dominant;
use hchol_matrix::Matrix;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden")
}

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

/// Look up the recorded factor hash for `slug` in the manifest.
fn manifest_hash(slug: &str) -> u64 {
    let manifest =
        std::fs::read_to_string(fixture_dir().join("factors.json")).expect("read factors.json");
    let needle = format!("\"{slug}\":");
    let line = manifest
        .lines()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("{slug} missing from factors.json"));
    let hex = line
        .rsplit('"')
        .nth(1)
        .unwrap_or_else(|| panic!("malformed manifest line: {line}"));
    u64::from_str_radix(hex, 16).expect("hex hash")
}

fn check(slug: &str, report_json: String, factor: &Matrix) {
    let path = fixture_dir().join(format!("{slug}.report.json"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    assert_eq!(
        report_json, golden,
        "{slug}: RunReport diverged from the pre-plan driver"
    );
    assert_eq!(
        hash_factor(factor),
        manifest_hash(slug),
        "{slug}: factor bits diverged from the pre-plan driver"
    );
}

/// The faults of a `faulted` fixture: the paper's computing and storage
/// errors. On a two-tile grid the computing scenario is empty (no panel GEMM
/// has both a chain and rows), so the n = 64 fixtures name the strike they
/// were captured with: a miscalculation of (1, 1) after iteration 1's GEMM.
fn paper_faults(nt: usize, b: usize) -> FaultPlan {
    let computing = if nt == 2 {
        FaultPlan::single(FaultSpec {
            point: InjectionPoint::PostGemm { iter: 1 },
            target: FaultTarget {
                bi: 1,
                bj: 1,
                row: b / 3,
                col: b / 2,
            },
            kind: FaultKind::computing(),
        })
    } else {
        FaultPlan::paper_computing_error(nt, b)
    };
    computing.merged(FaultPlan::paper_storage_error(nt, b))
}

fn check_scheme(kind: SchemeKind, n: usize, opts: &AbftOptions, faulted: bool, tag: &str) {
    let b = 32usize;
    let a = spd_diag_dominant(n, 7);
    let nt = n / b;
    let plan = if faulted {
        paper_faults(nt, b)
    } else {
        FaultPlan::none()
    };
    let out = run_scheme(
        kind,
        &SystemProfile::test_profile(),
        ExecMode::Execute,
        n,
        b,
        opts,
        plan,
        Some(&a),
    )
    .expect("scheme runs");
    let slug = match kind {
        SchemeKind::Offline => format!("offline_{n}_{tag}"),
        SchemeKind::Online => format!("online_{n}_{tag}"),
        SchemeKind::Enhanced => format!("enhanced_{n}_{tag}"),
    };
    let json = serde_json::to_string(&out.report()).expect("report serializes");
    check(&slug, json, &out.factor.expect("Execute mode factor"));
}

#[test]
fn schemes_match_pre_plan_drivers() {
    for kind in SchemeKind::all() {
        for n in [64usize, 192, 256] {
            for faulted in [false, true] {
                let tag = if faulted { "faulted" } else { "clean" };
                check_scheme(kind, n, &AbftOptions::default(), faulted, tag);
            }
        }
    }
}

#[test]
fn option_corners_match_pre_plan_drivers() {
    check_scheme(
        SchemeKind::Enhanced,
        192,
        &AbftOptions::default().with_placement(ChecksumPlacement::Cpu),
        false,
        "cpu",
    );
    check_scheme(
        SchemeKind::Enhanced,
        192,
        &AbftOptions::unoptimized(),
        false,
        "unopt",
    );
    check_scheme(
        SchemeKind::Enhanced,
        256,
        &AbftOptions::default().with_interval(4),
        false,
        "k4",
    );
}

#[test]
fn baselines_match_pre_plan_drivers() {
    let n = 192usize;
    let b = 32usize;
    let a = spd_diag_dominant(n, 7);
    let p = SystemProfile::test_profile();

    let magma = factor_magma(&p, ExecMode::Execute, n, b, Some(&a), false).expect("magma runs");
    check(
        "magma_192",
        serde_json::to_string(&magma.report("MAGMA hybrid")).expect("serializes"),
        &magma.factor.expect("factor"),
    );

    let cula = factor_cula(&p, ExecMode::Execute, n, b, Some(&a)).expect("cula runs");
    check(
        "cula_192",
        serde_json::to_string(&cula.report("CULA dpotrf")).expect("serializes"),
        &cula.factor.expect("factor"),
    );
}

/// Factor hashes at tile shapes that take the *blocked* level-3 engine
/// (64³ and 128³ tile GEMMs, recursive TRSM) — the b = 32 fixtures above
/// never leave the naive loops. Captured on the commit before the
/// tile-granularity kernel rework (arena workspace, skinny NT arm,
/// column-form POTF2); any host-side kernel change must reproduce them.
#[test]
fn blocked_engine_factor_bits_are_pinned() {
    const PINS: [(SchemeKind, usize, bool, u64); 12] = [
        (SchemeKind::Offline, 64, false, 0x3f52_43ea_f951_9c1b),
        (SchemeKind::Offline, 64, true, 0x3f52_43ea_f951_9c1b),
        (SchemeKind::Offline, 128, false, 0xe47b_8f3c_144a_327e),
        (SchemeKind::Offline, 128, true, 0xe47b_8f3c_144a_327e),
        (SchemeKind::Online, 64, false, 0x3f52_43ea_f951_9c1b),
        (SchemeKind::Online, 64, true, 0x3f52_43ea_f951_9c1b),
        (SchemeKind::Online, 128, false, 0xe47b_8f3c_144a_327e),
        (SchemeKind::Online, 128, true, 0xe47b_8f3c_144a_327e),
        (SchemeKind::Enhanced, 64, false, 0x3f52_43ea_f951_9c1b),
        (SchemeKind::Enhanced, 64, true, 0x79a7_9956_7907_007a),
        (SchemeKind::Enhanced, 128, false, 0xe47b_8f3c_144a_327e),
        (SchemeKind::Enhanced, 128, true, 0xd398_ecbb_aeee_4241),
    ];
    let n = 512usize;
    let a = spd_diag_dominant(n, 7);
    for (kind, b, faulted, want) in PINS {
        let nt = n / b;
        let plan = if faulted {
            paper_faults(nt, b)
        } else {
            FaultPlan::none()
        };
        let out = run_scheme(
            kind,
            &SystemProfile::test_profile(),
            ExecMode::Execute,
            n,
            b,
            &AbftOptions::default(),
            plan,
            Some(&a),
        )
        .expect("scheme runs");
        let got = hash_factor(&out.factor.expect("Execute mode factor"));
        assert_eq!(
            got, want,
            "{kind:?} n={n} b={b} faulted={faulted}: factor hash {got:#018x}"
        );
    }
}

/// A restart re-tiles the device matrix from the caller's `input` (no
/// pristine copy is kept across the run): Online under the paper's storage
/// error detects it only in the final sweep, reloads and factors again, and
/// the second attempt's factor carries exactly the bits of a fault-free run —
/// the same clean-run hashes pinned above, captured on the commit that still
/// cloned the device matrix before attempt 1.
#[test]
fn restart_reloads_the_callers_input() {
    let n = 512usize;
    let a = spd_diag_dominant(n, 7);
    for (b, want) in [
        (64usize, 0x3f52_43ea_f951_9c1bu64),
        (128, 0xe47b_8f3c_144a_327e),
    ] {
        let out = run_scheme(
            SchemeKind::Online,
            &SystemProfile::test_profile(),
            ExecMode::Execute,
            n,
            b,
            &AbftOptions::default(),
            FaultPlan::paper_storage_error(n / b, b),
            Some(&a),
        )
        .expect("scheme runs");
        assert_eq!(out.attempts, 2, "b={b}: storage error forces one restart");
        assert!(!out.failed, "b={b}: the restarted attempt completes");
        let got = hash_factor(&out.factor.expect("Execute mode factor"));
        assert_eq!(got, want, "b={b}: restarted factor hash {got:#018x}");
    }
}

/// Factor hashes at b = 256, the first block size whose tiles hold two `MC`
/// row stripes: the shapes the host team splits into stripes when a launch
/// has fewer tiles than members (the SYRK diagonal tile, a panel's last
/// row), plus MAGMA at n = 712, whose edge tiles are ragged (200 rows).
/// Captured with every kernel body run tile after tile on one thread; a
/// team of any size must reproduce them, fused deposits, f32 and a
/// restart's refill included.
#[test]
fn team_split_factor_bits_are_pinned() {
    const PINS: [(SchemeKind, usize, bool, bool, u64); 5] = [
        (
            SchemeKind::Enhanced,
            512,
            false,
            false,
            0x5ae7_f5c6_e9e9_deef,
        ),
        (
            SchemeKind::Enhanced,
            768,
            false,
            false,
            0x9ba2_19ae_8941_4591,
        ),
        (
            SchemeKind::Enhanced,
            768,
            true,
            false,
            0x9ba2_19ae_8941_4591,
        ),
        (SchemeKind::Online, 768, false, true, 0x9ba2_19ae_8941_4591),
        (
            SchemeKind::Offline,
            768,
            false,
            false,
            0x9ba2_19ae_8941_4591,
        ),
    ];
    let (b, p) = (256usize, SystemProfile::test_profile());
    for (kind, n, fused, faulted, want) in PINS {
        let a = spd_diag_dominant(n, 11);
        let plan = if faulted {
            FaultPlan::paper_storage_error(n / b, b)
        } else {
            FaultPlan::none()
        };
        let opts = AbftOptions::default().with_chk_fused(fused);
        let out = run_scheme(kind, &p, ExecMode::Execute, n, b, &opts, plan, Some(&a))
            .expect("scheme runs");
        assert_eq!(out.attempts, 1 + faulted as usize, "{kind:?} n={n}");
        let got = hash_factor(&out.factor.expect("Execute mode factor"));
        assert_eq!(
            got, want,
            "{kind:?} n={n} fused={fused} faulted={faulted}: factor hash {got:#018x}"
        );
    }
    let a: Matrix<f32> = spd_diag_dominant(768, 11).cast();
    let opts = AbftOptions::default().with_adaptive_tolerance();
    let out = run_scheme_typed(
        SchemeKind::Enhanced,
        &p,
        ExecMode::Execute,
        768,
        b,
        &opts,
        FaultPlan::none(),
        Some(&a),
    )
    .expect("scheme runs");
    let got = hash_factor(&out.factor.expect("Execute mode factor").cast());
    assert_eq!(
        got, 0x7d06_3a9e_519e_2c5a,
        "f32 n=768: factor hash {got:#018x}"
    );
    let a = spd_diag_dominant(712, 11);
    let magma = factor_magma(&p, ExecMode::Execute, 712, b, Some(&a), false).expect("magma runs");
    let got = hash_factor(&magma.factor.expect("Execute mode factor"));
    assert_eq!(
        got, 0x9058_9bb5_aa98_8d83,
        "MAGMA n=712: factor hash {got:#018x}"
    );
}
