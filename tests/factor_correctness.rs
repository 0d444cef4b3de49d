//! Integration: numerical correctness of every factorization path across
//! sizes, block sizes (including ragged edges), and matrix families.

use hchol::prelude::*;
use hchol_blas::potrf::{potrf_blocked, reconstruct_lower};
use hchol_core::cula::factor_cula;
use hchol_core::magma::{factor_magma, factor_outer};
use hchol_core::solve::{log_det, solve_with_factor};
use hchol_matrix::generate::{known_factor, lehmer, spd_diag_dominant, spd_gram};
use hchol_matrix::{approx_eq, relative_residual, Matrix};
use proptest::prelude::*;

fn all_paths_factor(a: &Matrix, b: usize) -> Vec<(String, Matrix)> {
    let n = a.rows();
    let p = SystemProfile::test_profile();
    let opts = AbftOptions::default();
    let mut out = Vec::new();
    let mut host = a.clone();
    potrf_blocked(&mut host, b).unwrap();
    out.push(("host potrf".to_string(), host));
    out.push((
        "magma".to_string(),
        factor_magma(&p, ExecMode::Execute, n, b, Some(a), false)
            .unwrap()
            .factor
            .unwrap(),
    ));
    out.push((
        "outer".to_string(),
        factor_outer(&p, ExecMode::Execute, n, b, Some(a), false)
            .unwrap()
            .factor
            .unwrap(),
    ));
    out.push((
        "cula".to_string(),
        factor_cula(&p, ExecMode::Execute, n, b, Some(a))
            .unwrap()
            .factor
            .unwrap(),
    ));
    for kind in SchemeKind::all() {
        out.push((
            kind.name().to_string(),
            run_clean(kind, &p, ExecMode::Execute, n, b, &opts, Some(a))
                .unwrap()
                .factor
                .unwrap(),
        ));
    }
    out
}

#[test]
fn all_paths_agree_on_diag_dominant() {
    let a = spd_diag_dominant(80, 1);
    let factors = all_paths_factor(&a, 16);
    let reference = &factors[0].1;
    for (name, l) in &factors {
        assert!(
            approx_eq(l, reference, 1e-9),
            "{name} disagrees with the host reference"
        );
        assert!(
            relative_residual(&reconstruct_lower(l), &a) < 1e-12,
            "{name} residual too large"
        );
    }
}

#[test]
fn gram_and_lehmer_matrices_factor_cleanly() {
    for (label, a) in [("gram", spd_gram(48, 2)), ("lehmer", lehmer(48))] {
        let factors = all_paths_factor(&a, 8);
        for (name, l) in &factors {
            let r = relative_residual(&reconstruct_lower(l), &a);
            assert!(r < 1e-10, "{label}/{name}: residual {r:.2e}");
        }
    }
}

#[test]
fn known_factor_recovered_through_the_full_stack() {
    let (l_true, a) = known_factor(64, 9);
    let p = SystemProfile::test_profile();
    let out = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::Execute,
        64,
        16,
        &AbftOptions::default(),
        Some(&a),
    )
    .unwrap();
    assert!(approx_eq(&out.factor.unwrap(), &l_true, 1e-10));
}

#[test]
fn ragged_edge_sizes_work_on_every_path() {
    // n % b != 0: the last block row and column are partial tiles.
    for n in [7usize, 33, 61, 100] {
        let a = spd_diag_dominant(n, n as u64);
        for (name, l) in all_paths_factor(&a, 16) {
            let r = relative_residual(&reconstruct_lower(&l), &a);
            assert!(r < 1e-12, "n={n} {name}: residual {r:.2e}");
        }
    }
}

#[test]
fn solve_and_logdet_through_scheme_factor() {
    let n = 64;
    let a = spd_diag_dominant(n, 77);
    let p = SystemProfile::test_profile();
    let out = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::Execute,
        n,
        16,
        &AbftOptions::default(),
        Some(&a),
    )
    .unwrap();
    let l = out.factor.unwrap();
    // Solve against a known x.
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let mut b = vec![0.0; n];
    hchol_blas::gemv(hchol_matrix::Trans::No, 1.0, &a, &x_true, 0.0, &mut b);
    let x = solve_with_factor(&l, &b);
    for (got, want) in x.iter().zip(&x_true) {
        assert!((got - want).abs() < 1e-9);
    }
    // log det is finite and positive for this strongly PD matrix.
    let ld = log_det(&l);
    assert!(ld.is_finite() && ld > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random SPD inputs, random valid block sizes: every hybrid path
    /// matches the host oracle.
    #[test]
    fn random_spd_factors_match_oracle(seed in 0u64..5000, bpow in 2usize..5) {
        let b = 1usize << bpow;         // 4..16
        let nt = 2 + (seed as usize % 4); // 2..5 tiles
        let n = b * nt;
        let a = spd_diag_dominant(n, seed);
        let factors = all_paths_factor(&a, b);
        let oracle = &factors[0].1;
        for (name, l) in &factors {
            prop_assert!(approx_eq(l, oracle, 1e-9), "{} disagrees", name);
        }
    }
}
