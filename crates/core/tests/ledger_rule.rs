//! The fault ledger's one propagation rule (`ops::propagate`), read off
//! the tiles each factorization kind declares, against the data flow of
//! the operation itself.

use hchol_core::ops::{gemm_panel_access, lower_tiles, propagate, syrk_access, trsm_panel_access};
use hchol_faults::{
    Dirtiness, FaultKind, FaultPlan, FaultSpec, FaultTarget, InjectionPoint, Injector,
};

/// The one ledger rule, read off each kind's declared tiles, spreads a
/// single struck tile along that operation's data flow and nowhere
/// else, for the whole panel and for a shard's slice of it: SYRK j
/// `(j,j) ← (j,0..j)`, GEMM j `(i,j) ← (i,0..j), (j,0..j)`, TRSM j
/// `(i,j) ← (j,j)`. A written tile's own strike stays `Direct`.
#[test]
fn ledger_rule_spreads_each_kind_along_its_data_flow() {
    let point = InjectionPoint::IterStart { iter: 0 };
    let struck = |bi, bj| {
        let target = FaultTarget {
            bi,
            bj,
            row: 0,
            col: 0,
        };
        let kind = FaultKind::computing();
        let mut inj = Injector::new(FaultPlan::single(FaultSpec {
            point,
            target,
            kind,
        }));
        inj.poll_timing(point);
        inj
    };
    let nt = 5;
    for j in 0..nt {
        let panel: Vec<usize> = (j + 1..nt).collect();
        let slice: Vec<usize> = (j + 1..nt).step_by(2).collect();
        for rows in [panel, slice] {
            for (bi, bj) in lower_tiles(nt) {
                let syrk = match bi == j && bj < j {
                    true => vec![(j, j)],
                    false => vec![],
                };
                let gemm = rows
                    .iter()
                    .filter(|&&i| bj < j && (bi == i || bi == j))
                    .map(|&i| (i, j))
                    .collect();
                let trsm = match (bi, bj) == (j, j) {
                    true => rows.iter().map(|&i| (i, j)).collect(),
                    false => vec![],
                };
                for (access, spread) in [
                    (syrk_access(nt, j, 0..j, true), syrk),
                    (gemm_panel_access(nt, j, 0..j, &rows, true), gemm),
                    (trsm_panel_access(j, &rows), trsm),
                ] {
                    let mut inj = struck(bi, bj);
                    propagate(&mut inj, &access);
                    for (i, c) in lower_tiles(nt) {
                        let want = if spread.contains(&(i, c)) {
                            Some(Dirtiness::Propagated)
                        } else {
                            ((i, c) == (bi, bj)).then_some(Dirtiness::Direct)
                        };
                        let got = inj.dirtiness(i, c);
                        assert_eq!(
                            got, want,
                            "j={j} rows={rows:?} strike ({bi},{bj}) at ({i},{c})"
                        );
                    }
                }
            }
        }
    }
}
