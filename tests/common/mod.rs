//! Helpers shared by the balancer suites (`balance.rs`, `shard.rs`).

use hchol_core::plan::balance::{BalanceController, RewriteRecord};
use hchol_core::plan::FactorPlan;
use hchol_core::schemes::{FactorOutcome, SchemeKind};

/// Every plan a one-attempt balanced run rewrote, rebuilt in order from its
/// log through the public API: the controller's plan for the start, then,
/// per logged rewrite, a controller in the logged (placement, K) rewriting
/// the previous plan at the logged cut. `faulty` as the run was built.
pub fn replayed_plans(
    kind: SchemeKind,
    nt: usize,
    out: &FactorOutcome,
    faulty: bool,
) -> Vec<(RewriteRecord, FactorPlan)> {
    assert_eq!(out.attempts, 1, "a replay follows one attempt");
    let log = out.balance_log.as_ref().expect("balanced run keeps a log");
    let mut plan = BalanceController::new(kind, &out.opts).plan(nt, faulty);
    log.rewrites
        .iter()
        .map(|rw| {
            let state = out
                .opts
                .clone()
                .with_placement(rw.placement)
                .with_interval(rw.k);
            BalanceController::new(kind, &state).rewrite(&mut plan, rw.at_iter);
            (rw.clone(), plan.clone())
        })
        .collect()
}
