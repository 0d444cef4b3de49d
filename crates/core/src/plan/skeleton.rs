//! The planner: emits the bare Algorithm-1 inner-product (left-looking)
//! blocked Cholesky skeleton as a [`FactorPlan`], with no fault tolerance.
//! Policy passes ([`super::policy`]) insert encode/update/verify nodes into
//! this skeleton; the baselines execute it as-is. Beside it sits the
//! right-looking (outer-product) form PAPER.md §II-A weighs it against,
//! built from the same SYRK/GEMM nodes over a one-column update chain.

use super::{DriveStyle, FactorPlan, TaskKind};
use hchol_faults::InjectionPoint;
use hchol_obs::Phase;

/// Emit the Algorithm-1 skeleton for an `nt × nt` block grid.
///
/// Per iteration `j` the [`DriveStyle::Overlapped`] (MAGMA-style) order is
/// SYRK → diag D2H → panel GEMM → host POTF2 (+ diag H2D) → panel TRSM,
/// with the POTF2 round trip overlapping the GEMM via stream events. The
/// [`DriveStyle::Synchronous`] (CULA-style) order runs POTF2 *before* the
/// GEMM, and the executor drains the device after every node the plan
/// marks host-blocking (SYRK, both transfers, POTF2, GEMM, TRSM). A final
/// [`TaskKind::Drain`] barrier closes the plan.
///
/// [`TaskKind::FaultPoint`] polls are part of the skeleton (one per
/// trigger point) so fault-injection order is identical across schemes;
/// with an inert injector they are observational no-ops, which keeps the
/// baselines byte-identical to their legacy drivers.
pub fn algorithm1(
    nt: usize,
    style: DriveStyle,
    defer_potf2_error: bool,
    faulty: bool,
) -> FactorPlan {
    let mut plan = FactorPlan::new(nt, style, defer_potf2_error, faulty);
    for j in 0..nt {
        plan.push(
            TaskKind::FaultPoint(InjectionPoint::IterStart { iter: j }),
            None,
            Some(j),
        );

        let syrk = plan.scope("syrk", Phase::Syrk);
        let syrk_node = TaskKind::Syrk {
            j,
            cols: 0..j,
            fused: false,
        };
        plan.push(syrk_node, Some(syrk), Some(j));
        plan.push(
            TaskKind::FaultPoint(InjectionPoint::PostSyrk { iter: j }),
            Some(syrk),
            Some(j),
        );

        let d2h = plan.scope("diag d2h", Phase::Transfer);
        plan.push(TaskKind::DiagToHost { j }, Some(d2h), Some(j));

        let emit_gemm = |plan: &mut FactorPlan| {
            let gemm = plan.scope("gemm", Phase::Gemm);
            plan.push(
                TaskKind::GemmPanel {
                    j,
                    cols: 0..j,
                    dev: None,
                    fused: false,
                },
                Some(gemm),
                Some(j),
            );
            plan.push(
                TaskKind::FaultPoint(InjectionPoint::PostGemm { iter: j }),
                Some(gemm),
                Some(j),
            );
        };
        let emit_potf2 = |plan: &mut FactorPlan| {
            let potf2 = plan.scope("potf2", Phase::Potf2);
            plan.push(
                TaskKind::Potf2 {
                    j,
                    propagate: false,
                },
                Some(potf2),
                Some(j),
            );
            plan.push(TaskKind::DiagToDevice { j }, Some(potf2), Some(j));
            plan.push(
                TaskKind::FaultPoint(InjectionPoint::PostPotf2 { iter: j }),
                Some(potf2),
                Some(j),
            );
        };
        match style {
            DriveStyle::Overlapped => {
                emit_gemm(&mut plan);
                emit_potf2(&mut plan);
            }
            DriveStyle::Synchronous => {
                emit_potf2(&mut plan);
                emit_gemm(&mut plan);
            }
        }

        let trsm = plan.scope("trsm", Phase::Trsm);
        plan.push(TaskKind::TrsmPanel { j, dev: None }, Some(trsm), Some(j));
        plan.push(
            TaskKind::FaultPoint(InjectionPoint::PostTrsm { iter: j }),
            Some(trsm),
            Some(j),
        );
    }

    let drain = plan.scope("drain", Phase::Drain);
    plan.push(TaskKind::Drain, Some(drain), None);
    plan
}

/// Emit the right-looking (outer-product) form for an `nt × nt` block grid
/// — the form FT-ScaLAPACK protects and MAGMA rejected (PAPER.md §II-A) —
/// in [`DriveStyle::Overlapped`] driving, with no fault polls.
///
/// Per step `j`: diag D2H → host POTF2 → diag H2D → panel TRSM, then the
/// trailing update `A[i,k] -= L[i,j]·L[k,j]ᵀ` issued per block column
/// `k > j` as a SYRK of `(k, k)` and a GEMM of the tiles below it, each
/// over the one-column chain `j..j+1`. Nothing is in flight to hide the
/// POTF2 round trip behind: the diagonal block of step `j` is final only
/// once step `j - 1`'s trailing update wrote it. A final
/// [`TaskKind::Drain`] closes the plan.
pub fn right_looking(nt: usize) -> FactorPlan {
    let mut plan = FactorPlan::new(nt, DriveStyle::Overlapped, true, false);
    for j in 0..nt {
        let d2h = plan.scope("diag d2h", Phase::Transfer);
        plan.push(TaskKind::DiagToHost { j }, Some(d2h), Some(j));
        let potf2 = plan.scope("potf2", Phase::Potf2);
        let potf2_node = TaskKind::Potf2 {
            j,
            propagate: false,
        };
        plan.push(potf2_node, Some(potf2), Some(j));
        plan.push(TaskKind::DiagToDevice { j }, Some(potf2), Some(j));
        let trsm = plan.scope("trsm", Phase::Trsm);
        plan.push(TaskKind::TrsmPanel { j, dev: None }, Some(trsm), Some(j));
        for k in (j + 1)..nt {
            let syrk = plan.scope("syrk", Phase::Syrk);
            let cols = j..j + 1;
            let syrk_node = TaskKind::Syrk {
                j: k,
                cols: cols.clone(),
                fused: false,
            };
            plan.push(syrk_node, Some(syrk), Some(j));
            let gemm = plan.scope("gemm", Phase::Gemm);
            let gemm_node = TaskKind::GemmPanel {
                j: k,
                cols,
                dev: None,
                fused: false,
            };
            plan.push(gemm_node, Some(gemm), Some(j));
        }
    }
    let drain = plan.scope("drain", Phase::Drain);
    plan.push(TaskKind::Drain, Some(drain), None);
    plan
}
