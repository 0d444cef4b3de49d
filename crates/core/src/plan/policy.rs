//! Scheme policy passes: each ABFT protocol is a rewrite of the
//! Algorithm-1 skeleton, inserting encode / checksum-update / verify
//! nodes at the positions that define the protocol.
//!
//! * [`OfflinePolicy`] — encode once up front, updates ride along, one
//!   acceptance sweep at the very end (Huang & Abraham).
//! * [`OnlinePolicy`] — verify each block right after the operation that
//!   writes it, plus the final sweep (Wu & Chen).
//! * [`EnhancedPolicy`] — verify every input right before the operation
//!   that reads it (this paper); Optimization 3's verification interval
//!   `K` decides *which* GEMM/TRSM input checks are inserted, so the
//!   relaxation is visible in the plan itself.
//!
//! [`apply_placement`] is Optimization 2 as a rewrite: CPU checksum
//! placement inserts the panel-mirror nodes the host-side updates need.
//! The insertion positions reproduce the legacy imperative drivers
//! exactly — the golden-equivalence suite pins this byte-for-byte.

use super::{FactorPlan, NodeId, SweepKind, TaskKind, UpdateOp};
use crate::ops;
use crate::options::{AbftOptions, ChecksumPlacement};
use hchol_faults::InjectionPoint;
use hchol_obs::Phase;

/// A rewrite of the factorization skeleton implementing one scheme.
pub trait PolicyPass {
    /// Insert this scheme's fault-tolerance nodes into `plan`.
    fn apply(&self, plan: &mut FactorPlan, opts: &AbftOptions);
}

/// Encode → factor → verify-at-the-end.
pub struct OfflinePolicy;

/// Verify after write, plus the final sweep.
pub struct OnlinePolicy;

/// Verify before read (the paper's scheme).
pub struct EnhancedPolicy;

/// Recognises one Algorithm-1 step of iteration `j` among the task kinds.
type IsStep = fn(&TaskKind, usize) -> bool;

fn is_syrk(k: &TaskKind, j: usize) -> bool {
    matches!(k, TaskKind::Syrk { j: jj, .. } if *jj == j)
}
fn is_diag_d2h(k: &TaskKind, j: usize) -> bool {
    matches!(k, TaskKind::DiagToHost { j: jj } if *jj == j)
}
fn is_gemm(k: &TaskKind, j: usize) -> bool {
    matches!(k, TaskKind::GemmPanel { j: jj, .. } if *jj == j)
}
fn is_diag_h2d(k: &TaskKind, j: usize) -> bool {
    matches!(k, TaskKind::DiagToDevice { j: jj } if *jj == j)
}
fn is_trsm(k: &TaskKind, j: usize) -> bool {
    matches!(k, TaskKind::TrsmPanel { j: jj, .. } if *jj == j)
}

/// The first node of iteration `j` that `is` recognises.
fn find_step(plan: &FactorPlan, is: IsStep, j: usize) -> Option<NodeId> {
    plan.find_in(j, |n| is(&n.kind, j))
}

/// Drop the first node of iteration `j` whose kind `f` accepts.
fn remove_if(plan: &mut FactorPlan, j: usize, f: impl Fn(&TaskKind) -> bool) {
    if let Some(id) = plan.find_in(j, |n| f(&n.kind)) {
        plan.remove(id);
    }
}

/// Flip the `propagate` flags so fault effects follow the data flow in the
/// injector's ledger (Enhanced omits POTF2 propagation: its inputs were
/// verified immediately before, so a surviving error is local).
fn set_propagation(plan: &mut FactorPlan, include_potf2: bool) {
    for id in plan.order().to_vec() {
        match &mut plan.node_mut(id).kind {
            TaskKind::Syrk { propagate, .. }
            | TaskKind::GemmPanel { propagate, .. }
            | TaskKind::TrsmPanel { propagate, .. } => *propagate = true,
            TaskKind::Potf2 { propagate, .. } => *propagate = include_potf2,
            _ => {}
        }
    }
}

/// Insert the checksum-update nodes mirroring each factorization
/// operation, in the legacy per-scope order (operation → updates → fault
/// poll).
fn insert_updates(plan: &mut FactorPlan) {
    let nt = plan.nt;
    for j in 0..nt {
        // (the mirrored step, its update, the block rows it maintains)
        let mirrors: [(IsStep, UpdateOp, std::ops::Range<usize>); 4] = [
            (is_syrk, UpdateOp::Syrk, j..j + 1),
            (is_gemm, UpdateOp::Gemm, j + 1..nt),
            (is_diag_h2d, UpdateOp::Potf2, j..j + 1),
            (is_trsm, UpdateOp::Trsm, j + 1..nt),
        ];
        for (is_step, op, rows) in mirrors {
            let Some(at) = find_step(plan, is_step, j) else {
                continue;
            };
            let (scope, iter) = (plan.node(at).scope, plan.node(at).iter);
            let mut anchor = at;
            for i in rows {
                anchor = plan.insert_after(anchor, TaskKind::ChkUpdate { op, j, i }, scope, iter);
            }
        }
    }
}

/// Append the panel-ready mark at the end of each iteration (checksum
/// updates dispatched to non-compute streams order behind it).
fn insert_marks(plan: &mut FactorPlan) {
    for j in 0..plan.nt {
        plan.insert_after(plan.iter_last(j), TaskKind::MarkPanelReady, None, Some(j));
    }
}

/// The tiles the Enhanced scheme verifies before iteration `j`'s SYRK:
/// the diagonal block and its factorized row panel.
pub fn syrk_input_tiles(j: usize) -> Vec<(usize, usize)> {
    let mut tiles = vec![(j, j)];
    tiles.extend((0..j).map(|k| (j, k)));
    tiles
}

/// The tiles the Enhanced scheme verifies before iteration `j`'s panel
/// GEMM: the panel being updated (B), the factorized row panel (C), and
/// the factorized body panel (D). These are the checks Optimization 3
/// gates on `j % K == 0`.
pub fn gemm_input_tiles(nt: usize, j: usize) -> Vec<(usize, usize)> {
    let mut tiles: Vec<(usize, usize)> = Vec::new();
    for i in (j + 1)..nt {
        tiles.push((i, j)); // B: the panel being updated
    }
    for k in 0..j {
        tiles.push((j, k)); // C: the row panel
        for i in (j + 1)..nt {
            tiles.push((i, k)); // D: the body panel
        }
    }
    tiles
}

/// The tiles the Enhanced scheme verifies before iteration `j`'s panel
/// TRSM: the factorized diagonal and the panel column (K-gated, like the
/// GEMM inputs).
pub fn trsm_input_tiles(nt: usize, j: usize) -> Vec<(usize, usize)> {
    let mut tiles = vec![(j, j)];
    tiles.extend(((j + 1)..nt).map(|i| (i, j)));
    tiles
}

/// Insert a verify/correct pair (one fresh `"verify"` scope) immediately
/// before `anchor`.
fn insert_check_before(
    plan: &mut FactorPlan,
    anchor: NodeId,
    tiles: Vec<(usize, usize)>,
    iter: usize,
) {
    let sc = plan.scope("verify", Phase::Verify);
    for kind in TaskKind::check_pair(tiles, SweepKind::Inline, false, iter) {
        plan.insert_before(anchor, kind, Some(sc), Some(iter));
    }
}

/// Insert a verify/correct pair immediately after `anchor`.
fn insert_check_after(
    plan: &mut FactorPlan,
    anchor: NodeId,
    tiles: Vec<(usize, usize)>,
    iter: usize,
) {
    let sc = plan.scope("verify", Phase::Verify);
    let mut at = anchor;
    for kind in TaskKind::check_pair(tiles, SweepKind::Inline, false, iter) {
        at = plan.insert_after(at, kind, Some(sc), Some(iter));
    }
}

/// Insert the attempt tail of the Offline/Online protocols before the
/// drain barrier: flush any pending panel mirror, then sweep the full
/// lower triangle in one `"final verify"` scope, in chunks of 256 tiles.
fn insert_final_sweep(plan: &mut FactorPlan) {
    let drain = plan
        .rfind(|n| matches!(n.kind, TaskKind::Drain))
        .expect("plan has drain");
    plan.insert_before(drain, TaskKind::FlushMirror, None, None);
    let sc = plan.scope("final verify", Phase::Verify);
    let nt = plan.nt;
    for chunk in ops::lower_tiles(nt).chunks(256) {
        for kind in TaskKind::check_pair(chunk.to_vec(), SweepKind::Final, false, nt) {
            plan.insert_before(drain, kind, Some(sc), None);
        }
    }
}

/// Insert the initial encoding at the very front of the plan.
fn insert_encode(plan: &mut FactorPlan) {
    let sc = plan.scope("encode", Phase::Encode);
    let first = plan.order()[0];
    plan.insert_before(first, TaskKind::Encode, Some(sc), None);
}

impl PolicyPass for OfflinePolicy {
    fn apply(&self, plan: &mut FactorPlan, _opts: &AbftOptions) {
        set_propagation(plan, true);
        insert_updates(plan);
        insert_marks(plan);
        insert_final_sweep(plan);
        insert_encode(plan);
    }
}

impl PolicyPass for OnlinePolicy {
    fn apply(&self, plan: &mut FactorPlan, _opts: &AbftOptions) {
        let nt = plan.nt;
        set_propagation(plan, true);
        insert_updates(plan);
        insert_marks(plan);
        for j in 0..nt {
            let panel: Vec<(usize, usize)> = ((j + 1)..nt).map(|i| (i, j)).collect();
            // SYRK output (the diagonal block), before it ships to the host.
            if j > 0 {
                let d2h = find_step(plan, is_diag_d2h, j).expect("skeleton has diag d2h");
                insert_check_before(plan, d2h, vec![(j, j)], j);
            }
            // GEMM's outputs (the panel) and POTF2's output, before TRSM
            // reads them.
            let trsm = find_step(plan, is_trsm, j).expect("skeleton has trsm");
            if j > 0 && !panel.is_empty() {
                insert_check_before(plan, trsm, panel.clone(), j);
            }
            insert_check_before(plan, trsm, vec![(j, j)], j);
            // TRSM's outputs.
            if !panel.is_empty() {
                let mark = plan
                    .find_in(j, |n| matches!(n.kind, TaskKind::MarkPanelReady))
                    .expect("mark inserted above");
                insert_check_after(plan, mark, panel, j);
            }
        }
        insert_final_sweep(plan);
        insert_encode(plan);
    }
}

impl PolicyPass for EnhancedPolicy {
    fn apply(&self, plan: &mut FactorPlan, opts: &AbftOptions) {
        let nt = plan.nt;
        // The legacy driver skips the GEMM step entirely when there is no
        // panel or no trailing update (j = 0), and the TRSM step on the last
        // iteration — prune those groups (including their fault polls)
        // before anchoring insertions.
        for j in 0..nt {
            let has_panel = j + 1 < nt;
            if !(has_panel && j > 0) {
                remove_if(plan, j, |k| is_gemm(k, j));
                remove_if(plan, j, |k| {
                    matches!(
                        k,
                        TaskKind::FaultPoint(InjectionPoint::PostGemm { iter }) if *iter == j
                    )
                });
            }
            if !has_panel {
                remove_if(plan, j, |k| is_trsm(k, j));
                remove_if(plan, j, |k| {
                    matches!(
                        k,
                        TaskKind::FaultPoint(InjectionPoint::PostTrsm { iter }) if *iter == j
                    )
                });
            }
        }
        set_propagation(plan, false);
        insert_updates(plan);
        insert_marks(plan);
        for j in 0..nt {
            let has_panel = j + 1 < nt;
            // SYRK inputs A = (j,j) and C = (j,k), k < j — every iteration.
            let syrk = find_step(plan, is_syrk, j).expect("skeleton has syrk");
            insert_check_before(plan, syrk, syrk_input_tiles(j), j);
            // POTF2 input (the SYRK output) — every iteration.
            let d2h = find_step(plan, is_diag_d2h, j).expect("skeleton has diag d2h");
            insert_check_before(plan, d2h, vec![(j, j)], j);
            // GEMM inputs B, C, D — on K-gated iterations.
            if has_panel && j > 0 && opts.verifies_on(j) {
                let gemm =
                    find_step(plan, is_gemm, j).expect("gemm present when has_panel && j > 0");
                insert_check_before(plan, gemm, gemm_input_tiles(nt, j), j);
            }
            // TRSM inputs L = (j,j) and B = (i,j) — on K-gated iterations.
            if has_panel && opts.verifies_on(j) {
                let trsm = find_step(plan, is_trsm, j).expect("trsm present when has_panel");
                insert_check_before(plan, trsm, trsm_input_tiles(nt, j), j);
            }
        }
        insert_encode(plan);
    }
}

/// Optimization 2 as a rewrite: CPU checksum placement queues a host
/// mirror of each freshly factorized panel column (the mirror itself is
/// issued by the next iteration's diagonal transfer, or by the tail
/// flush). A no-op for GPU/inline placement. `Auto` must be resolved by
/// the decision model before planning.
///
/// # Examples
///
/// CPU placement adds one [`TaskKind::MirrorPanel`] per iteration:
///
/// ```
/// use hchol_core::options::ChecksumPlacement;
/// use hchol_core::plan::{policy, skeleton, DriveStyle, TaskKind};
///
/// let mut plan = skeleton::algorithm1(4, DriveStyle::Overlapped, false, false);
/// policy::apply_placement(&mut plan, ChecksumPlacement::Cpu);
/// assert!(plan.cpu_mirrors);
/// let mirrors = plan
///     .order()
///     .iter()
///     .filter(|&&id| matches!(plan.node(id).kind, TaskKind::MirrorPanel { .. }))
///     .count();
/// assert_eq!(mirrors, 4);
/// ```
pub fn apply_placement(plan: &mut FactorPlan, placement: ChecksumPlacement) {
    assert_ne!(
        placement,
        ChecksumPlacement::Auto,
        "plans require a resolved checksum placement"
    );
    if placement != ChecksumPlacement::Cpu {
        return;
    }
    plan.cpu_mirrors = true;
    for j in 0..plan.nt {
        plan.insert_after(
            plan.iter_last(j),
            TaskKind::MirrorPanel { j },
            None,
            Some(j),
        );
    }
}

/// The fused-epilogue rewrite (Enhanced scheme only, gated by
/// `AbftOptions::chk_fused`): mark each SYRK/GEMM kernel fused — it
/// deposits fresh checksums of the tiles it writes in its own epilogue —
/// and turn every inline verify batch whose tiles were *last written by a
/// fused kernel* into a compare-only batch reading those deposits. Tiles
/// whose last writer is not fused (TRSM outputs, the returned POTF2 block,
/// pristine input) keep their plain recalculate-then-compare batches; a
/// mixed batch is split into a plain part and a fused part.
///
/// Coverage is decided by walking the authored order with a per-tile
/// "last writer was fused" map — the same last-writer notion the static
/// checker uses, so a rewritten plan keeps every verify-before-read
/// obligation intact (the fused deposit edge replaces the recalculation
/// read edge).
///
/// # Examples
///
/// Building an Enhanced plan with `chk_fused` runs this rewrite; the
/// result carries compare-only verify batches:
///
/// ```
/// use hchol_core::options::{AbftOptions, ChecksumPlacement};
/// use hchol_core::plan::{for_scheme, TaskKind};
/// use hchol_core::schemes::SchemeKind;
///
/// let opts = AbftOptions::default()
///     .with_placement(ChecksumPlacement::Gpu)
///     .with_chk_fused(true);
/// let plan = for_scheme(SchemeKind::Enhanced, 4, &opts, false);
/// assert!(plan.order().iter().any(|&id| matches!(
///     plan.node(id).kind,
///     TaskKind::VerifyBatch { fused: true, .. }
/// )));
/// ```
pub fn apply_chk_fused(plan: &mut FactorPlan) {
    let nt = plan.nt;
    // Pass 1: mark the producers. SYRK/GEMM at j = 0 are no-ops (no
    // trailing update) and never run a fused epilogue.
    for id in plan.order().to_vec() {
        match &mut plan.node_mut(id).kind {
            TaskKind::Syrk { j, fused, .. } if *j > 0 => *fused = true,
            TaskKind::GemmPanel { j, fused, .. } if *j > 0 => *fused = true,
            _ => {}
        }
    }
    // Pass 2: walk the order tracking which tiles' last writer deposited
    // fused checksums (tile (i, j) at i·nt + j), and rewrite the verify
    // pairs accordingly.
    let mut covered = vec![false; nt * nt];
    for id in plan.order().to_vec() {
        let node = plan.node(id);
        let iter = node.iter;
        match node.kind.clone() {
            TaskKind::Syrk { j, fused, .. } if j > 0 => covered[j * nt + j] = fused,
            TaskKind::GemmPanel { j, fused, .. } if j > 0 && j + 1 < nt => {
                for i in (j + 1)..nt {
                    covered[i * nt + j] = fused;
                }
            }
            TaskKind::TrsmPanel { j, .. } => {
                for i in (j + 1)..nt {
                    covered[i * nt + j] = false;
                }
            }
            TaskKind::DiagToDevice { j } => covered[j * nt + j] = false,
            TaskKind::Correct { tiles, .. } => {
                // A correction may rewrite the tile; deposits are stale
                // afterwards.
                for (i, j) in tiles {
                    covered[i * nt + j] = false;
                }
            }
            TaskKind::VerifyBatch {
                tiles,
                sweep: SweepKind::Inline,
                fused: false,
                depth,
            } => {
                let (fused_part, plain_part): (Vec<_>, Vec<_>) = tiles
                    .iter()
                    .copied()
                    .partition(|&(i, j)| covered[i * nt + j]);
                if fused_part.is_empty() {
                    continue;
                }
                if plain_part.is_empty() {
                    // Whole batch covered: flip the pair in place.
                    plan.set_check_pair(id, &tiles, true);
                } else {
                    // Mixed batch: shrink the plain pair to the uncovered
                    // tiles and append a fused pair for the rest.
                    let mut at = plan.set_check_pair(id, &plain_part, false);
                    let sc = plan.scope("verify", Phase::Verify);
                    for kind in TaskKind::check_pair(fused_part, SweepKind::Inline, true, depth) {
                        at = plan.insert_after(at, kind, Some(sc), iter);
                    }
                }
            }
            _ => {}
        }
    }
}
