//! Scheme policy passes: each ABFT protocol is a rewrite of the
//! Algorithm-1 skeleton, writing encode / checksum-update / verify nodes
//! at the positions that define the protocol. Each step below is one walk
//! over the issue order (`FactorPlan::rewrite`).
//!
//! * [`OfflinePolicy`] — encode once up front, updates ride along, one
//!   acceptance sweep at the very end (Huang & Abraham).
//! * [`OnlinePolicy`] — verify each block right after the operation that
//!   writes it, plus the final sweep (Wu & Chen).
//! * [`EnhancedPolicy`] — verify every input right before the operation
//!   that reads it (this paper); Optimization 3's verification interval
//!   `K` decides *which* GEMM/TRSM input checks are written, so the
//!   relaxation is visible in the plan itself.
//!
//! [`apply_placement`] is Optimization 2 as a rewrite: CPU checksum
//! placement writes the panel-mirror nodes the host-side updates need.
//! The positions reproduce the legacy imperative drivers exactly — the
//! golden-equivalence suite pins this byte-for-byte.

use super::{FactorPlan, NodeId, SweepKind, TaskKind, UpdateOp};
use crate::ops;
use crate::options::{AbftOptions, ChecksumPlacement};
use hchol_faults::InjectionPoint;
use hchol_obs::Phase;

/// A rewrite of the factorization skeleton implementing one scheme.
pub trait PolicyPass {
    /// Write this scheme's fault-tolerance nodes into `plan`.
    fn apply(&self, plan: &mut FactorPlan, opts: &AbftOptions);
}

/// Encode → factor → verify-at-the-end.
pub struct OfflinePolicy;

/// Verify after write, plus the final sweep.
pub struct OnlinePolicy;

/// Verify before read (the paper's scheme).
pub struct EnhancedPolicy;

/// The steps the legacy Enhanced driver skips, fault polls included: the
/// GEMM where there is no panel or no trailing update (j = 0), and the
/// TRSM of the last iteration.
fn skipped(kind: &TaskKind, nt: usize) -> bool {
    match *kind {
        TaskKind::GemmPanel { j, .. }
        | TaskKind::FaultPoint(InjectionPoint::PostGemm { iter: j }) => j == 0 || j + 1 >= nt,
        TaskKind::TrsmPanel { j, .. }
        | TaskKind::FaultPoint(InjectionPoint::PostTrsm { iter: j }) => j + 1 >= nt,
        _ => false,
    }
}

/// Write each factorization operation with the checksum-update nodes
/// mirroring it right behind it, in the legacy per-scope order
/// (operation → updates → fault poll). For Enhanced, the steps it skips are
/// not written. POTF2 gets its ledger smear ([`TaskKind::Potf2`]'s
/// `propagate`) except under Enhanced: its inputs were verified immediately
/// before, so a surviving error is local.
fn write_updates(plan: &mut FactorPlan, enhanced: bool) {
    let nt = plan.nt;
    plan.rewrite(|plan, run| {
        for &id in run {
            let node = plan.node_mut(id);
            let (scope, iter) = (node.scope, node.iter);
            // (the update, its outer iteration, the block rows it maintains)
            let mirror = match &mut node.kind {
                k if enhanced && skipped(k, nt) => continue,
                TaskKind::Syrk { j, .. } => Some((UpdateOp::Syrk, *j, *j..*j + 1)),
                TaskKind::GemmPanel { j, .. } => Some((UpdateOp::Gemm, *j, *j + 1..nt)),
                TaskKind::Potf2 { propagate, .. } => {
                    *propagate = !enhanced;
                    None
                }
                TaskKind::DiagToDevice { j } => Some((UpdateOp::Potf2, *j, *j..*j + 1)),
                TaskKind::TrsmPanel { j, .. } => Some((UpdateOp::Trsm, *j, *j + 1..nt)),
                _ => None,
            };
            plan.keep(id);
            if let Some((op, j, rows)) = mirror {
                for i in rows {
                    plan.push(TaskKind::ChkUpdate { op, j, i }, scope, iter);
                }
            }
        }
    });
}

/// Write the panel-ready mark at the end of each iteration (checksum
/// updates dispatched to non-compute streams order behind it).
fn write_marks(plan: &mut FactorPlan) {
    plan.append_to_iterations(|_| TaskKind::MarkPanelReady);
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

/// Write inline verify batches around the nodes of each iteration:
/// `checks(kind, j, after)` names the tile batches checked right before
/// (`after = false`) or right behind a node of iteration `j`, each under a
/// fresh `"verify"` scope.
fn write_checks(
    plan: &mut FactorPlan,
    checks: impl Fn(&TaskKind, usize, bool) -> Vec<Vec<(usize, usize)>>,
) {
    plan.rewrite(|plan, run| {
        let Some(j) = plan.node(run[0]).iter else {
            return run.iter().for_each(|&id| plan.keep(id));
        };
        let write = |plan: &mut FactorPlan, id: NodeId, after: bool| {
            for tiles in checks(&plan.node(id).kind, j, after) {
                let sc = plan.scope("verify", Phase::Verify);
                let batch = TaskKind::VerifyBatch {
                    tiles,
                    sweep: SweepKind::Inline,
                    fused: false,
                    depth: j,
                };
                plan.push(batch, Some(sc), Some(j));
            }
        };
        for &id in run {
            write(plan, id, false);
            plan.keep(id);
            write(plan, id, true);
        }
    });
}

/// Write the attempt tail of the Offline/Online protocols before the drain
/// barrier: flush any pending panel mirror, then sweep the full lower
/// triangle in one `"final verify"` scope, in chunks of 256 tiles.
fn write_final_sweep(plan: &mut FactorPlan) {
    let nt = plan.nt;
    plan.rewrite(|plan, run| {
        for &id in run {
            if matches!(plan.node(id).kind, TaskKind::Drain) {
                plan.push(TaskKind::FlushMirror, None, None);
                let sc = plan.scope("final verify", Phase::Verify);
                for chunk in ops::lower_tiles(nt).chunks(256) {
                    let batch = TaskKind::VerifyBatch {
                        tiles: chunk.to_vec(),
                        sweep: SweepKind::Final,
                        fused: false,
                        depth: nt,
                    };
                    plan.push(batch, Some(sc), None);
                }
            }
            plan.keep(id);
        }
    });
}

/// Write the initial encoding at the very front of the plan.
fn write_encode(plan: &mut FactorPlan) {
    let mut first = true;
    plan.rewrite(|plan, run| {
        if std::mem::take(&mut first) {
            let sc = plan.scope("encode", Phase::Encode);
            plan.push(TaskKind::Encode, Some(sc), None);
        }
        run.iter().for_each(|&id| plan.keep(id));
    });
}

impl PolicyPass for OfflinePolicy {
    fn apply(&self, plan: &mut FactorPlan, _opts: &AbftOptions) {
        write_updates(plan, false);
        write_marks(plan);
        write_final_sweep(plan);
        write_encode(plan);
    }
}

impl PolicyPass for OnlinePolicy {
    fn apply(&self, plan: &mut FactorPlan, _opts: &AbftOptions) {
        let nt = plan.nt;
        write_updates(plan, false);
        write_marks(plan);
        write_checks(plan, |kind, j, after| {
            let panel = || ((j + 1)..nt).map(|i| (i, j)).collect();
            match (kind, after) {
                // SYRK output (the diagonal block), before it ships to the
                // host.
                (TaskKind::DiagToHost { .. }, false) if j > 0 => vec![vec![(j, j)]],
                // GEMM's outputs (the panel) and POTF2's output, before
                // TRSM reads them.
                (TaskKind::TrsmPanel { .. }, false) if j > 0 && j + 1 < nt => {
                    vec![panel(), vec![(j, j)]]
                }
                (TaskKind::TrsmPanel { .. }, false) => vec![vec![(j, j)]],
                // TRSM's outputs, behind the iteration's panel-ready mark.
                (TaskKind::MarkPanelReady, true) if j + 1 < nt => vec![panel()],
                _ => vec![],
            }
        });
        write_final_sweep(plan);
        write_encode(plan);
    }
}

impl PolicyPass for EnhancedPolicy {
    fn apply(&self, plan: &mut FactorPlan, opts: &AbftOptions) {
        let nt = plan.nt;
        write_updates(plan, true);
        write_marks(plan);
        write_checks(plan, |kind, j, after| match kind {
            _ if after => vec![],
            // SYRK inputs A = (j,j) and C = (j,k), k < j — every iteration.
            TaskKind::Syrk { .. } => vec![syrk_input_tiles(j)],
            // POTF2 input (the SYRK output) — every iteration.
            TaskKind::DiagToHost { .. } => vec![vec![(j, j)]],
            // GEMM inputs B, C, D and TRSM inputs L = (j,j), B = (i,j) — on
            // K-gated iterations.
            TaskKind::GemmPanel { .. } if opts.verifies_on(j) => vec![gemm_input_tiles(nt, j)],
            TaskKind::TrsmPanel { .. } if opts.verifies_on(j) => vec![trsm_input_tiles(nt, j)],
            _ => vec![],
        });
        write_encode(plan);
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
/// assert!(plan.cpu_mirrors());
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
    plan.append_to_iterations(|j| TaskKind::MirrorPanel { j });
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
    // Carried through the walk: which tiles' last writer deposited fused
    // checksums (tile (i, j) at i·nt + j).
    let mut covered = vec![false; nt * nt];
    plan.rewrite(|plan, run| {
        for &id in run {
            let node = plan.node_mut(id);
            let iter = node.iter;
            let mut fused_tail = None;
            match &mut node.kind {
                // The producers. SYRK/GEMM at j = 0 are no-ops (no trailing
                // update) and never run a fused epilogue.
                TaskKind::Syrk { j, fused, .. } if *j > 0 => {
                    *fused = true;
                    covered[*j * nt + *j] = true;
                }
                TaskKind::GemmPanel { j, fused, .. } if *j > 0 => {
                    *fused = true;
                    for i in (*j + 1)..nt {
                        covered[i * nt + *j] = true;
                    }
                }
                TaskKind::TrsmPanel { j, .. } => {
                    for i in (*j + 1)..nt {
                        covered[i * nt + *j] = false;
                    }
                }
                TaskKind::DiagToDevice { j } => covered[*j * nt + *j] = false,
                TaskKind::VerifyBatch {
                    tiles,
                    sweep,
                    fused,
                    depth,
                } => {
                    if *sweep == SweepKind::Inline && !*fused {
                        let (fused_part, plain_part): (Vec<_>, Vec<_>) =
                            tiles.iter().partition(|&&(i, j)| covered[i * nt + j]);
                        match (fused_part.is_empty(), plain_part.is_empty()) {
                            // Nothing covered: the batch stays as written.
                            (true, _) => {}
                            // Whole batch covered: it turns compare-only.
                            (false, true) => *fused = true,
                            // Mixed: it shrinks to the uncovered tiles and a
                            // fused batch for the rest follows it.
                            (false, false) => {
                                *tiles = plain_part;
                                fused_tail = Some(TaskKind::VerifyBatch {
                                    tiles: fused_part,
                                    sweep: SweepKind::Inline,
                                    fused: true,
                                    depth: *depth,
                                });
                            }
                        }
                    }
                    // A correction may rewrite the tile; deposits are stale
                    // afterwards.
                    for &(i, j) in tiles.iter() {
                        covered[i * nt + j] = false;
                    }
                }
                _ => {}
            }
            plan.keep(id);
            if let Some(batch) = fused_tail {
                let sc = plan.scope("verify", Phase::Verify);
                plan.push(batch, Some(sc), iter);
            }
        }
    });
}
