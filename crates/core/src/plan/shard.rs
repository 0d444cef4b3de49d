//! The 2D block-cyclic partitioner: rewrites a policied [`FactorPlan`]
//! for `D` simulated GPUs (see DESIGN.md §12).
//!
//! The grid is `D×1` row-cyclic — tile row `i` (and its checksum row
//! `cks[i]`) lives on device `i mod D` — so every operation that stays
//! within one tile row is device-local. What crosses devices each
//! iteration `j` is exactly the panel traffic of the algorithm:
//!
//! * the **row panel** `(j, 0..j)`, produced by earlier iterations on
//!   `owner(j)` and read by every other device's GEMM shard (and by the
//!   cross-row GEMM checksum updates), and
//! * the **factorized diagonal** `(j, j)`, read by every other device's
//!   TRSM slice (and the cross-row TRSM checksum updates).
//!
//! Both become explicit broadcast nodes: one [`TaskKind::DeviceSend`] on
//! the owner plus one [`TaskKind::DeviceRecv`] per consuming device,
//! connected at the plan level through the [`super::VirtRes::ShardMsg`] /
//! [`super::VirtRes::ShardRecv`] virtual resources (so the static checker can
//! prove every remote consumer sits behind its receive) and at run time
//! through recorded stream events on the modeled peer links.
//!
//! Each panel-wide [`TaskKind::GemmPanel`] / [`TaskKind::TrsmPanel`] node
//! (`dev: None`, every panel row) is rewritten into one copy per device
//! holding rows, `dev: Some(d)` — the same op over device `d`'s row set
//! (per-tile numerics are independent, so the factor stays bit-identical
//! to the single-device run), verify
//! batches are split per owner device, and each iteration ends with a
//! [`TaskKind::ShardParity`] refresh of the column it finalized — the
//! state device-loss recovery reconstructs from.

use super::{FactorPlan, NodeId, PlanNode, ScopeId, ShardSpec, ShardXfer, TaskKind};

/// Rewrite `plan` for `devices` GPUs. Must run after the scheme policy
/// and placement passes. Callers
/// gate on `devices > 1` — a one-device grid is represented as an
/// unsharded plan (`plan.shard()` is `None`) so the byte-stable single-device
/// path is untouched.
pub fn apply_shard(plan: &mut FactorPlan, devices: usize) {
    assert!(devices > 1, "apply_shard requires a multi-device grid");
    assert!(
        !plan.cpu_mirrors,
        "sharding pins checksum updating to the GPU"
    );
    let spec = ShardSpec { devices };
    plan.shard = Some(spec);
    let nt = plan.nt;

    plan.rewrite(|plan, run| {
        let Some(j) = plan.node(run[0]).iter else {
            return run.iter().for_each(|&id| plan.keep(id));
        };
        let owner = spec.owner(j);
        // The devices holding rows of panel column j, and those among them
        // that must receive what the column's owner broadcasts.
        let with_rows: Vec<usize> = (0..devices)
            .filter(|&d| !spec.panel_rows(nt, j, d).is_empty())
            .collect();
        let remote: Vec<usize> = with_rows.iter().copied().filter(|&d| d != owner).collect();

        // Row-panel broadcast: the iteration's first nodes, before its
        // entry fault poll and anything that reads row j on another device.
        if j > 0 && !remote.is_empty() {
            write_broadcast(plan, j, None, ShardXfer::RowPanel, owner, &remote);
        }
        for &id in run {
            match plan.node(id).kind {
                // The panel GEMM becomes one copy per device (none at
                // j = 0, where it is a no-op).
                TaskKind::GemmPanel {
                    dev: None, fused, ..
                } => {
                    assert!(!fused, "sharding does not compose with chk_fused");
                    split_panel_node(plan, id, if j > 0 { &with_rows } else { &[] });
                }
                // Diagonal broadcast + per-device TRSM copies.
                TaskKind::TrsmPanel { dev: None, .. } => {
                    if !remote.is_empty() {
                        let scope = plan.node(id).scope;
                        write_broadcast(plan, j, scope, ShardXfer::Diag, owner, &remote);
                    }
                    split_panel_node(plan, id, &with_rows);
                }
                _ => plan.keep(id),
            }
        }
    });

    split_verify_batches(plan, spec);

    // Parity refresh of each finalized column, as the iteration's last
    // node (after the TRSM checksum updates and any post-panel checks).
    plan.append_to_iterations(|j| TaskKind::ShardParity { j });
}

/// Write the broadcast of payload `what` of iteration `j` under `scope`:
/// the owner's send, then one receive per consuming device.
fn write_broadcast(
    plan: &mut FactorPlan,
    j: usize,
    scope: Option<ScopeId>,
    what: ShardXfer,
    from: usize,
    consumers: &[usize],
) {
    plan.push(TaskKind::DeviceSend { j, what, from }, scope, Some(j));
    for &to in consumers {
        plan.push(TaskKind::DeviceRecv { j, what, to }, scope, Some(j));
    }
}

/// Write the whole-panel node `id` (`dev: None`) as one copy per device of
/// `devs`, each with `dev` rewritten to that device, in its scope.
fn split_panel_node(plan: &mut FactorPlan, id: NodeId, devs: &[usize]) {
    let PlanNode { kind, scope, iter } = plan.node(id).clone();
    for &d in devs {
        let mut copy = kind.clone();
        match &mut copy {
            TaskKind::GemmPanel { dev, .. } | TaskKind::TrsmPanel { dev, .. } => *dev = Some(d),
            _ => unreachable!("only panel nodes are split per device"),
        }
        plan.push(copy, scope, iter);
    }
}

/// Write every verify batch whose tiles span several owner devices as one
/// batch per device. Required for correctness, not just overlap: the
/// recalculation stage records its data-ready events on the executing
/// device's streams only, so a mixed-owner batch would race with writes
/// still in flight on the other devices.
fn split_verify_batches(plan: &mut FactorPlan, spec: ShardSpec) {
    plan.rewrite(|plan, run| {
        for &id in run {
            plan.keep(id);
            let PlanNode { kind, scope, iter } = plan.node_mut(id);
            let (scope, iter) = (*scope, *iter);
            let TaskKind::VerifyBatch {
                tiles,
                sweep,
                fused,
                depth,
            } = kind
            else {
                continue;
            };
            assert!(!*fused, "sharding does not compose with chk_fused");
            // Group by owner, in order of first appearance (deterministic).
            let mut groups: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
            for &(bi, bj) in tiles.iter() {
                let d = spec.owner(bi);
                match groups.iter_mut().find(|(gd, _)| *gd == d) {
                    Some((_, g)) => g.push((bi, bj)),
                    None => groups.push((d, vec![(bi, bj)])),
                }
            }
            // The first group shrinks the batch; the rest follow as fresh
            // batches under the same scope span.
            let (sweep, depth) = (*sweep, *depth);
            let mut groups = groups.into_iter().map(|(_, g)| g);
            *tiles = groups.next().unwrap_or_default();
            for tiles in groups {
                let batch = TaskKind::VerifyBatch {
                    tiles,
                    sweep,
                    fused: false,
                    depth,
                };
                plan.push(batch, scope, iter);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{AbftOptions, ChecksumPlacement};
    use crate::plan::for_scheme;
    use crate::schemes::SchemeKind;

    fn sharded(kind: SchemeKind, nt: usize, d: usize) -> FactorPlan {
        let opts = AbftOptions::default()
            .with_placement(ChecksumPlacement::Gpu)
            .with_shard(crate::options::ShardOptions::new(d));
        for_scheme(kind, nt, &opts, false)
    }

    #[test]
    fn panel_ops_become_per_device_shards() {
        let plan = sharded(SchemeKind::Enhanced, 6, 2);
        assert_eq!(plan.shard, Some(ShardSpec { devices: 2 }));
        assert!(plan.order().iter().all(|&id| !matches!(
            plan.node(id).kind,
            TaskKind::GemmPanel { dev: None, .. } | TaskKind::TrsmPanel { dev: None, .. }
        )));
        // Iteration 1 updates rows 2..6 = both devices; the slices
        // partition the unsharded panel's rows.
        let gemm_devs: Vec<usize> = plan
            .order()
            .iter()
            .filter_map(|&id| match plan.node(id).kind {
                TaskKind::GemmPanel { j: 1, dev, .. } => dev,
                _ => None,
            })
            .collect();
        assert_eq!(gemm_devs, vec![0, 1]);
        let mut rows: Vec<usize> = gemm_devs
            .iter()
            .flat_map(|&d| plan.panel_rows(1, Some(d)))
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, plan.panel_rows(1, None));
    }

    #[test]
    fn broadcasts_pair_sends_with_recvs() {
        let plan = sharded(SchemeKind::Online, 6, 3);
        for j in 1..5 {
            let spec = plan.shard.unwrap();
            let send = plan
                .find(|n| {
                    matches!(n.kind,
                        TaskKind::DeviceSend { j: jj, what: ShardXfer::RowPanel, .. } if jj == j)
                })
                .expect("row-panel send");
            assert!(matches!(
                plan.node(send).kind,
                TaskKind::DeviceSend { from, .. } if from == spec.owner(j)
            ));
            let recvs = plan
                .order()
                .iter()
                .filter(|&&id| {
                    matches!(plan.node(id).kind,
                        TaskKind::DeviceRecv { j: jj, what: ShardXfer::RowPanel, .. } if jj == j)
                })
                .count();
            assert!(recvs >= 1, "j={j} has no row-panel recvs");
        }
    }

    #[test]
    fn verify_batches_are_single_owner() {
        for kind in [
            SchemeKind::Enhanced,
            SchemeKind::Online,
            SchemeKind::Offline,
        ] {
            let plan = sharded(kind, 8, 4);
            let spec = plan.shard.unwrap();
            for &id in plan.order() {
                if let TaskKind::VerifyBatch { tiles, .. } = &plan.node(id).kind {
                    let owners: std::collections::BTreeSet<usize> =
                        tiles.iter().map(|&(bi, _)| spec.owner(bi)).collect();
                    assert!(owners.len() <= 1, "{kind:?}: mixed-owner batch {tiles:?}");
                }
            }
        }
    }

    #[test]
    fn every_iteration_ends_with_parity() {
        let plan = sharded(SchemeKind::Offline, 5, 2);
        for j in 0..5 {
            let last = plan.rfind(|n| n.iter == Some(j)).unwrap();
            assert!(
                matches!(plan.node(last).kind, TaskKind::ShardParity { j: jj } if jj == j),
                "iteration {j} does not end with its parity refresh"
            );
        }
    }

    #[test]
    fn remote_consumers_depend_on_their_recv() {
        let plan = sharded(SchemeKind::Enhanced, 6, 2);
        let spec = plan.shard.unwrap();
        for &id in plan.order() {
            if let TaskKind::GemmPanel {
                j, dev: Some(dev), ..
            } = plan.node(id).kind
            {
                if dev == spec.owner(j) {
                    continue;
                }
                let recv = plan
                    .find(|n| {
                        matches!(n.kind,
                            TaskKind::DeviceRecv { j: jj, what: ShardXfer::RowPanel, to }
                                if jj == j && to == dev)
                    })
                    .expect("remote gemm shard has a recv");
                assert!(
                    plan.deps(id).contains(&recv),
                    "GemmPanel j={j} dev={dev} lacks a dependency on its DeviceRecv"
                );
            }
        }
    }
}
