//! Static ABFT-contract checking of a [`FactorPlan`] — *before* execution.
//!
//! The dynamic half of this crate ([`crate::schedule`]) proves a recorded
//! program race-free and protocol-conformant after a run. This module
//! proves the same protocol obligations on the plan's **dependency
//! edges** alone: no simulator, no trace, just the task graph the policy
//! passes emitted. Because every execution mode (in-order, lookahead,
//! batched) issues along those edges, a clean plan check holds for every
//! schedule the executor may choose — which is what makes it safe to run
//! reordered at all.
//!
//! Checked obligations, per scheme:
//!
//! * **All schemes** — exactly one [`TaskKind::Encode`] node, and it must
//!   be an ancestor of every factorization write (checksums must cover the
//!   data they protect from the start).
//! * **Enhanced** — every matrix tile a factorization node reads must have
//!   an ancestor [`TaskKind::VerifyBatch`] covering that tile, with the
//!   tile's last writer an ancestor of the verify (no window for an error
//!   to slip in between). Under `K > 1` (Optimization 3) the policy
//!   deliberately skips panel checks on gated iterations, so only the
//!   every-iteration SYRK-input checks remain obligations.
//! * **Online** — the read rule applies only to tiles with a prior
//!   factorization write (fresh input tiles are not yet protected), plus
//!   every written tile must be covered by a final-sweep verify after its
//!   last write.
//! * **Offline** — no mid-run obligations; every written tile must be
//!   covered by the final sweep after its last write.
//! * **Sharded plans (all schemes)** — every consumer of remotely-owned
//!   panel data (a `GemmPanel{dev}`/`TrsmPanel{dev}` slice or cross-row
//!   checksum update whose access declares a [`VirtRes::ShardRecv`]) must
//!   have an ancestor
//!   [`TaskKind::DeviceRecv`] for that `(iteration, payload, device)`, and
//!   that receive must itself descend from the owner's matching
//!   [`TaskKind::DeviceSend`]. A consumer ordered only by stream luck — a
//!   send without a receive on its path — is a cross-device RAW race on
//!   every schedule the executor is allowed to pick.
//!
//! [`VirtRes::ShardRecv`]: hchol_core::plan::VirtRes::ShardRecv

use crate::index::{is_factorization, PlanIndex};
use hchol_core::options::AbftOptions;
use hchol_core::plan::{FactorPlan, ShardXfer, SweepKind, TaskKind};
use hchol_core::schemes::SchemeKind;
use std::fmt;

/// One broken contract obligation found in a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanViolation {
    /// A factorization node reads a tile with no covering verify between
    /// the tile's last write and the read.
    UnverifiedRead {
        /// The reading node (debug-rendered task).
        reader: String,
        /// Position of the reader in the authored order.
        pos: usize,
        /// The unprotected tile (block row, block column).
        tile: (usize, usize),
    },
    /// A written tile is not covered by any final-sweep verify after its
    /// last write.
    MissingFinalVerify {
        /// The uncovered tile.
        tile: (usize, usize),
        /// The tile's last writer (debug-rendered task).
        writer: String,
    },
    /// No encode node, or the encode does not precede every write.
    MissingEncode,
    /// More than one encode node (checksums would be clobbered).
    DuplicateEncode {
        /// How many encodes the plan carries.
        count: usize,
    },
    /// A cross-device consumer is not ordered behind a matching
    /// send→receive chain (sharded plans only).
    MissingTransferEdge {
        /// The consuming node (debug-rendered task).
        consumer: String,
        /// Position of the consumer in the authored order.
        pos: usize,
        /// The iteration whose panel data crosses devices.
        iter: usize,
        /// What the broadcast carries (`RowPanel` / `Diag`).
        what: ShardXfer,
        /// The consuming device.
        dev: usize,
    },
}

impl PlanViolation {
    /// Stable machine-readable kind.
    pub fn kind(&self) -> &'static str {
        match self {
            PlanViolation::UnverifiedRead { .. } => "unverified_read",
            PlanViolation::MissingFinalVerify { .. } => "missing_final_verify",
            PlanViolation::MissingEncode => "missing_encode",
            PlanViolation::DuplicateEncode { .. } => "duplicate_encode",
            PlanViolation::MissingTransferEdge { .. } => "missing_transfer_edge",
        }
    }
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::UnverifiedRead { reader, pos, tile } => write!(
                f,
                "unverified read of ({},{}) by `{reader}` at order position {pos}",
                tile.0, tile.1
            ),
            PlanViolation::MissingFinalVerify { tile, writer } => write!(
                f,
                "tile ({},{}) never verified by the final sweep after its last write (`{writer}`)",
                tile.0, tile.1
            ),
            PlanViolation::MissingEncode => {
                write!(f, "no encode node precedes the factorization writes")
            }
            PlanViolation::DuplicateEncode { count } => {
                write!(f, "{count} encode nodes (expected exactly one)")
            }
            PlanViolation::MissingTransferEdge {
                consumer,
                pos,
                iter,
                what,
                dev,
            } => write!(
                f,
                "`{consumer}` at order position {pos} consumes the iteration-{iter} \
                 {what:?} on device {dev} without an ancestor DeviceSend→DeviceRecv chain"
            ),
        }
    }
}

/// Result of checking one plan.
#[derive(Debug)]
pub struct PlanCheck {
    /// The scheme whose contract was checked.
    pub scheme: SchemeKind,
    /// Nodes in the plan's issue order.
    pub nodes: usize,
    /// Dependency edges in the plan.
    pub edges: usize,
    /// Broken obligations (empty = the contract holds on every schedule).
    pub violations: Vec<PlanViolation>,
}

impl PlanCheck {
    /// True if every obligation holds.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut s = format!(
            "{}: {} nodes, {} edges, {} violation(s)\n",
            self.scheme.name(),
            self.nodes,
            self.edges,
            self.violations.len()
        );
        for v in &self.violations {
            s.push_str(&format!("  [{}] {v}\n", v.kind()));
        }
        s
    }
}

/// Check `plan` (built for `kind` with `opts`) against the scheme's ABFT
/// contract using only its dependency edges.
pub fn check_plan(kind: SchemeKind, plan: &FactorPlan, opts: &AbftOptions) -> PlanCheck {
    let nt = plan.nt;
    let ix = PlanIndex::new(plan);
    let anc = &ix.anc;
    let mut violations = Vec::new();

    // Walk the authored order tracking each matrix tile's last data writer
    // (by dense slot). The authored order is a topological order of the
    // edges, so "last writer at this position" is well-defined.
    let mut last_writer: Vec<Option<usize>> = vec![None; nt * nt];
    let mut encode_positions: Vec<usize> = Vec::new();
    let mut writer_positions: Vec<usize> = Vec::new();

    for (p, &id) in plan.order().iter().enumerate() {
        let node = plan.node(id);
        if matches!(node.kind, TaskKind::Encode) {
            encode_positions.push(p);
        }

        // Read obligations (Enhanced always; Online only for written tiles;
        // under K > 1 only the ungated SYRK-input checks remain).
        let read_rule = match kind {
            SchemeKind::Enhanced => {
                if opts.verify_interval <= 1 {
                    is_factorization(&node.kind)
                } else {
                    matches!(node.kind, TaskKind::Syrk { .. })
                }
            }
            SchemeKind::Online => is_factorization(&node.kind),
            SchemeKind::Offline => false,
        };
        if read_rule {
            for &slot in &ix.reads[p] {
                let lw = last_writer[slot];
                if kind == SchemeKind::Online && lw.is_none() {
                    continue;
                }
                let covered = ix
                    .verifies_of(slot)
                    .any(|v| anc.reaches(v.pos, p) && lw.is_none_or(|w| anc.reaches(w, v.pos)));
                if !covered {
                    violations.push(PlanViolation::UnverifiedRead {
                        reader: format!("{:?}", node.kind),
                        pos: p,
                        tile: (slot / nt, slot % nt),
                    });
                }
            }
        }

        // Data writes: factorization kernels plus the host→device return
        // of the factorized diagonal.
        for &slot in &ix.writes[p] {
            last_writer[slot] = Some(p);
        }
        if !ix.writes[p].is_empty() {
            writer_positions.push(p);
        }
    }

    // Cross-device obligation: a declared remote-panel consumption must
    // sit behind its receive, which must sit behind the owner's send.
    for (pos, iter, what, dev) in ix.unordered_consumers() {
        violations.push(PlanViolation::MissingTransferEdge {
            consumer: format!("{:?}", ix.kind(pos)),
            pos,
            iter,
            what,
            dev,
        });
    }

    // Encode obligations: exactly one, preceding every data write.
    match encode_positions.len() {
        0 => violations.push(PlanViolation::MissingEncode),
        1 => {
            let e = encode_positions[0];
            if writer_positions.iter().any(|&w| !anc.reaches(e, w)) {
                violations.push(PlanViolation::MissingEncode);
            }
        }
        n => violations.push(PlanViolation::DuplicateEncode { count: n }),
    }

    // Final-sweep obligations (Offline / Online): every written tile is
    // verified after its last write.
    if matches!(kind, SchemeKind::Offline | SchemeKind::Online) {
        for (slot, w) in last_writer.iter().enumerate() {
            let Some(w) = *w else { continue };
            let covered = ix
                .verifies_of(slot)
                .any(|v| v.sweep == SweepKind::Final && anc.reaches(w, v.pos));
            if !covered {
                violations.push(PlanViolation::MissingFinalVerify {
                    tile: (slot / nt, slot % nt),
                    writer: format!("{:?}", ix.kind(w)),
                });
            }
        }
    }

    violations.sort_by_key(|v| match v {
        PlanViolation::UnverifiedRead { pos, tile, .. } => (0, *pos, *tile),
        PlanViolation::MissingFinalVerify { tile, .. } => (1, 0, *tile),
        PlanViolation::MissingEncode => (2, 0, (0, 0)),
        PlanViolation::DuplicateEncode { .. } => (3, 0, (0, 0)),
        PlanViolation::MissingTransferEdge { pos, iter, dev, .. } => (4, *pos, (*iter, *dev)),
    });
    PlanCheck {
        scheme: kind,
        nodes: plan.len(),
        edges: plan.edge_count(),
        violations,
    }
}

/// Build the plan for `(kind, nt, opts)` and check it — the one-call form
/// drivers and CI use. `opts.placement` may be `Auto`; it is resolved
/// against the given profile exactly as `run_scheme` resolves it.
pub fn check_scheme_plan(
    kind: SchemeKind,
    profile: &hchol_gpusim::profile::SystemProfile,
    n: usize,
    b: usize,
    opts: &AbftOptions,
) -> PlanCheck {
    let resolved = opts.resolved_for(profile, n, b);
    let plan = hchol_core::plan::for_scheme(kind, n / b, &resolved, false);
    check_plan(kind, &plan, &resolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::{examined, for_each_plan, EXAMINED};
    use hchol_core::plan::{for_scheme, VirtRes};
    use hchol_core::schemes::SchemeKind;
    use hchol_gpusim::BufferId;
    use std::collections::HashMap;

    /// One verify node's placement: order position, covered tiles, sweep kind.
    type VerifyInfo = (usize, Vec<(usize, usize)>, SweepKind);

    /// `check_plan` as it stood before the plan index, verbatim (only the
    /// reachability bitsets are borrowed from the index): every read
    /// obligation scans every verify batch of the plan and every tile in it.
    /// The reference the differential test holds the indexed checker to,
    /// violation for violation.
    fn check_plan_oracle(kind: SchemeKind, plan: &FactorPlan, opts: &AbftOptions) -> PlanCheck {
        let mat = BufferId(0);
        let order = plan.order();
        let ix = PlanIndex::new(plan);
        let anc = &ix.anc;
        let mut violations = Vec::new();

        // Per-position verify info.
        let mut verifies: Vec<VerifyInfo> = Vec::new();
        for (p, &id) in order.iter().enumerate() {
            if let TaskKind::VerifyBatch { tiles, sweep, .. } = &plan.node(id).kind {
                verifies.push((p, tiles.clone(), *sweep));
            }
        }

        // Broadcast endpoints of a sharded plan: one send per (iteration,
        // payload), one receive per (iteration, payload, consuming device).
        let mut sends: HashMap<(usize, ShardXfer), usize> = HashMap::new();
        let mut recvs: HashMap<(usize, ShardXfer, usize), usize> = HashMap::new();
        for (p, &id) in order.iter().enumerate() {
            match plan.node(id).kind {
                TaskKind::DeviceSend { j, what, .. } => {
                    sends.insert((j, what), p);
                }
                TaskKind::DeviceRecv { j, what, to } => {
                    recvs.insert((j, what, to), p);
                }
                _ => {}
            }
        }

        // Walk the authored order tracking each matrix tile's last data writer.
        // The authored order is a topological order of the edges, so "last
        // writer at this position" is well-defined.
        let mut last_writer: HashMap<(usize, usize), usize> = HashMap::new();
        let mut encode_positions: Vec<usize> = Vec::new();
        let mut writer_positions: Vec<usize> = Vec::new();

        for (p, &id) in order.iter().enumerate() {
            let node = plan.node(id);
            if matches!(node.kind, TaskKind::Encode) {
                encode_positions.push(p);
            }
            let accesses = plan.node_access(id);

            // Read obligations (Enhanced always; Online only for written tiles;
            // under K > 1 only the ungated SYRK-input checks remain).
            let read_rule = match kind {
                SchemeKind::Enhanced => {
                    if opts.verify_interval <= 1 {
                        is_factorization(&node.kind)
                    } else {
                        matches!(node.kind, TaskKind::Syrk { .. })
                    }
                }
                SchemeKind::Online => is_factorization(&node.kind),
                SchemeKind::Offline => false,
            };
            if read_rule {
                for t in &accesses.tiles.reads {
                    if t.buf != mat {
                        continue;
                    }
                    let tile = (t.bi, t.bj);
                    let lw = last_writer.get(&tile).copied();
                    if kind == SchemeKind::Online && lw.is_none() {
                        continue;
                    }
                    let covered = verifies.iter().any(|(vp, tiles, _)| {
                        EXAMINED.with(|c| c.set(c.get() + 1));
                        tiles.contains(&tile)
                            && anc.reaches(*vp, p)
                            && lw.is_none_or(|w| anc.reaches(w, *vp))
                    });
                    if !covered {
                        violations.push(PlanViolation::UnverifiedRead {
                            reader: format!("{:?}", node.kind),
                            pos: p,
                            tile,
                        });
                    }
                }
            }

            // Cross-device obligation: a declared remote-panel consumption must
            // sit behind its receive, which must sit behind the owner's send.
            for vr in &accesses.virt_reads {
                let &VirtRes::ShardRecv(j, what, dev) = vr else {
                    continue;
                };
                let ordered = recvs.get(&(j, what, dev)).is_some_and(|&rp| {
                    anc.reaches(rp, p)
                        && sends.get(&(j, what)).is_some_and(|&sp| anc.reaches(sp, rp))
                });
                if !ordered {
                    violations.push(PlanViolation::MissingTransferEdge {
                        consumer: format!("{:?}", node.kind),
                        pos: p,
                        iter: j,
                        what,
                        dev,
                    });
                }
            }

            if is_factorization(&node.kind) || matches!(node.kind, TaskKind::DiagToDevice { .. }) {
                for t in &accesses.tiles.writes {
                    if t.buf == mat {
                        last_writer.insert((t.bi, t.bj), p);
                    }
                }
                if !accesses.tiles.writes.is_empty() {
                    writer_positions.push(p);
                }
            }
        }

        // Encode obligations: exactly one, preceding every data write.
        match encode_positions.len() {
            0 => violations.push(PlanViolation::MissingEncode),
            1 => {
                let e = encode_positions[0];
                if writer_positions.iter().any(|&w| !anc.reaches(e, w)) {
                    violations.push(PlanViolation::MissingEncode);
                }
            }
            n => violations.push(PlanViolation::DuplicateEncode { count: n }),
        }

        // Final-sweep obligations (Offline / Online): every written tile is
        // verified after its last write.
        if matches!(kind, SchemeKind::Offline | SchemeKind::Online) {
            for (&tile, &w) in &last_writer {
                let covered = verifies.iter().any(|(vp, tiles, sweep)| {
                    *sweep == SweepKind::Final && tiles.contains(&tile) && anc.reaches(w, *vp)
                });
                if !covered {
                    let id = order[w];
                    violations.push(PlanViolation::MissingFinalVerify {
                        tile,
                        writer: format!("{:?}", plan.node(id).kind),
                    });
                }
            }
        }

        violations.sort_by_key(|v| match v {
            PlanViolation::UnverifiedRead { pos, tile, .. } => (0, *pos, *tile),
            PlanViolation::MissingFinalVerify { tile, .. } => (1, 0, *tile),
            PlanViolation::MissingEncode => (2, 0, (0, 0)),
            PlanViolation::DuplicateEncode { .. } => (3, 0, (0, 0)),
            PlanViolation::MissingTransferEdge { pos, iter, dev, .. } => (4, *pos, (*iter, *dev)),
        });
        PlanCheck {
            scheme: kind,
            nodes: plan.len(),
            edges: plan.edge_count(),
            violations,
        }
    }

    /// New vs oracle over scheme × grid × feature, clean and broken: the
    /// whole violation list, in order.
    #[test]
    fn indexed_check_plan_matches_the_scanning_oracle() {
        let broken_max = if cfg!(debug_assertions) { 6 } else { 9 };
        let mut dirty = 0usize;
        for_each_plan(broken_max, |what, kind, plan, opts| {
            let (new, old) = (
                check_plan(kind, plan, opts),
                check_plan_oracle(kind, plan, opts),
            );
            assert_eq!(new.violations, old.violations, "{what}");
            assert_eq!((new.nodes, new.edges), (old.nodes, old.edges), "{what}");
            dirty += usize::from(!new.is_clean());
        });
        assert!(dirty > 100, "the broken plans exercise the violation paths");
    }

    /// Count-based guard against a regrown scan: per read obligation the
    /// indexed checker examines at most the tile's own verify list, where
    /// the oracle examines up to every batch of the plan.
    #[test]
    fn read_obligations_examine_only_the_tiles_own_verifies() {
        let opts = resolved_opts();
        let mut oracle_per_read = Vec::new();
        for nt in [8usize, 16] {
            let plan = for_scheme(SchemeKind::Enhanced, nt, &opts, false);
            let ix = PlanIndex::new(&plan);
            let reads = ix.reads.iter().flatten();
            let (obligations, own_lists) = reads.fold((0, 0), |(n, sum), &slot| {
                (n + 1, sum + ix.verifies_of(slot).count())
            });
            let (_, new) = examined(|| check_plan(SchemeKind::Enhanced, &plan, &opts));
            let (_, old) = examined(|| check_plan_oracle(SchemeKind::Enhanced, &plan, &opts));
            assert!(new <= own_lists, "nt={nt}: {new} > {own_lists}");
            assert!(old > 4 * new, "nt={nt}: oracle {old} vs indexed {new}");
            oracle_per_read.push(old as f64 / obligations as f64);
        }
        // The oracle's cost per obligation grows with the plan's batch
        // count; the indexed checker's is bounded by the tile's own list.
        assert!(
            oracle_per_read[1] > 1.5 * oracle_per_read[0],
            "{oracle_per_read:?}"
        );
    }

    fn resolved_opts() -> AbftOptions {
        AbftOptions::default().with_placement(hchol_core::options::ChecksumPlacement::Gpu)
    }

    #[test]
    fn all_schemes_clean_across_sizes_and_intervals() {
        for kind in SchemeKind::all() {
            for nt in [2usize, 4, 8, 16] {
                for k in [1usize, 4] {
                    let opts = resolved_opts().with_interval(k);
                    let plan = for_scheme(kind, nt, &opts, false);
                    let chk = check_plan(kind, &plan, &opts);
                    assert!(
                        chk.is_clean(),
                        "{} nt={nt} K={k}:\n{}",
                        kind.name(),
                        chk.render_text()
                    );
                }
            }
        }
    }

    #[test]
    fn cpu_placement_plans_are_clean() {
        let opts =
            AbftOptions::default().with_placement(hchol_core::options::ChecksumPlacement::Cpu);
        for kind in SchemeKind::all() {
            let plan = for_scheme(kind, 8, &opts, false);
            let chk = check_plan(kind, &plan, &opts);
            assert!(chk.is_clean(), "{}:\n{}", kind.name(), chk.render_text());
        }
    }

    /// Mutation control: sever the out-edges of one inline verify — the
    /// reads it guarded no longer depend on it, so the verified data can
    /// reach readers unchecked. The checker must flag an unverified read.
    #[test]
    fn dropped_verify_edge_is_flagged() {
        let opts = resolved_opts();
        let plan = for_scheme(SchemeKind::Enhanced, 8, &opts, false);
        let victim = plan
            .find(|n| matches!(&n.kind, TaskKind::VerifyBatch { sweep, .. } if *sweep == SweepKind::Inline && n.iter >= Some(1)))
            .expect("an inline verify exists");
        let mut mutated = plan.clone();
        mutated.drop_edges_from(victim);
        let chk = check_plan(SchemeKind::Enhanced, &mutated, &opts);
        assert!(
            chk.violations.iter().any(|v| v.kind() == "unverified_read"),
            "expected an unverified read, got:\n{}",
            chk.render_text()
        );
        // The unmutated plan stays clean — the edge was load-bearing.
        assert!(check_plan(SchemeKind::Enhanced, &plan, &opts).is_clean());
    }

    /// Fused-epilogue plans (Enhanced + `chk_fused`): compare-only batches
    /// replace the recalc-fed ones wherever a fused SYRK/GEMM last wrote
    /// the tiles, and the rewritten plan still satisfies every
    /// verify-before-read obligation through its edges.
    #[test]
    fn fused_enhanced_plans_are_clean() {
        for nt in [2usize, 4, 8, 16] {
            for k in [1usize, 3] {
                let opts = resolved_opts().with_interval(k).with_chk_fused(true);
                let plan = for_scheme(SchemeKind::Enhanced, nt, &opts, false);
                let fused_batches = plan
                    .order()
                    .iter()
                    .filter(|&&id| {
                        matches!(
                            &plan.node(id).kind,
                            TaskKind::VerifyBatch { fused: true, .. }
                        )
                    })
                    .count();
                assert!(
                    fused_batches > 0,
                    "nt={nt} K={k}: the rewrite should fuse at least one batch"
                );
                let chk = check_plan(SchemeKind::Enhanced, &plan, &opts);
                assert!(chk.is_clean(), "nt={nt} K={k}:\n{}", chk.render_text());
            }
        }
    }

    /// The fused rewrite is a no-op for the recalc-fed schemes (it is only
    /// applied to Enhanced) and for Enhanced with the flag off.
    #[test]
    fn fused_flag_off_leaves_plans_unfused() {
        let opts = resolved_opts();
        let plan = for_scheme(SchemeKind::Enhanced, 8, &opts, false);
        assert!(plan.order().iter().all(|&id| !matches!(
            &plan.node(id).kind,
            TaskKind::VerifyBatch { fused: true, .. }
                | TaskKind::Syrk { fused: true, .. }
                | TaskKind::GemmPanel { fused: true, .. }
        )));
    }

    /// Mutation control for the fused path: sever the out-edges of a fused
    /// compare-only batch guarding the TRSM panel inputs. No recalculation
    /// kernel backs those tiles up, so the checker must flag the TRSM read
    /// as unverified *before execution*.
    #[test]
    fn dropped_fused_verify_edge_is_flagged() {
        let opts = resolved_opts().with_chk_fused(true);
        let plan = for_scheme(SchemeKind::Enhanced, 8, &opts, false);
        // A fused batch over off-diagonal tiles = a TRSM-input panel check
        // (the diagonal-only fused batches guard the host POTF2 round trip,
        // which the read rule does not cover).
        let victim = plan
            .find(|n| {
                matches!(
                    &n.kind,
                    TaskKind::VerifyBatch { tiles, sweep: SweepKind::Inline, fused: true, .. }
                        if tiles.iter().any(|&(bi, bj)| bi != bj)
                )
            })
            .expect("a fused panel verify exists");
        let mut mutated = plan.clone();
        mutated.drop_edges_from(victim);
        let chk = check_plan(SchemeKind::Enhanced, &mutated, &opts);
        assert!(
            chk.violations.iter().any(|v| v.kind() == "unverified_read"),
            "expected an unverified read, got:\n{}",
            chk.render_text()
        );
        // The unmutated fused plan stays clean — the edge was load-bearing.
        assert!(check_plan(SchemeKind::Enhanced, &plan, &opts).is_clean());
    }

    /// Sharded plans (2D block-cyclic split, broadcast nodes, per-owner
    /// verify pairs, parity refreshes) satisfy the same per-scheme ABFT
    /// contract as the single-device plans, plus the cross-device
    /// send→receive ordering rule, purely through their dependency edges.
    #[test]
    fn sharded_plans_are_clean_for_all_schemes() {
        for kind in SchemeKind::all() {
            for nt in [4usize, 8, 13] {
                for d in [2usize, 4] {
                    let opts =
                        resolved_opts().with_shard(hchol_core::options::ShardOptions::new(d));
                    let plan = for_scheme(kind, nt, &opts, false);
                    assert!(
                        plan.order().iter().any(|&id| matches!(
                            plan.node(id).kind,
                            TaskKind::GemmPanel { dev: Some(_), .. }
                        )),
                        "{} nt={nt} D={d}: plan was not sharded",
                        kind.name()
                    );
                    let chk = check_plan(kind, &plan, &opts);
                    assert!(
                        chk.is_clean(),
                        "{} nt={nt} D={d}:\n{}",
                        kind.name(),
                        chk.render_text()
                    );
                }
            }
        }
    }

    /// Mutation control for the sharded rule: sever the out-edges of one
    /// row-panel `DeviceRecv` — its device's GEMM shard (and the cross-row
    /// checksum updates behind it) lose their ordering on the broadcast,
    /// which is exactly a cross-device RAW race under a reordering
    /// executor. The checker must flag the missing transfer edge.
    #[test]
    fn dropped_transfer_edge_is_flagged() {
        use hchol_core::plan::ShardXfer;
        let opts = resolved_opts().with_shard(hchol_core::options::ShardOptions::new(2));
        let plan = for_scheme(SchemeKind::Offline, 8, &opts, false);
        let victim = plan
            .find(|n| {
                matches!(
                    n.kind,
                    TaskKind::DeviceRecv {
                        what: ShardXfer::RowPanel,
                        ..
                    } if n.iter >= Some(2)
                )
            })
            .expect("a row-panel recv exists");
        let mut mutated = plan.clone();
        mutated.drop_edges_from(victim);
        let chk = check_plan(SchemeKind::Offline, &mutated, &opts);
        assert!(
            chk.violations
                .iter()
                .any(|v| v.kind() == "missing_transfer_edge"),
            "expected a missing transfer edge, got:\n{}",
            chk.render_text()
        );
        // The unmutated sharded plan stays clean — the edge was
        // load-bearing.
        assert!(check_plan(SchemeKind::Offline, &plan, &opts).is_clean());
    }

    /// Mutation control: removing the encode breaks every scheme's
    /// contract.
    #[test]
    fn missing_encode_is_flagged() {
        let opts = resolved_opts();
        let mut plan = for_scheme(SchemeKind::Offline, 4, &opts, false);
        let enc = plan
            .find(|n| matches!(n.kind, TaskKind::Encode))
            .expect("encode exists");
        plan.remove(enc);
        plan.derive_deps();
        let chk = check_plan(SchemeKind::Offline, &plan, &opts);
        assert!(
            chk.violations.iter().any(|v| v.kind() == "missing_encode"),
            "{}",
            chk.render_text()
        );
    }

    /// Mutation control: removing one final-sweep verify leaves its tiles
    /// unaccepted in Offline.
    #[test]
    fn missing_final_verify_is_flagged() {
        let opts = resolved_opts();
        let mut plan = for_scheme(SchemeKind::Offline, 4, &opts, false);
        let sweep = plan
            .find(|n| matches!(&n.kind, TaskKind::VerifyBatch { sweep, .. } if *sweep == SweepKind::Final))
            .expect("final sweep exists");
        plan.remove(sweep);
        plan.derive_deps();
        let chk = check_plan(SchemeKind::Offline, &plan, &opts);
        assert!(
            chk.violations
                .iter()
                .any(|v| v.kind() == "missing_final_verify"),
            "{}",
            chk.render_text()
        );
    }
}
