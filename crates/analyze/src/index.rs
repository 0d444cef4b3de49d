//! One dense index over a [`FactorPlan`], built in one walk of the
//! authored order and read by every static checker ([`crate::plancheck`],
//! [`crate::coverage`], [`crate::liveness`]): node positions, the
//! [`Ancestors`] reachability bitsets, the matrix tiles each factorization
//! node reads and writes, the verify nodes, the broadcast endpoints and
//! their consumers — and, per matrix tile, the verify batches covering it,
//! its factorization readers and its fused deposits, each in authored
//! order. An obligation about tile `t` is then a lookup over `t`'s own
//! lists, never a scan of every batch in the plan.
//!
//! Tiles are keyed by [`FactorPlan::tile_slot`] — the slot function
//! the edge derivation uses — so the index has the same precondition: every
//! declared tile is a canonical `mat` / `chk` / `dpt` [`TileRef`] of an
//! `nt`-grid plan (debug-asserted there), and every `(bi, bj)` a verify
//! batch names lies inside the grid.

use hchol_core::plan::{mat_tile, FactorPlan, ShardXfer, SweepKind, TaskKind, VirtRes};
use hchol_gpusim::{BufferId, TileRef};
use std::collections::HashMap;

/// Ancestor bitsets over positions in the authored order: `anc[p]` has bit
/// `q` set iff position `q` reaches `p` through dependency edges — the
/// reachability relation every static obligation is proven over.
pub(crate) struct Ancestors {
    words: usize,
    bits: Vec<u64>,
}

impl Ancestors {
    fn compute(plan: &FactorPlan, pos_of: &[usize]) -> Self {
        let n = plan.len();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        for (p, &id) in plan.order().iter().enumerate() {
            for &d in plan.deps(id) {
                let q = pos_of[d.0];
                debug_assert!(q < p, "authored order must be topological");
                let (dst, src) = (p * words, q * words);
                for w in 0..words {
                    let v = bits[src + w];
                    bits[dst + w] |= v;
                }
                bits[dst + q / 64] |= 1 << (q % 64);
            }
        }
        Ancestors { words, bits }
    }

    /// Does position `from` reach position `to` through dependency edges
    /// (strict: a position does not reach itself)?
    pub(crate) fn reaches(&self, from: usize, to: usize) -> bool {
        self.bits[to * self.words + from / 64] & (1 << (from % 64)) != 0
    }
}

/// Is this node a factorization writer/reader of matrix data (as opposed
/// to checksum maintenance, verification, or bookkeeping)?
pub(crate) fn is_factorization(kind: &TaskKind) -> bool {
    matches!(
        kind,
        TaskKind::Syrk { .. } | TaskKind::GemmPanel { .. } | TaskKind::TrsmPanel { .. }
    )
}

/// One verify node's placement, as the lists of the tiles it covers hold it.
#[derive(Clone, Copy)]
pub(crate) struct VerifyNode {
    pub(crate) pos: usize,
    pub(crate) fused: bool,
    pub(crate) sweep: SweepKind,
}

/// What the plan does to one matrix tile, as authored-order positions.
#[derive(Default)]
pub(crate) struct TileLists {
    /// Verify batches covering the tile.
    verifies: Vec<VerifyNode>,
    /// Factorization nodes reading the tile (one entry per declared read).
    pub(crate) readers: Vec<usize>,
    /// Fused producers depositing fresh sums of the tile.
    pub(crate) deposits: Vec<usize>,
}

/// The index itself. See the module docs.
pub(crate) struct PlanIndex<'p> {
    pub(crate) plan: &'p FactorPlan,
    /// `NodeId.0` → authored-order position (`usize::MAX` off the order).
    pub(crate) pos_of: Vec<usize>,
    pub(crate) anc: Ancestors,
    /// By position: the matrix tiles (dense slots, declared order) a
    /// factorization node reads — empty for every other node.
    pub(crate) reads: Vec<Vec<usize>>,
    /// By position: the matrix tiles a data writer — a factorization node
    /// or the host→device return of the factorized diagonal — writes.
    pub(crate) writes: Vec<Vec<usize>>,
    /// Every slot of the `3·nt²` table some node reads or writes.
    pub(crate) touched: Vec<bool>,
    /// Declared remote-panel consumptions ([`VirtRes::ShardRecv`]):
    /// `(position, iteration, payload, device)`, in authored order.
    consumers: Vec<(usize, usize, ShardXfer, usize)>,
    tiles: Vec<TileLists>,
    /// `(iteration, payload)` → the broadcast's send `(position, device)`.
    pub(crate) sends: HashMap<(usize, ShardXfer), (usize, usize)>,
    /// `(iteration, payload)` → its receives `(device, position)`.
    pub(crate) recvs: HashMap<(usize, ShardXfer), Vec<(usize, usize)>>,
}

impl<'p> PlanIndex<'p> {
    pub(crate) fn new(plan: &'p FactorPlan) -> Self {
        let (nt, order) = (plan.nt(), plan.order());
        let ids = order.iter().map(|id| id.0 + 1).max().unwrap_or(0);
        let mut pos_of = vec![usize::MAX; ids];
        for (p, &id) in order.iter().enumerate() {
            pos_of[id.0] = p;
        }
        let mut ix = PlanIndex {
            plan,
            anc: Ancestors::compute(plan, &pos_of),
            pos_of,
            reads: Vec::with_capacity(order.len()),
            writes: Vec::with_capacity(order.len()),
            touched: vec![false; 3 * nt * nt],
            consumers: Vec::new(),
            tiles: std::iter::repeat_with(TileLists::default)
                .take(nt * nt)
                .collect(),
            sends: HashMap::new(),
            recvs: HashMap::new(),
        };
        for (p, &id) in order.iter().enumerate() {
            let kind = &plan.node(id).kind;
            let acc = plan.node_access(id);
            match kind {
                TaskKind::VerifyBatch {
                    tiles,
                    fused,
                    sweep,
                    ..
                } => {
                    let v = VerifyNode {
                        pos: p,
                        fused: *fused,
                        sweep: *sweep,
                    };
                    for &t in tiles {
                        let slot = ix.slot(t);
                        ix.tiles[slot].verifies.push(v);
                    }
                }
                TaskKind::DeviceSend { j, what, from } => {
                    ix.sends.insert((*j, *what), (p, *from));
                }
                TaskKind::DeviceRecv { j, what, to } => {
                    ix.recvs.entry((*j, *what)).or_default().push((*to, p));
                }
                _ => {}
            }
            let mat = |t: &&TileRef| t.buf == BufferId(0);
            for t in acc.tiles.reads.iter().chain(&acc.tiles.writes) {
                ix.touched[plan.tile_slot(t)] = true;
            }
            let factorization = is_factorization(kind);
            let reads = acc.tiles.reads.iter().filter(|_| factorization);
            ix.reads
                .push(reads.filter(mat).map(|t| plan.tile_slot(t)).collect());
            for &slot in &ix.reads[p] {
                ix.tiles[slot].readers.push(p);
            }
            let writer = factorization || matches!(kind, TaskKind::DiagToDevice { .. });
            let writes = acc.tiles.writes.iter().filter(|_| writer);
            ix.writes
                .push(writes.filter(mat).map(|t| plan.tile_slot(t)).collect());
            // Fused producers deposit fresh sums of everything they write.
            if matches!(
                kind,
                TaskKind::Syrk { fused: true, .. } | TaskKind::GemmPanel { fused: true, .. }
            ) {
                for t in acc.tiles.writes.iter().filter(|t| t.buf.0 > nt) {
                    ix.tiles[plan.tile_slot(t) - 2 * nt * nt].deposits.push(p);
                }
            }
            for vr in &acc.virt_reads {
                if let &VirtRes::ShardRecv(j, what, dev) = vr {
                    ix.consumers.push((p, j, what, dev));
                }
            }
        }
        ix
    }

    /// The dense slot of matrix tile `(bi, bj)`.
    pub(crate) fn slot(&self, (bi, bj): (usize, usize)) -> usize {
        self.plan.tile_slot(&mat_tile(bi, bj))
    }

    /// The task at authored-order position `p`.
    pub(crate) fn kind(&self, p: usize) -> &'p TaskKind {
        &self.plan.node(self.plan.order()[p]).kind
    }

    /// The per-tile lists of slot `slot`.
    pub(crate) fn tile(&self, slot: usize) -> &TileLists {
        &self.tiles[slot]
    }

    /// The last fused deposit of tile `slot` before position `pos`.
    pub(crate) fn last_deposit(&self, slot: usize, pos: usize) -> Option<usize> {
        let ds = &self.tiles[slot].deposits;
        ds[..ds.partition_point(|&d| d < pos)].last().copied()
    }

    /// Receive-completeness, the one predicate behind plancheck's
    /// `MissingTransferEdge` and liveness's `UnorderedConsumer`: every
    /// declared remote-panel consumption ([`VirtRes::ShardRecv`]) must sit
    /// behind its device's receive, which must sit behind the owner's send.
    /// Returns the consumptions that do not — `(position, iteration,
    /// payload, device)`, in authored order.
    pub(crate) fn unordered_consumers(&self) -> Vec<(usize, usize, ShardXfer, usize)> {
        let ordered = |&(p, j, what, dev): &(usize, usize, ShardXfer, usize)| {
            let recv = self.recvs.get(&(j, what)).and_then(|rs| {
                // The latest receive wins, as a keyed table would have it.
                rs.iter().rev().find(|&&(to, _)| to == dev)
            });
            recv.is_some_and(|&(_, rp)| {
                self.anc.reaches(rp, p)
                    && self
                        .sends
                        .get(&(j, what))
                        .is_some_and(|&(sp, _)| self.anc.reaches(sp, rp))
            })
        };
        let broken = self.consumers.iter().filter(|c| !ordered(c));
        broken.copied().collect()
    }

    /// The verify batches covering tile `slot`, in authored order — the
    /// candidate set of every verify-before-read obligation on the tile.
    pub(crate) fn verifies_of(&self, slot: usize) -> impl Iterator<Item = &VerifyNode> + '_ {
        self.tiles[slot].verifies.iter().inspect(|_| {
            #[cfg(test)]
            tests::EXAMINED.with(|c| c.set(c.get() + 1));
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! What the differential suites of the three checkers share: the
    //! candidate counter, the feature configurations, and the clean and
    //! deliberately broken plans every new-vs-oracle comparison runs over.
    use super::*;
    use hchol_core::options::{AbftOptions, ChecksumPlacement, ShardOptions};
    use hchol_core::plan::for_scheme;
    use hchol_core::schemes::SchemeKind;

    thread_local! {
        /// Verify candidates examined on this thread — through
        /// [`PlanIndex::verifies_of`] by the checkers, through their
        /// whole-plan scans by the oracles: the count-based guard against a
        /// regrown scan.
        pub(crate) static EXAMINED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Run `f` and return how many verify candidates it examined.
    pub(crate) fn examined<R>(f: impl FnOnce() -> R) -> (R, usize) {
        EXAMINED.with(|c| c.set(0));
        let r = f();
        (r, EXAMINED.with(|c| c.get()))
    }

    pub(crate) fn gpu() -> AbftOptions {
        AbftOptions::default().with_placement(ChecksumPlacement::Gpu)
    }

    /// Feature configurations: `(name, options, faulty plan)`.
    pub(crate) fn configs() -> Vec<(&'static str, AbftOptions, bool)> {
        let mut no_restart = gpu();
        no_restart.max_restarts = 0;
        vec![
            ("default", gpu(), false),
            ("fused", gpu().with_chk_fused(true), false),
            ("cpu", gpu().with_placement(ChecksumPlacement::Cpu), false),
            ("k3", gpu().with_interval(3), false),
            (
                "k4 fused",
                gpu().with_interval(4).with_chk_fused(true),
                false,
            ),
            ("shard2", gpu().with_shard(ShardOptions::new(2)), false),
            ("shard4", gpu().with_shard(ShardOptions::new(4)), false),
            ("lookahead2", gpu().with_lookahead(2), false),
            ("faulty", gpu(), true),
            ("no restart", no_restart.clone(), true),
            ("fused no restart", no_restart.with_chk_fused(true), false),
        ]
    }

    /// Deepest grid of the clean-plan sweeps (the release leg of ci.sh
    /// goes deeper).
    pub(crate) fn nt_max() -> usize {
        if cfg!(debug_assertions) {
            12
        } else {
            20
        }
    }

    /// `plan` broken every way the mutation controls break plans: the
    /// out-edges of each verify severed in turn, and the three
    /// `coverage_check --mutate` defects — a final-sweep verify stripped, a
    /// receive's out-edges severed, a parity refresh dropped — wherever the
    /// plan has such a node.
    pub(crate) fn broken(plan: &FactorPlan) -> Vec<(String, FactorPlan)> {
        let mut out = Vec::new();
        let mut strip_done = false;
        for &id in plan.order() {
            let (sever, strip) = match &plan.node(id).kind {
                TaskKind::VerifyBatch { sweep, .. } => {
                    let first_final = *sweep == SweepKind::Final && !strip_done;
                    strip_done |= first_final;
                    (true, first_final)
                }
                TaskKind::DeviceRecv { .. } => (true, false),
                TaskKind::ShardParity { j: 1 } => (false, true),
                _ => (false, false),
            };
            if sever {
                let mut m = plan.clone();
                m.drop_edges_from(id);
                out.push((format!("edges of node {} dropped", id.0), m));
            }
            if strip {
                let mut m = plan.clone();
                m.remove(id);
                out.push((format!("node {} removed", id.0), m));
            }
        }
        out
    }

    /// Every plan of the differential sweep: scheme × configuration × grid
    /// `1..=nt_max()`, clean — and, on grids up to `broken_max`, broken.
    pub(crate) fn for_each_plan(
        broken_max: usize,
        mut f: impl FnMut(&str, SchemeKind, &FactorPlan, &AbftOptions),
    ) {
        for nt in 1..=nt_max() {
            for (name, opts, faulty) in configs() {
                for kind in SchemeKind::all() {
                    let plan = for_scheme(kind, nt, &opts, faulty);
                    let what = format!("{} nt={nt} {name}", kind.name());
                    f(&what, kind, &plan, &opts);
                    if nt <= broken_max {
                        for (how, m) in broken(&plan) {
                            f(&format!("{what}, {how}"), kind, &m, &opts);
                        }
                    }
                }
            }
        }
    }

    /// The per-tile lists are what a scan of the whole plan finds.
    #[test]
    fn per_tile_lists_match_a_scan_of_the_plan() {
        for_each_plan(0, |what, _, plan, _| {
            let ix = PlanIndex::new(plan);
            for slot in 0..plan.nt() * plan.nt() {
                let tile = (slot / plan.nt(), slot % plan.nt());
                let verifies: Vec<usize> = (0..plan.len())
                    .filter(|&p| {
                        matches!(ix.kind(p), TaskKind::VerifyBatch { tiles, .. } if tiles.contains(&tile))
                    })
                    .collect();
                let listed: Vec<usize> = ix.verifies_of(slot).map(|v| v.pos).collect();
                assert_eq!(listed, verifies, "{what}: verifies of {tile:?}");
            }
        });
    }
}
