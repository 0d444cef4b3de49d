//! Static fault-coverage model checking of a [`FactorPlan`]: enumerate
//! every fault site the injector could strike and prove, per site, which
//! recovery route the plan guarantees — before anything executes.
//!
//! A **site** is `(injection point, target tile, fault species)`: the
//! same coordinates [`hchol_faults::FaultSpec`] pins a dynamic injection
//! to, enumerated from the plan's [`TaskKind::FaultPoint`] nodes and the
//! tiles its factorization nodes declare they read afterwards. For each
//! site the checker walks the same [`AccessSet`] declarations
//! [`crate::plancheck`] walks and assigns the strongest provable rung of
//! the coverage lattice:
//!
//! * [`Coverage::DetectCorrect`] — every factorization read of the target
//!   tile after the strike sits behind a verify batch that (a) witnesses
//!   the corruption and (b) is an ancestor of the read on the plan's
//!   edges. A batch corrects the tiles it checks, so the corruption is
//!   repaired in place before any consumer can see it: the Enhanced
//!   one-attempt contract.
//! * [`Coverage::DetectRestart`] — some consumer may read the corruption,
//!   but its propagated footprint is witnessed by a later verify and the
//!   run may restart (`opts.max_restarts >= 1`). The attempt is sacrificed,
//!   the result is still correct: the Online/Offline contract.
//! * [`Coverage::ParityRecover`] — device-loss sites on sharded plans:
//!   every finalized column has an end-of-column XOR parity refresh
//!   ([`TaskKind::ShardParity`]) between its last write and the loss, so
//!   the lost shard is reconstructible from the survivors.
//! * [`Coverage::Uncovered`] — no provable route. One uncovered site on a
//!   clean configuration is a protocol bug.
//!
//! ## Strike ordering and the fused-deposit blind spot
//!
//! A strike at authored-order position `a` is visible to a verify `v`
//! only if `pos(v) > a` (the injector fires at the fault point, in
//! authored order), while verify→consumer protection is proven on
//! dependency **edges** (`v` must reach the read), so it holds on every
//! schedule the executor may pick. Fused compare-only batches check the
//! producer's *deposit* against the maintained checksum (DESIGN.md §10.3):
//! they witness a corruption only if the deposit was computed from
//! already-corrupted data — i.e. the last deposit of the tile before `v`
//! lands at or after the position where the corruption entered the tile.
//! A fault in the producer→compare sub-window is invisible to the fused
//! compare and must be witnessed by the next plain (re-read) verification,
//! exactly the window DESIGN.md §10.3 documents.
//!
//! Site liveness follows the factorization reads the plan declares — the
//! host POTF2 round trip (`DiagToHost`) is not a site-defining consumer,
//! matching `plancheck`'s read rule; a strike after a tile's last
//! factorization read falls in the documented post-last-read window and
//! is not enumerated (DESIGN.md §13).
//!
//! The checker also computes a peak-resource bound ([`ResourceBound`]):
//! tile-count memory budgets straight from the declared accesses, plus
//! maximum-antichain bounds (Dilworth via bipartite matching on the
//! dependency partial order) on how many scratch-using verifies, pending
//! mirrors, and in-flight broadcasts can ever be live at once.
//!
//! [`AccessSet`]: hchol_gpusim::AccessSet

use crate::index::{Ancestors, PlanIndex, VerifyNode};
use hchol_core::options::AbftOptions;
use hchol_core::plan::{FactorPlan, TaskKind};
use hchol_core::schemes::SchemeKind;
use hchol_faults::{FaultClass, FaultSite, InjectionPoint};
use hchol_obs::envelope;
use serde::Serialize;
use std::fmt;

/// The rung of the coverage lattice proven for one site (strongest
/// first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Coverage {
    /// Every consumer read of the struck tile is behind a witnessing
    /// verify, which corrects it: fixed in place, one attempt.
    DetectCorrect,
    /// The corruption footprint is witnessed by a later verify and the
    /// run may restart: correct result, sacrificed attempt.
    DetectRestart,
    /// Device loss reconstructible from the column XOR parities
    /// (sharded plans only).
    ParityRecover,
    /// No provable detection/recovery route.
    Uncovered,
}

impl Coverage {
    /// Stable machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Coverage::DetectCorrect => "detect_correct",
            Coverage::DetectRestart => "detect_restart",
            Coverage::ParityRecover => "parity_recover",
            Coverage::Uncovered => "uncovered",
        }
    }

    /// Is the site protected at all?
    pub fn is_covered(&self) -> bool {
        !matches!(self, Coverage::Uncovered)
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The proved verdict for one enumerated fault site.
#[derive(Debug, Clone)]
pub struct SiteVerdict {
    /// The site (injection point × tile × species).
    pub site: FaultSite,
    /// Authored-order position of the site's fault-point node.
    pub pos: usize,
    /// Strongest proven lattice rung.
    pub coverage: Coverage,
    /// Authored-order position of the witnessing verify (`None` when
    /// uncovered).
    pub witness: Option<usize>,
}

/// The proved verdict for one device-loss site (sharded plans).
#[derive(Debug, Clone)]
pub struct LossVerdict {
    /// Failing logical device.
    pub device: usize,
    /// Iteration at whose start the loss strikes.
    pub at_iter: usize,
    /// [`Coverage::ParityRecover`] or [`Coverage::Uncovered`].
    pub coverage: Coverage,
    /// Finalized columns whose parity refresh is missing or stale at the
    /// loss point (empty when covered).
    pub missing_columns: Vec<usize>,
}

/// Peak-resource bound of a plan: direct tile-count budgets plus
/// maximum-antichain concurrency bounds over the dependency partial
/// order.
#[derive(Debug, Clone, Serialize)]
pub struct ResourceBound {
    /// Distinct matrix tiles the plan touches.
    pub mat_tiles: u64,
    /// Distinct checksum tiles the plan touches.
    pub chk_tiles: u64,
    /// Distinct fused-deposit tiles the plan touches (0 unless fused).
    pub dpt_tiles: u64,
    /// Max recalc-scratch users concurrently live (the shared scratch
    /// pool serializes them, so a clean plan proves 1).
    pub scratch_peak: u64,
    /// Max pending panel mirrors concurrently live (CPU placement).
    pub mirror_peak: u64,
    /// Max in-flight device broadcasts concurrently live (sharded).
    pub broadcast_peak: u64,
}

/// Result of statically checking one plan's fault coverage.
#[derive(Debug)]
pub struct CoverageReport {
    /// The scheme whose plan was checked.
    pub scheme: SchemeKind,
    /// Nodes in the plan.
    pub nodes: usize,
    /// Per-site verdicts (two species per tile-level proof).
    pub sites: Vec<SiteVerdict>,
    /// Device-loss verdicts (empty on single-device plans).
    pub losses: Vec<LossVerdict>,
    /// Peak-resource bound.
    pub resources: ResourceBound,
}

/// Flat summary of a [`CoverageReport`] for artifact export.
#[derive(Debug, Clone, Serialize)]
pub struct CoverageSummary {
    /// Scheme name.
    pub scheme: String,
    /// Enumerated sites (fault sites + device-loss sites).
    pub sites: u64,
    /// Covered sites.
    pub covered: u64,
    /// Uncovered sites.
    pub uncovered: u64,
    /// Sites proven [`Coverage::DetectCorrect`].
    pub detect_correct: u64,
    /// Sites proven [`Coverage::DetectRestart`].
    pub detect_restart: u64,
    /// Loss sites proven [`Coverage::ParityRecover`].
    pub parity_recover: u64,
    /// Peak-resource bound.
    pub resources: ResourceBound,
}

impl CoverageReport {
    /// Total enumerated sites (fault sites plus device-loss sites).
    pub fn total_sites(&self) -> usize {
        self.sites.len() + self.losses.len()
    }

    /// Sites with a proven recovery route.
    pub fn covered_sites(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.coverage.is_covered())
            .count()
            + self
                .losses
                .iter()
                .filter(|l| l.coverage.is_covered())
                .count()
    }

    /// Sites with no proven route (a clean configuration proves 0).
    pub fn uncovered_sites(&self) -> usize {
        self.total_sites() - self.covered_sites()
    }

    /// True when every enumerated site has a proven route.
    pub fn is_covered(&self) -> bool {
        self.uncovered_sites() == 0
    }

    fn count(&self, c: Coverage) -> usize {
        self.sites.iter().filter(|s| s.coverage == c).count()
    }

    /// Flat summary for artifact export.
    pub fn summary(&self) -> CoverageSummary {
        CoverageSummary {
            scheme: self.scheme.name().to_string(),
            sites: self.total_sites() as u64,
            covered: self.covered_sites() as u64,
            uncovered: self.uncovered_sites() as u64,
            detect_correct: self.count(Coverage::DetectCorrect) as u64,
            detect_restart: self.count(Coverage::DetectRestart) as u64,
            parity_recover: self
                .losses
                .iter()
                .filter(|l| l.coverage == Coverage::ParityRecover)
                .count() as u64,
            resources: self.resources.clone(),
        }
    }

    /// Versioned-envelope JSON export of the summary.
    pub fn to_json(&self, name: &str) -> String {
        serde_json::to_string_pretty(&envelope(
            "coverage_report",
            name,
            self.summary().to_value(),
        ))
        .expect("coverage report serializes")
    }

    /// Human-readable summary, uncovered sites listed first.
    pub fn render_text(&self) -> String {
        let s = self.summary();
        let mut out = format!(
            "{}: {} sites, {} covered, {} uncovered ({} correct, {} restart, {} parity)\n",
            self.scheme.name(),
            s.sites,
            s.covered,
            s.uncovered,
            s.detect_correct,
            s.detect_restart,
            s.parity_recover
        );
        for v in self.sites.iter().filter(|s| !s.coverage.is_covered()) {
            out.push_str(&format!(
                "  [uncovered] {:?} tile ({},{}) {:?} at pos {}\n",
                v.site.point, v.site.bi, v.site.bj, v.site.class, v.pos
            ));
        }
        for l in self.losses.iter().filter(|l| !l.coverage.is_covered()) {
            out.push_str(&format!(
                "  [uncovered] device {} lost at iter {}: missing parity for columns {:?}\n",
                l.device, l.at_iter, l.missing_columns
            ));
        }
        out
    }
}

/// Maximum antichain of the positions in `set` under the reachability
/// partial order: by Dilworth's theorem it equals `|set|` minus the size
/// of a maximum matching in the bipartite comparability graph (Mirsky /
/// König construction). `set` is small (one entry per verify / mirror /
/// broadcast node), so the O(V·E) Hungarian augmentation is plenty.
fn max_antichain(set: &[usize], anc: &Ancestors) -> usize {
    let n = set.len();
    if n <= 1 {
        return n;
    }
    fn augment(
        i: usize,
        set: &[usize],
        anc: &Ancestors,
        seen: &mut [bool],
        matched: &mut [Option<usize>],
    ) -> bool {
        for k in 0..set.len() {
            if !seen[k] && anc.reaches(set[i], set[k]) {
                seen[k] = true;
                if matched[k].is_none() || augment(matched[k].unwrap(), set, anc, seen, matched) {
                    matched[k] = Some(i);
                    return true;
                }
            }
        }
        false
    }
    let mut matched: Vec<Option<usize>> = vec![None; n];
    let mut matching = 0;
    for i in 0..n {
        let mut seen = vec![false; n];
        if augment(i, set, anc, &mut seen, &mut matched) {
            matching += 1;
        }
    }
    n - matching
}

/// Statically check the fault coverage of `plan` (built for `kind` with
/// `opts`): enumerate every injectable site and prove each a rung of the
/// coverage lattice. See the module docs for the site and witness rules.
pub fn check_coverage(kind: SchemeKind, plan: &FactorPlan, opts: &AbftOptions) -> CoverageReport {
    let nt = plan.nt();
    let ix = PlanIndex::new(plan);

    // One walk over the positions: per-column mat writes, parity
    // refreshes, resource sets.
    let mut col_writes: Vec<Vec<usize>> = vec![Vec::new(); nt];
    let mut parities: Vec<Vec<usize>> = vec![Vec::new(); nt];
    let mut scratch_set = Vec::new();
    let mut mirror_set = Vec::new();
    let mut send_set = Vec::new();
    for p in 0..plan.len() {
        match ix.kind(p) {
            TaskKind::VerifyBatch { fused: false, .. } => scratch_set.push(p),
            TaskKind::MirrorPanel { .. } => mirror_set.push(p),
            TaskKind::DeviceSend { .. } => send_set.push(p),
            TaskKind::ShardParity { j } => parities[*j].push(p),
            _ => {}
        }
        // Data writes (kernels and the POTF2 round trip) staleness-gate
        // the column's parity refresh. Corrections also declare mat
        // writes but restore the exact checksum-consistent values the
        // parity encoded, so they do not invalidate it (soft fault +
        // device loss in one run is out of scope — DESIGN.md §12).
        for &slot in &ix.writes[p] {
            col_writes[slot % nt].push(p);
        }
    }
    // Distinct-tile budgets: the three thirds of the dense slot table are
    // the mat, chk and dpt tiles.
    let distinct = |third: usize| {
        let flags = &ix.touched[third * nt * nt..(third + 1) * nt * nt];
        flags.iter().filter(|&&f| f).count() as u64
    };

    // A verify of tile `t` witnesses a corruption that entered `t` at
    // position `entry` iff it runs after the entry and — when compare-only
    // — its deposit of `t` was computed from the corrupted data.
    let witnesses = |v: &VerifyNode, t: usize, entry: usize| -> bool {
        v.pos > entry && (!v.fused || ix.last_deposit(t, v.pos).is_some_and(|d| d >= entry))
    };

    // Enumerate fault sites and prove each one DetectCorrect — every
    // consumer read after the strike is behind a witnessing verify of the
    // tile — or leave it to the restart sweep.
    let points = plan.fault_points();
    let mut sites = Vec::new();
    let mut pending: Vec<(usize, usize, usize)> = Vec::new();
    for &(a, point) in &points {
        for t in 0..nt * nt {
            let reads = &ix.tile(t).readers;
            let live = &reads[reads.partition_point(|&r| r <= a)..];
            if live.is_empty() {
                continue; // never read, or the post-last-read window: not a live site
            }
            let mut first_witness = None;
            let all_guarded = live.iter().all(|&r| {
                let guard = ix
                    .verifies_of(t)
                    .find(|v| witnesses(v, t, a) && ix.anc.reaches(v.pos, r));
                first_witness = first_witness.or(guard.map(|v| v.pos));
                guard.is_some()
            });
            let (coverage, witness) = if all_guarded {
                (Coverage::DetectCorrect, first_witness)
            } else {
                pending.push((a, t, sites.len()));
                (Coverage::Uncovered, None)
            };
            for class in FaultClass::all() {
                sites.push(SiteVerdict {
                    site: FaultSite {
                        point,
                        bi: t / nt,
                        bj: t % nt,
                        class,
                    },
                    pos: a,
                    coverage,
                    witness,
                });
            }
        }
    }
    if opts.max_restarts >= 1 && !pending.is_empty() {
        prove_restarts(&ix, &pending, &mut sites);
    }

    // Device-loss sites (sharded plans): a loss at the start of iteration
    // `j` is recoverable iff every finalized column `c < j` has a parity
    // refresh after its last write and before the loss.
    let mut losses = Vec::new();
    if let Some(shard) = plan.shard().filter(|s| s.devices > 1) {
        let loss_points: Vec<(usize, usize)> = points
            .iter()
            .filter_map(|&(a, pt)| match pt {
                InjectionPoint::IterStart { iter } if iter >= 1 => Some((a, iter)),
                _ => None,
            })
            .collect();
        for device in 0..shard.devices {
            for &(a, at_iter) in &loss_points {
                let mut missing = Vec::new();
                for c in 0..at_iter {
                    let lw = col_writes[c]
                        .iter()
                        .filter(|&&w| w < a)
                        .max()
                        .copied()
                        .unwrap_or(0);
                    let fresh = parities[c].iter().any(|&q| q < a && q > lw);
                    if !fresh {
                        missing.push(c);
                    }
                }
                losses.push(LossVerdict {
                    device,
                    at_iter,
                    coverage: if missing.is_empty() {
                        Coverage::ParityRecover
                    } else {
                        Coverage::Uncovered
                    },
                    missing_columns: missing,
                });
            }
        }
    }

    CoverageReport {
        scheme: kind,
        nodes: plan.len(),
        sites,
        losses,
        resources: ResourceBound {
            mat_tiles: distinct(0),
            chk_tiles: distinct(1),
            dpt_tiles: distinct(2),
            scratch_peak: max_antichain(&scratch_set, &ix.anc) as u64,
            mirror_peak: max_antichain(&mirror_set, &ix.anc) as u64,
            broadcast_peak: max_antichain(&send_set, &ix.anc) as u64,
        },
    }
}

/// The `DetectRestart` rung for every `pending` site `(strike position,
/// tile slot, first verdict index)` (ascending by position) in **one
/// backward sweep**. A corruption's footprint spreads through
/// factorization read→write, and the site is restartable iff some later
/// verify witnesses a footprint tile; `earliest[t]` is the position of the
/// first such verify for a corruption entering tile `t` at the sweep's
/// current position. Descending, it is updated by
///
/// * an unfused verify at `p` covering `t`: `earliest[t] = p`;
/// * a fused compare at `q` covering `t` whose last deposit of `t` is `d`:
///   `earliest[t] = min(earliest[t], q)` once the sweep reaches `d` (the
///   deposit inherits only corruptions that entered at or before it);
/// * a factorization node `p`, after the compares activated at `p`:
///   `earliest[r] = min(earliest[r], min_w earliest[w])` over its reads `r`
///   and writes `w`.
///
/// That minimum over propagation paths equals the first witness of a
/// forward walk that keeps each tile's *earliest* entry, because an earlier
/// entry is never worse: it sees every reader, every verify and every
/// deposit a later entry sees (DESIGN.md §13).
fn prove_restarts(ix: &PlanIndex, pending: &[(usize, usize, usize)], sites: &mut [SiteVerdict]) {
    let n = ix.plan.len();
    let mut earliest = vec![usize::MAX; ix.plan.nt() * ix.plan.nt()];
    let mut compares: Vec<(usize, usize, usize)> = Vec::new();
    for p in 0..n {
        if let TaskKind::VerifyBatch {
            tiles, fused: true, ..
        } = ix.kind(p)
        {
            let slots = tiles.iter().map(|&t| ix.slot(t));
            compares.extend(slots.filter_map(|t| Some((ix.last_deposit(t, p)?, t, p))));
        }
    }
    compares.sort_unstable();
    let mut next = pending.len();
    for p in (0..n).rev() {
        while let Some(&(_, t, q)) = compares.last().filter(|c| c.0 == p) {
            earliest[t] = earliest[t].min(q);
            compares.pop();
        }
        while let Some(&(_, t, s)) = pending[..next].last().filter(|s| s.0 == p) {
            next -= 1;
            if earliest[t] != usize::MAX {
                for v in &mut sites[s..s + FaultClass::all().len()] {
                    (v.coverage, v.witness) = (Coverage::DetectRestart, Some(earliest[t]));
                }
            }
        }
        if let TaskKind::VerifyBatch {
            tiles,
            fused: false,
            ..
        } = ix.kind(p)
        {
            for &t in tiles {
                earliest[ix.slot(t)] = p;
            }
        } else {
            // Only factorization nodes have a row of reads.
            let first = ix.writes[p].iter().map(|&w| earliest[w]).min();
            for &r in &ix.reads[p] {
                earliest[r] = earliest[r].min(first.unwrap_or(usize::MAX));
            }
        }
    }
}

/// Build the plan for `(kind, n, b, opts)` and check its coverage — the
/// one-call form the `coverage_check` bin and CI use. `opts.placement`
/// may be `Auto`; it resolves exactly as `run_scheme` resolves it.
pub fn check_scheme_coverage(
    kind: SchemeKind,
    profile: &hchol_gpusim::profile::SystemProfile,
    n: usize,
    b: usize,
    opts: &AbftOptions,
) -> CoverageReport {
    let resolved = opts.resolved_for(profile, n, b);
    let plan = hchol_core::plan::for_scheme(kind, n / b, &resolved, false);
    check_coverage(kind, &plan, &resolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::is_factorization;
    use crate::index::tests::for_each_plan;
    use hchol_core::plan::{for_scheme, SweepKind};
    use hchol_gpusim::BufferId;
    use std::collections::{BTreeMap, HashMap};

    /// One verify node as the coverage prover sees it.
    struct OldVerify {
        pos: usize,
        tiles: Vec<(usize, usize)>,
        fused: bool,
    }

    /// Classify a tile access into the mat / chk / dpt buffer families (the
    /// canonical ids [`hchol_core::plan::mat_tile`] et al. assign).
    fn classify(buf: BufferId, nt: usize) -> u8 {
        if buf == BufferId(0) {
            0 // mat
        } else if buf.0 <= nt {
            1 // chk row buffer
        } else {
            2 // fused deposit row buffer
        }
    }

    /// `check_coverage` as it stood before the plan index, verbatim (only the
    /// reachability bitsets are borrowed from the index): hashed per-plan
    /// tables, a scan of every verify batch per (site × later read), and a
    /// forward footprint walk of the whole authored order per site. The
    /// reference the differential test holds the indexed prover and its
    /// backward sweep to, verdict for verdict.
    fn check_coverage_oracle(
        kind: SchemeKind,
        plan: &FactorPlan,
        opts: &AbftOptions,
    ) -> CoverageReport {
        let nt = plan.nt();
        let order = plan.order();
        let n = order.len();
        let ix = PlanIndex::new(plan);
        let anc = &ix.anc;

        // One walk: verify placement, fused-deposit positions,
        // factorization read/write sets, per-column mat writes, parity
        // refreshes, resource sets, distinct-tile budgets.
        let mut verifies: Vec<OldVerify> = Vec::new();
        let mut deposits: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        let mut fact_reads: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut fact_writes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut reads_of_tile: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        let mut col_writes: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut parities: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut scratch_set = Vec::new();
        let mut mirror_set = Vec::new();
        let mut send_set = Vec::new();
        let mut mat_tiles = std::collections::BTreeSet::new();
        let mut chk_tiles = std::collections::BTreeSet::new();
        let mut dpt_tiles = std::collections::BTreeSet::new();

        for (p, &id) in order.iter().enumerate() {
            let node = plan.node(id);
            let acc = plan.node_access(id);
            for t in acc.tiles.reads.iter().chain(acc.tiles.writes.iter()) {
                match classify(t.buf, nt) {
                    0 => {
                        mat_tiles.insert((t.bi, t.bj));
                    }
                    1 => {
                        chk_tiles.insert((t.buf.0 - 1, t.bj));
                    }
                    _ => {
                        dpt_tiles.insert((t.buf.0 - 1 - nt, t.bj));
                    }
                }
            }
            match &node.kind {
                TaskKind::VerifyBatch { tiles, fused, .. } => {
                    verifies.push(OldVerify {
                        pos: p,
                        tiles: tiles.clone(),
                        fused: *fused,
                    });
                    if !*fused {
                        scratch_set.push(p);
                    }
                }
                TaskKind::MirrorPanel { .. } => mirror_set.push(p),
                TaskKind::DeviceSend { .. } => send_set.push(p),
                TaskKind::ShardParity { j } => parities.entry(*j).or_default().push(p),
                _ => {}
            }
            if is_factorization(&node.kind) {
                for t in &acc.tiles.reads {
                    if t.buf == BufferId(0) {
                        fact_reads[p].push((t.bi, t.bj));
                        reads_of_tile.entry((t.bi, t.bj)).or_default().push(p);
                    }
                }
                for t in &acc.tiles.writes {
                    if t.buf == BufferId(0) {
                        fact_writes[p].push((t.bi, t.bj));
                    }
                }
            }
            // Fused producers deposit fresh sums of everything they write.
            if matches!(
                node.kind,
                TaskKind::Syrk { fused: true, .. } | TaskKind::GemmPanel { fused: true, .. }
            ) {
                for t in &acc.tiles.writes {
                    if classify(t.buf, nt) == 2 {
                        deposits
                            .entry((t.buf.0 - 1 - nt, t.bj))
                            .or_default()
                            .push(p);
                    }
                }
            }
            // Data writes (kernels and the POTF2 round trip) staleness-gate
            // the column's parity refresh. Corrections also declare mat
            // writes but restore the exact checksum-consistent values the
            // parity encoded, so they do not invalidate it (soft fault +
            // device loss in one run is out of scope — DESIGN.md §12).
            if is_factorization(&node.kind) || matches!(node.kind, TaskKind::DiagToDevice { .. }) {
                for t in &acc.tiles.writes {
                    if t.buf == BufferId(0) {
                        col_writes.entry(t.bj).or_default().push(p);
                    }
                }
            }
        }

        // A verify witnesses a corruption that entered tile `t` at position
        // `entry` iff it covers `t` after the entry and — when compare-only —
        // its deposit of `t` was computed from the corrupted data.
        let witnesses = |v: &OldVerify, t: (usize, usize), entry: usize| -> bool {
            if v.pos <= entry || !v.tiles.contains(&t) {
                return false;
            }
            if !v.fused {
                return true;
            }
            deposits
                .get(&t)
                .and_then(|ds| ds.iter().rev().find(|&&d| d < v.pos))
                .is_some_and(|&d| d >= entry)
        };

        // Enumerate fault sites and prove each one.
        let mut sites = Vec::new();
        for (a, point) in plan.fault_points() {
            for (&tile, read_ps) in &reads_of_tile {
                if !read_ps.iter().any(|&r| r > a) {
                    continue; // post-last-read window: not a live site
                }
                let proof = prove_site(
                    a,
                    tile,
                    read_ps,
                    &verifies,
                    &witnesses,
                    anc,
                    &fact_reads,
                    &fact_writes,
                    opts,
                );
                for class in FaultClass::all() {
                    sites.push(SiteVerdict {
                        site: FaultSite {
                            point,
                            bi: tile.0,
                            bj: tile.1,
                            class,
                        },
                        pos: a,
                        coverage: proof.0,
                        witness: proof.1,
                    });
                }
            }
        }

        // Device-loss sites (sharded plans): a loss at the start of iteration
        // `j` is recoverable iff every finalized column `c < j` has a parity
        // refresh after its last write and before the loss.
        let mut losses = Vec::new();
        if let Some(shard) = plan.shard().filter(|s| s.devices > 1) {
            let loss_points: Vec<(usize, usize)> = plan
                .fault_points()
                .into_iter()
                .filter_map(|(a, pt)| match pt {
                    InjectionPoint::IterStart { iter } if iter >= 1 => Some((a, iter)),
                    _ => None,
                })
                .collect();
            for device in 0..shard.devices {
                for &(a, at_iter) in &loss_points {
                    let mut missing = Vec::new();
                    for c in 0..at_iter {
                        let lw = col_writes
                            .get(&c)
                            .into_iter()
                            .flatten()
                            .filter(|&&w| w < a)
                            .max()
                            .copied()
                            .unwrap_or(0);
                        let fresh = parities
                            .get(&c)
                            .into_iter()
                            .flatten()
                            .any(|&q| q < a && q > lw);
                        if !fresh {
                            missing.push(c);
                        }
                    }
                    losses.push(LossVerdict {
                        device,
                        at_iter,
                        coverage: if missing.is_empty() {
                            Coverage::ParityRecover
                        } else {
                            Coverage::Uncovered
                        },
                        missing_columns: missing,
                    });
                }
            }
        }

        CoverageReport {
            scheme: kind,
            nodes: n,
            sites,
            losses,
            resources: ResourceBound {
                mat_tiles: mat_tiles.len() as u64,
                chk_tiles: chk_tiles.len() as u64,
                dpt_tiles: dpt_tiles.len() as u64,
                scratch_peak: max_antichain(&scratch_set, anc) as u64,
                mirror_peak: max_antichain(&mirror_set, anc) as u64,
                broadcast_peak: max_antichain(&send_set, anc) as u64,
            },
        }
    }

    /// Witness predicate: does this verify witness a corruption that
    /// entered the given tile at the given authored-order position?
    type WitnessFn<'a> = dyn Fn(&OldVerify, (usize, usize), usize) -> bool + 'a;

    /// Prove one `(strike position, tile)` pair the strongest lattice rung.
    #[allow(clippy::too_many_arguments)]
    fn prove_site(
        a: usize,
        tile: (usize, usize),
        read_ps: &[usize],
        verifies: &[OldVerify],
        witnesses: &WitnessFn<'_>,
        anc: &Ancestors,
        fact_reads: &[Vec<(usize, usize)>],
        fact_writes: &[Vec<(usize, usize)>],
        opts: &AbftOptions,
    ) -> (Coverage, Option<usize>) {
        // DetectCorrect: every consumer read after the strike is behind a
        // witnessing verify.
        let mut first_witness = None;
        let all_guarded = read_ps.iter().filter(|&&r| r > a).all(|&r| {
            let guard = verifies
                .iter()
                .find(|v| witnesses(v, tile, a) && anc.reaches(v.pos, r));
            if let Some(v) = guard {
                if first_witness.is_none() {
                    first_witness = Some(v.pos);
                }
            }
            guard.is_some()
        });
        if all_guarded {
            return (Coverage::DetectCorrect, first_witness);
        }

        // DetectRestart: walk the authored order propagating the corruption
        // footprint through factorization read→write and look for a verify
        // that witnesses any footprint tile.
        if opts.max_restarts >= 1 {
            let mut foot: HashMap<(usize, usize), usize> = HashMap::from([(tile, a)]);
            let n = fact_reads.len();
            let mut vi = verifies.iter().peekable();
            for p in (a + 1)..n {
                while vi.peek().is_some_and(|v| v.pos < p) {
                    vi.next();
                }
                if let Some(v) = vi.peek() {
                    if v.pos == p
                        && v.tiles
                            .iter()
                            .any(|t| foot.get(t).is_some_and(|&e| witnesses(v, *t, e)))
                    {
                        return (Coverage::DetectRestart, Some(p));
                    }
                }
                if fact_reads[p].iter().any(|t| foot.contains_key(t)) {
                    for &w in &fact_writes[p] {
                        foot.entry(w).or_insert(p);
                    }
                }
            }
        }

        (Coverage::Uncovered, None)
    }

    /// Every field of two reports that a verdict is made of.
    fn assert_same_report(new: &CoverageReport, old: &CoverageReport, what: &str) {
        assert_eq!(new.nodes, old.nodes, "{what}");
        assert_eq!(new.sites.len(), old.sites.len(), "{what}: site count");
        for (n, o) in new.sites.iter().zip(&old.sites) {
            assert_eq!(
                (n.site, n.pos, n.coverage, n.witness),
                (o.site, o.pos, o.coverage, o.witness),
                "{what}"
            );
        }
        let losses = |r: &CoverageReport| -> Vec<_> {
            let row =
                |l: &LossVerdict| (l.device, l.at_iter, l.coverage, l.missing_columns.clone());
            r.losses.iter().map(row).collect()
        };
        assert_eq!(losses(new), losses(old), "{what}");
        assert_eq!(
            format!("{:?}", new.resources),
            format!("{:?}", old.resources),
            "{what}"
        );
    }

    /// New vs oracle over scheme × grid × feature, clean and broken — the
    /// broken plans are where sites fall to `DetectRestart` (the backward
    /// sweep) and `Uncovered`, fused and unfused. A counter-example means
    /// the sweep is wrong, not the oracle.
    #[test]
    fn indexed_check_coverage_matches_the_walking_oracle() {
        let broken_max = if cfg!(debug_assertions) { 5 } else { 7 };
        let mut rungs = std::collections::BTreeMap::new();
        for_each_plan(broken_max, |what, kind, plan, opts| {
            let new = check_coverage(kind, plan, opts);
            assert_same_report(&new, &check_coverage_oracle(kind, plan, opts), what);
            let fused = opts.chk_fused && kind == SchemeKind::Enhanced;
            for s in &new.sites {
                *rungs.entry((fused, s.coverage)).or_insert(0usize) += 1;
            }
        });
        for fused in [false, true] {
            for rung in [
                Coverage::DetectCorrect,
                Coverage::DetectRestart,
                Coverage::Uncovered,
            ] {
                assert!(
                    rungs.get(&(fused, rung)).is_some_and(|&n| n > 100),
                    "fused={fused} {rung}: the sweep must be exercised, got {rungs:?}"
                );
            }
        }
    }

    fn resolved_opts() -> AbftOptions {
        AbftOptions::default().with_placement(hchol_core::options::ChecksumPlacement::Gpu)
    }

    /// Every clean single-device configuration proves 100% site coverage,
    /// across schemes, grid sizes, and verify intervals.
    #[test]
    fn clean_plans_cover_every_site() {
        for kind in SchemeKind::all() {
            for nt in [2usize, 4, 8] {
                for k in [1usize, 4] {
                    let opts = resolved_opts().with_interval(k);
                    let plan = for_scheme(kind, nt, &opts, false);
                    let rep = check_coverage(kind, &plan, &opts);
                    assert!(rep.total_sites() > 0, "{} nt={nt}: no sites", kind.name());
                    assert!(
                        rep.is_covered(),
                        "{} nt={nt} K={k}:\n{}",
                        kind.name(),
                        rep.render_text()
                    );
                }
            }
        }
    }

    /// Enhanced at K=1 proves the paper's one-attempt contract: every
    /// site is DetectCorrect, never merely restartable.
    #[test]
    fn enhanced_k1_proves_correct_in_place() {
        let opts = resolved_opts();
        let plan = for_scheme(SchemeKind::Enhanced, 6, &opts, false);
        let rep = check_coverage(SchemeKind::Enhanced, &plan, &opts);
        assert!(rep.is_covered(), "{}", rep.render_text());
        assert!(
            rep.sites
                .iter()
                .all(|s| s.coverage == Coverage::DetectCorrect),
            "expected all DetectCorrect:\n{}",
            rep.render_text()
        );
        // Every covered site names its witnessing verify.
        assert!(rep.sites.iter().all(|s| s.witness.is_some()));
    }

    /// Offline has no inline checks: every site is covered only through
    /// the final sweep + restart route.
    #[test]
    fn offline_covers_only_by_restart() {
        let opts = resolved_opts();
        let plan = for_scheme(SchemeKind::Offline, 6, &opts, false);
        let rep = check_coverage(SchemeKind::Offline, &plan, &opts);
        assert!(rep.is_covered(), "{}", rep.render_text());
        assert!(rep
            .sites
            .iter()
            .all(|s| s.coverage == Coverage::DetectRestart));
    }

    /// With restarts forbidden, Offline's restart route disappears and
    /// every site degrades to uncovered — the lattice is downgrade-exact.
    #[test]
    fn no_restarts_uncovers_offline() {
        let mut opts = resolved_opts();
        opts.max_restarts = 0;
        let plan = for_scheme(SchemeKind::Offline, 4, &opts, false);
        let rep = check_coverage(SchemeKind::Offline, &plan, &opts);
        assert!(rep.uncovered_sites() > 0);
        assert_eq!(rep.covered_sites(), 0);
    }

    /// Fused Enhanced plans stay fully covered: the deposit-witness rule
    /// accepts fused compares only where the deposit inherits the
    /// corruption, and the plain re-read checks carry the rest.
    #[test]
    fn fused_enhanced_plans_are_covered() {
        for nt in [4usize, 8] {
            let opts = resolved_opts().with_chk_fused(true);
            let plan = for_scheme(SchemeKind::Enhanced, nt, &opts, false);
            let rep = check_coverage(SchemeKind::Enhanced, &plan, &opts);
            assert!(rep.total_sites() > 0);
            assert!(rep.is_covered(), "nt={nt}:\n{}", rep.render_text());
            assert!(rep.resources.dpt_tiles > 0, "fused plan deposits tiles");
        }
    }

    /// Mutation control: stripping a final-sweep verify from an Offline
    /// plan flips sites to uncovered (their only witness is gone).
    #[test]
    fn stripped_final_verify_uncovers_sites() {
        let opts = resolved_opts();
        let mut plan = for_scheme(SchemeKind::Offline, 4, &opts, false);
        let sweep = plan
            .find(|n| matches!(&n.kind, TaskKind::VerifyBatch { sweep, .. } if *sweep == SweepKind::Final))
            .expect("final sweep exists");
        plan.remove(sweep);
        let rep = check_coverage(SchemeKind::Offline, &plan, &opts);
        assert!(
            rep.uncovered_sites() > 0,
            "expected uncovered sites:\n{}",
            rep.render_text()
        );
    }

    /// Mutation control: stripping the first inline check of iteration
    /// j = 1, 2 or 3 from an Enhanced plan demotes the reads it guarded —
    /// sites fall off DetectCorrect. A check is its own corrector: no
    /// later check of the same tile stands in for it.
    #[test]
    fn stripped_inline_verify_demotes_enhanced() {
        let opts = resolved_opts();
        let plan = for_scheme(SchemeKind::Enhanced, 6, &opts, false);
        let clean = check_coverage(SchemeKind::Enhanced, &plan, &opts)
            .summary()
            .detect_correct;
        for j in 1..=3 {
            let victim = plan
                .find(|n| {
                    matches!(&n.kind, TaskKind::VerifyBatch { sweep, .. } if *sweep == SweepKind::Inline)
                        && n.iter == Some(j)
                })
                .expect("an inline check exists");
            let mut mutated = plan.clone();
            mutated.remove(victim);
            let rep = check_coverage(SchemeKind::Enhanced, &mutated, &opts);
            assert!(
                rep.summary().detect_correct < clean,
                "j = {j}: expected a demoted site:\n{}",
                rep.render_text()
            );
        }
    }

    /// Sharded plans enumerate device-loss sites and prove every one
    /// parity-recoverable; dropping one parity refresh flips the later
    /// loss sites to uncovered.
    #[test]
    fn sharded_losses_parity_recover_and_mutation_flips() {
        let opts = resolved_opts().with_shard(hchol_core::options::ShardOptions::new(2));
        let plan = for_scheme(SchemeKind::Offline, 6, &opts, false);
        let rep = check_coverage(SchemeKind::Offline, &plan, &opts);
        assert!(!rep.losses.is_empty(), "loss sites were enumerated");
        assert!(
            rep.losses
                .iter()
                .all(|l| l.coverage == Coverage::ParityRecover),
            "{}",
            rep.render_text()
        );
        assert!(rep.is_covered(), "{}", rep.render_text());

        let mut mutated = plan.clone();
        let parity = mutated
            .find(|n| matches!(n.kind, TaskKind::ShardParity { j: 1 }))
            .expect("column-1 parity refresh exists");
        mutated.remove(parity);
        let rep = check_coverage(SchemeKind::Offline, &mutated, &opts);
        let bad: Vec<_> = rep
            .losses
            .iter()
            .filter(|l| l.coverage == Coverage::Uncovered)
            .collect();
        assert!(!bad.is_empty(), "expected uncovered loss sites");
        assert!(bad
            .iter()
            .all(|l| l.missing_columns == vec![1] && l.at_iter >= 2));
    }

    /// The scratch antichain bound proves the shared recalc pool is never
    /// contended: at most one non-fused verify live at a time.
    #[test]
    fn scratch_peak_is_one() {
        for kind in SchemeKind::all() {
            let opts = resolved_opts();
            let plan = for_scheme(kind, 8, &opts, false);
            let rep = check_coverage(kind, &plan, &opts);
            assert_eq!(rep.resources.scratch_peak, 1, "{}", kind.name());
            assert_eq!(rep.resources.mat_tiles, 8 * 9 / 2);
            assert_eq!(rep.resources.chk_tiles, 8 * 9 / 2);
        }
    }

    /// Sharded plans keep multiple broadcasts in flight — the antichain
    /// bound sees the overlap the chunked ring permits.
    #[test]
    fn broadcast_peak_counts_overlap() {
        let opts = resolved_opts().with_shard(hchol_core::options::ShardOptions::new(2));
        let plan = for_scheme(SchemeKind::Offline, 8, &opts, false);
        let rep = check_coverage(SchemeKind::Offline, &plan, &opts);
        assert!(rep.resources.broadcast_peak >= 1);
    }

    /// The JSON export is a valid versioned envelope with the summary
    /// body.
    #[test]
    fn report_exports_versioned_envelope() {
        let opts = resolved_opts();
        let plan = for_scheme(SchemeKind::Enhanced, 4, &opts, false);
        let rep = check_coverage(SchemeKind::Enhanced, &plan, &opts);
        let json = rep.to_json("unit test");
        let v = serde_json::value_from_str(&json).expect("parses");
        let obj = v.as_object().expect("envelope object");
        assert!(matches!(
            serde::field(obj, "schema_version").unwrap(),
            serde::Value::U64(n) if *n == hchol_obs::SCHEMA_VERSION as u64
        ));
        let body = serde::field(obj, "body")
            .unwrap()
            .as_object()
            .expect("body object");
        assert!(matches!(serde::field(body, "sites").unwrap(), serde::Value::U64(n) if *n > 0));
        assert!(matches!(
            serde::field(body, "uncovered").unwrap(),
            serde::Value::U64(0)
        ));
    }
}
