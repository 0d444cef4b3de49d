//! The task-graph plan layer: a typed IR for one factorization attempt.
//!
//! Every driver in this crate — the three ABFT schemes and the MAGMA/CULA
//! baselines — executes a [`FactorPlan`]: a list of [`TaskKind`] nodes in
//! an authored issue order, each carrying the same tile-level
//! [`AccessSet`] declarations the simulator's kernels declare, plus
//! dependency edges derived from those declarations on first read. The planner
//! ([`skeleton`]) emits the bare Algorithm-1 iteration skeleton; each
//! scheme is a *policy pass* ([`policy::EnhancedPolicy`],
//! [`policy::OnlinePolicy`], [`policy::OfflinePolicy`]) that inserts
//! encode/verify/update nodes into that skeleton, and the paper's
//! optimizations are plan rewrites (Opt 3 decides *which* verify nodes are
//! inserted; Opt 2's CPU placement inserts the panel-mirror nodes).
//!
//! The plan is built once per run, statically — tiles are named with
//! canonical buffer ids (`mat = BufferId(0)`, `cks[bi] = BufferId(1+bi)`),
//! so no simulator context is needed to construct or check one. The
//! executor ([`exec`]) then interprets nodes against a live `SimContext`;
//! under the default in-order issue policy it reproduces the legacy
//! imperative drivers byte-for-byte (goldens in `tests/fixtures/golden/`),
//! while [`hchol_gpusim::IssuePolicy::Lookahead`] and [`exec::run_batch`]
//! reorder and interleave independent nodes along the derived edges.
//! `hchol-analyze`'s static checker walks the same edges to prove each
//! scheme's ABFT contract *before* execution.

pub mod balance;
pub mod exec;
pub mod policy;
pub mod shard;
mod shard_rt;
pub mod skeleton;

use crate::ops;
use crate::options::AbftOptions;
use crate::schemes::SchemeKind;
use hchol_faults::InjectionPoint;
use hchol_gpusim::{AccessSet, BufferId, DagSchedule, NodeMeta, TileRef};
use hchol_obs::Phase;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

/// Which checksum update a [`TaskKind::ChkUpdate`] node performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// `chk(A[j,j]) -= Σ chk(L[j,k])·L[j,k]ᵀ` (mirrors the SYRK).
    Syrk,
    /// `chk(A[i,j]) -= Σ chk(L[i,k])·L[j,k]ᵀ` (mirrors the GEMM, row `i`).
    Gemm,
    /// Checksum update mirroring POTF2 (Algorithm 2 of the paper).
    Potf2,
    /// `chk(L[i,j]) = chk(A[i,j])·(L[j,j]ᵀ)⁻¹` (mirrors the TRSM, row `i`).
    Trsm,
}

/// Whether a verify batch is an in-loop check or part of the final
/// acceptance sweep (Offline/Online tails).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Mid-run check: an uncorrectable outcome restarts the attempt
    /// immediately.
    Inline,
    /// End-of-run sweep: outcomes accumulate and the
    /// `final_sweep_accepts` rule decides completion vs restart.
    Final,
}

/// How the per-iteration operations drive the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveStyle {
    /// MAGMA-style: async transfers ordered by events, POTF2 overlapping
    /// the panel GEMM.
    Overlapped,
    /// CULA-style: the device is drained after every host-blocking node
    /// (synchronous `cudaMemcpy`-era driving), POTF2 before the GEMM.
    Synchronous,
}

/// What a cross-device broadcast ([`TaskKind::DeviceSend`] /
/// [`TaskKind::DeviceRecv`]) carries in a sharded plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardXfer {
    /// Row panel of iteration `j`: tiles `(j, 0..j)`, finalized by earlier
    /// iterations on the row owner and read by every other device's GEMM
    /// slice and cross-row checksum updates.
    RowPanel,
    /// The factorized diagonal block `(j, j)`, read by every other
    /// device's TRSM slice and cross-row TRSM checksum updates.
    Diag,
}

/// One schedulable unit of a factorization attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskKind {
    /// Initial checksum encoding of the full lower triangle.
    Encode,
    /// Poll the fault injector at a trigger point.
    FaultPoint(InjectionPoint),
    /// SYRK update of diagonal tile `(j, j)`.
    Syrk {
        /// The diagonal tile's column (Algorithm 1's outer iteration).
        j: usize,
        /// The update chain: the columns `k` of `A[j,j] -= Σ L[j,k]·L[j,k]ᵀ`.
        /// `0..j` in Algorithm 1 (the whole left panel, inner-product
        /// form); `s..s+1` in step `s`'s trailing update of the
        /// right-looking form ([`skeleton::right_looking`]).
        cols: Range<usize>,
        /// Fused checksum epilogue: deposit fresh checksums of the written
        /// diagonal tile ([`dpt_tile`]) in the same kernel launch.
        fused: bool,
    },
    /// Panel GEMM of column `j`.
    GemmPanel {
        /// The panel's column (Algorithm 1's outer iteration).
        j: usize,
        /// The update chain, as for [`TaskKind::Syrk`].
        cols: Range<usize>,
        /// Row set: `None` = every panel row `j+1..nt` (the single-device
        /// case); `Some(d)` = device `d`'s slice of a sharded plan, the
        /// rows with `owner(i) = d` ([`FactorPlan::panel_rows`]).
        dev: Option<usize>,
        /// Fused checksum epilogue: deposit fresh checksums of every
        /// written panel tile ([`dpt_tile`]) in the same kernel launch.
        fused: bool,
    },
    /// Diagonal block device→host transfer.
    DiagToHost {
        /// Outer iteration.
        j: usize,
    },
    /// Host POTF2 of the staged diagonal block.
    Potf2 {
        /// Outer iteration.
        j: usize,
        /// Mirror the operation's smear of a dirty diagonal block in the
        /// injector's propagation ledger. The node declares no matrix
        /// tiles (it factors the host staging copy), so this flag, not its
        /// footprint, says whether it smears; Enhanced leaves it off.
        propagate: bool,
    },
    /// Factorized diagonal block host→device transfer.
    DiagToDevice {
        /// Outer iteration.
        j: usize,
    },
    /// Panel TRSM of iteration `j`.
    TrsmPanel {
        /// Outer iteration.
        j: usize,
        /// Row set, as for [`TaskKind::GemmPanel`].
        dev: Option<usize>,
    },
    /// One checksum-update task (dispatched per Optimization 2).
    ChkUpdate {
        /// Which operation's update.
        op: UpdateOp,
        /// Outer iteration.
        j: usize,
        /// Panel row (equals `j` for `Syrk`/`Potf2`).
        i: usize,
    },
    /// Check a batch of tiles: recalculate and compare their checksums,
    /// then locate and correct what the comparison flags
    /// ([`ops::verify_batch`]).
    VerifyBatch {
        /// Tiles under verification.
        tiles: Vec<(usize, usize)>,
        /// Inline check or final sweep.
        sweep: SweepKind,
        /// Compare-only batch: fresh checksums were already deposited by
        /// the fused producer kernels, so no recalculation kernels are
        /// issued and the batch corrects against the deposit tiles.
        fused: bool,
        /// Accumulation depth of the batch — the outer iteration at which
        /// the check runs (`nt` for a final sweep). The adaptive tolerance
        /// model derives the accumulation-path length `b·(depth+1)` from
        /// this per-panel metadata; the fixed model ignores it.
        depth: usize,
    },
    /// Broadcast `what` of iteration `j` from its owner device `from` to
    /// every other device over the peer links (sharded plans only).
    DeviceSend {
        /// Outer iteration.
        j: usize,
        /// Payload.
        what: ShardXfer,
        /// Sending (owner) device.
        from: usize,
    },
    /// Order device `to`'s future work behind the matching
    /// [`TaskKind::DeviceSend`] broadcast (sharded plans only). A consumer
    /// on a non-owner device without an ancestor `DeviceRecv` is a
    /// cross-device RAW race.
    DeviceRecv {
        /// Outer iteration.
        j: usize,
        /// Payload.
        what: ShardXfer,
        /// Receiving device.
        to: usize,
    },
    /// Refresh the XOR parity of column `j` (matrix and checksum tiles)
    /// after its finalizing iteration, so a later device loss can
    /// reconstruct the column's lost shard exactly (sharded plans only).
    ShardParity {
        /// Finalized column.
        j: usize,
    },
    /// Record the panel-complete event checksum updates order behind.
    MarkPanelReady,
    /// Queue the CPU-placement host mirror of panel column `j`.
    MirrorPanel {
        /// Column to mirror.
        j: usize,
    },
    /// Issue any still-pending panel mirror (attempt tail).
    FlushMirror,
    /// Synchronize everything (attempt tail).
    Drain,
}

/// Stable identifier of a node within one plan (index into node storage;
/// removal drops a node from the issue order but never invalidates ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a scope-span specification within one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScopeId(pub usize);

/// A scope span the executor opens around the nodes that reference it.
#[derive(Debug, Clone)]
pub struct ScopeSpec {
    /// Span label (must be registered in `hchol_obs::names::SCOPES`).
    pub label: String,
    /// Span phase.
    pub phase: Phase,
}

/// One node: the task, its observability placement, and its outer
/// iteration (if any).
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// What to execute.
    pub kind: TaskKind,
    /// Scope span this node runs under (`None` = directly under the
    /// iteration/attempt span).
    pub scope: Option<ScopeId>,
    /// Outer iteration (`None` for pre/post-loop work).
    pub iter: Option<usize>,
}

/// Virtual (non-tile) resources threaded through the dependency
/// derivation: state the imperative ops communicate through besides device
/// tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VirtRes {
    /// The host staging block of the POTF2 round trip.
    HostDiag,
    /// The shared recalculation scratch pool (serializes verify batches).
    Scratch,
    /// The pending CPU-placement panel mirror slot.
    Mirror,
    /// The panel-ready event checksum updates wait on.
    PanelReady,
    /// The fault injector's ledger — present only in faulted plans, where
    /// injection/propagation order must stay authored.
    Ledger,
    /// The in-flight broadcast payload of `(iteration, what)`: written by
    /// [`TaskKind::DeviceSend`], read by every matching
    /// [`TaskKind::DeviceRecv`].
    ShardMsg(usize, ShardXfer),
    /// The receive token of `(iteration, what, device)`: written by the
    /// device's [`TaskKind::DeviceRecv`], read by that device's consumers
    /// of the broadcast payload — the plan edge the cross-device RAW rule
    /// checks, and the one the mutation control severs.
    ShardRecv(usize, ShardXfer, usize),
    /// Column `.0`'s XOR parity state (serializes parity refreshes of one
    /// column and orders them for the analyzers).
    Parity(usize),
}

/// A node's declared accesses: device tiles (canonical buffer ids) plus
/// virtual resources.
#[derive(Debug, Clone, Default)]
pub struct NodeAccess {
    /// Tile reads/writes, in the same [`AccessSet`] form kernels declare.
    pub tiles: AccessSet,
    /// Virtual-resource reads.
    pub virt_reads: Vec<VirtRes>,
    /// Virtual-resource writes.
    pub virt_writes: Vec<VirtRes>,
}

/// Canonical tile of the factorized matrix: `mat` is `BufferId(0)`.
pub fn mat_tile(bi: usize, bj: usize) -> TileRef {
    TileRef::new(BufferId(0), bi, bj)
}

/// Canonical tile of block row `bi`'s checksum: `cks[bi]` is
/// `BufferId(1 + bi)`.
pub fn chk_tile(bi: usize, bj: usize) -> TileRef {
    TileRef::new(BufferId(1 + bi), 0, bj)
}

/// Canonical tile of block row `bi`'s fused checksum deposit (written by
/// fused SYRK/GEMM epilogues, read by fused verify batches):
/// `dpt[bi]` is `BufferId(1 + nt + bi)`, after the `nt` checksum buffers.
pub fn dpt_tile(nt: usize, bi: usize, bj: usize) -> TileRef {
    TileRef::new(BufferId(1 + nt + bi), 0, bj)
}

/// The shard grid of a sharded plan: `devices` GPUs with tile rows
/// distributed row-cyclically (`owner(i) = i mod devices` — a `D×1`
/// block-cyclic grid, which keeps every checksum row co-resident with its
/// tile row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of devices `D`.
    pub devices: usize,
}

impl ShardSpec {
    /// Home device of tile row `i`.
    pub fn owner(&self, i: usize) -> usize {
        i % self.devices
    }

    /// The rows of panel column `j` (rows `j+1..nt`) homed on `dev`.
    pub fn panel_rows(&self, nt: usize, j: usize, dev: usize) -> Vec<usize> {
        ((j + 1)..nt).filter(|&i| self.owner(i) == dev).collect()
    }
}

/// A complete factorization attempt as a task graph.
#[derive(Debug, Clone)]
pub struct FactorPlan {
    /// Grid size (`n / b` block columns).
    nt: usize,
    /// Per-operation driving style.
    pub style: DriveStyle,
    /// Surface a POTF2 failure at the end of its iteration (baselines)
    /// instead of immediately (schemes, where the error aborts the
    /// attempt mid-iteration).
    pub defer_potf2_error: bool,
    /// Does the run inject faults? Adds the [`VirtRes::Ledger`] ordering
    /// chain so injection and propagation stay in authored order under
    /// reordering policies.
    faulty: bool,
    /// Plans panel mirrors for CPU checksum placement (set by
    /// [`policy::apply_placement`]).
    cpu_mirrors: bool,
    /// The shard grid, when the plan was rewritten by
    /// [`shard::apply_shard`] (`None` = single device).
    shard: Option<ShardSpec>,
    nodes: Vec<PlanNode>,
    /// The authored issue order. Passes write it anew, one walk each
    /// ([`Self::rewrite`]); a node off it keeps its id.
    order: Vec<NodeId>,
    scopes: Vec<ScopeSpec>,
    /// Dependency lists by node id: derived on first read, dropped by every
    /// edit of the nodes or the order. The fields above that the accesses
    /// read (`nt`, `faulty`, `cpu_mirrors`, `shard`) are private, and the
    /// passes that set them edit the plan beside it before any read, so a
    /// read never sees stale edges.
    deps: OnceLock<Vec<Vec<NodeId>>>,
}

impl FactorPlan {
    /// An empty plan for grid size `nt`.
    pub fn new(nt: usize, style: DriveStyle, defer_potf2_error: bool, faulty: bool) -> Self {
        FactorPlan {
            nt,
            style,
            defer_potf2_error,
            faulty,
            cpu_mirrors: false,
            shard: None,
            nodes: Vec::new(),
            order: Vec::new(),
            scopes: Vec::new(),
            deps: OnceLock::new(),
        }
    }

    /// Grid size (`n / b` block columns).
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Does the run inject faults (the ledger chain is planned)?
    pub fn faulty(&self) -> bool {
        self.faulty
    }

    /// Are panel mirrors planned for CPU checksum placement?
    pub fn cpu_mirrors(&self) -> bool {
        self.cpu_mirrors
    }

    /// The shard grid (`None` = single device).
    pub fn shard(&self) -> Option<ShardSpec> {
        self.shard
    }

    /// Register a scope span; nodes referencing the returned id run under
    /// one shared span instance.
    pub fn scope(&mut self, label: impl Into<String>, phase: Phase) -> ScopeId {
        self.scopes.push(ScopeSpec {
            label: label.into(),
            phase,
        });
        ScopeId(self.scopes.len() - 1)
    }

    /// Append a node to the issue order.
    pub fn push(&mut self, kind: TaskKind, scope: Option<ScopeId>, iter: Option<usize>) -> NodeId {
        self.nodes.push(PlanNode { kind, scope, iter });
        self.deps = OnceLock::new();
        let id = NodeId(self.nodes.len() - 1);
        self.order.push(id);
        id
    }

    /// Append node `id`, already in the plan, to the order a
    /// [`Self::rewrite`] is writing.
    pub(crate) fn keep(&mut self, id: NodeId) {
        self.order.push(id);
    }

    /// The pass primitive: write the issue order anew in one walk over it.
    /// `pass` gets each maximal run of same-iteration nodes in turn and
    /// writes that run's replacement behind what it wrote before —
    /// [`Self::keep`] for a node it keeps, [`Self::push`] for one it adds.
    /// A node it does not write leaves the order. Every pass keeps an
    /// iteration's nodes in one run, which debug builds assert.
    pub(crate) fn rewrite(&mut self, mut pass: impl FnMut(&mut Self, &[NodeId])) {
        let old = std::mem::take(&mut self.order);
        self.deps = OnceLock::new();
        probe(Probe::Visits, old.len());
        self.order.reserve(old.len());
        let mut seen = vec![false; self.nt];
        let mut rest = &old[..];
        while let Some(&first) = rest.first() {
            let iter = self.nodes[first.0].iter;
            let len = rest
                .iter()
                .take_while(|id| self.nodes[id.0].iter == iter)
                .count();
            if let Some(j) = iter {
                debug_assert!(!seen[j], "iteration {j}'s nodes are split in the order");
                seen[j] = true;
            }
            let (run, tail) = rest.split_at(len);
            pass(self, run);
            rest = tail;
        }
    }

    /// Write `kind(j)` at the end of every iteration `j`'s run, with no
    /// scope of its own.
    pub(crate) fn append_to_iterations(&mut self, kind: impl Fn(usize) -> TaskKind) {
        self.rewrite(|plan, run| {
            run.iter().for_each(|&id| plan.keep(id));
            if let Some(j) = plan.nodes[run[0].0].iter {
                plan.push(kind(j), None, Some(j));
            }
        });
    }

    /// Drop a node from the issue order (its id stays allocated; a node
    /// already off the order stays off it).
    pub fn remove(&mut self, id: NodeId) {
        self.rewrite(|plan, run| {
            for &n in run.iter().filter(|&&n| n != id) {
                plan.keep(n);
            }
        });
    }

    /// First node in issue order matching `pred`.
    pub fn find(&self, mut pred: impl FnMut(&PlanNode) -> bool) -> Option<NodeId> {
        self.order()
            .iter()
            .copied()
            .find(|id| pred(&self.nodes[id.0]))
    }

    /// Last node in issue order matching `pred`.
    pub fn rfind(&self, mut pred: impl FnMut(&PlanNode) -> bool) -> Option<NodeId> {
        self.order()
            .iter()
            .copied()
            .rfind(|id| pred(&self.nodes[id.0]))
    }

    /// Replace everything from the first node of iteration `from_iter` on
    /// by `fresh`'s nodes from *its* first node of that iteration on
    /// (scopes re-registered here). Positions before the cut keep their
    /// nodes, so a cursor standing on the cut stays valid.
    pub(crate) fn replace_tail(&mut self, from_iter: usize, fresh: &FactorPlan) {
        let mut cut = false;
        self.rewrite(|plan, run| {
            cut |= plan.nodes[run[0].0].iter == Some(from_iter);
            if !cut {
                run.iter().for_each(|&id| plan.keep(id));
            }
        });
        let mut scopes: HashMap<ScopeId, ScopeId> = HashMap::new();
        let tail = fresh
            .order
            .iter()
            .skip_while(|id| fresh.nodes[id.0].iter != Some(from_iter));
        for &id in tail {
            let n = fresh.node(id);
            let scope = n.scope.map(|s| {
                *scopes.entry(s).or_insert_with(|| {
                    let spec = &fresh.scopes[s.0];
                    self.scope(spec.label.clone(), spec.phase)
                })
            });
            self.push(n.kind.clone(), scope, n.iter);
        }
    }

    /// The node behind an id.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.0]
    }

    /// Mutable access to a node (passes flip `propagate` and `fused`
    /// flags; a node's `iter` places it in its iteration's run and must
    /// not change).
    pub fn node_mut(&mut self, id: NodeId) -> &mut PlanNode {
        self.deps = OnceLock::new();
        &mut self.nodes[id.0]
    }

    /// The authored issue order.
    pub fn order(&self) -> &[NodeId] {
        probe(Probe::Visits, self.order.len());
        &self.order
    }

    /// Number of nodes in the issue order.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The scope-span specifications.
    pub fn scopes(&self) -> &[ScopeSpec] {
        &self.scopes
    }

    /// Every node's dependency list, by id, derived here on first read.
    fn edges(&self) -> &[Vec<NodeId>] {
        self.deps.get_or_init(|| self.derived())
    }

    /// Dependency edges into `id`.
    pub fn deps(&self, id: NodeId) -> &[NodeId] {
        &self.edges()[id.0]
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        let edges = self.edges();
        self.order.iter().map(|&id| edges[id.0].len()).sum()
    }

    /// Sever every dependency edge *out of* `id` (drop `id` from other
    /// nodes' dependency lists) until the plan's next edit. Used by
    /// `hchol-analyze`'s mutation controls to prove the static checker
    /// notices a missing ordering — never by the planner itself.
    pub fn drop_edges_from(&mut self, id: NodeId) {
        self.edges();
        for d in self.deps.get_mut().into_iter().flatten() {
            d.retain(|&n| n != id);
        }
    }

    /// The rows of panel column `j` a panel node with row set `dev`
    /// covers: all of `j+1..nt`, or device `dev`'s share of them.
    pub fn panel_rows(&self, j: usize, dev: Option<usize>) -> Vec<usize> {
        match dev {
            None => ((j + 1)..self.nt).collect(),
            Some(d) => self
                .shard
                .expect("a per-device panel slice needs a sharded plan")
                .panel_rows(self.nt, j, d),
        }
    }

    /// Work on a device other than column `j`'s owner reads the broadcast
    /// payload `what`: declare the receive token it orders behind
    /// (nothing to declare for a no-op, or on an unsharded plan).
    fn recv_if_remote(&self, a: &mut NodeAccess, j: usize, dev: Option<usize>, what: ShardXfer) {
        if let (Some(s), Some(d)) = (self.shard, dev) {
            if d != s.owner(j) && !a.tiles.is_empty() {
                a.virt_reads.push(VirtRes::ShardRecv(j, what, d));
            }
        }
    }

    /// The declared accesses of a node, with canonical buffer ids.
    pub fn node_access(&self, id: NodeId) -> NodeAccess {
        let nt = self.nt;
        let node = &self.nodes[id.0];
        let mut a = NodeAccess::default();
        let ledger_if = |cond: bool, a: &mut NodeAccess| {
            if cond && self.faulty {
                a.virt_reads.push(VirtRes::Ledger);
                a.virt_writes.push(VirtRes::Ledger);
            }
        };
        match &node.kind {
            TaskKind::Encode => {
                let mut reads = Vec::new();
                let mut writes = Vec::new();
                for (bi, bj) in ops::lower_tiles(nt) {
                    reads.push(mat_tile(bi, bj));
                    writes.push(chk_tile(bi, bj));
                }
                a.tiles = AccessSet::new(reads, writes);
            }
            TaskKind::FaultPoint(_) => ledger_if(true, &mut a),
            TaskKind::Syrk { j, cols, fused } => {
                a.tiles = ops::syrk_access(nt, *j, cols.clone(), *fused);
                ledger_if(true, &mut a);
            }
            TaskKind::GemmPanel {
                j,
                cols,
                dev,
                fused,
            } => {
                let rows = self.panel_rows(*j, *dev);
                a.tiles = ops::gemm_panel_access(nt, *j, cols.clone(), &rows, *fused);
                self.recv_if_remote(&mut a, *j, *dev, ShardXfer::RowPanel);
                ledger_if(true, &mut a);
            }
            TaskKind::DiagToHost { j } => {
                let j = *j;
                let mut reads = vec![mat_tile(j, j)];
                if self.cpu_mirrors && j > 0 {
                    // The transfer also issues the previous column's queued
                    // panel mirror.
                    reads.extend(((j - 1)..nt).map(|i| mat_tile(i, j - 1)));
                    a.virt_reads.push(VirtRes::Mirror);
                    a.virt_writes.push(VirtRes::Mirror);
                }
                a.tiles = AccessSet::new(reads, vec![]);
                a.virt_writes.push(VirtRes::HostDiag);
            }
            TaskKind::Potf2 { propagate, .. } => {
                a.virt_reads.push(VirtRes::HostDiag);
                a.virt_writes.push(VirtRes::HostDiag);
                ledger_if(*propagate, &mut a);
            }
            TaskKind::DiagToDevice { j } => {
                a.tiles = AccessSet::new(vec![], vec![mat_tile(*j, *j)]);
                a.virt_reads.push(VirtRes::HostDiag);
            }
            TaskKind::TrsmPanel { j, dev } => {
                a.tiles = ops::trsm_panel_access(*j, &self.panel_rows(*j, *dev));
                self.recv_if_remote(&mut a, *j, *dev, ShardXfer::Diag);
                ledger_if(true, &mut a);
            }
            TaskKind::ChkUpdate { op, j, i } => {
                let (j, i) = (*j, *i);
                a.tiles = ops::chk_update_access(*op, j, i);
                a.virt_reads.push(VirtRes::PanelReady);
                // Cross-row updates on a sharded plan read the broadcast
                // row panel / diagonal of a column another device owns.
                let home = self.shard.map(|s| s.owner(i));
                match op {
                    UpdateOp::Gemm if j > 0 => {
                        self.recv_if_remote(&mut a, j, home, ShardXfer::RowPanel)
                    }
                    UpdateOp::Trsm if j > 0 => {
                        self.recv_if_remote(&mut a, j, home, ShardXfer::Diag)
                    }
                    _ => {}
                }
            }
            TaskKind::VerifyBatch { tiles, fused, .. } => {
                // Reads the data and its stored sums, which a correction may
                // rewrite. Compare-only, the fresh sums sit in the deposit
                // tiles; otherwise they are recalculated into the shared
                // scratch pool.
                let both: Vec<TileRef> = tiles
                    .iter()
                    .flat_map(|&(bi, bj)| [mat_tile(bi, bj), chk_tile(bi, bj)])
                    .collect();
                let mut reads = both.clone();
                if *fused {
                    reads.extend(tiles.iter().map(|&(bi, bj)| dpt_tile(nt, bi, bj)));
                } else {
                    a.virt_writes.push(VirtRes::Scratch);
                }
                a.tiles = AccessSet::new(reads, both);
                ledger_if(true, &mut a);
            }
            TaskKind::DeviceSend { j, what, .. } => {
                let j = *j;
                let reads = match what {
                    ShardXfer::RowPanel => (0..j).map(|k| mat_tile(j, k)).collect(),
                    ShardXfer::Diag => vec![mat_tile(j, j)],
                };
                a.tiles = AccessSet::new(reads, vec![]);
                a.virt_writes.push(VirtRes::ShardMsg(j, *what));
            }
            TaskKind::DeviceRecv { j, what, to } => {
                a.virt_reads.push(VirtRes::ShardMsg(*j, *what));
                a.virt_writes.push(VirtRes::ShardRecv(*j, *what, *to));
            }
            TaskKind::ShardParity { j } => {
                let j = *j;
                let reads = (j..nt)
                    .flat_map(|i| [mat_tile(i, j), chk_tile(i, j)])
                    .collect();
                a.tiles = AccessSet::new(reads, vec![]);
                a.virt_writes.push(VirtRes::Parity(j));
            }
            TaskKind::MarkPanelReady => a.virt_writes.push(VirtRes::PanelReady),
            TaskKind::MirrorPanel { j } => {
                let j = *j;
                a.tiles = AccessSet::new((j..nt).map(|i| mat_tile(i, j)).collect(), vec![]);
                a.virt_writes.push(VirtRes::Mirror);
            }
            TaskKind::FlushMirror => {
                if self.cpu_mirrors && nt > 0 {
                    a.tiles = AccessSet::new(vec![mat_tile(nt - 1, nt - 1)], vec![]);
                }
                a.virt_reads.push(VirtRes::Mirror);
                a.virt_writes.push(VirtRes::Mirror);
            }
            TaskKind::Drain => {} // barrier — handled by `derived`
        }
        a
    }

    /// The dense slot of a canonical tile in the `3·nt²` table the edge
    /// derivation and `hchol-analyze`'s plan index share:
    /// `mat(bi, bj)` is slot `bi·nt + bj`, and the `nt` checksum buffers
    /// and the `nt` deposit buffers behind them (tile row 0 each) are rows
    /// `nt..3nt` of the same table, so `chk(bi, bj)` is `nt² + bi·nt + bj`
    /// and `dpt(bi, bj)` is `2nt² + bi·nt + bj`. Every declared tile must
    /// be one of those three canonical forms.
    #[inline]
    pub fn tile_slot(&self, t: &TileRef) -> usize {
        let (nt, buf, bi, bj) = (self.nt, t.buf.0, t.bi, t.bj);
        debug_assert!(
            bj < nt
                && if buf == 0 {
                    bi < nt
                } else {
                    bi == 0 && buf <= 2 * nt
                },
            "{t} is not a canonical mat/chk/dpt tile of an nt = {nt} plan"
        );
        if buf == 0 {
            bi * nt + bj
        } else {
            (nt + buf - 1) * nt + bj
        }
    }

    /// Derive the dependency edges now, not on their first read (the
    /// benchmark's `core.plan.derive_deps_s` stage times this).
    // lint:allow(dead-pub) named only by benchmark/src/layers.rs, which times it
    pub fn derive_deps(&mut self) {
        self.deps = OnceLock::from(self.derived());
    }

    /// The dependency edges from the declared accesses along the authored
    /// order: RAW (read after the last writer), WAR (write after readers
    /// since that writer), WAW (write after the last writer).
    /// [`TaskKind::Drain`] is a barrier depending on every prior node.
    ///
    /// Resources are indexed densely: a tile by [`Self::tile_slot`], a
    /// [`VirtRes`] by the next free slot behind the tiles on first sight.
    fn derived(&self) -> Vec<Vec<NodeId>> {
        probe(Probe::Derives, 1);
        let nt = self.nt;
        let tiles = 3 * nt * nt;
        let mut virt_slots: HashMap<VirtRes, usize> = HashMap::new();
        let mut last_writer: Vec<Option<NodeId>> = vec![None; tiles];
        let mut readers: Vec<Vec<NodeId>> = vec![Vec::new(); tiles];
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        let mut found: Vec<NodeId> = Vec::new();
        let mut deps = vec![Vec::new(); self.nodes.len()];
        let order = &self.order;
        for (pos, &id) in order.iter().enumerate() {
            if matches!(self.nodes[id.0].kind, TaskKind::Drain) {
                deps[id.0] = order[..pos].to_vec();
                continue;
            }
            let acc = self.node_access(id);
            reads.clear();
            writes.clear();
            reads.extend(acc.tiles.reads.iter().map(|t| self.tile_slot(t)));
            writes.extend(acc.tiles.writes.iter().map(|t| self.tile_slot(t)));
            for (virt, slots) in [
                (&acc.virt_reads, &mut reads),
                (&acc.virt_writes, &mut writes),
            ] {
                for v in virt {
                    let next = tiles + virt_slots.len();
                    slots.push(*virt_slots.entry(*v).or_insert(next));
                }
            }
            last_writer.resize(tiles + virt_slots.len(), None);
            readers.resize_with(tiles + virt_slots.len(), Vec::new);

            found.clear();
            found.extend(reads.iter().filter_map(|&k| last_writer[k]));
            for &k in &writes {
                found.extend(last_writer[k]);
                found.extend_from_slice(&readers[k]);
            }
            found.sort_unstable();
            found.dedup();
            found.retain(|&d| d != id);
            deps[id.0] = found.clone();
            for &k in &reads {
                readers[k].push(id);
            }
            for &k in &writes {
                last_writer[k] = Some(id);
                readers[k].clear();
            }
        }
        deps
    }

    /// Every fault-poll node in issue order, with its authored-order
    /// position: the control-flow points at which the injector can strike,
    /// and therefore the rows of the static coverage checker's site
    /// enumeration (site = point × target tile × fault species).
    pub fn fault_points(&self) -> Vec<(usize, InjectionPoint)> {
        self.order
            .iter()
            .enumerate()
            .filter_map(|(p, &id)| match self.nodes[id.0].kind {
                TaskKind::FaultPoint(pt) => Some((p, pt)),
                _ => None,
            })
            .collect()
    }

    /// Compile to the simulator's [`DagSchedule`] (compact indices are
    /// positions in the authored order).
    pub fn to_schedule(&self) -> DagSchedule {
        let order = &self.order;
        let mut compact = vec![usize::MAX; self.nodes.len()];
        for (pos, &id) in order.iter().enumerate() {
            compact[id.0] = pos;
        }
        let edges = self.edges();
        let deps = order
            .iter()
            .map(|&id| edges[id.0].iter().map(|d| compact[d.0]).collect())
            .collect();
        let meta = order
            .iter()
            .map(|&id| {
                let node = &self.nodes[id.0];
                NodeMeta {
                    iter: node.iter,
                    host_blocking: self.host_blocking(&node.kind),
                }
            })
            .collect();
        DagSchedule::new(deps, meta, (0..order.len()).collect())
    }

    /// Whether a node of `kind` blocks the host: the schedule's issue model
    /// reads it, and the executor drains the device behind every such node
    /// of a [`DriveStyle::Synchronous`] plan.
    fn host_blocking(&self, kind: &TaskKind) -> bool {
        let sync_style = self.style == DriveStyle::Synchronous;
        match kind {
            TaskKind::Encode
            | TaskKind::Potf2 { .. }
            | TaskKind::VerifyBatch { .. }
            | TaskKind::Drain => true,
            TaskKind::Syrk { .. }
            | TaskKind::GemmPanel { .. }
            | TaskKind::TrsmPanel { .. }
            | TaskKind::DiagToHost { .. }
            | TaskKind::DiagToDevice { .. } => sync_style,
            _ => false,
        }
    }
}

/// Build the fully policied plan for one ABFT scheme, by the passes that
/// shape it, in order: Algorithm-1 skeleton → scheme policy → fused
/// epilogues → placement → sharding. Its edges are derived on first read.
/// `opts` must carry a *resolved* placement (no `Auto`).
pub fn for_scheme(kind: SchemeKind, nt: usize, opts: &AbftOptions, faulty: bool) -> FactorPlan {
    use policy::PolicyPass;
    let mut plan = skeleton::algorithm1(nt, DriveStyle::Overlapped, false, faulty);
    match kind {
        SchemeKind::Enhanced => policy::EnhancedPolicy.apply(&mut plan, opts),
        SchemeKind::Online => policy::OnlinePolicy.apply(&mut plan, opts),
        SchemeKind::Offline => policy::OfflinePolicy.apply(&mut plan, opts),
    }
    if opts.chk_fused && kind == SchemeKind::Enhanced {
        policy::apply_chk_fused(&mut plan);
    }
    policy::apply_placement(&mut plan, opts.placement);
    if opts.shard_devices() > 1 {
        shard::apply_shard(&mut plan, opts.shard_devices());
    }
    plan
}

/// The bare MAGMA hybrid baseline as a plan (no fault tolerance).
pub fn for_magma(nt: usize) -> FactorPlan {
    skeleton::algorithm1(nt, DriveStyle::Overlapped, true, false)
}

/// The synchronous CULA-style baseline as a plan (no fault tolerance).
pub fn for_cula(nt: usize) -> FactorPlan {
    skeleton::algorithm1(nt, DriveStyle::Synchronous, true, false)
}

/// The right-looking (outer-product) form as a plan (no fault tolerance):
/// PAPER.md §II-A's alternative to Algorithm 1.
pub fn for_outer(nt: usize) -> FactorPlan {
    skeleton::right_looking(nt)
}

/// What the test build's scaling-guard probe counts, per thread: the
/// nodes rewrites and reads of the order visit, and the edge derivations.
/// Everywhere else the probe is nothing.
#[derive(Clone, Copy)]
enum Probe {
    Visits,
    Derives,
}

#[cfg(not(test))]
#[inline(always)]
fn probe(_what: Probe, _n: usize) {}

#[cfg(test)]
fn probe(what: Probe, n: usize) {
    let counter = match what {
        Probe::Visits => &tests::VISITS,
        Probe::Derives => &tests::DERIVES,
    };
    counter.with(|c| c.set(c.get() + n));
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{ChecksumPlacement, ShardOptions};
    use std::cell::Cell;

    thread_local! {
        /// Nodes this thread's rewrites and order reads have visited.
        pub(super) static VISITS: Cell<usize> = const { Cell::new(0) };
        /// Edge derivations this thread has run.
        pub(super) static DERIVES: Cell<usize> = const { Cell::new(0) };
    }

    /// A run derives edges only where it reads them: never in authored
    /// order, once for a lookahead order, and once per batch member (its
    /// `plan.edges` count).
    #[test]
    fn a_run_derives_edges_only_where_it_reads_them() {
        let p = hchol_gpusim::profile::SystemProfile::test_profile();
        let opts = AbftOptions::default();
        let req = |lookahead| exec::BatchRequest {
            kind: SchemeKind::Enhanced,
            n: 96,
            b: 16,
            opts: opts.clone().with_lookahead(lookahead),
        };
        for (reqs, want) in [
            (vec![req(0)], 0),
            (vec![req(2)], 1),
            (vec![req(0), req(0)], 2),
        ] {
            DERIVES.with(|v| v.set(0));
            if let [r] = &reqs[..] {
                let mode = hchol_gpusim::ExecMode::TimingOnly;
                crate::schemes::run_clean(r.kind, &p, mode, r.n, r.b, &r.opts, None).unwrap();
            } else {
                exec::run_batch(&p, &reqs).unwrap();
            }
            assert_eq!(DERIVES.with(Cell::get), want, "{want}");
        }
    }

    /// The scaling guard: every pass is a constant number of walks over
    /// the order, so building a plan visits a bounded number of nodes per
    /// node it ends with, whatever the grid: 5.3 at worst, bounded here at
    /// 6. A pass that rescans the order from its head per iteration grows
    /// with `nt` instead.
    #[test]
    fn passes_visit_a_bounded_number_of_nodes_per_plan_node() {
        const PER_NODE_BOUND: usize = 6;
        let gpu = AbftOptions::default().with_placement(ChecksumPlacement::Gpu);
        let configs = [
            gpu.clone(),
            gpu.clone().with_chk_fused(true),
            gpu.clone().with_placement(ChecksumPlacement::Cpu),
            gpu.with_shard(ShardOptions::new(4)),
        ];
        for nt in [10, 20, 40] {
            for opts in &configs {
                for kind in SchemeKind::all() {
                    VISITS.with(|v| v.set(0));
                    let plan = for_scheme(kind, nt, opts, false);
                    let visits = VISITS.with(Cell::get);
                    assert!(
                        visits <= PER_NODE_BOUND * plan.len(),
                        "{kind:?} nt={nt}: {visits} nodes visited for {} nodes",
                        plan.len()
                    );
                }
            }
        }
    }
}
