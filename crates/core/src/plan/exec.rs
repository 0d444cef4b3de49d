//! The plan interpreter: drives [`FactorPlan`]s against a live
//! `SimContext`.
//!
//! One loop (`drive`) steps one or more `Lane`s — a plan plus what it acts
//! on and has accumulated — in turn. A factorization attempt
//! (`run_attempt`) is the one-lane call; a batched run ([`run_batch`]) is
//! the N-lane call: several plans interleave node by node through one
//! context, each with its own streams, so one plan's host-blocking
//! POTF2/verify stalls are reclaimed by the other plans' enqueued device
//! work.
//!
//! A lone lane replaying the authored node order reproduces the legacy
//! imperative drivers byte-for-byte — identical factor bits, identical
//! serialized `RunReport` (the golden-equivalence suite pins this). Scope
//! and iteration spans are *derived* from node annotations: a span opens
//! when the first node referencing it executes and closes when the next
//! node belongs elsewhere, which matches the back-to-back open/close
//! discipline of the old drivers because none of the boundary bookkeeping
//! advances the virtual clock.
//!
//! Nothing about the loop is configured; it observes what it drives. A
//! lane with `opts.lookahead > 0` issues in [`IssuePolicy::Lookahead`]
//! order (any dependency-satisfied node within a bounded iteration window,
//! asynchronous work first) instead of the authored one. Scope spans are
//! recorded iff one lane runs in authored order — the only execution the
//! authored scope nesting describes. A lone lane's `Drain` node syncs;
//! interleaved lanes skip theirs and the batch syncs once at the end, so
//! plans keep overlapping through each other's tails.

use super::balance::BalanceController;
use super::shard_rt::ShardRuntime;
use super::{DriveStyle, FactorPlan, NodeId, ScopeId, SweepKind, TaskKind};
use crate::ops::{self, CholLayout};
use crate::options::AbftOptions;
use crate::schemes::{provisioned_context, validate_options, AttemptEnd, SchemeKind};
use crate::verify::VerifyOutcome;
use hchol_faults::{InjectionPoint, Injector};
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::{ExecMode, IssuePolicy, SimContext, SimTime};
use hchol_matrix::{MatrixError, Scalar};
use hchol_obs::{Phase, SpanId};

/// Per-attempt interpreter state.
#[derive(Default)]
struct ExecState {
    vo: VerifyOutcome,
    vo_final: VerifyOutcome,
    /// Uncorrectable corruption: the attempt must be redone. An inline
    /// check that sets this stops the lane at once; the final sweep's
    /// verdict lands with the `Drain`, the plan's last node.
    restart: bool,
    pending_err: Option<MatrixError>,
    cur_iter: Option<usize>,
    cur_scope: Option<ScopeId>,
    iter_span: Option<SpanId>,
    scope_span: Option<SpanId>,
}

/// One plan being driven through a context: what it acts on, what it has
/// accumulated so far, and where it stands in its issue order.
struct Lane<'a> {
    plan: &'a mut FactorPlan,
    lay: &'a mut CholLayout,
    inj: &'a mut Injector,
    opts: &'a AbftOptions,
    st: ExecState,
    rt: Option<ShardRuntime>,
    /// The lookahead reordering of the authored order, as positions in it.
    /// `None` = the authored order itself, re-read every step so a
    /// balancer rewrite of the tail is picked up.
    order: Option<Vec<usize>>,
    cursor: usize,
    /// The largest iteration among the nodes the lane issued.
    max_iter: Option<usize>,
    /// The lane's last node was a check: it sits out its next turn (see
    /// [`drive`]).
    correcting: bool,
}

impl<'a> Lane<'a> {
    fn new<S: Scalar>(
        ctx: &mut SimContext<S>,
        plan: &'a mut FactorPlan,
        lay: &'a mut CholLayout,
        inj: &'a mut Injector,
        opts: &'a AbftOptions,
    ) -> Self {
        let rt = plan.shard.map(|spec| ShardRuntime::new(ctx, lay, spec));
        let mut lane = Lane {
            plan,
            lay,
            inj,
            opts,
            st: ExecState::default(),
            rt,
            order: (opts.lookahead > 0).then(Vec::new),
            cursor: 0,
            max_iter: None,
            correcting: false,
        };
        lane.reorder(0);
        if let Some(order) = &lane.order {
            let moved = order.iter().enumerate().filter(|&(i, &p)| i != p).count();
            ctx.obs.metrics.add_count("plan.reordered", moved as u64);
        }
        lane
    }

    /// The position of the `c`-th node the lane issues.
    fn pos(&self, c: usize) -> usize {
        self.order.as_ref().map_or(c, |o| o[c])
    }

    /// The cut rule (DESIGN.md §11.5): a rewrite woken at iteration `j`
    /// starts at the first iteration none of whose nodes has issued, and
    /// never before `j`. In authored order that is `j`.
    fn cut(&self, j: usize) -> usize {
        self.max_iter.map_or(j, |i| j.max(i + 1))
    }

    /// Order a lookahead lane: keep what it issued before position `at`
    /// (where a rewrite's tail starts) and continue in the plan's lookahead
    /// order, minus that (DESIGN.md §11.5).
    fn reorder(&mut self, at: usize) {
        let Some(order) = self.order.as_mut() else {
            return;
        };
        order.truncate(self.cursor);
        order.retain(|&p| p < at);
        self.cursor = order.len();
        let mut issued = vec![false; self.plan.len()];
        order.iter().for_each(|&p| issued[p] = true);
        let policy = IssuePolicy::Lookahead(self.opts.lookahead);
        let fresh = self.plan.to_schedule().issue_order(policy);
        order.extend(fresh.into_iter().filter(|&p| !issued[p]));
    }
}

/// Count `plan`'s size into the `plan.nodes` and `plan.edges` metrics: once
/// per batch member, and for a lone lane only when it is reordered.
fn count_plan<S: Scalar>(ctx: &mut SimContext<S>, plan: &FactorPlan) {
    let m = &mut ctx.obs.metrics;
    m.add_count("plan.nodes", plan.len() as u64);
    m.add_count("plan.edges", plan.edge_count() as u64);
}

/// Close `span` if one is open (none ever is when scopes go unrecorded).
fn close_span<S: Scalar>(ctx: &mut SimContext<S>, span: &mut Option<SpanId>) {
    if let Some(sp) = span.take() {
        let t = ctx.now().as_secs();
        ctx.obs.spans.close(sp, t);
    }
}

/// Span/iteration boundary bookkeeping before executing `id`. A deferred
/// POTF2 error (baselines) surfaces here, once its iteration's span has
/// closed — exactly where the legacy loop checked the iteration result.
fn transition<S: Scalar>(
    ctx: &mut SimContext<S>,
    plan: &FactorPlan,
    scopes: bool,
    st: &mut ExecState,
    id: NodeId,
) -> Result<(), MatrixError> {
    let node = plan.node(id);
    if node.iter != st.cur_iter {
        close_span(ctx, &mut st.scope_span);
        close_span(ctx, &mut st.iter_span);
        st.cur_scope = None;
        if let Some(e) = st.pending_err.take() {
            return Err(e);
        }
        st.cur_iter = node.iter;
        if scopes {
            if let Some(j) = node.iter {
                let t = ctx.now().as_secs();
                st.iter_span = Some(ctx.obs.spans.open(format!("iter {j}"), Phase::Iteration, t));
            }
        }
    }
    if node.scope != st.cur_scope {
        close_span(ctx, &mut st.scope_span);
        if scopes {
            if let Some(sid) = node.scope {
                let spec = &plan.scopes()[sid.0];
                let t = ctx.now().as_secs();
                st.scope_span = Some(ctx.obs.spans.open(spec.label.clone(), spec.phase, t));
            }
        }
        st.cur_scope = node.scope;
    }
    Ok(())
}

/// Execute `lane`'s node `id`. `solo`: no other lane shares the context.
///
/// A node whose op launches its whole footprint hands the op the tiles the
/// plan declares for it ([`FactorPlan::node_access`]), after the fault
/// ledger has read them ([`ops::propagate`]). A synchronous (CULA-style)
/// plan drains the device behind every node its schedule marks
/// host-blocking; every other step is the same for both drive styles.
fn step<S: Scalar>(
    ctx: &mut SimContext<S>,
    lane: &mut Lane<'_>,
    solo: bool,
    id: NodeId,
) -> Result<(), MatrixError> {
    let Lane {
        plan,
        lay,
        inj,
        opts,
        st,
        rt,
        order,
        ..
    } = lane;
    // Authored scope nesting describes execution order only for a lone
    // lane replaying the authored order.
    let scopes = solo && order.is_none();
    transition(ctx, plan, scopes, st, id)?;
    // Sharded plans: point the layout at the acting shard's stream set
    // before the node runs.
    if let Some(r) = rt.as_mut() {
        let tgt = r.target_shard(plan, id);
        r.steer(lay, tgt);
    }
    let footprint = || plan.node_access(id).tiles;
    let kind = &plan.node(id).kind;
    match kind {
        TaskKind::Encode => {
            ops::encode_all(ctx, lay, opts);
            if let Some(r) = rt.as_mut() {
                r.init_parity(ctx, lay);
            }
        }
        TaskKind::FaultPoint(p) => {
            if let (Some(r), InjectionPoint::IterStart { iter }) = (rt.as_mut(), p) {
                if let Some(loss) = inj.take_device_loss(*iter) {
                    r.recover_device_loss(ctx, lay, inj, opts, loss);
                }
            }
            ops::poll_faults(ctx, lay, inj, *p)
        }
        TaskKind::Syrk { j, cols, fused } => {
            let tiles = footprint();
            ops::propagate(inj, &tiles);
            ops::syrk_diag(ctx, lay, *j, cols.clone(), *fused, tiles);
        }
        TaskKind::DiagToHost { j } => {
            let syrk_done = ctx.record_event(lay.streams.comp);
            ctx.stream_wait_event(lay.streams.tran, syrk_done);
            ops::diag_to_host(ctx, lay, *j);
        }
        TaskKind::GemmPanel {
            j,
            cols,
            dev,
            fused,
        } => {
            let tiles = footprint();
            ops::propagate(inj, &tiles);
            let rows = plan.panel_rows(*j, *dev);
            ops::gemm_panel(ctx, lay, *j, cols.clone(), &rows, *dev, *fused, tiles);
        }
        TaskKind::Potf2 { j, propagate } => {
            ctx.sync_stream(lay.streams.tran);
            match ops::host_potf2(ctx, lay, *j) {
                Ok(()) => {
                    if *propagate {
                        ops::propagate_potf2(inj, *j);
                    }
                }
                Err(e) if plan.defer_potf2_error => st.pending_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        TaskKind::DiagToDevice { j } => ops::diag_to_device(ctx, lay, *j, footprint()),
        TaskKind::TrsmPanel { j, dev } => {
            // The compute stream must wait for the diagonal's return on its
            // own device's transfer stream; a remote slice of a sharded
            // panel was already ordered by its DeviceRecv.
            if plan.shard.zip(*dev).is_none_or(|(s, d)| d == s.owner(*j)) {
                let diag_back = ctx.record_event(lay.streams.tran);
                ctx.stream_wait_event(lay.streams.comp, diag_back);
            }
            let tiles = footprint();
            ops::propagate(inj, &tiles);
            ops::trsm_panel(ctx, lay, *j, &plan.panel_rows(*j, *dev), *dev, tiles);
        }
        TaskKind::ChkUpdate { op, j, i } => ops::update_chk(ctx, lay, *op, *j, *i, footprint()),
        TaskKind::VerifyBatch {
            tiles,
            sweep,
            fused,
            depth,
        } => {
            let o = ops::verify_batch(ctx, lay, inj, tiles, *fused, *depth, opts);
            match sweep {
                SweepKind::Inline => {
                    let ok = o.fully_recovered();
                    st.vo.merge(o);
                    if !ok {
                        if scopes {
                            close_span(ctx, &mut st.scope_span);
                            st.cur_scope = None;
                        }
                        let t = ctx.now().as_secs();
                        let mut sp =
                            scopes.then(|| ctx.obs.spans.open("restart drain", Phase::Drain, t));
                        ctx.sync_all();
                        close_span(ctx, &mut sp);
                        st.restart = true;
                    }
                }
                SweepKind::Final => st.vo_final.merge(o),
            }
        }
        TaskKind::DeviceSend { j, what, from } => {
            let r = rt.as_mut().expect("DeviceSend in an unsharded run");
            r.broadcast(ctx, lay, *j, *what, *from, footprint());
        }
        TaskKind::DeviceRecv { j, what, to } => {
            let r = rt.as_mut().expect("DeviceRecv in an unsharded run");
            r.recv(ctx, *j, *what, *to);
        }
        TaskKind::ShardParity { j } => {
            let r = rt.as_mut().expect("ShardParity in an unsharded run");
            r.refresh_column_parity(ctx, lay, *j);
        }
        TaskKind::MarkPanelReady => {
            if let Some(r) = rt.as_mut() {
                r.mark_panels_ready(ctx, lay);
            } else {
                ops::mark_panel_ready(ctx, lay);
            }
        }
        TaskKind::MirrorPanel { j } => ops::cpu_mirror_panel(lay, *j),
        TaskKind::FlushMirror => ops::flush_mirror(ctx, lay),
        TaskKind::Drain => {
            // The final sweep is judged as a whole (a plan without one
            // accumulated nothing, which accepts).
            st.restart = !st.vo_final.final_sweep_accepts();
            st.vo.merge(st.vo_final);
            // Interleaved lanes defer this barrier to the one sync their
            // batch ends on.
            if solo {
                ctx.sync_all();
            }
        }
    }
    if plan.style == DriveStyle::Synchronous && plan.host_blocking(kind) {
        ctx.sync_device();
    }
    Ok(())
}

/// Wake the feedback controller at iteration boundary `j`: difference the
/// engine counters, run the feedback law, publish the `balance.*` metrics,
/// and — when the decision changed the split — migrate the checksum state
/// and rewrite the not-yet-issued tail of the plan from the lane's cut.
fn rebalance<S: Scalar>(
    ctx: &mut SimContext<S>,
    lane: &mut Lane<'_>,
    ctrl: &mut BalanceController,
    j: usize,
) {
    let util = ctx.engine_utilization();
    let faults = lane.inj.applied().len();
    let k_before = ctrl.k();
    let d = ctrl.observe(j, &util, faults);
    let m = &mut ctx.obs.metrics;
    m.inc("balance.updates");
    m.set_gauge("balance.k", d.k as f64);
    m.set_gauge("balance.gpu_util", d.gpu_util);
    m.set_gauge("balance.cpu_util", d.cpu_util);
    m.set_gauge("balance.dma_util", d.dma_util);
    m.set_gauge("balance.queue_frac", d.queue_frac);
    let cut = lane.cut(j);
    if d.switched {
        m.inc("balance.switches");
        // Rebalance barrier: order the migration behind everything in
        // flight before flipping the runtime routing.
        ctx.sync_all();
        ops::migrate_checksums(ctx, lane.lay, d.placement, cut);
    }
    if d.switched || d.k != k_before {
        let t = ctx.now().as_secs();
        ctx.obs.event(
            t,
            "balance.rebalance",
            format!("iter {j}: placement {:?}, K {}", d.placement, d.k),
        );
        // Past a lookahead cut only Offline/Online's mirror flush can have
        // issued (DESIGN.md §11.5); the new tail replaces it.
        let old = lane.plan.order().to_vec();
        let at = ctrl.rewrite(lane.plan, cut);
        let mut replaced = (0..lane.cursor).map(|c| lane.pos(c)).filter(|&p| p >= at);
        debug_assert!(replaced.all(|p| lane.plan.node(old[p]).kind == TaskKind::FlushMirror));
        lane.reorder(at);
    }
}

/// The one drive loop: step `lanes` in turn — lane 0's next node, lane 1's
/// next node, … — each in its issue order, until every lane has run out of
/// plan or stopped on a restart. An error stops the whole drive. The
/// context's log marks each step with its `(lane, node)`; what the loop
/// issues between steps (a rebalance) is under no node.
///
/// A turn is one step of the algorithm, and a check (`VerifyBatch`) is two:
/// it detects, then locates and corrects on the host. The node runs both
/// at once, and its lane sits out the turn after it, so the other lanes
/// issue while that lane's host corrects. The interleaving of a batched run
/// thus follows the algorithm's steps, not how a check is cut into nodes.
///
/// With a feedback controller (`balance`; a lone lane only — [`run_batch`]
/// refuses the rest) the loop wakes it when a node of a due iteration is
/// next, once per due iteration and in increasing order (under lookahead,
/// nodes of an earlier iteration still issue after a later one's first),
/// and it may re-plan the not-yet-issued tail from the lane's cut
/// ([`Lane::cut`]). The cursor walks the issue order by position; a rewrite
/// replaces the plan from the cut on, so issued positions never shift.
fn drive<S: Scalar>(
    ctx: &mut SimContext<S>,
    lanes: &mut [Lane<'_>],
    mut balance: Option<&mut BalanceController>,
) -> Result<(), MatrixError> {
    let solo = lanes.len() == 1;
    let mut woken: Option<usize> = None;
    loop {
        let mut idle = true;
        for (l, lane) in lanes.iter_mut().enumerate() {
            if lane.st.restart || lane.cursor >= lane.plan.len() {
                continue;
            }
            idle = false;
            if std::mem::take(&mut lane.correcting) {
                continue;
            }
            if let Some(ctrl) = balance.as_deref_mut() {
                if let Some(j) = lane
                    .plan
                    .node(lane.plan.order()[lane.pos(lane.cursor)])
                    .iter
                {
                    if ctrl.due(j) && woken.is_none_or(|w| j > w) {
                        woken = Some(j);
                        rebalance(ctx, lane, ctrl, j);
                    }
                }
            }
            // Read the position after the hook: a rewrite may have put the
            // new tail's first node here, or reordered a lookahead lane.
            let id = lane.plan.order()[lane.pos(lane.cursor)];
            ctx.log.mark(Some((l, id.0)));
            let stepped = step(ctx, lane, solo, id);
            ctx.log.mark(None);
            stepped?;
            let node = lane.plan.node(id);
            lane.correcting = matches!(node.kind, TaskKind::VerifyBatch { .. });
            lane.max_iter = lane.max_iter.max(node.iter);
            lane.cursor += 1;
        }
        if idle {
            return Ok(());
        }
    }
}

/// Run one attempt of `plan` to completion (or restart / error), exactly
/// as the legacy per-scheme attempt functions did: one lane through
/// `drive`, the feedback controller `balance` (if any) hooked in between
/// iterations.
pub(crate) fn run_attempt<S: Scalar>(
    ctx: &mut SimContext<S>,
    plan: &mut FactorPlan,
    lay: &mut CholLayout,
    inj: &mut Injector,
    opts: &AbftOptions,
    mut balance: Option<&mut BalanceController>,
) -> Result<(AttemptEnd, VerifyOutcome), MatrixError> {
    if opts.lookahead > 0 {
        count_plan(ctx, plan);
    }
    let mut lane = Lane::new(ctx, plan, lay, inj, opts);
    if let Some(ctrl) = balance.as_deref_mut() {
        let util = ctx.engine_utilization();
        ctrl.prime(&util, lane.inj.applied().len());
    }
    let driven = drive(ctx, std::slice::from_mut(&mut lane), balance);
    // Leave the layout pointing at shard 0's streams (the originals), so
    // post-attempt work — extraction, restart reload — stays well-formed.
    if let Some(r) = lane.rt.as_mut() {
        r.steer(lane.lay, 0);
    }
    driven?;
    let mut st = lane.st;
    close_span(ctx, &mut st.scope_span);
    close_span(ctx, &mut st.iter_span);
    if let Some(e) = st.pending_err.take() {
        return Err(e);
    }
    let end = if st.restart {
        AttemptEnd::Restart
    } else {
        AttemptEnd::Completed
    };
    Ok((end, st.vo))
}

/// One matrix in a batched run.
pub struct BatchRequest {
    /// Scheme to run.
    pub kind: SchemeKind,
    /// Matrix size.
    pub n: usize,
    /// Block size.
    pub b: usize,
    /// Scheme options (placement may be `Auto`; resolved per request).
    pub opts: AbftOptions,
}

/// Result of [`run_batch`].
pub struct BatchOutcome {
    /// Virtual makespan of the whole batch.
    pub time: SimTime,
    /// Per-request accumulated verification statistics.
    pub runs: Vec<VerifyOutcome>,
    /// The shared simulation context for inspection.
    pub ctx: SimContext,
}

/// Execute several factorization plans concurrently in **one** simulator
/// context ([`ExecMode::TimingOnly`]), each with its own streams and a
/// dedicated compute stream ([`ops::setup_batch`]), interleaving nodes
/// round-robin (one `drive` over one lane per request). Host-blocking
/// stalls of one plan (POTF2, verification) overlap the other plans'
/// enqueued device work, so the batch makespan beats running the same
/// plans back to back.
///
/// Each lane issues in its own order (a request with `lookahead > 0` in
/// its lookahead order) and, when sharded, drives its own shard runtime;
/// the context provisions the most devices any request spans.
///
/// Refused with a typed [`MatrixError::UnsupportedConfig`] before anything
/// is built: an empty batch, which has nothing to run; any request
/// [`validate_options`] refuses; and the balance controller, whose feedback
/// law reads whole-context engine counters, which interleaved lanes mix.
pub fn run_batch(
    profile: &SystemProfile,
    reqs: &[BatchRequest],
) -> Result<BatchOutcome, MatrixError> {
    let refuse = |why| Err(MatrixError::UnsupportedConfig(why));
    let Some(first) = reqs.first() else {
        return refuse("an empty batch has nothing to run");
    };
    for r in reqs {
        validate_options(&r.opts)?;
        if r.opts.balance.is_some() {
            return refuse("batched runs do not compose with the runtime balance controller");
        }
    }
    let devices = reqs.iter().map(|r| r.opts.shard_devices()).max();
    let mut ctx = provisioned_context(profile, devices.unwrap_or(1), ExecMode::TimingOnly);
    ctx.disable_timeline();
    if reqs.iter().any(|r| !r.opts.trace_schedule) {
        ctx.disable_trace();
    }
    let root = ctx.obs.spans.open(
        format!("batch x{} n={} b={}", reqs.len(), first.n, first.b),
        Phase::Run,
        0.0,
    );
    ctx.obs
        .metrics
        .add_count("plan.batch.plans", reqs.len() as u64);

    let mut members = Vec::with_capacity(reqs.len());
    for r in reqs {
        let resolved = r.opts.resolved_for(ctx.profile(), r.n, r.b);
        let lay = ops::setup_batch(&mut ctx, r.n, r.b, true, resolved.placement, None)?;
        let plan = super::for_scheme(r.kind, lay.nt, &resolved, false);
        count_plan(&mut ctx, &plan);
        members.push((plan, lay, Injector::inert(), resolved));
    }
    let mut lanes: Vec<Lane<'_>> = members
        .iter_mut()
        .map(|(plan, lay, inj, opts)| Lane::new(&mut ctx, plan, lay, inj, opts))
        .collect();
    // Clean batched runs don't restart; an uncorrectable outcome (only
    // possible with real corruption) just stops that lane.
    drive(&mut ctx, &mut lanes, None)?;
    // The barrier the lanes' `Drain` nodes deferred.
    ctx.sync_all();
    let runs = lanes.into_iter().map(|lane| lane.st.vo).collect();
    let time = ctx.now();
    ctx.obs.spans.close(root, time.as_secs());
    Ok(BatchOutcome { time, runs, ctx })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{ChecksumPlacement, ShardOptions};
    use hchol_gpusim::{BufferId, ExecSite, TileRef, TraceAction};
    use std::collections::HashMap;

    /// Plan ↔ runtime agreement, read off the log's node marks: every op
    /// under a node's mark, mapped back through its lane's layout binding,
    /// reads only tiles the node declares (reads or writes) and writes only
    /// tiles it declares as writes — every node kind, in the default,
    /// fused, sharded, lookahead, batched, CPU-placed and inline-placed
    /// configurations of all three schemes. Buffers the plan does not name
    /// (recalculation scratch, shard parity) are skipped. Every node runs
    /// under exactly one mark; what setup issued is under none.
    #[test]
    fn every_op_touches_only_its_nodes_declared_tiles() {
        use ChecksumPlacement::{Cpu, Gpu, Inline};
        let (nt, b) = (6usize, 4usize);
        let base = AbftOptions::default().with_placement(Gpu);
        let configs = [
            ("default", base.clone(), 1),
            ("chk_fused", base.clone().with_chk_fused(true), 1),
            (
                "shard D=2",
                base.clone().with_shard(ShardOptions::new(2)),
                1,
            ),
            (
                "shard D=3",
                base.clone().with_shard(ShardOptions::new(3)),
                1,
            ),
            ("lookahead 2", base.clone().with_lookahead(2), 1),
            ("batch x2", base.clone(), 2),
            ("batch x2 lookahead 2", base.clone().with_lookahead(2), 2),
            ("cpu", base.clone().with_placement(Cpu), 1),
            ("inline", base.clone().with_placement(Inline), 1),
        ];
        for (name, opts, lanes) in &configs {
            for kind in SchemeKind::all() {
                let tag = format!("{name} {kind:?}");
                let profile = SystemProfile::test_profile().with_devices(opts.shard_devices());
                let mut ctx = SimContext::new(profile, ExecMode::TimingOnly);
                let setup = if *lanes > 1 {
                    ops::setup_batch
                } else {
                    ops::setup
                };
                let mut members: Vec<_> = (0..*lanes)
                    .map(|_| {
                        let lay = setup(&mut ctx, nt * b, b, true, opts.placement, None).unwrap();
                        (
                            crate::plan::for_scheme(kind, nt, opts, false),
                            lay,
                            Injector::inert(),
                        )
                    })
                    .collect();
                let before = ctx.log.len();
                let mut driven: Vec<_> = members
                    .iter_mut()
                    .map(|(plan, lay, inj)| Lane::new(&mut ctx, plan, lay, inj, opts))
                    .collect();
                drive(&mut ctx, &mut driven, None).unwrap();
                drop(driven);
                let log = &ctx.log;
                let first = log.marks().next().map(|(_, span)| span.start);
                assert_eq!(first, Some(before), "{tag}: setup is under no node");
                // Invert `CholLayout::bind` per lane: real buffer → canonical id.
                let canonical: Vec<HashMap<_, _>> = members
                    .iter()
                    .map(|(_, lay, _)| {
                        let cks = lay
                            .cks
                            .iter()
                            .enumerate()
                            .map(|(i, &c)| (c, BufferId(1 + i)));
                        let dpt = lay.dpt.iter().enumerate();
                        let dpt = dpt.map(|(i, &d)| (d, BufferId(1 + nt + i)));
                        cks.chain(dpt).chain([(lay.mat, BufferId(0))]).collect()
                    })
                    .collect();
                let mut stepped = HashMap::new();
                let (mut fused, mut remote, mut reordered) = (false, false, false);
                let (mut on_cpu, mut on_comp) = (false, false);
                for (k, ((lane, node), span)) in log.marks().enumerate() {
                    *stepped.entry((lane, node)).or_insert(0) += 1;
                    let (plan, lay, _) = &members[lane];
                    let id = NodeId(node);
                    reordered |= plan.order().get(k) != Some(&id);
                    let node = &plan.node(id).kind;
                    let last = opts.shard_devices().checked_sub(1);
                    remote |= matches!(node, TaskKind::GemmPanel { dev, .. } if *dev == last);
                    let want = plan.node_access(id).tiles;
                    let named = |t: TileRef| {
                        let buf = canonical[lane].get(&t.buf)?;
                        Some(TileRef::new(*buf, t.bi, t.bj))
                    };
                    for act in log.entries(span) {
                        let TraceAction::Op(op) = act else { continue };
                        fused |= op.fused_verify;
                        if matches!(node, TaskKind::ChkUpdate { .. }) {
                            on_cpu |= matches!(op.site(), ExecSite::CpuWorker(_));
                            on_comp |= op.site() == ExecSite::Stream(lay.streams.comp.0);
                        }
                        let op_tag = || format!("{tag}: {node:?} op {}", log.label(op));
                        for t in log.reads(op).filter_map(named) {
                            let declared = want.reads.contains(&t) || want.writes.contains(&t);
                            assert!(declared, "{} reads undeclared {t}", op_tag());
                        }
                        for t in log.writes(op).filter_map(named) {
                            let declared = want.writes.contains(&t);
                            assert!(declared, "{} writes undeclared {t}", op_tag());
                        }
                    }
                }
                for (lane, (plan, ..)) in members.iter().enumerate() {
                    for &id in plan.order() {
                        let once = stepped.remove(&(lane, id.0));
                        assert_eq!(once, Some(1), "{tag}: {lane} {id:?}");
                    }
                }
                assert!(stepped.is_empty(), "{tag}: one mark per executed node");
                // Each configuration took effect.
                let enhanced = kind == SchemeKind::Enhanced;
                assert_eq!(fused, enhanced && opts.chk_fused, "{tag}: fused epilogues");
                assert_eq!(
                    remote,
                    opts.shard_devices() > 1,
                    "{tag}: last device's slice"
                );
                assert_eq!(reordered, opts.lookahead > 0 || *lanes > 1, "{tag}: order");
                assert_eq!(on_cpu, opts.placement == Cpu, "{tag}: CPU updates");
                assert_eq!(on_comp, opts.placement == Inline, "{tag}: inline updates");
            }
        }
        // A run whose log keeps nothing keeps no marks.
        let quiet = AbftOptions {
            trace_schedule: false,
            ..AbftOptions::default()
        };
        let mode = ExecMode::TimingOnly;
        let p = SystemProfile::test_profile();
        let out = crate::schemes::run_clean(SchemeKind::Enhanced, &p, mode, 64, 16, &quiet, None);
        assert!(out.unwrap().ctx.log.marks().next().is_none());
    }
}
