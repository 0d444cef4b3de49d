//! The plan interpreter: drives a [`FactorPlan`] against a live
//! `SimContext`.
//!
//! Under the default [`IssuePolicy::InOrder`] the interpreter replays the
//! authored node order and reproduces the legacy imperative drivers
//! byte-for-byte — identical factor bits, identical serialized
//! `RunReport` (the golden-equivalence suite pins this). Scope and
//! iteration spans are *derived* from node annotations: a span opens when
//! the first node referencing it executes and closes when the next node
//! belongs elsewhere, which matches the back-to-back open/close discipline
//! of the old drivers because none of the boundary bookkeeping advances
//! the virtual clock.
//!
//! Two execution modes the legacy drivers could not express:
//!
//! * **Lookahead** ([`IssuePolicy::Lookahead`]): issue any
//!   dependency-satisfied node within a bounded iteration window,
//!   preferring asynchronous work — cross-iteration overlap beyond the
//!   one-iteration pipelining hard-coded in Algorithm 1.
//! * **Batched runs** ([`run_batch`]): several factorization plans
//!   round-robin through one context, each with its own streams; one
//!   plan's host-blocking POTF2/verify stalls are reclaimed by the other
//!   plans' enqueued device work.

use super::balance::BalanceController;
use super::shard_rt::ShardRuntime;
use super::{DriveStyle, FactorPlan, NodeId, ScopeId, SweepKind, TaskKind};
use crate::decision;
use crate::ops;
use crate::options::AbftOptions;
use crate::schemes::{AttemptCtx, AttemptEnd, SchemeKind};
use crate::verify::VerifyOutcome;
use hchol_faults::{InjectionPoint, Injector};
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::{ExecMode, IssuePolicy, SimContext, SimTime};
use hchol_matrix::{MatrixError, Scalar};
use hchol_obs::{Phase, SpanId};

/// How the interpreter runs a plan.
pub struct ExecConfig {
    /// Node issue discipline.
    pub policy: IssuePolicy,
    /// Open/close the per-iteration and per-scope spans (disabled under
    /// reordering policies, where authored scope nesting no longer
    /// reflects execution order).
    pub record_scopes: bool,
    /// Execute the drain barrier's `sync_all` (batched runs defer it to
    /// one final sync so plans keep overlapping through each other's
    /// tails).
    pub sync_on_drain: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            policy: IssuePolicy::InOrder,
            record_scopes: true,
            sync_on_drain: true,
        }
    }
}

impl ExecConfig {
    /// The configuration `opts` asks for: in-order with spans by default,
    /// lookahead issue (spans off) when `opts.lookahead > 0`.
    pub fn for_options(opts: &AbftOptions) -> Self {
        if opts.lookahead > 0 {
            ExecConfig {
                policy: IssuePolicy::Lookahead(opts.lookahead),
                record_scopes: false,
                sync_on_drain: true,
            }
        } else {
            ExecConfig::default()
        }
    }
}

/// Per-attempt interpreter state.
#[derive(Default)]
struct ExecState {
    vo: VerifyOutcome,
    vo_final: VerifyOutcome,
    saw_final: bool,
    restart_at_end: bool,
    pending_err: Option<MatrixError>,
    cur_iter: Option<usize>,
    cur_scope: Option<ScopeId>,
    iter_span: Option<SpanId>,
    scope_span: Option<SpanId>,
}

enum StepOut {
    Continue,
    Restart,
}

/// Close `span` if one is open (none ever is with `record_scopes` off).
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
    plan: &FactorPlan,
    a: &mut AttemptCtx<'_, S>,
    cfg: &ExecConfig,
    st: &mut ExecState,
    id: NodeId,
) -> Result<(), MatrixError> {
    let node = plan.node(id);
    if node.iter != st.cur_iter {
        close_span(a.ctx, &mut st.scope_span);
        close_span(a.ctx, &mut st.iter_span);
        st.cur_scope = None;
        if let Some(e) = st.pending_err.take() {
            return Err(e);
        }
        st.cur_iter = node.iter;
        if cfg.record_scopes {
            if let Some(j) = node.iter {
                let t = a.ctx.now().as_secs();
                st.iter_span = Some(
                    a.ctx
                        .obs
                        .spans
                        .open(format!("iter {j}"), Phase::Iteration, t),
                );
            }
        }
    }
    if node.scope != st.cur_scope {
        close_span(a.ctx, &mut st.scope_span);
        if cfg.record_scopes {
            if let Some(sid) = node.scope {
                let spec = &plan.scopes()[sid.0];
                let t = a.ctx.now().as_secs();
                st.scope_span = Some(a.ctx.obs.spans.open(spec.label.clone(), spec.phase, t));
            }
        }
        st.cur_scope = node.scope;
    }
    Ok(())
}

/// Execute one node.
fn step<S: Scalar>(
    plan: &FactorPlan,
    a: &mut AttemptCtx<'_, S>,
    cfg: &ExecConfig,
    st: &mut ExecState,
    rt: &mut Option<ShardRuntime>,
    id: NodeId,
) -> Result<StepOut, MatrixError> {
    transition(plan, a, cfg, st, id)?;
    let sync_style = plan.style == DriveStyle::Synchronous;
    let AttemptCtx {
        ctx,
        lay,
        inj,
        opts,
    } = a;
    // Sharded plans: point the layout's stream fields at the acting
    // shard's stream set before the node runs.
    if let Some(r) = rt.as_mut() {
        let tgt = r.target_shard(plan, id);
        r.steer(lay, tgt);
    }
    match &plan.node(id).kind {
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
        TaskKind::Syrk {
            j,
            propagate,
            fused,
        } => {
            ops::syrk_diag(ctx, lay, *j, *fused);
            if sync_style {
                ctx.sync_device();
            }
            if *propagate {
                ops::propagate_syrk(inj, *j);
            }
        }
        TaskKind::DiagToHost { j } => {
            if sync_style {
                ops::diag_to_host(ctx, lay, *j);
                ctx.sync_stream(lay.s_tran);
            } else {
                let syrk_done = ctx.record_event(lay.s_comp);
                ctx.stream_wait_event(lay.s_tran, syrk_done);
                ops::diag_to_host(ctx, lay, *j);
            }
        }
        TaskKind::GemmPanel {
            j,
            dev,
            propagate,
            fused,
        } => {
            ops::gemm_panel(ctx, lay, *j, &plan.panel_rows(*j, *dev), *dev, *fused);
            if sync_style {
                ctx.sync_device();
            }
            if *propagate {
                ops::propagate_gemm(inj, lay.nt, *j);
            }
        }
        TaskKind::Potf2 { j, propagate } => {
            if !sync_style {
                ctx.sync_stream(lay.s_tran);
            }
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
        TaskKind::DiagToDevice { j } => {
            ops::diag_to_device(ctx, lay, *j);
            if sync_style {
                ctx.sync_stream(lay.s_tran);
            }
        }
        TaskKind::TrsmPanel { j, dev, propagate } => {
            // The compute stream must wait for the diagonal's return on its
            // own device's transfer stream; a remote slice of a sharded
            // panel was already ordered by its DeviceRecv.
            let local = plan.shard.zip(*dev).is_none_or(|(s, d)| d == s.owner(*j));
            if !sync_style && local {
                let diag_back = ctx.record_event(lay.s_tran);
                ctx.stream_wait_event(lay.s_comp, diag_back);
            }
            ops::trsm_panel(ctx, lay, *j, &plan.panel_rows(*j, *dev), *dev);
            if sync_style {
                ctx.sync_device();
            }
            if *propagate {
                ops::propagate_trsm(inj, lay.nt, *j);
            }
        }
        TaskKind::ChkUpdate { op, j, i } => ops::update_chk(ctx, lay, *op, *j, *i),
        TaskKind::VerifyBatch { tiles, fused, .. } => {
            // A fused batch is compare-only: the producing kernel already
            // deposited fresh checksums in its epilogue.
            if !*fused {
                ops::verify_recalc(ctx, lay, tiles, opts);
            }
            ops::verify_compare(ctx, lay, tiles, *fused, opts);
        }
        TaskKind::Correct {
            tiles,
            sweep,
            fused,
            depth,
        } => {
            let o = ops::verify_correct(ctx, lay, inj, tiles, *depth, opts, *fused);
            match sweep {
                SweepKind::Inline => {
                    let ok = o.fully_recovered();
                    st.vo.merge(o);
                    if !ok {
                        if cfg.record_scopes {
                            close_span(ctx, &mut st.scope_span);
                            st.cur_scope = None;
                            let t = ctx.now().as_secs();
                            let mut sp = Some(ctx.obs.spans.open("restart drain", Phase::Drain, t));
                            ctx.sync_all();
                            close_span(ctx, &mut sp);
                        } else {
                            ctx.sync_all();
                        }
                        return Ok(StepOut::Restart);
                    }
                }
                SweepKind::Final => {
                    st.saw_final = true;
                    st.vo_final.merge(o);
                }
            }
        }
        TaskKind::DeviceSend { j, what, from } => {
            let r = rt.as_mut().expect("DeviceSend in an unsharded run");
            r.broadcast(ctx, lay, *j, *what, *from);
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
            if st.saw_final {
                let vf = std::mem::take(&mut st.vo_final);
                let recovered = vf.final_sweep_accepts();
                st.vo.merge(vf);
                if !recovered {
                    st.restart_at_end = true;
                }
            }
            if cfg.sync_on_drain {
                ctx.sync_all();
            }
        }
    }
    Ok(StepOut::Continue)
}

/// Wake the feedback controller at iteration boundary `j`: difference the
/// engine counters, run the feedback law, publish the `balance.*` metrics,
/// and — when the decision changed the split — migrate the checksum state
/// and rewrite the not-yet-executed tail of the plan.
fn rebalance<S: Scalar>(
    plan: &mut FactorPlan,
    a: &mut AttemptCtx<'_, S>,
    ctrl: &mut BalanceController,
    j: usize,
) {
    let util = a.ctx.engine_utilization();
    let faults = a.inj.applied().len();
    let k_before = ctrl.k();
    let d = ctrl.observe(j, &util, faults);
    let m = &mut a.ctx.obs.metrics;
    m.inc("balance.updates");
    m.set_gauge("balance.k", d.k as f64);
    m.set_gauge("balance.gpu_util", d.gpu_util);
    m.set_gauge("balance.cpu_util", d.cpu_util);
    m.set_gauge("balance.dma_util", d.dma_util);
    m.set_gauge("balance.queue_frac", d.queue_frac);
    if d.switched {
        m.inc("balance.switches");
        // Rebalance barrier: order the migration behind everything in
        // flight before flipping the runtime routing.
        a.ctx.sync_all();
        ops::migrate_checksums(a.ctx, a.lay, d.placement, j);
    }
    if d.switched || d.k != k_before {
        let t = a.ctx.now().as_secs();
        a.ctx.obs.event(
            t,
            "balance.rebalance",
            format!("iter {j}: placement {:?}, K {}", d.placement, d.k),
        );
        ctrl.rewrite(plan, j);
    }
}

/// Run one attempt of `plan` to completion (or restart / error), exactly
/// as the legacy per-scheme attempt functions did: step every node in
/// issue order — the authored order, or the policy's reordering of it.
///
/// With a feedback controller (`balance`; in-order, unsharded runs only —
/// `validate_options` refuses the rest) the loop wakes it once per
/// `update_interval`-th iteration boundary, and it may rewrite the
/// not-yet-executed tail of `plan` in place. The cursor walks the issue
/// order by position; rewrites only touch nodes of the current and later
/// iterations, so executed positions never shift.
pub(crate) fn run_attempt<S: Scalar>(
    plan: &mut FactorPlan,
    a: &mut AttemptCtx<'_, S>,
    cfg: &ExecConfig,
    mut balance: Option<&mut BalanceController>,
) -> Result<(AttemptEnd, VerifyOutcome), MatrixError> {
    let mut rt = plan
        .shard
        .map(|spec| ShardRuntime::new(a.ctx, a.lay, spec, a.opts));
    // `None` = the authored order, re-read every step so a balancer
    // rewrite of the tail is picked up.
    let reordered = (cfg.policy != IssuePolicy::InOrder).then(|| {
        let order = plan.to_schedule().issue_order(cfg.policy);
        let moved = order.iter().enumerate().filter(|&(i, &p)| i != p).count();
        let m = &mut a.ctx.obs.metrics;
        m.add_count("plan.nodes", plan.len() as u64);
        m.add_count("plan.edges", plan.edge_count() as u64);
        m.add_count("plan.reordered", moved as u64);
        order
    });
    let mut st = ExecState::default();
    if let Some(ctrl) = balance.as_deref_mut() {
        let util = a.ctx.engine_utilization();
        ctrl.prime(&util, a.inj.applied().len());
    }
    let mut woken: Option<usize> = None;
    let mut stopped = Ok(StepOut::Continue);
    let mut cursor = 0usize;
    while cursor < plan.len() {
        let pos = reordered.as_ref().map_or(cursor, |o| o[cursor]);
        if let Some(ctrl) = balance.as_deref_mut() {
            if let Some(j) = plan.node(plan.order()[pos]).iter {
                if ctrl.due(j) && woken != Some(j) {
                    woken = Some(j);
                    rebalance(plan, a, ctrl, j);
                }
            }
        }
        // Read the position after the hook: a rewrite may have inserted a
        // check right here (in front of the old node), and that check runs
        // first.
        let id = plan.order()[pos];
        match step(plan, a, cfg, &mut st, &mut rt, id) {
            Ok(StepOut::Continue) => cursor += 1,
            other => {
                stopped = other;
                break;
            }
        }
    }
    // Leave the layout pointing at shard 0's streams (the originals), so
    // post-attempt work — extraction, restart reload — stays well-formed.
    if let Some(r) = rt.as_mut() {
        r.steer(a.lay, 0);
    }
    if let StepOut::Restart = stopped? {
        return Ok((AttemptEnd::Restart, st.vo));
    }
    close_span(a.ctx, &mut st.scope_span);
    close_span(a.ctx, &mut st.iter_span);
    if let Some(e) = st.pending_err.take() {
        return Err(e);
    }
    let end = if st.restart_at_end {
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
/// round-robin. Host-blocking stalls of one plan (POTF2, verification)
/// overlap the other plans' enqueued device work, so the batch makespan
/// beats running the same plans back to back.
pub fn run_batch(
    profile: &SystemProfile,
    reqs: &[BatchRequest],
) -> Result<BatchOutcome, MatrixError> {
    assert!(!reqs.is_empty(), "empty batch");
    let mut ctx = SimContext::new(profile.clone(), ExecMode::TimingOnly);
    ctx.disable_timeline();
    if reqs.iter().any(|r| !r.opts.trace_schedule) {
        ctx.disable_trace();
    }
    let root = ctx.obs.spans.open(
        format!("batch x{} n={} b={}", reqs.len(), reqs[0].n, reqs[0].b),
        Phase::Run,
        0.0,
    );
    ctx.obs
        .metrics
        .add_count("plan.batch.plans", reqs.len() as u64);

    let mut plans = Vec::with_capacity(reqs.len());
    for r in reqs {
        let placement =
            decision::choose(r.opts.placement, profile, r.n, r.b, r.opts.verify_interval);
        let mut resolved = r.opts.clone();
        resolved.placement = placement;
        let lay = ops::setup_batch(&mut ctx, r.n, r.b, true, placement, None)?;
        let plan = super::for_scheme(r.kind, lay.nt, &resolved, false);
        assert!(
            plan.shard.is_none(),
            "batched runs do not compose with sharding"
        );
        ctx.obs.metrics.add_count("plan.nodes", plan.len() as u64);
        ctx.obs
            .metrics
            .add_count("plan.edges", plan.edge_count() as u64);
        plans.push((plan, lay, resolved));
    }
    let orders: Vec<Vec<usize>> = plans
        .iter()
        .map(|(p, _, _)| p.to_schedule().issue_order(IssuePolicy::InOrder))
        .collect();
    let cfg = ExecConfig {
        policy: IssuePolicy::InOrder,
        record_scopes: false,
        sync_on_drain: false,
    };
    let mut injs: Vec<Injector> = (0..plans.len()).map(|_| Injector::inert()).collect();
    let mut states: Vec<ExecState> = (0..plans.len()).map(|_| ExecState::default()).collect();
    let mut halted = vec![false; plans.len()];
    let mut no_shard = None;
    for (p, pos) in hchol_gpusim::round_robin(&orders) {
        if halted[p] {
            continue;
        }
        let (plan, lay, resolved) = &mut plans[p];
        let id = plan.order()[pos];
        let mut a = AttemptCtx {
            ctx: &mut ctx,
            lay,
            inj: &mut injs[p],
            opts: resolved,
        };
        match step(plan, &mut a, &cfg, &mut states[p], &mut no_shard, id)? {
            StepOut::Continue => {}
            // Clean batched runs don't restart; an uncorrectable outcome
            // (only possible with real corruption) just halts that plan.
            StepOut::Restart => halted[p] = true,
        }
    }
    ctx.sync_all();
    let time = ctx.now();
    ctx.obs.spans.close(root, time.as_secs());
    Ok(BatchOutcome {
        time,
        runs: states.into_iter().map(|s| s.vo).collect(),
        ctx,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{ChecksumPlacement, ShardOptions};
    use hchol_gpusim::{BufferId, TileRef, TraceAction};
    use std::collections::HashMap;

    /// Plan ↔ runtime agreement of the single-sourced access sets: every
    /// SYRK/GEMM/TRSM (and checksum-update) kernel the executor launches
    /// declares, once mapped back through the layout binding, exactly the
    /// tiles its plan node declares — on the default, fused and sharded
    /// configurations of all three schemes.
    #[test]
    fn kernels_declare_their_plan_nodes_accesses() {
        let (nt, b) = (6usize, 4usize);
        let base = AbftOptions::default().with_placement(ChecksumPlacement::Gpu);
        // (name, options, what an Enhanced run's GEMM labels must show).
        let configs = [
            ("default", base.clone(), "GEMM j="),
            (
                "chk_fused",
                base.clone().with_chk_fused(true),
                "GEMM+CHK j=",
            ),
            (
                "shard D=2",
                base.clone().with_shard(ShardOptions::new(2)),
                " d=1",
            ),
            (
                "shard D=3",
                base.clone().with_shard(ShardOptions::new(3)),
                " d=2",
            ),
        ];
        for (name, opts, marker) in &configs {
            for kind in SchemeKind::all() {
                let profile = SystemProfile::test_profile().with_devices(opts.shard_devices());
                let mut ctx = SimContext::new(profile, ExecMode::TimingOnly);
                let mut lay =
                    ops::setup(&mut ctx, nt * b, b, true, ChecksumPlacement::Gpu, None).unwrap();
                let mut plan = crate::plan::for_scheme(kind, nt, opts, false);
                let mut a = AttemptCtx {
                    ctx: &mut ctx,
                    lay: &mut lay,
                    inj: &mut Injector::inert(),
                    opts,
                };
                run_attempt(&mut plan, &mut a, &ExecConfig::default(), None).unwrap();

                // Invert `CholLayout::bind`: real buffer → canonical id.
                let mut canonical = HashMap::from([(lay.mat, BufferId(0))]);
                for bi in 0..nt {
                    canonical.insert(lay.cks[bi], BufferId(1 + bi));
                    if let Some(&d) = lay.dpt.get(bi) {
                        canonical.insert(d, BufferId(1 + nt + bi));
                    }
                }
                let unbind = |tiles: &[TileRef]| -> Vec<TileRef> {
                    tiles
                        .iter()
                        .map(|t| TileRef::new(canonical[&t.buf], t.bi, t.bj))
                        .collect()
                };

                // In-order execution: the k-th such kernel in the trace was
                // issued by the k-th such node with a non-empty access set
                // (no-op nodes launch nothing).
                let nodes: Vec<_> = plan
                    .order()
                    .iter()
                    .filter(|&&id| {
                        matches!(
                            plan.node(id).kind,
                            TaskKind::Syrk { .. }
                                | TaskKind::GemmPanel { .. }
                                | TaskKind::TrsmPanel { .. }
                                | TaskKind::ChkUpdate { .. }
                        )
                    })
                    .map(|&id| (id, plan.node_access(id).tiles))
                    .filter(|(_, tiles)| !tiles.is_empty())
                    .collect();
                let launched: Vec<_> = ctx
                    .trace
                    .actions()
                    .iter()
                    .filter_map(|act| match act {
                        TraceAction::Op(op)
                            if ["SYRK", "GEMM", "TRSM", "UPD-"]
                                .iter()
                                .any(|p| op.label.starts_with(p)) =>
                        {
                            Some(op)
                        }
                        _ => None,
                    })
                    .collect();
                let tag = format!("{name} {kind:?}");
                assert_eq!(launched.len(), nodes.len(), "{tag}: kernel count");
                if kind == SchemeKind::Enhanced {
                    assert!(launched.iter().any(|op| op.label.contains(marker)), "{tag}");
                }
                for (op, (id, want)) in launched.iter().zip(&nodes) {
                    let node = &plan.node(*id).kind;
                    assert_eq!(
                        unbind(&op.access.reads),
                        want.reads,
                        "{tag}: {node:?} reads"
                    );
                    assert_eq!(
                        unbind(&op.access.writes),
                        want.writes,
                        "{tag}: {node:?} writes"
                    );
                }
            }
        }
    }
}
