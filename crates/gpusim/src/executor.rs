//! Readiness-driven issue ordering for task-graph (DAG) programs.
//!
//! The simulator itself stays imperative: callers enqueue kernels,
//! transfers, and syncs one at a time. What this module adds is the layer
//! that *decides the enqueue order* for a program expressed as a dependency
//! graph — `hchol-core`'s `FactorPlan` compiles to one [`DagSchedule`] per
//! run. Two issue disciplines are supported:
//!
//! * [`IssuePolicy::InOrder`] — replay the plan's authored order exactly
//!   (bit-for-bit identical to the legacy imperative drivers; the default);
//! * [`IssuePolicy::Lookahead`] — issue any dependency-satisfied node whose
//!   iteration is at most `d` ahead of the oldest unfinished iteration,
//!   preferring asynchronous (non-host-blocking) work so device queues stay
//!   primed across host stalls.
//!
//! Every order produced here is a topological order of the dependency
//! edges, so data dependencies are never reordered — only independent work
//! moves. [`DagSchedule::is_topological`] double-checks any candidate order
//! against the edges.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-node metadata the issue heuristics consult.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeMeta {
    /// Outer iteration this node belongs to (`None` for pre/post-loop
    /// work). Bounds the lookahead window.
    pub iter: Option<usize>,
    /// Does executing this node block the host (CPU kernel, stream sync,
    /// host-visible verification)? Lookahead prefers to defer these behind
    /// asynchronous enqueues.
    pub host_blocking: bool,
}

/// How the executor picks the next ready node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssuePolicy {
    /// Exactly the authored plan order.
    InOrder,
    /// Issue dependency-satisfied nodes up to `d` iterations beyond the
    /// oldest unissued one (depth 0 still allows reordering *within* an
    /// iteration).
    Lookahead(usize),
}

/// A dependency graph plus authored order over `n` nodes.
///
/// `deps[i]` lists the nodes that must be issued before node `i`; `order`
/// is the authored (legacy-equivalent) issue sequence, which must itself be
/// topological.
#[derive(Debug, Clone)]
pub struct DagSchedule {
    deps: Vec<Vec<usize>>,
    meta: Vec<NodeMeta>,
    order: Vec<usize>,
}

impl DagSchedule {
    /// Build a schedule. Panics if `order` is not a permutation of
    /// `0..deps.len()` or not topological w.r.t. `deps`.
    pub fn new(deps: Vec<Vec<usize>>, meta: Vec<NodeMeta>, order: Vec<usize>) -> Self {
        assert_eq!(deps.len(), meta.len(), "deps/meta length mismatch");
        let s = DagSchedule { deps, meta, order };
        assert!(
            s.is_topological(&s.order),
            "authored order violates its own dependency edges"
        );
        s
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// True if the schedule has no nodes.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// The authored order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The dependency lists: `deps()[i]` are the nodes issued before `i`.
    pub fn deps(&self) -> &[Vec<usize>] {
        &self.deps
    }

    /// The per-node metadata the issue heuristics consult.
    // lint:allow(dead-pub) test tool: the issue order's scaling guard rebuilds a planner's schedule through it
    pub fn meta(&self) -> &[NodeMeta] {
        &self.meta
    }

    /// Is `candidate` a permutation of all nodes that respects every
    /// dependency edge?
    pub fn is_topological(&self, candidate: &[usize]) -> bool {
        if candidate.len() != self.deps.len() {
            return false;
        }
        let mut pos = vec![usize::MAX; self.deps.len()];
        for (p, &id) in candidate.iter().enumerate() {
            if id >= self.deps.len() || pos[id] != usize::MAX {
                return false;
            }
            pos[id] = p;
        }
        candidate
            .iter()
            .all(|&id| self.deps[id].iter().all(|&d| pos[d] < pos[id]))
    }

    /// Compute the issue order under `policy`.
    ///
    /// `InOrder` returns the authored order. `Lookahead(d)` runs list
    /// scheduling over the ready set: at each step the eligible candidates
    /// are the unissued nodes whose dependencies are all issued and whose
    /// iteration is within `d` of the oldest unissued iteration (a node
    /// with no iteration always is); among them, asynchronous nodes win
    /// over host-blocking ones, ties broken by authored position (so the
    /// result degenerates to the authored order when nothing can move).
    /// When every ready node lies beyond the window, the one first in
    /// authored order is issued. The order costs `O((n + e) log n)` for
    /// `n` nodes and `e` edges (see [`Self::issue_diagnostics`] for the
    /// window fallbacks).
    pub fn issue_order(&self, policy: IssuePolicy) -> Vec<usize> {
        match policy {
            IssuePolicy::InOrder => self.order.clone(),
            IssuePolicy::Lookahead(d) => self.lookahead_order(d).0,
        }
    }

    /// Compute the issue order under `policy` together with the runtime
    /// orderings the order *induces* beyond the plan's dependency edges —
    /// the input the static liveness checker (`hchol-analyze`) consumes.
    ///
    /// * `induced_edges` — host-serialization edges `(a, b)`: node `a` is
    ///   host-blocking and node `b` is issued immediately after it, so on
    ///   the real machine `b` cannot start before `a` completes even when
    ///   no plan edge orders them.
    /// * `window_fallbacks` — nodes issued through the outside-window
    ///   escape hatch (every ready node sat beyond the lookahead window),
    ///   i.e. places where the window bound was not what unblocked
    ///   progress.
    pub fn issue_diagnostics(&self, policy: IssuePolicy) -> IssueDiagnostics {
        let (order, window_fallbacks) = match policy {
            IssuePolicy::InOrder => (self.order.clone(), Vec::new()),
            IssuePolicy::Lookahead(d) => self.lookahead_order(d),
        };
        let induced_edges = order
            .windows(2)
            .filter(|w| self.meta[w[0]].host_blocking)
            .map(|w| (w[0], w[1]))
            .collect();
        IssueDiagnostics {
            order,
            window_fallbacks,
            induced_edges,
        }
    }

    /// List scheduling under a lookahead window; returns the order plus
    /// the nodes issued through the outside-window fallback.
    ///
    /// The picks are those of a rescan per pick (the `#[cfg(test)]`
    /// oracle beside this module), kept by counts and heaps instead.
    /// Iteration labels are ranked densely and each rank counts its
    /// unissued nodes, so the window base (the lowest rank with a node
    /// left) and the window's far edge only move forward. A ready node
    /// waits in the eligible heap, keyed `(host_blocking, position)`, if
    /// it has no iteration or its rank is inside the window, and otherwise
    /// in its rank's heap, keyed by position, which the far edge empties
    /// into the eligible heap as it passes. When the eligible heap is
    /// empty, the fallback issues the lowest position among the waiting
    /// heaps' heads. Every node is pushed and popped at most twice:
    /// `O((n + e) log n)` for `n` nodes and `e` edges, plus a scan of the
    /// ranks beyond the window per fallback.
    fn lookahead_order(&self, depth: usize) -> (Vec<usize>, Vec<usize>) {
        let n = self.deps.len();
        let mut pos = vec![0usize; n];
        for (p, &id) in self.order.iter().enumerate() {
            pos[id] = p;
        }
        let mut labels: Vec<usize> = self.meta.iter().filter_map(|m| m.iter).collect();
        labels.sort_unstable();
        labels.dedup();
        let rank: Vec<Option<usize>> = self
            .meta
            .iter()
            .map(|m| m.iter.map(|it| labels.partition_point(|&l| l < it)))
            .collect();
        let mut unissued = vec![0usize; labels.len()];
        for &r in rank.iter().flatten() {
            unissued[r] += 1;
        }
        let mut remaining_deps: Vec<usize> = self.deps.iter().map(Vec::len).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, ds) in self.deps.iter().enumerate() {
            for &d in ds {
                dependents[d].push(id);
            }
        }

        let key = |p: usize| Reverse((self.meta[self.order[p]].host_blocking, p));
        let mut eligible: BinaryHeap<Reverse<(bool, usize)>> = BinaryHeap::new();
        let mut waiting: Vec<BinaryHeap<Reverse<usize>>> = vec![BinaryHeap::new(); labels.len()];
        // The window spans ranks `base..open`.
        let (mut base, mut open) = (0usize, 0usize);
        let mut ready: Vec<usize> = (0..n).filter(|&i| remaining_deps[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        let mut fallbacks = Vec::new();
        while out.len() < n {
            while base < labels.len() && unissued[base] == 0 {
                base += 1;
            }
            if let Some(&b) = labels.get(base) {
                let limit = b.saturating_add(depth);
                while open < labels.len() && labels[open] <= limit {
                    probe(waiting[open].len());
                    eligible.extend(waiting[open].drain().map(|Reverse(p)| key(p)));
                    open += 1;
                }
            }
            for &i in &ready {
                probe(1);
                match rank[i] {
                    Some(r) if r >= open => waiting[r].push(Reverse(pos[i])),
                    _ => eligible.push(key(pos[i])),
                }
            }
            ready.clear();
            probe(1);
            let pick = match eligible.pop() {
                Some(Reverse((_, p))) => self.order[p],
                None => {
                    probe(labels.len() - open);
                    let r = (open..labels.len())
                        .filter(|&r| !waiting[r].is_empty())
                        .min_by_key(|&r| waiting[r].peek().map(|&Reverse(p)| p))
                        .expect("dependency cycle: no ready node");
                    let Reverse(p) = waiting[r].pop().expect("a waiting head");
                    fallbacks.push(self.order[p]);
                    self.order[p]
                }
            };
            if let Some(r) = rank[pick] {
                unissued[r] -= 1;
            }
            out.push(pick);
            for &s in &dependents[pick] {
                remaining_deps[s] -= 1;
                if remaining_deps[s] == 0 {
                    ready.push(s);
                }
            }
        }
        debug_assert!(self.is_topological(&out));
        (out, fallbacks)
    }
}

/// Scaling-guard probe: the test build counts the scheduler's steps (heap
/// operations and the ranks a fallback scans); everywhere else this is
/// nothing.
#[cfg(not(test))]
#[inline(always)]
fn probe(_steps: usize) {}

#[cfg(test)]
fn probe(steps: usize) {
    oracle::STEPS.with(|c| c.set(c.get() + steps));
}

#[cfg(test)]
mod oracle;

/// Byproducts of computing an issue order: the order itself plus the
/// runtime-induced orderings the static liveness checker models (see
/// [`DagSchedule::issue_diagnostics`]).
#[derive(Debug, Clone)]
pub struct IssueDiagnostics {
    /// The computed issue order (a topological order of the plan edges).
    pub order: Vec<usize>,
    /// Nodes issued via the outside-window fallback path.
    pub window_fallbacks: Vec<usize>,
    /// Host-serialization edges `(blocking node, next issued node)` the
    /// order induces beyond the plan's dependency edges.
    pub induced_edges: Vec<(usize, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(iter: Option<usize>, host: bool) -> NodeMeta {
        NodeMeta {
            iter,
            host_blocking: host,
        }
    }

    /// A two-iteration chain with one host-blocking node per iteration and
    /// an independent async node in iteration 1.
    fn sample() -> DagSchedule {
        // 0: async it0 ; 1: host it0 (dep 0) ; 2: async it1 ; 3: host it1 (deps 1,2)
        DagSchedule::new(
            vec![vec![], vec![0], vec![], vec![1, 2]],
            vec![
                meta(Some(0), false),
                meta(Some(0), true),
                meta(Some(1), false),
                meta(Some(1), true),
            ],
            vec![0, 1, 2, 3],
        )
    }

    #[test]
    fn in_order_replays_authored_order() {
        assert_eq!(sample().issue_order(IssuePolicy::InOrder), vec![0, 1, 2, 3]);
    }

    #[test]
    fn lookahead_hoists_async_work_over_host_blocking() {
        // With a window of 1 iteration, node 2 (async, it1, no deps) is
        // issued before node 1 (host-blocking, it0).
        let got = sample().issue_order(IssuePolicy::Lookahead(1));
        assert_eq!(got, vec![0, 2, 1, 3]);
    }

    #[test]
    fn lookahead_zero_still_reorders_within_iteration() {
        // 0: host it0; 1: async it0, independent — async first.
        let s = DagSchedule::new(
            vec![vec![], vec![]],
            vec![meta(Some(0), true), meta(Some(0), false)],
            vec![0, 1],
        );
        assert_eq!(s.issue_order(IssuePolicy::Lookahead(0)), vec![1, 0]);
    }

    #[test]
    fn lookahead_window_restrains_distant_iterations() {
        // Async node in iteration 5 cannot jump a window of 1 anchored at 0.
        let s = DagSchedule::new(
            vec![vec![], vec![0], vec![]],
            vec![
                meta(Some(0), false),
                meta(Some(0), true),
                meta(Some(5), false),
            ],
            vec![0, 1, 2],
        );
        assert_eq!(s.issue_order(IssuePolicy::Lookahead(1)), vec![0, 1, 2]);
    }

    #[test]
    fn lookahead_orders_are_topological() {
        let s = sample();
        for d in 0..4 {
            let o = s.issue_order(IssuePolicy::Lookahead(d));
            assert!(s.is_topological(&o), "depth {d}: {o:?}");
        }
    }

    /// An unbounded window is every finite window past the last iteration.
    #[test]
    fn unbounded_lookahead_is_the_widest_window() {
        let s = sample();
        let widest = s.issue_order(IssuePolicy::Lookahead(2));
        assert_eq!(s.issue_order(IssuePolicy::Lookahead(usize::MAX)), widest);
    }

    #[test]
    fn topology_check_rejects_violations() {
        let s = sample();
        assert!(!s.is_topological(&[1, 0, 2, 3])); // dep 0→1 flipped
        assert!(!s.is_topological(&[0, 1, 2])); // not a permutation
        assert!(!s.is_topological(&[0, 1, 2, 2])); // duplicate
    }

    #[test]
    #[should_panic(expected = "authored order violates")]
    fn constructor_rejects_nontopological_authored_order() {
        DagSchedule::new(
            vec![vec![], vec![0]],
            vec![NodeMeta::default(); 2],
            vec![1, 0],
        );
    }

    #[test]
    fn diagnostics_export_induced_edges_and_fallbacks() {
        let s = sample();
        // In-order: host-blocking node 1 serializes node 2 behind it.
        let d = s.issue_diagnostics(IssuePolicy::InOrder);
        assert_eq!(d.order, vec![0, 1, 2, 3]);
        assert!(d.window_fallbacks.is_empty());
        assert_eq!(d.induced_edges, vec![(1, 2)]);
        // Lookahead(1): same picks as issue_order, edges follow the
        // reordered sequence [0, 2, 1, 3].
        let d = s.issue_diagnostics(IssuePolicy::Lookahead(1));
        assert_eq!(d.order, s.issue_order(IssuePolicy::Lookahead(1)));
        assert_eq!(d.induced_edges, vec![(1, 3)]);
        assert!(d.window_fallbacks.is_empty());
        // The window anchors at iteration 0 (unissued, blocked behind the
        // iteration-5 node), so the only ready node sits outside the window
        // and must be issued through the fallback.
        let far = DagSchedule::new(
            vec![vec![], vec![0]],
            vec![meta(Some(5), false), meta(Some(0), false)],
            vec![0, 1],
        );
        let d = far.issue_diagnostics(IssuePolicy::Lookahead(0));
        assert_eq!(d.order, vec![0, 1]);
        assert_eq!(d.window_fallbacks, vec![0]);
    }
}
