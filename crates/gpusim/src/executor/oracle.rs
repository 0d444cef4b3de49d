//! The reference the lookahead issue order is held to, test builds only:
//! `lookahead_order` as it stood before the heaps, verbatim but for the
//! step probe — every pick rescans all `n` nodes for the window base and
//! the whole ready list for the best candidate, `O(n²)` in all. The
//! differential test below holds the heap scheduler to it, order,
//! fallbacks and induced edges, over random DAGs at every depth; the
//! scaling guard holds the heap scheduler's steps on a real plan to
//! `O(n log n)` and shows the oracle's to be quadratic.

use super::*;
use hchol_core::options::{AbftOptions, ChecksumPlacement};
use hchol_core::plan::for_scheme;
use hchol_core::schemes::SchemeKind;
use proptest::prelude::*;
use std::cell::Cell;

thread_local! {
    /// Scheduler steps on this thread: the heap operations and the ranks
    /// a fallback scans in [`DagSchedule::lookahead_order`], the nodes the
    /// oracle's window scans examine. The count-based guard against a
    /// regrown scan.
    pub(super) static STEPS: Cell<usize> = const { Cell::new(0) };
    /// Differential cases that issued a node through the fallback.
    static FALLBACK_CASES: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` and return how many scheduler steps it took.
fn steps<R>(f: impl FnOnce() -> R) -> (R, usize) {
    STEPS.with(|c| c.set(0));
    let r = f();
    (r, STEPS.with(Cell::get))
}

impl DagSchedule {
    /// `lookahead_order` as it stood before the heaps, verbatim but for
    /// the step probe.
    fn lookahead_order_oracle(&self, depth: usize) -> (Vec<usize>, Vec<usize>) {
        let n = self.deps.len();
        let mut pos = vec![0usize; n];
        for (p, &id) in self.order.iter().enumerate() {
            pos[id] = p;
        }
        let mut remaining_deps: Vec<usize> = self.deps.iter().map(Vec::len).collect();
        let mut issued = vec![false; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, ds) in self.deps.iter().enumerate() {
            for &d in ds {
                dependents[d].push(id);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| remaining_deps[i] == 0).collect();
        let mut out = Vec::with_capacity(n);
        let mut fallbacks = Vec::new();
        while out.len() < n {
            STEPS.with(|c| c.set(c.get() + n));
            // The lookahead window is anchored at the oldest unissued
            // iteration (pre/post-loop nodes are always eligible).
            let base = (0..n)
                .filter(|&i| !issued[i])
                .filter_map(|i| self.meta[i].iter)
                .min();
            let eligible = |i: usize| match (self.meta[i].iter, base) {
                (Some(it), Some(b)) => it <= b.saturating_add(depth),
                _ => true,
            };
            let pick = ready
                .iter()
                .copied()
                .filter(|&i| eligible(i))
                .min_by_key(|&i| (self.meta[i].host_blocking, pos[i]))
                .or_else(|| {
                    let p = ready.iter().copied().min_by_key(|&i| pos[i]);
                    if let Some(p) = p {
                        fallbacks.push(p);
                    }
                    p
                })
                .expect("dependency cycle: no ready node");
            ready.retain(|&i| i != pick);
            issued[pick] = true;
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

    /// The oracle's order under `Lookahead(depth)`, with the induced
    /// edges computed as [`DagSchedule::issue_diagnostics`] does.
    fn diagnostics_oracle(&self, depth: usize) -> IssueDiagnostics {
        let (order, window_fallbacks) = self.lookahead_order_oracle(depth);
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
}

/// SplitMix64: the stream the random DAGs draw their shape from.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random DAG: node `i` carries `(label, host_blocking, dependency
/// count)` from `nodes[i]`; the authored order is a shuffle of the ids
/// drawn from `seed`, and each node depends on up to its count of nodes
/// authored before it, whatever their iterations — so nodes wait on later
/// iterations and the window fallback fires. Labels cover no iteration,
/// a handful of small ones, and two at the top of `usize`, where the
/// window's far edge saturates.
fn random_dag(nodes: &[(usize, bool, usize)], seed: u64) -> DagSchedule {
    const LABELS: [Option<usize>; 8] = [
        None,
        Some(0),
        Some(1),
        Some(2),
        Some(3),
        Some(7),
        Some(usize::MAX - 1),
        Some(usize::MAX),
    ];
    let n = nodes.len();
    let mut state = seed;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (mix(&mut state) % (i as u64 + 1)) as usize);
    }
    let mut deps = vec![Vec::new(); n];
    for (p, &id) in order.iter().enumerate() {
        if p == 0 {
            continue;
        }
        let mut ds: Vec<usize> = (0..nodes[id].2)
            .map(|_| order[(mix(&mut state) % p as u64) as usize])
            .collect();
        ds.sort_unstable();
        ds.dedup();
        deps[id] = ds;
    }
    let meta = nodes
        .iter()
        .map(|&(label, host_blocking, _)| NodeMeta {
            iter: LABELS[label % LABELS.len()],
            host_blocking,
        })
        .collect();
    DagSchedule::new(deps, meta, order)
}

proptest! {
    // The release leg of ci.sh is the deep one.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4096 }))]

    /// New against old on random DAGs at every depth: the same order, the
    /// same window fallbacks and the same induced edges. Run through
    /// [`heap_scheduler_matches_the_oracle_and_takes_the_fallback`], which
    /// also checks that the fallback was taken.
    fn heap_scheduler_matches_the_oracle(
        nodes in collection::vec((0usize..8, any::<bool>(), 0usize..4), 1..48),
        seed in any::<u64>(),
    ) {
        let s = random_dag(&nodes, seed);
        let mut fell_back = false;
        for depth in [0, 1, 2, 3, usize::MAX] {
            let new = s.issue_diagnostics(IssuePolicy::Lookahead(depth));
            let old = s.diagnostics_oracle(depth);
            prop_assert_eq!(&new.order, &old.order, "depth {}: order", depth);
            prop_assert_eq!(&new.window_fallbacks, &old.window_fallbacks, "depth {}", depth);
            prop_assert_eq!(&new.induced_edges, &old.induced_edges, "depth {}", depth);
            prop_assert_eq!(s.issue_order(IssuePolicy::Lookahead(depth)), old.order);
            fell_back |= !new.window_fallbacks.is_empty();
        }
        if fell_back {
            FALLBACK_CASES.with(|c| c.set(c.get() + 1));
        }
    }
}

#[test]
fn heap_scheduler_matches_the_oracle_and_takes_the_fallback() {
    FALLBACK_CASES.with(|c| c.set(0));
    heap_scheduler_matches_the_oracle();
    let cases = FALLBACK_CASES.with(Cell::get);
    assert!(
        cases >= 16,
        "only {cases} random DAGs took the window fallback"
    );
}

/// The scaling guard on the plan the benchmark's `lookahead2` feature
/// orders: the Enhanced nt = 40 plan under `Lookahead(2)` takes at most
/// `4·n·⌈log₂ n⌉` heap scheduler steps, and the oracle's window scans
/// alone examine at least `n²/2` nodes. A scheduler that rescans the
/// nodes per pick again fails the first bound by two orders of magnitude.
#[test]
fn lookahead_order_steps_stay_near_linear() {
    let opts = AbftOptions::default()
        .with_placement(ChecksumPlacement::Gpu)
        .with_lookahead(2);
    let built = for_scheme(SchemeKind::Enhanced, 40, &opts, false).to_schedule();
    let meta = built.meta().iter().map(|m| NodeMeta {
        iter: m.iter,
        host_blocking: m.host_blocking,
    });
    let s = DagSchedule::new(
        built.deps().to_vec(),
        meta.collect(),
        built.order().to_vec(),
    );
    let n = s.len();
    let (new, heap_steps) = steps(|| s.lookahead_order(2));
    let (old, scan_steps) = steps(|| s.lookahead_order_oracle(2));
    assert_eq!(new, old);
    let log2 = n.next_power_of_two().trailing_zeros() as usize;
    assert!(
        heap_steps <= 4 * n * log2,
        "{heap_steps} heap scheduler steps for {n} nodes"
    );
    assert!(
        scan_steps >= n * n / 2,
        "{scan_steps} oracle scan steps for {n} nodes"
    );
}
