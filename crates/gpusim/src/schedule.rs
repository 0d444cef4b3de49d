//! Resource-constrained concurrent-kernel scheduler.
//!
//! CUDA-era concurrency in one sentence: kernels from different streams may
//! overlap as long as (a) the device has SM resources left and (b) the
//! hardware's concurrent-kernel cap is not exceeded. The paper leans on this
//! for Optimization 1 and states the effective concurrency as
//! `P = min(N, M)` where `N` is the hardware cap and `M` is how many copies
//! of the kernel fit resource-wise. This module realizes exactly that rule
//! as an incremental interval-placement problem on the virtual timeline:
//! each kernel occupies `resource ∈ (0, 1]` of the device for its duration,
//! the sum of active resources may not exceed 1, and the number of active
//! kernels may not exceed `N`.

use crate::time::SimTime;
use std::collections::VecDeque;

/// One scheduled execution on the device.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Start time (inclusive).
    pub start: f64,
    /// End time (exclusive).
    pub end: f64,
    /// Device fraction occupied.
    pub resource: f64,
}

/// A tracked interval and its issue number.
#[derive(Debug, Clone, Copy)]
struct Slot {
    iv: Interval,
    seq: u64,
}

/// Incremental first-fit scheduler over the device timeline.
///
/// Kernels are placed in issue order (as real command queues admit them) at
/// the earliest time that satisfies both constraints for their entire
/// duration — kernels never migrate or preempt once placed.
#[derive(Debug)]
pub struct KernelScheduler {
    /// Tracked intervals, ordered by `(end, seq)`: the intervals that can
    /// still matter to a start time `t` are exactly the suffix `end > t`,
    /// and everything a prune drops is a prefix.
    active: VecDeque<Slot>,
    next_seq: u64,
    max_concurrent: usize,
    /// Total busy time × resource (for utilization reporting).
    busy_integral: f64,
    /// Scratch of [`Self::first_fit`]: `(seq, resource)` of the intervals
    /// live at one point. Kept here so placing allocates nothing once warm.
    live: Vec<(u64, f64)>,
}

const EPS: f64 = 1e-9;

impl KernelScheduler {
    /// New scheduler for a device admitting at most `max_concurrent`
    /// simultaneous kernels.
    pub fn new(max_concurrent: usize) -> Self {
        KernelScheduler {
            active: VecDeque::new(),
            next_seq: 0,
            max_concurrent: max_concurrent.max(1),
            busy_integral: 0.0,
            live: Vec::new(),
        }
    }

    /// Place a kernel requiring `resource` of the device for `duration`,
    /// starting no earlier than `earliest`. Returns `(start, end)`.
    pub fn place(
        &mut self,
        earliest: SimTime,
        duration: SimTime,
        resource: f64,
    ) -> (SimTime, SimTime) {
        let resource = resource.clamp(EPS, 1.0);
        let d = duration.as_secs().max(0.0);
        let e = earliest.as_secs();
        debug_assert!(e.is_finite() && d.is_finite(), "times are finite");

        let start = self.first_fit(e, d, resource);
        let iv = Interval {
            start,
            end: start + d,
            resource,
        };
        let at = self.active.partition_point(|s| s.iv.end <= iv.end);
        self.active.insert(
            at,
            Slot {
                iv,
                seq: self.next_seq,
            },
        );
        self.next_seq += 1;
        self.busy_integral += d * resource;
        (SimTime::secs(iv.start), SimTime::secs(iv.end))
    }

    /// The first candidate start — `e`, then each later moment a tracked
    /// interval ends — at which a kernel `(resource, duration d)` fits at
    /// every point it must: the candidate `t` itself and every interval
    /// boundary inside `(t, t + d)`, the only points where usage changes.
    ///
    /// One sweep walks those points once, in ascending order. A point that
    /// does not admit the kernel refutes every candidate up to it as well
    /// (it is one of their points too), so the walk resumes at the first
    /// end after it rather than at the next candidate. At each point `p`
    /// only the suffix `end > p` is read: an interval with `end <= p` is
    /// live at no point from `p` on (`p < end - EPS` fails) and has no
    /// boundary after it, so `w` only moves forward.
    fn first_fit(&mut self, e: f64, d: f64, resource: f64) -> f64 {
        let KernelScheduler {
            active,
            live,
            max_concurrent,
            ..
        } = self;
        let mut w = active.partition_point(|s| s.iv.end <= e);
        let (mut t, mut p) = (e, e);
        loop {
            // Active on [start, end): p inside?
            live.clear();
            for s in active.range(w..) {
                if s.iv.start <= p + EPS && p < s.iv.end - EPS {
                    live.push((s.seq, s.iv.resource));
                }
            }
            probe_visited(active.len() - w);
            // Sum in issue order, whatever order the window holds them in:
            // float addition does not commute to the last bit.
            live.sort_unstable_by_key(|&(seq, _)| seq);
            let usage = live.iter().fold(0.0, |usage, &(_, r)| usage + r);
            let next_end = active.get(w).map_or(f64::INFINITY, |s| s.iv.end);
            if usage + resource <= 1.0 + EPS && live.len() < *max_concurrent {
                probe_visited(active.len() - w);
                let starts = active.range(w..).map(|s| s.iv.start);
                p = starts.filter(|&s| s > p).fold(next_end, f64::min);
                if p >= t + d {
                    return t;
                }
            } else {
                // Something is live at `p`, so it ends after `p`.
                t = next_end;
                p = t;
            }
            while active.get(w).is_some_and(|s| s.iv.end <= p) {
                w += 1;
            }
        }
    }

    /// Drop intervals that can no longer influence placement (everything
    /// ending at or before `horizon`). Call with the host clock after syncs.
    pub fn prune(&mut self, horizon: SimTime) {
        let h = horizon.as_secs();
        let keep_from = self.active.partition_point(|s| s.iv.end <= h);
        self.active.drain(..keep_from);
    }

    /// Number of intervals still tracked.
    #[cfg(test)]
    fn tracked(&self) -> usize {
        self.active.len()
    }

    /// Integral of (resource × time) consumed so far — divide by a span to
    /// get average device utilization.
    pub fn busy_integral(&self) -> f64 {
        self.busy_integral
    }
}

/// Scaling-guard probe: the test build counts the tracked intervals `place`
/// examines; everywhere else this is nothing.
#[cfg(not(test))]
#[inline(always)]
fn probe_visited(_intervals: usize) {}

#[cfg(test)]
fn probe_visited(intervals: usize) {
    tests::VISITED.with(|v| v.set(v.get() + intervals));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Tracked intervals examined by this thread's `place` calls.
        pub(super) static VISITED: Cell<usize> = const { Cell::new(0) };
    }

    /// The scheduler as it stood before `active` was kept ordered — `place`,
    /// `fits` and `prune` verbatim: every launch sorts all interval ends and
    /// re-sums every tracked interval at every boundary point. The reference
    /// the differential test holds the ordered scheduler to, bit for bit.
    struct Oracle {
        active: Vec<Interval>,
        max_concurrent: usize,
        busy_integral: f64,
    }

    impl Oracle {
        fn new(max_concurrent: usize) -> Self {
            Oracle {
                active: Vec::new(),
                max_concurrent: max_concurrent.max(1),
                busy_integral: 0.0,
            }
        }

        fn place(
            &mut self,
            earliest: SimTime,
            duration: SimTime,
            resource: f64,
        ) -> (SimTime, SimTime) {
            let resource = resource.clamp(EPS, 1.0);
            let d = duration.as_secs().max(0.0);
            let e = earliest.as_secs();

            // Candidate start times: `earliest` itself, then each moment an
            // existing interval frees its resources.
            let mut candidates: Vec<f64> = vec![e];
            for iv in &self.active {
                if iv.end > e {
                    candidates.push(iv.end);
                }
            }
            candidates.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
            candidates.dedup();

            let start = candidates
                .into_iter()
                .find(|&t| self.fits(t, d, resource))
                .expect("device eventually drains, so a slot always exists");

            let iv = Interval {
                start,
                end: start + d,
                resource,
            };
            self.active.push(iv);
            self.busy_integral += d * resource;
            (SimTime::secs(iv.start), SimTime::secs(iv.end))
        }

        /// Can a kernel `(resource, duration d)` run throughout `[t, t+d)`?
        fn fits(&self, t: f64, d: f64, resource: f64) -> bool {
            // Constraints only change at interval starts/ends, so it suffices to
            // check every boundary point inside the window plus the window start.
            let end = t + d;
            let mut points: Vec<f64> = vec![t];
            for iv in &self.active {
                if iv.start > t && iv.start < end {
                    points.push(iv.start);
                }
                if iv.end > t && iv.end < end {
                    points.push(iv.end);
                }
            }
            points.iter().all(|&p| {
                let mut usage = 0.0;
                let mut count = 0usize;
                for iv in &self.active {
                    // Active on [start, end): p inside?
                    if iv.start <= p + EPS && p < iv.end - EPS {
                        usage += iv.resource;
                        count += 1;
                    }
                }
                usage + resource <= 1.0 + EPS && count < self.max_concurrent
            })
        }

        fn prune(&mut self, horizon: SimTime) {
            let h = horizon.as_secs();
            self.active.retain(|iv| iv.end > h);
        }
    }

    /// A time on a quarter-second grid, exactly on a point or off it by
    /// `±EPS`, `±EPS/2` (either side of the fuzzy edge) or a free fraction.
    fn grid_time(k: usize, off: usize, free: f64) -> f64 {
        let offsets = [0.0, EPS, -EPS, EPS / 2.0, -EPS / 2.0, 0.25 * free];
        0.25 * k as f64 + offsets[off % offsets.len()]
    }

    proptest! {
        // The release leg of ci.sh is the deep one.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4096 }))]

        /// New against old on random streams of launches and prunes: every
        /// `(start, end)`, `tracked()` and `busy_integral()` equal to the bit.
        /// Streams mix zero and negative durations, resources above 1 and
        /// below `EPS`, `earliest` behind the prune horizon, and non-dyadic
        /// resources (0.33, 0.93, 0.1, 0.07, beside 0.25 and 0.5) whose sum
        /// depends on the order it is taken in.
        #[test]
        fn ordered_scheduler_matches_the_oracle_bit_for_bit(
            cap in 1usize..9,
            ops in collection::vec(
                (0usize..8, 0usize..24, 0usize..6, 0usize..9, 0usize..9, 0.0f64..1.0),
                1..60,
            ),
        ) {
            let resources = [0.33, 0.93, 0.25, 0.5, 1.0, 1.7, 0.1, 0.07, 1e-12];
            let mut new = KernelScheduler::new(cap);
            let mut old = Oracle::new(cap);
            for (step, &(kind, k, off, dur, res, free)) in ops.iter().enumerate() {
                let at = t(grid_time(k, off, free));
                if kind == 0 {
                    new.prune(at);
                    old.prune(at);
                } else {
                    let durations = [0.0, 0.25, 0.5, 1.0, 0.25 + EPS, 0.25 - EPS, 0.5 + EPS / 2.0, 1.5 * free, -1.0];
                    let (d, r) = (t(durations[dur]), resources[res]);
                    let (n0, n1) = new.place(at, d, r);
                    let (o0, o1) = old.place(at, d, r);
                    prop_assert_eq!(
                        (n0.as_secs().to_bits(), n1.as_secs().to_bits()),
                        (o0.as_secs().to_bits(), o1.as_secs().to_bits()),
                        "step {}: new ({:?}, {:?}) vs old ({:?}, {:?})", step, n0, n1, o0, o1
                    );
                }
                prop_assert_eq!(new.tracked(), old.active.len(), "step {}", step);
                prop_assert_eq!(new.busy_integral().to_bits(), old.busy_integral.to_bits());
            }
        }
    }

    /// The deterministic scaling guard: on a deep queue (eight round-robin
    /// streams, 10 000 quarter-device kernels, never pruned) a launch looks at
    /// a bounded number of intervals however many are tracked. The oracle's
    /// first point alone scans all `tracked()` of them. The sweep's worst
    /// launch here visits 13 (the suffix at each point it walks, and once
    /// more where it looks for the next start); the bound is that plus half
    /// again.
    #[test]
    fn a_launch_visits_a_bounded_number_of_intervals_on_a_deep_queue() {
        const PER_LAUNCH_BOUND: usize = 20;
        let mut s = KernelScheduler::new(16);
        let mut stream_ready = [SimTime::ZERO; 8];
        let mut worst = 0;
        for k in 0..10_000 {
            VISITED.with(|v| v.set(0));
            let (_, end) = s.place(stream_ready[k % 8], t(1.0), 0.25);
            stream_ready[k % 8] = end;
            worst = worst.max(VISITED.with(Cell::get));
        }
        assert_eq!(s.tracked(), 10_000);
        assert!(
            worst <= PER_LAUNCH_BOUND,
            "a launch visited {worst} intervals"
        );
    }

    fn t(s: f64) -> SimTime {
        SimTime::secs(s)
    }

    #[test]
    fn full_device_kernels_serialize() {
        let mut s = KernelScheduler::new(16);
        let (a0, a1) = s.place(t(0.0), t(1.0), 1.0);
        let (b0, b1) = s.place(t(0.0), t(1.0), 1.0);
        assert_eq!(a0.as_secs(), 0.0);
        assert_eq!(a1.as_secs(), 1.0);
        assert_eq!(b0.as_secs(), 1.0);
        assert_eq!(b1.as_secs(), 2.0);
    }

    #[test]
    fn quarter_kernels_run_four_wide() {
        let mut s = KernelScheduler::new(16);
        let mut ends = Vec::new();
        for _ in 0..8 {
            let (_, e) = s.place(t(0.0), t(1.0), 0.25);
            ends.push(e.as_secs());
        }
        // 8 kernels, 4 concurrent → makespan 2, not 8.
        let makespan = ends.iter().cloned().fold(0.0, f64::max);
        assert!((makespan - 2.0).abs() < 1e-9, "makespan {makespan}");
    }

    #[test]
    fn hardware_cap_limits_concurrency() {
        let mut s = KernelScheduler::new(2); // N = 2 although M = 10
        let mut ends = Vec::new();
        for _ in 0..4 {
            let (_, e) = s.place(t(0.0), t(1.0), 0.1);
            ends.push(e.as_secs());
        }
        let makespan = ends.iter().cloned().fold(0.0, f64::max);
        assert!((makespan - 2.0).abs() < 1e-9, "makespan {makespan}");
    }

    #[test]
    fn small_kernel_fills_gap_next_to_big_one() {
        let mut s = KernelScheduler::new(16);
        s.place(t(0.0), t(2.0), 0.5);
        let (b0, _) = s.place(t(0.0), t(1.0), 0.5);
        assert_eq!(b0.as_secs(), 0.0, "co-scheduled beside the big kernel");
        // A third half-device kernel must wait for one of them to end.
        let (c0, _) = s.place(t(0.0), t(1.0), 0.75);
        assert!(c0.as_secs() >= 1.0, "start {}", c0.as_secs());
    }

    #[test]
    fn earliest_constraint_respected() {
        let mut s = KernelScheduler::new(4);
        let (a0, _) = s.place(t(5.0), t(1.0), 1.0);
        assert_eq!(a0.as_secs(), 5.0);
    }

    #[test]
    fn oversized_resource_clamps_to_whole_device() {
        let mut s = KernelScheduler::new(4);
        let (_, a1) = s.place(t(0.0), t(1.0), 7.0);
        let (b0, _) = s.place(t(0.0), t(1.0), 7.0);
        assert_eq!(b0.as_secs(), a1.as_secs());
    }

    #[test]
    fn prune_discards_finished_intervals() {
        let mut s = KernelScheduler::new(4);
        for _ in 0..10 {
            s.place(t(0.0), t(1.0), 1.0);
        }
        assert_eq!(s.tracked(), 10);
        s.prune(t(5.0));
        assert_eq!(s.tracked(), 5);
        // Placement still correct after pruning, for requests honoring the
        // prune contract (earliest >= horizon).
        let (c0, _) = s.place(t(5.0), t(1.0), 1.0);
        assert_eq!(c0.as_secs(), 10.0);
    }

    #[test]
    fn zero_duration_kernel_is_instant() {
        let mut s = KernelScheduler::new(4);
        let (a0, a1) = s.place(t(3.0), t(0.0), 1.0);
        assert_eq!(a0.as_secs(), 3.0);
        assert_eq!(a1.as_secs(), 3.0);
    }

    #[test]
    fn busy_integral_accumulates() {
        let mut s = KernelScheduler::new(4);
        s.place(t(0.0), t(2.0), 0.5);
        s.place(t(0.0), t(1.0), 1.0);
        assert!((s.busy_integral() - 2.0).abs() < 1e-12);
    }
}
