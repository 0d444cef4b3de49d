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

impl Slot {
    /// Is the interval running at point `p`? Active on `[start, end)`,
    /// fuzzed by `EPS` on both edges.
    fn live_at(&self, p: f64) -> bool {
        self.iv.start <= p + EPS && p < self.iv.end - EPS
    }
}

/// The last placement, for the next one's walk to resume from (see
/// [`KernelScheduler::first_fit`]): what it placed, where, and the sweep's
/// cursor at that start — the first interval ending after it, counting the
/// placed one.
#[derive(Debug, Clone, Copy)]
struct Last {
    earliest: f64,
    duration: f64,
    resource: f64,
    start: f64,
    w: usize,
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
    /// live at one point, in issue order. Kept here so placing allocates
    /// nothing once warm.
    live: Vec<(u64, f64)>,
    /// The intervals live at the sweep's latest candidate start; after a
    /// placement, those live at its start, itself included.
    at_start: Vec<(u64, f64)>,
    /// `at_start` of the last placement, while the next one walks.
    last_live: Vec<(u64, f64)>,
    /// The last placement, unless a prune came after it.
    last: Option<Last>,
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
            at_start: Vec::new(),
            last_live: Vec::new(),
            last: None,
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

        std::mem::swap(&mut self.at_start, &mut self.last_live);
        let (start, w) = self.first_fit(e, d, resource);
        let slot = Slot {
            iv: Interval {
                start,
                end: start + d,
                resource,
            },
            seq: self.next_seq,
        };
        let at = gallop_back(self.active.make_contiguous(), |s| s.iv.end <= slot.iv.end);
        self.active.insert(at, slot);
        if slot.live_at(start) {
            self.at_start.push((slot.seq, resource));
        }
        // The new interval ends before the cursor at `start` only if it
        // ends there too.
        self.last = Some(Last {
            earliest: e,
            duration: d,
            resource,
            start,
            w: w + usize::from(slot.iv.end <= start),
        });
        self.next_seq += 1;
        self.busy_integral += d * resource;
        (SimTime::secs(start), SimTime::secs(slot.iv.end))
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
    ///
    /// A verification batch launches like kernels back to back, and each
    /// would walk every end queued before it. It need not: the last
    /// placement refuted every candidate below its start, and for a kernel
    /// of the same duration and share whose `e` is no earlier, each such
    /// candidate is one of the last kernel's too and stays refuted (usage
    /// and count at a point only grow as intervals are added). So a point
    /// that fails below the last start jumps straight to it, with the set
    /// live there kept from the last placement. `e` itself is still tried
    /// first, unless it is the last kernel's own `e` and was refuted there:
    /// any other `e` need not have been the last kernel's candidate. A
    /// prune drops intervals a refutation may rest on, so it forgets the
    /// last start.
    fn first_fit(&mut self, e: f64, d: f64, resource: f64) -> (f64, usize) {
        let KernelScheduler {
            active,
            live,
            at_start,
            last_live,
            last,
            max_concurrent,
            ..
        } = self;
        let jump = last.filter(|l| l.duration == d && l.resource == resource && e >= l.earliest);
        // One slice, not the deque's two halves: every point reads it.
        let active: &[Slot] = active.make_contiguous();
        // Resume at the last start, where the last walk ended.
        let resume = |l: Last, live: &mut Vec<(u64, f64)>| {
            probe_visited(last_live.len());
            live.clone_from(last_live);
            (l.start, l.start, l.w)
        };
        let (mut t, mut p, mut w) = match jump.filter(|l| l.earliest == e && l.start > e) {
            Some(l) => resume(l, live),
            None => {
                let w = gallop_back(active, |s| s.iv.end <= e);
                gather(live, &active[w..], e);
                (e, e, w)
            }
        };
        let mut at_w = w;
        loop {
            if p == t {
                at_start.clone_from(live);
                at_w = w;
            }
            let usage = live.iter().fold(0.0, |usage, &(_, r)| usage + r);
            let next_end = active.get(w).map_or(f64::INFINITY, |s| s.iv.end);
            if usage + resource <= 1.0 + EPS && live.len() < *max_concurrent {
                probe_visited(active.len() - w);
                let starts = active[w..].iter().map(|s| s.iv.start);
                p = starts.filter(|&s| s > p).fold(next_end, f64::min);
                if p >= t + d {
                    return (t, at_w);
                }
            } else if let Some(l) = jump.filter(|l| l.start > p) {
                (t, p, w) = resume(l, live);
                continue;
            } else {
                // Something is live at `p`, so it ends after `p`.
                t = next_end;
                p = t;
            }
            while active.get(w).is_some_and(|s| s.iv.end <= p) {
                w += 1;
            }
            gather(live, &active[w..], p);
        }
    }

    /// Drop intervals that can no longer influence placement (everything
    /// ending at or before `horizon`). Call with the host clock after syncs.
    pub fn prune(&mut self, horizon: SimTime) {
        let h = horizon.as_secs();
        let keep_from = self.active.partition_point(|s| s.iv.end <= h);
        self.active.drain(..keep_from);
        self.last = None;
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

/// Set `live` to `(seq, resource)` of the intervals of `suffix` live at
/// `p`, in issue order: float addition does not commute to the last bit,
/// so the usage is summed in the order the oracle sums it.
fn gather(live: &mut Vec<(u64, f64)>, suffix: &[Slot], p: f64) {
    live.clear();
    live.extend(
        suffix
            .iter()
            .filter(|s| s.live_at(p))
            .map(|s| (s.seq, s.iv.resource)),
    );
    probe_visited(suffix.len());
    live.sort_unstable_by_key(|&(seq, _)| seq);
}

/// `v.partition_point(pred)`, galloping from the back: `O(log k)` for an
/// answer `k` slots from the end. A launch's earliest start usually lies
/// past nearly every tracked interval (its stream runs ahead of the host
/// clock the prunes follow), and a new interval usually ends last.
fn gallop_back(v: &[Slot], pred: impl Fn(&Slot) -> bool) -> usize {
    let (mut hi, mut step) = (v.len(), 1);
    // No slot from `hi` on satisfies `pred`.
    while hi > 0 {
        let probe = hi.saturating_sub(step);
        if pred(&v[probe]) {
            return probe + 1 + v[probe + 1..hi].partition_point(&pred);
        }
        (hi, step) = (probe, 2 * step);
    }
    0
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

    /// Both schedulers side by side: each launch and prune goes to both,
    /// and every `(start, end)`, `tracked()` and `busy_integral()` must
    /// agree to the bit.
    struct Both {
        new: KernelScheduler,
        old: Oracle,
        step: usize,
    }

    impl Both {
        fn new(cap: usize) -> Self {
            Both {
                new: KernelScheduler::new(cap),
                old: Oracle::new(cap),
                step: 0,
            }
        }

        /// Place on both; the kernel's end.
        fn place(&mut self, e: f64, d: f64, r: f64) -> Result<f64, TestCaseError> {
            let (n, o) = (self.new.place(t(e), t(d), r), self.old.place(t(e), t(d), r));
            let bits = |(s, e): (SimTime, SimTime)| (s.as_secs().to_bits(), e.as_secs().to_bits());
            prop_assert_eq!(
                bits(n),
                bits(o),
                "step {}: new {:?} vs old {:?}",
                self.step,
                n,
                o
            );
            self.agree()?;
            Ok(n.1.as_secs())
        }

        fn prune(&mut self, h: f64) -> Result<(), TestCaseError> {
            self.new.prune(t(h));
            self.old.prune(t(h));
            self.agree()
        }

        fn agree(&mut self) -> Result<(), TestCaseError> {
            let step = self.step;
            prop_assert_eq!(self.new.tracked(), self.old.active.len(), "step {}", step);
            let integrals = (self.new.busy_integral(), self.old.busy_integral);
            prop_assert_eq!(
                integrals.0.to_bits(),
                integrals.1.to_bits(),
                "step {}",
                step
            );
            self.step += 1;
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4096 }))]

        /// New against old on batch-shaped streams, the shape the walk's
        /// jump to the last start serves: runs of launches alike in
        /// duration and share, as a verification batch issues them, with
        /// a non-decreasing host clock on the EPS-offset grid of
        /// `grid_time`. Each run begins after a prune at the host clock, or
        /// past it (so its launches start behind the horizon), or none; each
        /// launch moves the clock on by zero or one grid step and starts no
        /// earlier than it and its stream's frontier, over one to three
        /// streams. In release builds a jump that skips trying `e` fails
        /// here at case 3776. The two streams a jump without its guards
        /// failed on are replayed beside it
        /// (`unguarded_jump_counterexamples_match_the_oracle`).
        #[test]
        fn batch_shaped_streams_match_the_oracle_bit_for_bit(
            cap in 1usize..9,
            runs in collection::vec(
                (
                    (0usize..3, 0usize..12, 0usize..4, 0usize..4, 1usize..4, 0.0f64..1.0),
                    collection::vec((0usize..2, 0usize..6), 1..16),
                ),
                1..6,
            ),
        ) {
            let mut both = Both::new(cap);
            let (mut host, mut ready) = (0.0f64, [0.0f64; 3]);
            for ((prune, k0, dur, res, streams, free), launches) in &runs {
                let mut k = *k0;
                host = host.max(grid_time(k, 0, 0.0));
                match prune {
                    0 => both.prune(host)?,
                    1 => both.prune(host + 0.5)?,
                    _ => {}
                }
                let d = [0.25, 1.0, 0.25 + EPS, 0.5 - EPS / 2.0][*dur];
                let r = [0.25, 0.5, 1.0, 0.33][*res];
                for (i, &(step, off)) in launches.iter().enumerate() {
                    k += step;
                    host = host.max(grid_time(k, off, *free));
                    let s = i % streams;
                    ready[s] = both.place(host.max(ready[s]), d, r)?;
                }
            }
        }
    }

    /// The two streams of `ordered_scheduler_matches_the_oracle_bit_for_bit`
    /// (seed 0x31115a37e8858409, cases 157 and 3471) on which a jump to the
    /// last start without its guards broke, up to the launch that broke:
    /// one kept the last start across a prune, and a launch behind the
    /// horizon (1.50036…) went to 2.500000002; the other skipped trying `e`
    /// itself, and a kernel whose `e` (5.25) the last kernel never tried
    /// went to that kernel's start, 5.250000001.
    #[test]
    fn unguarded_jump_counterexamples_match_the_oracle() {
        enum Op {
            Place(f64, f64, f64),
            Prune(f64),
        }
        use Op::{Place, Prune};
        let across_a_prune = [
            Place(0.6787539553544906, 1.0, 0.1),
            Place(4.2499999995, 0.5, 0.1),
            Place(0.499999999, 0.25, 0.93),
            Place(5.749999999, 0.3114049746048084, 0.33),
            Place(2.250000001, 0.250000001, 0.07),
            Place(3.250000001, 0.250000001, 0.93),
            Place(3.493611785367019, 0.25, 0.25),
            Place(1.249999999, 0.5, 1.7),
            Prune(5.639308577520907),
            Place(1.5003682436851231, 0.5, 1.7),
        ];
        let untried_e = [
            Place(1.9036236695531612, 0.9217420173189668, 0.93),
            Place(1.0000000005, 0.5000000005, 1e-12),
            Place(4.7500000005, 0.5000000005, 1.0),
            Place(5.0000000005, 1.0, 0.25),
            Place(5.25, 1.0, 0.25),
        ];
        for (cap, ops, last) in [
            (2, &across_a_prune[..], 1.5003682436851231),
            (8, &untried_e[..], 5.25),
        ] {
            let mut both = Both::new(cap);
            let mut start = 0.0;
            for op in ops {
                match *op {
                    Place(e, d, r) => start = both.place(e, d, r).unwrap() - d.max(0.0),
                    Prune(h) => both.prune(h).unwrap(),
                }
            }
            assert_eq!(start, last, "cap {cap}");
        }
    }

    /// The deterministic scaling guard: a launch looks at a bounded number
    /// of intervals however many are tracked; the oracle's first point
    /// alone scans all `tracked()` of them. Two queues, never pruned:
    /// eight round-robin streams of 10 000 quarter-device kernels, and a
    /// batch of 10 000 quarter-device kernels launched at one earliest
    /// start behind one long full-device kernel, so the k-th queues behind
    /// k others. Each walk reads the suffix past its points and the live
    /// sets it resumes from; the bound is the one the sweep before the
    /// jump was held to. The worst launch visits 6 on each. Were every
    /// launch to try its `e` first, the batch's worst would visit every
    /// queued kernel (10 006).
    #[test]
    fn a_launch_visits_a_bounded_number_of_intervals_on_a_deep_queue() {
        const PER_LAUNCH_BOUND: usize = 20;
        let visits = |s: &mut KernelScheduler, e: SimTime, d: f64, r: f64| {
            VISITED.with(|v| v.set(0));
            let (_, end) = s.place(e, t(d), r);
            (end, VISITED.with(Cell::get))
        };
        let mut s = KernelScheduler::new(16);
        let mut stream_ready = [SimTime::ZERO; 8];
        let mut worst = 0;
        for k in 0..10_000 {
            let (end, n) = visits(&mut s, stream_ready[k % 8], 1.0, 0.25);
            stream_ready[k % 8] = end;
            worst = worst.max(n);
        }
        assert_eq!(s.tracked(), 10_000);
        let mut batch = KernelScheduler::new(16);
        batch.place(SimTime::ZERO, t(100.0), 1.0);
        let mut batch_worst = 0;
        for _ in 0..10_000 {
            let (_, n) = visits(&mut batch, t(1e-6), 1.0, 0.25);
            batch_worst = batch_worst.max(n);
        }
        assert_eq!(batch.tracked(), 10_001);
        assert!(
            worst.max(batch_worst) <= PER_LAUNCH_BOUND,
            "a launch visited {worst} intervals on the streams, {batch_worst} in the batch"
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
