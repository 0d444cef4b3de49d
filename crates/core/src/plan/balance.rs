//! Runtime feedback load balancing with adaptive verification — the
//! dynamic counterpart of [`crate::decision`]'s one-shot analytic choice.
//!
//! The paper's Optimization 2 picks the checksum-update placement (CPU vs
//! GPU) once, from a closed-form model evaluated before the run. That
//! model is blind to anything it does not parameterize — a degraded
//! host↔device link (its `max` assumes the mirror traffic overlaps
//! perfectly), queue pressure from kernel co-residency, a profile that
//! simply mis-describes the machine. The [`BalanceController`] closes the
//! loop instead: every `update_interval` iterations it reads the last
//! window's per-engine busy time from the simulator
//! ([`hchol_gpusim::SimContext::engine_utilization`]), decides whether the
//! current split is still right, and — because every scheme executes a
//! [`FactorPlan`] — applies its decision by *re-planning the remaining
//! iterations*: the planner's own passes build the plan of the new
//! (placement, K) and its tail replaces the not-yet-executed one.
//!
//! Alongside placement, the controller adapts the paper's Optimization-3
//! verify interval `K` to the observed fault rate (the V-ABFT idea): a
//! fault recorded in the injector's ledger during a window snaps `K` to
//! `k_min`; each fault-free window relaxes it one step toward `k_max`.
//!
//! The feedback law, its hysteresis stability guard, and the K-adaptation
//! state machine are specified in DESIGN.md §11; the tests re-prove its
//! rewrite-safety argument on every plan rebuilt from a run's log.

use super::{FactorPlan, TaskKind};
use crate::options::{AbftOptions, BalanceOptions, ChecksumPlacement};
use crate::schemes::SchemeKind;
use hchol_gpusim::{EngineUtilization, EngineWindow};

/// One controller invocation: the signals it saw and the state it chose.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceDecision {
    /// Iteration boundary the controller fired at.
    pub at_iter: usize,
    /// GPU busy fraction of the window (0 when no window was available).
    pub gpu_util: f64,
    /// Per-lane CPU-worker busy fraction of the window.
    pub cpu_util: f64,
    /// DMA-lane busy fraction of the window (link pressure).
    pub dma_util: f64,
    /// Queue-delay fraction of the window.
    pub queue_frac: f64,
    /// Faults recorded in the injector's ledger during the window.
    pub window_faults: usize,
    /// Placement in force after this decision.
    pub placement: ChecksumPlacement,
    /// Verify interval in force after this decision.
    pub k: usize,
    /// Did this decision change the placement?
    pub switched: bool,
}

/// One mid-run rewrite: enough to rebuild the rewritten plan, since a
/// rewrite is a function of the plan before it and these three values
/// ([`BalanceController::rewrite`]).
#[derive(Debug, Clone)]
pub struct RewriteRecord {
    /// The cut: the first iteration of the rewritten tail.
    pub at_iter: usize,
    /// Verify interval the remaining iterations were re-gated to.
    pub k: usize,
    /// Placement the remaining iterations were rewritten for.
    pub placement: ChecksumPlacement,
}

/// Everything a balanced run leaves behind for reports and tests.
#[derive(Debug, Clone, Default)]
pub struct BalanceLog {
    /// Every controller invocation, in order.
    pub decisions: Vec<BalanceDecision>,
    /// Every rewrite, in order.
    pub rewrites: Vec<RewriteRecord>,
}

impl BalanceLog {
    /// Number of placement switches the controller applied.
    pub fn switches(&self) -> usize {
        self.decisions.iter().filter(|d| d.switched).count()
    }

    /// The largest verify interval the run ever used.
    pub fn max_k(&self) -> usize {
        self.decisions.iter().map(|d| d.k).max().unwrap_or(1)
    }
}

/// The stability guard (DESIGN.md §11.3): the utilization imbalance a
/// migration must exceed, and the wake-ups skipped after a switch.
const HYSTERESIS: f64 = 0.25;
const COOLDOWN_WINDOWS: usize = 1;

/// The feedback controller: owns the current (placement, K) state and the
/// hysteresis/cooldown stability guard, and asks the planner for the plan
/// of that state — whole ([`Self::plan`]) or as a new tail of a running
/// one ([`Self::rewrite`]).
///
/// The decision core ([`Self::step_window`]) is a pure state machine over
/// normalized window signals, so its law — including the oscillation
/// guard — is unit-testable without a simulator.
///
/// # Examples
///
/// ```
/// use hchol_core::options::{AbftOptions, BalanceOptions, ChecksumPlacement};
/// use hchol_core::plan::balance::BalanceController;
/// use hchol_core::schemes::SchemeKind;
/// use hchol_gpusim::EngineWindow;
///
/// let opts = AbftOptions::default()
///     .with_placement(ChecksumPlacement::Gpu)
///     .with_balance(BalanceOptions::default().with_k_bounds(1, 4));
/// let mut ctrl = BalanceController::new(SchemeKind::Enhanced, &opts);
/// assert_eq!(ctrl.k(), 1);
///
/// // A balanced, fault-free window: no switch, K relaxes one step.
/// let quiet = EngineWindow {
///     wall_secs: 1.0, gpu_util: 0.5, cpu_util: 0.5, dma_util: 0.1, queue_frac: 0.0,
/// };
/// let d = ctrl.step_window(4, Some(quiet), 0);
/// assert!(!d.switched);
/// assert_eq!(ctrl.k(), 2);
///
/// // Faults in the window snap K back to the lower bound.
/// ctrl.step_window(8, Some(quiet), 3);
/// assert_eq!(ctrl.k(), 1);
/// ```
#[derive(Debug)]
pub struct BalanceController {
    cfg: BalanceOptions,
    scheme: SchemeKind,
    /// The run's resolved options. `placement` and `verify_interval` are
    /// the controller's current state, so these are always the options of
    /// the plan that should be running.
    opts: AbftOptions,
    last_util: Option<EngineUtilization>,
    last_faults: usize,
    /// [`HYSTERESIS`] and [`COOLDOWN_WINDOWS`]; only the guard's tests vary them.
    hysteresis: f64,
    cooldown_windows: usize,
    cooldown: usize,
    log: BalanceLog,
}

impl BalanceController {
    /// Build the controller for a run of `scheme` under `opts`.
    ///
    /// `opts.balance` must be set and `opts.placement` resolved (no
    /// `Auto`). Both are asserted here because a violation is a driver
    /// bug, not a recoverable condition. Every other option composes
    /// (DESIGN.md §11.5): [`Self::rewrite`] builds the tail through every
    /// pass, the law migrates only an unsharded run in authored order, and
    /// the executor cuts where no node has issued.
    pub fn new(scheme: SchemeKind, opts: &AbftOptions) -> Self {
        let b = opts.balance.as_ref();
        let b = b.expect("BalanceController requires opts.balance");
        // The fields are public: a literal can skip `with_k_bounds`.
        let cfg = b.clone().with_k_bounds(b.k_min, b.k_max);
        assert_ne!(
            opts.placement,
            ChecksumPlacement::Auto,
            "balanced runs require a resolved starting placement"
        );
        let mut opts = opts.clone();
        opts.verify_interval = opts.verify_interval.clamp(cfg.k_min, cfg.k_max);
        BalanceController {
            cfg,
            scheme,
            opts,
            last_util: None,
            last_faults: 0,
            hysteresis: HYSTERESIS,
            cooldown_windows: COOLDOWN_WINDOWS,
            cooldown: 0,
            log: BalanceLog::default(),
        }
    }

    /// Placement currently in force.
    pub fn placement(&self) -> ChecksumPlacement {
        self.opts.placement
    }

    /// Verify interval currently in force.
    pub fn k(&self) -> usize {
        self.opts.verify_interval
    }

    /// Consume the controller, keeping its log.
    pub fn into_log(self) -> BalanceLog {
        self.log
    }

    /// Is iteration boundary `j` a controller wake-up?
    pub fn due(&self, j: usize) -> bool {
        j > 0 && j.is_multiple_of(self.cfg.update_interval.max(1))
    }

    /// Seed the window baseline (at attempt start) so the first wake-up
    /// sees a real utilization window instead of an empty one.
    pub fn prime(&mut self, util: &EngineUtilization, total_faults: usize) {
        self.last_util = Some(*util);
        self.last_faults = total_faults;
    }

    /// Difference cumulative counters against the previous wake-up and run
    /// the decision core. `total_faults` is the injector-ledger length
    /// (cumulative applied faults).
    pub fn observe(
        &mut self,
        at_iter: usize,
        util: &EngineUtilization,
        total_faults: usize,
    ) -> BalanceDecision {
        let window = self.last_util.as_ref().and_then(|l| util.window_since(l));
        self.last_util = Some(*util);
        let wf = total_faults.saturating_sub(self.last_faults);
        self.last_faults = total_faults;
        self.step_window(at_iter, window, wf)
    }

    /// The decision core — the feedback law of DESIGN.md §11.
    ///
    /// **K adaptation:** faults in the window snap `K` to `k_min`; a
    /// fault-free window relaxes it one step toward `k_max`.
    ///
    /// **Placement:** under CPU updating, migrate to the GPU when the
    /// engines feeding the host-side updates outrun the factorization by
    /// more than the hysteresis band — either the DMA lane carrying the
    /// panel mirrors (`dma_util - gpu_util > band`: the link is the
    /// bottleneck, the signature of a degraded PCIe link the closed-form
    /// model cannot see because its `max` assumes the mirror traffic
    /// overlaps) or the worker lanes themselves
    /// (`cpu_util - gpu_util > band`). Under GPU updating, migrate to the
    /// CPU when the device queue delay exceeds the band while the CPU
    /// lanes have at least that much headroom (Fermi-style false
    /// serialization observed live) — but only with link headroom for the
    /// mirror traffic a CPU placement adds (`dma_util <= band`); a busy
    /// link would just trade queue delay for transfer contention, which is
    /// also what stops the two arms from handing the placement back and
    /// forth. Inline placement never migrates — it models the
    /// pre-Optimization-2 baseline — and only an unsharded run in authored
    /// order migrates at all: a sharded plan cannot host CPU mirrors, and a
    /// lookahead window straddles iterations (DESIGN.md §11.5), so those
    /// runs adapt `K` alone. A switch arms a cooldown of `COOLDOWN_WINDOWS`
    /// (1) wake-ups during which no further switch is considered; together
    /// with the band (`HYSTERESIS`, 0.25) this is the oscillation guard.
    pub fn step_window(
        &mut self,
        at_iter: usize,
        window: Option<EngineWindow>,
        window_faults: usize,
    ) -> BalanceDecision {
        // K-adaptation state machine.
        self.opts.verify_interval = if window_faults > 0 {
            self.cfg.k_min
        } else {
            self.k().saturating_add(1).min(self.cfg.k_max)
        };

        // Placement feedback with the stability guard.
        use ChecksumPlacement::{Cpu, Gpu};
        let (w, band) = (window.unwrap_or_default(), self.hysteresis);
        let migrates = self.opts.shard_devices() == 1 && self.opts.lookahead == 0;
        let target = match self.placement() {
            _ if self.cooldown > 0 || window.is_none() || !migrates => None,
            Gpu if w.queue_frac > band && w.gpu_util - w.cpu_util > band && w.dma_util <= band => {
                Some(Cpu)
            }
            Cpu if w.dma_util - w.gpu_util > band || w.cpu_util - w.gpu_util > band => Some(Gpu),
            _ => None,
        };
        self.cooldown = target.map_or(self.cooldown.saturating_sub(1), |_| self.cooldown_windows);
        self.opts.placement = target.unwrap_or(self.opts.placement);
        let d = BalanceDecision {
            at_iter,
            gpu_util: w.gpu_util,
            cpu_util: w.cpu_util,
            dma_util: w.dma_util,
            queue_frac: w.queue_frac,
            window_faults,
            placement: self.placement(),
            k: self.k(),
            switched: target.is_some(),
        };
        self.log.decisions.push(d.clone());
        d
    }

    /// The plan of the controller's current (placement, K): what a run
    /// starts on, and what a restarted attempt is rebuilt as.
    pub fn plan(&self, nt: usize, faulty: bool) -> FactorPlan {
        super::for_scheme(self.scheme, nt, &self.opts, faulty)
    }

    /// Re-plan the not-yet-issued tail of `plan` (iterations
    /// `>= from_iter`) for the controller's current placement and `K`: the
    /// rewritten plan is the old one up to the first node of iteration
    /// `from_iter`, then what the planner's passes build for the current
    /// state from that iteration on (`FactorPlan::replace_tail`). Positions
    /// before the cut keep their nodes, so the executor's cursor stays
    /// valid; the position the new tail starts at is returned.
    ///
    /// The every-iteration SYRK/POTF2 checks are in every state's plan, so
    /// the plancheck K-relaxation contract (DESIGN.md §9.4) keeps holding.
    pub fn rewrite(&mut self, plan: &mut FactorPlan, from_iter: usize) -> usize {
        let fresh = super::for_scheme(self.scheme, plan.nt, &self.opts, plan.faulty);
        let at = plan.replace_tail(from_iter, &fresh);
        // Mirrors queued by an executed CPU-placement prefix still flush.
        plan.cpu_mirrors = plan
            .find(|n| matches!(n.kind, TaskKind::MirrorPanel { .. }))
            .is_some();
        self.log.rewrites.push(RewriteRecord {
            at_iter: from_iter,
            k: self.k(),
            placement: self.placement(),
        });
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ShardOptions;
    use crate::plan::for_scheme;

    fn opts_with(b: BalanceOptions) -> AbftOptions {
        AbftOptions::default()
            .with_placement(ChecksumPlacement::Gpu)
            .with_balance(b)
    }

    fn quiet(gpu: f64, cpu: f64, queue: f64) -> Option<EngineWindow> {
        window(gpu, cpu, 0.0, queue)
    }

    fn window(gpu: f64, cpu: f64, dma: f64, queue: f64) -> Option<EngineWindow> {
        Some(EngineWindow {
            wall_secs: 1.0,
            gpu_util: gpu,
            cpu_util: cpu,
            dma_util: dma,
            queue_frac: queue,
        })
    }

    #[test]
    fn k_never_leaves_bounds() {
        let opts = opts_with(BalanceOptions::default().with_k_bounds(2, 5));
        let mut ctrl = BalanceController::new(SchemeKind::Enhanced, &opts);
        assert_eq!(ctrl.k(), 2, "starting K clamps into the bounds");
        for i in 1..50 {
            let faults = usize::from(i % 7 == 0) * 3;
            ctrl.step_window(i, quiet(0.5, 0.5, 0.0), faults);
            assert!(
                (2..=5).contains(&ctrl.k()),
                "K={} escaped [2, 5] at window {i}",
                ctrl.k()
            );
        }
        // Quiet windows saturate at k_max; a fault snaps back to k_min.
        for i in 50..60 {
            ctrl.step_window(i, quiet(0.5, 0.5, 0.0), 0);
        }
        assert_eq!(ctrl.k(), 5);
        ctrl.step_window(60, quiet(0.5, 0.5, 0.0), 1);
        assert_eq!(ctrl.k(), 2);
        // A quiet window at the largest K keeps it there.
        let opts = opts_with(BalanceOptions::default().with_k_bounds(usize::MAX, usize::MAX));
        let mut ctrl = BalanceController::new(SchemeKind::Enhanced, &opts);
        ctrl.step_window(1, quiet(0.5, 0.5, 0.0), 0);
        assert_eq!(ctrl.k(), usize::MAX);
    }

    /// Mutation control for the stability guard: a borderline system whose
    /// signals alternate just past zero makes a guard-less controller
    /// (hysteresis 0, no cooldown) flip on every window, while the default
    /// band absorbs the same signals without a single switch.
    #[test]
    fn oscillating_controller_is_caught_by_the_hysteresis_guard() {
        let drive = |guard: Option<(f64, usize)>| {
            let opts = opts_with(BalanceOptions::default());
            let mut ctrl = BalanceController::new(SchemeKind::Enhanced, &opts);
            if let Some((band, cooldown)) = guard {
                (ctrl.hysteresis, ctrl.cooldown_windows) = (band, cooldown);
            }
            for i in 1..=10 {
                let w = if ctrl.placement() == ChecksumPlacement::Gpu {
                    // Slight device pressure, idle link: an eager
                    // controller flees.
                    window(0.60, 0.40, 0.0, 0.05)
                } else {
                    // Slight link pressure: an eager controller flees back.
                    window(0.40, 0.05, 0.45, 0.0)
                };
                ctrl.step_window(i, w, 0);
            }
            ctrl.into_log().switches()
        };
        let unguarded = drive(Some((0.0, 0)));
        assert_eq!(unguarded, 10, "the mutation must oscillate every window");
        let guarded = drive(None);
        assert_eq!(guarded, 0, "the default band absorbs borderline signals");
    }

    #[test]
    fn cooldown_spaces_out_switches() {
        let opts = opts_with(BalanceOptions::default());
        let mut ctrl = BalanceController::new(SchemeKind::Enhanced, &opts);
        (ctrl.hysteresis, ctrl.cooldown_windows) = (0.1, 2);
        // Strong, persistent pressure in alternating directions: without a
        // cooldown this would flip every window.
        let mut flips = Vec::new();
        for i in 1..=6 {
            let w = if ctrl.placement() == ChecksumPlacement::Gpu {
                quiet(0.9, 0.1, 0.5)
            } else {
                quiet(0.1, 0.9, 0.0)
            };
            flips.push(ctrl.step_window(i, w, 0).switched);
        }
        assert_eq!(flips, [true, false, false, true, false, false]);
    }

    /// Only an unsharded run in authored order migrates, and never from
    /// Inline: five windows that move such a GPU controller to the CPU
    /// (once; the idle host keeps it there) leave Inline, sharded and
    /// lookahead controllers in place, adapting `K` alone.
    #[test]
    fn only_an_unsharded_in_order_run_migrates() {
        use ChecksumPlacement::{Cpu, Gpu, Inline};
        let gpu = opts_with(BalanceOptions::default());
        let inline = AbftOptions::unoptimized().with_balance(BalanceOptions::default());
        let sharded = gpu.clone().with_shard(ShardOptions::new(2));
        let lookahead = gpu.clone().with_lookahead(2);
        for (opts, want) in [
            (gpu, Cpu),
            (inline, Inline),
            (sharded, Gpu),
            (lookahead, Gpu),
        ] {
            let mut ctrl = BalanceController::new(SchemeKind::Enhanced, &opts);
            for i in 1..=5 {
                let d = ctrl.step_window(i, quiet(0.95, 0.05, 0.8), 0);
                assert_eq!(d.switched, want == Cpu && i == 1, "{opts:?}, window {i}");
                assert_eq!((d.placement, d.k), (want, i + 1), "{opts:?}");
            }
        }
    }

    /// A rewrite changes future iterations only: panel mirrors and K-gated
    /// GEMM checks follow the state in force from each rewrite's iteration
    /// on, and every position before the cut keeps its node — what the
    /// executor's cursor relies on. The log records each rewrite.
    #[test]
    fn rewrite_changes_only_future_iterations() {
        let nt = 9;
        let opts = opts_with(BalanceOptions::default().with_k_bounds(1, 3));
        let mut plan = for_scheme(SchemeKind::Enhanced, nt, &opts, false);
        let mut ctrl = BalanceController::new(SchemeKind::Enhanced, &opts);
        let mirror = |plan: &FactorPlan, j| {
            plan.find(|n| n.kind == TaskKind::MirrorPanel { j })
                .is_some()
        };
        let gemm_check = |plan: &FactorPlan, j| {
            let want = crate::plan::policy::gemm_input_tiles(nt, j);
            plan.find(|n| matches!(&n.kind, TaskKind::VerifyBatch { tiles, .. } if *tiles == want))
                .is_some()
        };
        // Device pressure then a quiet window: CPU placement, K = 3.
        ctrl.step_window(2, quiet(0.9, 0.1, 0.6), 0);
        ctrl.step_window(4, quiet(0.5, 0.5, 0.0), 0);
        assert_eq!((ctrl.placement(), ctrl.k()), (ChecksumPlacement::Cpu, 3));
        let first = plan.find(|n| n.iter == Some(4)).unwrap();
        let cut = plan.order().iter().position(|&id| id == first).unwrap();
        let kept = plan.order()[..cut].to_vec();
        ctrl.rewrite(&mut plan, 4);
        assert_eq!(plan.order()[..cut], kept);
        assert!(plan.cpu_mirrors);
        for j in 1..(nt - 1) {
            assert_eq!(mirror(&plan, j), j >= 4, "CPU from 4, iteration {j}");
            let gated = j < 4 || j.is_multiple_of(3);
            assert_eq!(gemm_check(&plan, j), gated, "K=3 from 4, iteration {j}");
        }
        // Host pressure and a fault: back to the GPU, K snaps to 1.
        ctrl.step_window(6, quiet(0.1, 0.9, 0.0), 1);
        assert_eq!((ctrl.placement(), ctrl.k()), (ChecksumPlacement::Gpu, 1));
        ctrl.rewrite(&mut plan, 6);
        for j in 1..(nt - 1) {
            assert_eq!(
                mirror(&plan, j),
                (4..6).contains(&j),
                "GPU from 6, iteration {j}"
            );
            assert_eq!(
                gemm_check(&plan, j),
                !(4..6).contains(&j),
                "K=1 from 6, iteration {j}"
            );
        }
        // The log keeps each rewrite's (cut, K, placement).
        let log = ctrl.into_log().rewrites;
        let got: Vec<_> = log.iter().map(|r| (r.at_iter, r.k, r.placement)).collect();
        use ChecksumPlacement::{Cpu, Gpu};
        assert_eq!(got, [(4, 3, Cpu), (6, 1, Gpu)]);
    }
}
