//! Tunables of the fault-tolerant factorization — the paper's three
//! optimizations plus verification thresholds.

use crate::tolerance;
use crate::verify::VerifyPolicy;

/// Parameters of the variance-based adaptive tolerance model (see
/// [`crate::tolerance`] for the derivation): per verify, the detection
/// threshold is computed from the working precision's epsilon, the
/// accumulation depth recorded in the plan, and the column's running
/// magnitude statistic. One parameterization serves both f64 and f32.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveTolerance {
    /// Gain `α`: how many accumulated worst-case rounding errors a clean
    /// delta may span before it is flagged.
    pub alpha: f64,
    /// Magnitude floor, so an all-zero column (or a run with no captured
    /// statistics) still gets a sane absolute threshold.
    pub floor: f64,
}

impl Default for AdaptiveTolerance {
    fn default() -> Self {
        AdaptiveTolerance {
            alpha: tolerance::ADAPTIVE_ALPHA,
            floor: tolerance::ADAPTIVE_FLOOR,
        }
    }
}

/// Which detection-threshold family verification uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ToleranceModel {
    /// The historical hard-wired f64 thresholds — the byte-stable default
    /// (golden fixtures were captured against it). False-positives on
    /// honest f32 round-off; use [`ToleranceModel::Adaptive`] there.
    Fixed(VerifyPolicy),
    /// Variance-based thresholds derived per verify from precision,
    /// accumulation depth, and observed column magnitude.
    Adaptive(AdaptiveTolerance),
}

impl Default for ToleranceModel {
    fn default() -> Self {
        ToleranceModel::Fixed(VerifyPolicy::default())
    }
}

impl ToleranceModel {
    /// Short identifier for reports ("fixed" / "adaptive").
    pub fn name(&self) -> &'static str {
        match self {
            ToleranceModel::Fixed(_) => "fixed",
            ToleranceModel::Adaptive(_) => "adaptive",
        }
    }
}

/// Where checksum *updating* runs (the paper's Optimization 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumPlacement {
    /// Pre-Optimization-2 baseline: update checksums synchronously on the
    /// main compute stream, where they extend the critical path.
    Inline,
    /// Update checksums with slim GPU kernels on a dedicated stream.
    Gpu,
    /// Update checksums on otherwise-idle CPU worker lanes, paying the
    /// extra host↔device traffic the paper's `D_upd` term accounts for.
    Cpu,
    /// Decide per system with the estimation model in [`crate::decision`].
    Auto,
}

/// Configuration of the runtime feedback load balancer
/// ([`crate::plan::balance::BalanceController`]) — the dynamic counterpart
/// of [`crate::decision`]'s one-shot analytic placement choice.
///
/// The controller wakes at every `update_interval`-th iteration boundary,
/// reads the per-engine busy-time window from the simulator, and may (a)
/// migrate checksum updating between CPU and GPU and (b) move the verify
/// interval `K` within `[k_min, k_max]` from the observed fault rate. See
/// DESIGN.md §11 for the feedback law and its stability guard.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct BalanceOptions {
    /// Controller period in outer iterations (clamped to ≥ 1): the split is
    /// re-examined at iteration boundaries `j % update_interval == 0`.
    pub update_interval: usize,
    /// Lower bound of the adaptive verify interval (faults observed in a
    /// window drop `K` here).
    pub k_min: usize,
    /// Upper bound of the adaptive verify interval (`K` creeps up one step
    /// per fault-free window, never past this).
    pub k_max: usize,
    /// Hysteresis band for the placement flip: the utilization imbalance
    /// must exceed this fraction of the window before the controller
    /// migrates, so a borderline system does not oscillate.
    pub hysteresis: f64,
    /// After a placement switch, skip this many controller windows before
    /// allowing another switch (the second half of the stability guard).
    pub cooldown_windows: usize,
    /// Record a clone of the rewritten plan at every rewrite (tests feed
    /// them to `hchol-analyze`'s static checker to re-prove the ABFT
    /// contract after each mid-run rewrite). Off by default — clones are
    /// memory-heavy at paper scale.
    pub record_plans: bool,
}

impl Default for BalanceOptions {
    fn default() -> Self {
        BalanceOptions {
            update_interval: 4,
            k_min: 1,
            k_max: 8,
            hysteresis: 0.25,
            cooldown_windows: 1,
            record_plans: false,
        }
    }
}

impl BalanceOptions {
    /// Builder: set the controller period in iterations.
    pub fn with_update_interval(mut self, iters: usize) -> Self {
        self.update_interval = iters.max(1);
        self
    }

    /// Builder: set the adaptive-`K` bounds (order-normalized, `≥ 1`).
    // lint:allow(dead-pub) builder the balance and config-space suites bound K with
    pub fn with_k_bounds(mut self, k_min: usize, k_max: usize) -> Self {
        self.k_min = k_min.max(1);
        self.k_max = k_max.max(self.k_min);
        self
    }

    /// Builder: set the hysteresis band (negative clamps to 0, which
    /// disables the guard — useful only as a mutation control in tests).
    // lint:allow(dead-pub) balancer control the balancer's unit tests set
    pub fn with_hysteresis(mut self, band: f64) -> Self {
        self.hysteresis = band.max(0.0);
        self
    }

    /// Builder: set the post-switch cooldown in controller windows.
    // lint:allow(dead-pub) balancer control the balancer's unit tests set
    pub fn with_cooldown(mut self, windows: usize) -> Self {
        self.cooldown_windows = windows;
        self
    }

    /// Builder: record rewritten-plan snapshots for contract re-proof.
    // lint:allow(dead-pub) balancer control: the balance suite pins the plans it records
    pub fn with_record_plans(mut self, on: bool) -> Self {
        self.record_plans = on;
        self
    }
}

/// Configuration of multi-device sharding ([`crate::plan::shard`]): the
/// factorization's tiles are distributed row-cyclically over `devices`
/// simulated GPUs, with explicit peer-link broadcast nodes for the panel
/// and diagonal traffic and XOR parity for checksum-based device-loss
/// recovery. See DESIGN.md §12.
///
/// Known non-compositions (refused with an error by the scheme runners):
/// sharding does not compose with the runtime feedback balancer
/// (`balance`) — the controller's placement migration and plan rewrite
/// are single-device — nor with `chk_fused` (the fused epilogue deposits
/// checksums on the producing device, but a tile's checksum row lives on
/// the tile-row owner). Sharding with `devices > 1` also pins checksum
/// updating to the GPU: `ChecksumPlacement::Auto` resolves to `Gpu`, and
/// an explicit `Cpu`/`Inline` request is refused.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct ShardOptions {
    /// Number of devices `D` (clamped to ≥ 1). `D = 1` is a complete
    /// no-op: plan, schedule, and report stay byte-identical to the
    /// unsharded run.
    pub devices: usize,
    /// Test-only mutation control: drop the receive-side event sync of
    /// cross-device broadcasts, so consumers on other devices no longer
    /// wait for the peer-link transfer. Proves the schedule analyzer's
    /// cross-device RAW detection fires; never set outside tests.
    pub drop_recv_sync: bool,
}

impl ShardOptions {
    /// Sharding over `devices` GPUs.
    pub fn new(devices: usize) -> Self {
        ShardOptions {
            devices: devices.max(1),
            drop_recv_sync: false,
        }
    }

    /// Builder (tests only): drop receive-side broadcast ordering.
    // lint:allow(dead-pub) mutation control: the shard suite drops the recv sync
    pub fn with_drop_recv_sync(mut self, on: bool) -> Self {
        self.drop_recv_sync = on;
        self
    }
}

/// Configuration for the ABFT schemes.
#[derive(Debug, Clone)]
pub struct AbftOptions {
    /// Optimization 2: checksum-update placement.
    pub placement: ChecksumPlacement,
    /// Optimization 3: verify GEMM/TRSM inputs only on iterations divisible
    /// by `K` (SYRK inputs and the POTF2 block are always verified — errors
    /// there can break positive definiteness and fail-stop the run).
    pub verify_interval: usize,
    /// Optimization 1: spread checksum-recalculation kernels over many CUDA
    /// streams so they execute concurrently (`P = min(N, M)`); off means
    /// they serialize on the compute stream.
    pub concurrent_recalc: bool,
    /// Numeric thresholds for detection/location: the fixed f64 policy
    /// (byte-stable default) or the precision-aware adaptive model.
    pub tolerance: ToleranceModel,
    /// How many full restarts are allowed after uncorrectable corruption
    /// (the paper's recovery story: re-do the decomposition once).
    pub max_restarts: usize,
    /// Cross-iteration lookahead depth for the plan executor: issue any
    /// dependency-satisfied task up to this many iterations beyond the
    /// oldest unfinished one (0 = replay the authored order, the
    /// byte-stable default). Reordered runs skip per-scope spans, since
    /// authored scope nesting no longer reflects execution order.
    pub lookahead: usize,
    /// Keep every op in the op log for the timeline view (memory-heavy on
    /// big runs). With `trace_schedule` off too, the log keeps the ops and
    /// no ordering action: a timeline and an empty program view.
    pub record_timeline: bool,
    /// Keep the program view (ops with declared accesses, events, syncs)
    /// for `hchol-analyze`'s race and protocol-conformance checks. On by
    /// default; bench sweeps at paper scale turn it off.
    pub trace_schedule: bool,
    /// Fuse checksum recalculation into the SYRK/GEMM epilogue (Enhanced
    /// scheme only): the level-3 kernels deposit fresh checksums of the
    /// tiles they write in the same launch, and the verify batches whose
    /// tiles those kernels last wrote become compare-only — no separate
    /// recalculation kernels on the critical path. Off by default until
    /// golden equivalence is re-pinned for the fused path.
    pub chk_fused: bool,
    /// Accumulate `verify.recalc_secs` (time on separate recalculation
    /// kernels) even without `chk_fused`, so an unfused run's report can
    /// sit next to a fused one in overhead comparisons. Off by default —
    /// the extra metric would break byte-identity with the golden
    /// fixtures. Implied by `chk_fused`.
    pub report_recalc_secs: bool,
    /// Runtime feedback load balancing with adaptive verification
    /// (`None` = static placement and fixed `K`, the byte-stable default).
    /// Balanced runs execute in-order (`lookahead` must stay 0) and do not
    /// compose with `chk_fused` (the fused rewrite and the mid-run `K`
    /// rewrite would fight over the same verify batches).
    pub balance: Option<BalanceOptions>,
    /// Multi-device sharding (`None` = single device, the byte-stable
    /// default). See [`ShardOptions`] for what it composes with.
    pub shard: Option<ShardOptions>,
}

impl Default for AbftOptions {
    fn default() -> Self {
        AbftOptions {
            placement: ChecksumPlacement::Auto,
            verify_interval: 1,
            concurrent_recalc: true,
            tolerance: ToleranceModel::default(),
            max_restarts: 1,
            lookahead: 0,
            record_timeline: false,
            trace_schedule: true,
            chk_fused: false,
            report_recalc_secs: false,
            balance: None,
            shard: None,
        }
    }
}

impl AbftOptions {
    /// Is iteration `j` one on which GEMM/TRSM inputs get verified?
    pub fn verifies_on(&self, j: usize) -> bool {
        j.is_multiple_of(self.verify_interval.max(1))
    }

    /// Number of devices the run spans: `D` of [`ShardOptions`], `1` when
    /// unsharded — `D = 1` *is* the unsharded run.
    pub fn shard_devices(&self) -> usize {
        self.shard.as_ref().map_or(1, |s| s.devices)
    }

    /// These options with the placement resolved for a run of size `n`,
    /// block `b` on `profile` — what plans and [`crate::ops::setup`] take:
    /// a sharded run keeps checksum updating on the owning GPUs, otherwise
    /// `Auto` becomes the analytic model's choice
    /// ([`crate::decision::choose`]) and an explicit placement stays.
    pub fn resolved_for(
        &self,
        profile: &hchol_gpusim::profile::SystemProfile,
        n: usize,
        b: usize,
    ) -> AbftOptions {
        let placement = if self.shard_devices() > 1 {
            ChecksumPlacement::Gpu
        } else {
            crate::decision::choose(self.placement, profile, n, b, self.verify_interval)
        };
        AbftOptions {
            placement,
            ..self.clone()
        }
    }

    /// Builder: set the verification interval `K`.
    pub fn with_interval(mut self, k: usize) -> Self {
        self.verify_interval = k.max(1);
        self
    }

    /// Builder: set the checksum-update placement.
    pub fn with_placement(mut self, p: ChecksumPlacement) -> Self {
        self.placement = p;
        self
    }

    /// Builder: toggle Optimization 1.
    pub fn with_concurrent_recalc(mut self, on: bool) -> Self {
        self.concurrent_recalc = on;
        self
    }

    /// Builder: switch to the variance-based adaptive tolerance with its
    /// default parameters (required for reliable detection at f32).
    pub fn with_adaptive_tolerance(mut self) -> Self {
        self.tolerance = ToleranceModel::Adaptive(AdaptiveTolerance::default());
        self
    }

    /// Builder: set the plan executor's cross-iteration lookahead depth.
    pub fn with_lookahead(mut self, depth: usize) -> Self {
        self.lookahead = depth;
        self
    }

    /// Builder: toggle the fused checksum-recalculation epilogue.
    pub fn with_chk_fused(mut self, on: bool) -> Self {
        self.chk_fused = on;
        self
    }

    /// Builder: report separate-recalc time even on an unfused run.
    pub fn with_report_recalc_secs(mut self, on: bool) -> Self {
        self.report_recalc_secs = on;
        self
    }

    /// Builder: enable the runtime feedback load balancer.
    pub fn with_balance(mut self, b: BalanceOptions) -> Self {
        self.balance = Some(b);
        self
    }

    /// Builder: enable multi-device sharding.
    pub fn with_shard(mut self, s: ShardOptions) -> Self {
        self.shard = Some(s);
        self
    }

    /// Builder: all optimizations off (the paper's unoptimized baseline).
    pub fn unoptimized() -> Self {
        AbftOptions {
            placement: ChecksumPlacement::Inline,
            verify_interval: 1,
            concurrent_recalc: false,
            ..AbftOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_optimizations() {
        let o = AbftOptions::default();
        assert_eq!(o.placement, ChecksumPlacement::Auto);
        assert_eq!(o.verify_interval, 1);
        assert!(o.concurrent_recalc);
        assert_eq!(o.max_restarts, 1);
        assert!(o.trace_schedule);
        assert!(!o.record_timeline);
        // Fused epilogues stay opt-in until golden equivalence is re-pinned.
        assert!(!o.chk_fused);
        // Balancing is opt-in: default-path reports stay byte-identical.
        assert!(o.balance.is_none());
        // So is sharding.
        assert!(o.shard.is_none());
    }

    #[test]
    fn shard_builder_clamps_devices() {
        let s = ShardOptions::new(0);
        assert_eq!(s.devices, 1);
        assert!(!s.drop_recv_sync);
        let o = AbftOptions::default().with_shard(ShardOptions::new(4));
        assert_eq!(o.shard.as_ref().unwrap().devices, 4);
        let s = ShardOptions::new(2).with_drop_recv_sync(true);
        assert!(s.drop_recv_sync);
    }

    #[test]
    fn balance_builders_normalize_bounds() {
        let b = BalanceOptions::default()
            .with_update_interval(0)
            .with_k_bounds(6, 2)
            .with_hysteresis(-1.0);
        assert_eq!(b.update_interval, 1);
        assert_eq!((b.k_min, b.k_max), (6, 6));
        assert_eq!(b.hysteresis, 0.0);
        let o = AbftOptions::default().with_balance(b.clone());
        assert_eq!(o.balance, Some(b));
    }

    #[test]
    fn tolerance_model_defaults_to_fixed_policy() {
        let o = AbftOptions::default();
        assert_eq!(o.tolerance, ToleranceModel::Fixed(VerifyPolicy::default()));
        assert_eq!(o.tolerance.name(), "fixed");
        let o = o.with_adaptive_tolerance();
        assert_eq!(
            o.tolerance,
            ToleranceModel::Adaptive(AdaptiveTolerance::default())
        );
        assert_eq!(o.tolerance.name(), "adaptive");
    }

    #[test]
    fn chk_fused_builder() {
        let o = AbftOptions::default().with_chk_fused(true);
        assert!(o.chk_fused);
    }

    #[test]
    fn interval_gating() {
        let o = AbftOptions::default().with_interval(3);
        assert!(o.verifies_on(0));
        assert!(!o.verifies_on(1));
        assert!(!o.verifies_on(2));
        assert!(o.verifies_on(3));
        // zero clamps to 1
        let o = AbftOptions::default().with_interval(0);
        assert!(o.verifies_on(7));
    }

    #[test]
    fn builders_compose() {
        let o = AbftOptions::unoptimized()
            .with_placement(ChecksumPlacement::Cpu)
            .with_interval(5)
            .with_concurrent_recalc(true);
        assert_eq!(o.placement, ChecksumPlacement::Cpu);
        assert_eq!(o.verify_interval, 5);
        assert!(o.concurrent_recalc);
    }

    #[test]
    fn unoptimized_disables_opt1_and_inlines_updates() {
        let o = AbftOptions::unoptimized();
        assert!(!o.concurrent_recalc);
        assert_eq!(o.placement, ChecksumPlacement::Inline);
    }
}
