//! Tunables of the fault-tolerant factorization — the paper's three
//! optimizations plus verification thresholds.

/// Which detection-threshold family verification uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ToleranceModel {
    /// The historical hard-wired f64 thresholds — the byte-stable default
    /// (golden fixtures were captured against it). False-positives on
    /// honest f32 round-off; use [`ToleranceModel::Adaptive`] there.
    #[default]
    Fixed,
    /// Variance-based thresholds derived per verify from precision,
    /// accumulation depth, and observed column magnitude, with the gain
    /// [`crate::tolerance::ADAPTIVE_ALPHA`] and the magnitude floor
    /// [`crate::tolerance::ADAPTIVE_FLOOR`]. One
    /// parameterization serves both f64 and f32.
    Adaptive,
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
}

impl Default for BalanceOptions {
    fn default() -> Self {
        BalanceOptions {
            update_interval: 4,
            k_min: 1,
            k_max: 8,
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
    pub fn with_k_bounds(mut self, k_min: usize, k_max: usize) -> Self {
        self.k_min = k_min.max(1);
        self.k_max = k_max.max(self.k_min);
        self
    }
}

/// Configuration of multi-device sharding ([`crate::plan::shard`]): the
/// factorization's tiles are distributed row-cyclically over `devices`
/// simulated GPUs, with explicit peer-link broadcast nodes for the panel
/// and diagonal traffic and XOR parity for checksum-based device-loss
/// recovery. See DESIGN.md §12.
///
/// Sharding composes with `chk_fused` (a GEMM shard writes only rows its
/// device owns, and their checksum rows live there too, so every fused
/// deposit is local), with `Inline` placement (updates run on the owning
/// GPU's compute stream), with lookahead, with batching and with the
/// runtime feedback balancer (`balance`), whose law migrates no sharded
/// run, so it adapts `K` only. It does not compose with `Cpu`
/// placement, whose panel mirror would read rows homed on other devices
/// over one device's link; [`crate::validate_options`] refuses it. `Auto`
/// resolves to `Gpu` when sharded.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct ShardOptions {
    /// Number of devices `D` (clamped to ≥ 1). `D = 1` is a complete
    /// no-op: plan, schedule, and report stay byte-identical to the
    /// unsharded run.
    pub devices: usize,
}

impl ShardOptions {
    /// Sharding over `devices` GPUs.
    pub fn new(devices: usize) -> Self {
        ShardOptions {
            devices: devices.max(1),
        }
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
    /// golden equivalence is re-pinned for the fused path. Composes with
    /// sharding and with the balance controller.
    pub chk_fused: bool,
    /// Accumulate `verify.recalc_secs` (time on separate recalculation
    /// kernels) even without `chk_fused`, so an unfused run's report can
    /// sit next to a fused one in overhead comparisons. Off by default —
    /// the extra metric would break byte-identity with the golden
    /// fixtures. Implied by `chk_fused`.
    pub report_recalc_secs: bool,
    /// Runtime feedback load balancing with adaptive verification
    /// (`None` = static placement and fixed `K`, the byte-stable default).
    /// Balanced runs compose with `chk_fused` (a rewrite rebuilds the
    /// tail through the planner's passes, the fused one included), with
    /// sharding and with lookahead (the law then adapts `K` only, and a
    /// rewrite cuts at the first iteration none of whose nodes has issued).
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
    /// a sharded run resolves `Auto` to `Gpu` (updates stay on the owning
    /// GPUs), otherwise `Auto` becomes the analytic model's choice
    /// ([`crate::decision::choose`]); an explicit placement stays.
    pub fn resolved_for(
        &self,
        profile: &hchol_gpusim::profile::SystemProfile,
        n: usize,
        b: usize,
    ) -> AbftOptions {
        let placement = if self.shard_devices() > 1 && self.placement == ChecksumPlacement::Auto {
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

    /// Builder: switch to the variance-based adaptive tolerance (required
    /// for reliable detection at f32).
    pub fn with_adaptive_tolerance(mut self) -> Self {
        self.tolerance = ToleranceModel::Adaptive;
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
        let o = AbftOptions::default().with_shard(ShardOptions::new(4));
        assert_eq!(o.shard.as_ref().unwrap().devices, 4);
    }

    #[test]
    fn balance_builders_normalize_bounds() {
        let b = BalanceOptions::default()
            .with_update_interval(0)
            .with_k_bounds(6, 2);
        assert_eq!(b.update_interval, 1);
        assert_eq!((b.k_min, b.k_max), (6, 6));
        let o = AbftOptions::default().with_balance(b.clone());
        assert_eq!(o.balance, Some(b));
    }

    #[test]
    fn tolerance_model_defaults_to_fixed_policy() {
        let o = AbftOptions::default();
        assert_eq!(o.tolerance, ToleranceModel::Fixed);
        let o = o.with_adaptive_tolerance();
        assert_eq!(o.tolerance, ToleranceModel::Adaptive);
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
