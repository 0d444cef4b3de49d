//! # hchol-analyze
//!
//! Static analysis for the workspace, in two halves:
//!
//! * [`schedule`] — a vector-clock happens-before sweep over the program
//!   view of the [`hchol_gpusim::OpLog`] a driver records: block-granular race
//!   detection (RAW/WAR/WAW between unordered stream/CPU/DMA operations)
//!   plus per-scheme ABFT **protocol conformance** — offline encodes once
//!   and verifies at the end, online verifies every block after writing it,
//!   enhanced verifies every block before reading it. One linear sweep,
//!   cheap enough that every driver test checks its own schedule.
//! * [`lint`] — token-level source lints run by `cargo run -p hchol-analyze
//!   --bin lint`: `// SAFETY:` comments on every `unsafe` block,
//!   observability name literals cross-checked against
//!   [`hchol_obs::names`], wall-clock APIs forbidden outside the
//!   simulator, and every library `pub` item named by some non-test
//!   caller — seventeen rules in all.
//! * [`plancheck`] — **static** ABFT-contract checking of a
//!   [`hchol_core::plan::FactorPlan`] over its dependency edges, before
//!   anything executes (`cargo run -p hchol-analyze --bin plan_check`).
//!   A clean plan check covers every schedule the plan executor may
//!   legally choose (in-order, lookahead, batched), where the
//!   [`schedule`] sweep covers the one schedule that actually ran.
//! * [`coverage`] — a **fault-coverage model checker** over the same plan
//!   IR: enumerate every injectable fault site (injection point × tile ×
//!   species, plus device-loss sites on sharded plans) and statically
//!   prove each one a rung of the coverage lattice — corrected in place,
//!   detected + restarted, parity-reconstructed, or uncovered — plus a
//!   peak-resource bound (`cargo run -p hchol-analyze --bin
//!   coverage_check`).
//! * [`liveness`] — **deadlock-freedom and receive-completeness** for the
//!   executor's induced orderings: plan edges unioned with the
//!   host-blocking/lookahead edges the executor superimposes stay
//!   acyclic, and every cross-device broadcast is sent, received, and
//!   consumed behind its recv→send chain (`cargo run -p hchol-analyze
//!   --bin liveness_check`).
//!
//! Findings are exported through the versioned `hchol-obs` report envelope
//! ([`report`]), so analyzer output is consumed like any other run
//! artifact. See `DESIGN.md` §8 and §13.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
mod index;
pub mod lint;
pub mod liveness;
pub mod plancheck;
pub mod report;
pub mod schedule;

pub use coverage::{
    check_coverage, check_scheme_coverage, Coverage, CoverageReport, CoverageSummary, LossVerdict,
    ResourceBound, SiteVerdict,
};
pub use lint::{lint_workspace, Lint};
pub use liveness::{check_liveness, detect_cycle, LivenessFinding, LivenessReport};
pub use plancheck::{check_plan, check_scheme_plan, PlanCheck, PlanViolation};
pub use report::AnalysisReport;
pub use schedule::{
    analyze_outcome, analyze_schedule, analyze_with_protocol, drop_recv_waits, Protocol, Race,
    RaceKind, ScheduleAnalysis, Violation,
};

use hchol_core::options::{AbftOptions, ChecksumPlacement, ShardOptions};
use hchol_core::schemes::SchemeKind;

/// The configuration cross the static sweeps (`plan_check`,
/// `coverage_check`, `liveness_check`) iterate for `kind`: verify interval
/// `K ∈ {1, 4}` × fused checksum epilogues (Enhanced only; the other
/// schemes ignore the flag) × placement `{Gpu, Cpu, Inline}` × shard grid
/// `D ∈ {1, 2, 4}`, nested in that order. It includes the combinations
/// [`hchol_core::validate_options`] refuses: `coverage_check` counts them
/// as refused, `plan_check` and `liveness_check` skip them.
pub fn config_cross(kind: SchemeKind) -> impl Iterator<Item = AbftOptions> {
    let fused = if kind == SchemeKind::Enhanced {
        &[false, true][..]
    } else {
        &[false][..]
    };
    let placements = [
        ChecksumPlacement::Gpu,
        ChecksumPlacement::Cpu,
        ChecksumPlacement::Inline,
    ];
    [1usize, 4].into_iter().flat_map(move |k| {
        fused.iter().flat_map(move |&fused| {
            placements.into_iter().flat_map(move |placement| {
                [1usize, 2, 4].into_iter().map(move |d| {
                    let opts = AbftOptions::default()
                        .with_interval(k)
                        .with_chk_fused(fused)
                        .with_placement(placement);
                    if d > 1 {
                        opts.with_shard(ShardOptions::new(d))
                    } else {
                        opts
                    }
                })
            })
        })
    })
}
