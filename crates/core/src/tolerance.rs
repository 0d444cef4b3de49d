//! The workspace's single home for numeric detection/location tolerances.
//!
//! Every epsilon-flavored constant that separates rounding drift from a
//! genuine fault lives here, expressed relative to the machine epsilon of
//! the working precision ([`hchol_matrix::Scalar::EPSILON`]). The `lint`
//! binary of `hchol-analyze` enforces that no bare epsilon literal (`1e-9`,
//! `1e-12`, …) appears in non-test code outside this module, so a future
//! precision cannot silently inherit thresholds calibrated for another one.
//!
//! Two tolerance families coexist (selected by
//! [`crate::options::ToleranceModel`]):
//!
//! * **Fixed** — the paper's hard-wired f64 thresholds ([`FIXED_ABS_TOL`],
//!   [`FIXED_REL_TOL`]). Kept bit-exact for the golden-equivalence
//!   fixtures; meaningless at f32, where honest round-off exceeds them.
//! * **Adaptive** — variance-based thresholds derived per verify from the
//!   working precision's epsilon, the length of the accumulation path that
//!   produced the checksum sums, and the observed magnitude of the column
//!   ([`adaptive_threshold`]). One model serves both precisions.

/// Absolute floor of the fixed detection threshold. Calibrated for f64:
/// ≈ `4.5e6 · ε₆₄`, far above the drift of any accumulation path in the
/// factorization yet far below every injected-fault magnitude.
pub const FIXED_ABS_TOL: f64 = 1e-9;

/// Relative component of the fixed detection threshold
/// (`threshold = abs + rel · scale`). ≈ `4.5e8 · ε₆₄`.
pub const FIXED_REL_TOL: f64 = 1e-7;

/// How far the locate ratio `δ₂/δ₁` may sit from an integer before the
/// column is declared uncorrectable (the fixed policy's absolute snap).
pub const LOCATE_SNAP: f64 = 0.05;

/// Ceiling on the precision-scaled snap tolerance: past this the window
/// would overlap the midpoint between adjacent integer rows and location
/// becomes ambiguous, so wider uncertainty means "uncorrectable".
pub const LOCATE_SNAP_MAX: f64 = 0.45;

/// Slack on exact-arithmetic identities in the analytic models
/// (`decision`): a ratio that should be ≤ 1 in exact math may exceed it by
/// this much rounding. ≈ `4.5e3 · ε₆₄`.
pub const MODEL_UNIT_SLACK: f64 = 1e-12;

/// Gain `α` of the adaptive threshold: how many accumulated worst-case
/// rounding errors a delta may span before it is flagged.
pub const ADAPTIVE_ALPHA: f64 = 8.0;

/// Magnitude floor of the adaptive threshold, so a column of
/// zeros (or a TimingOnly run with no statistics) still gets a sane
/// absolute threshold.
pub const ADAPTIVE_FLOOR: f64 = 1.0;

/// Variance-based adaptive detection threshold for one checksum delta:
///
/// ```text
/// τ = α · ε · steps · max(magnitude, floor)
/// ```
///
/// where `steps` is the length of the accumulation path that produced the
/// compared sums (encode plus every mirrored update — `b·(depth+1)` for a
/// tile verified at iteration `depth`) and `magnitude` bounds the
/// intermediate values flowing through that path (the running column
/// statistic `b · max|x|`, which dominates the *observed* sum whenever
/// cancellation shrank it). Each of the `steps` flops contributes at most
/// `ε · magnitude` of rounding, so any delta beyond `α` of those is a
/// fault, not drift — at either precision.
pub fn adaptive_threshold(eps: f64, steps: f64, magnitude: f64) -> f64 {
    ADAPTIVE_ALPHA * eps * steps * magnitude.max(ADAPTIVE_FLOOR)
}

/// Precision-scaled integer-snap tolerance for the locate ratio test.
///
/// The ratio `δ₂/δ₁` inherits the relative rounding error of both deltas,
/// amplified by up to `rows` (the largest weight in `chk₂`); at f32 that
/// error routinely exceeds the fixed [`LOCATE_SNAP`], misattributing the
/// fault row. The snap therefore widens with `ε · steps · rows`, clamped
/// at [`LOCATE_SNAP_MAX`] to keep adjacent rows distinguishable.
pub fn adaptive_locate_snap(eps: f64, steps: f64, rows: usize) -> f64 {
    (LOCATE_SNAP + ADAPTIVE_ALPHA * eps * steps * rows as f64).min(LOCATE_SNAP_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_constants_match_historical_policy() {
        // The golden fixtures were captured against these exact values.
        assert_eq!(FIXED_ABS_TOL, 1e-9);
        assert_eq!(FIXED_REL_TOL, 1e-7);
        assert_eq!(LOCATE_SNAP, 0.05);
    }

    #[test]
    fn adaptive_threshold_scales_with_precision() {
        let t64 = adaptive_threshold(f64::EPSILON, 64.0, 10.0);
        let t32 = adaptive_threshold(f32::EPSILON as f64, 64.0, 10.0);
        assert!(t32 > t64 * 1e8, "f32 threshold must be ~2^29 wider");
        // The floor keeps a zero-magnitude column detectable.
        let t0 = adaptive_threshold(f64::EPSILON, 64.0, 0.0);
        assert!(t0 > 0.0);
    }

    #[test]
    fn locate_snap_widens_but_clamps() {
        let s64 = adaptive_locate_snap(f64::EPSILON, 64.0, 32);
        assert!((s64 - LOCATE_SNAP).abs() < 1e-6, "f64 snap ≈ fixed snap");
        let s32 = adaptive_locate_snap(f32::EPSILON as f64, 4096.0, 512);
        assert!(s32 > s64);
        assert!(s32 <= LOCATE_SNAP_MAX);
    }
}
