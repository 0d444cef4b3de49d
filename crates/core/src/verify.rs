//! Error detection, location, and correction (Section IV-C of the paper).
//!
//! Verification recalculates the two column checksums of a block from its
//! data and compares them against the maintained (updated) checksums:
//!
//! ```text
//! δ₁ᵢ = chk'₁ᵢ − chk₁ᵢ        (detect: some |δ₁ᵢ| or |δ₂ᵢ| > threshold)
//! j   = δ₂ᵢ / δ₁ᵢ             (locate: 1-based row index of the error)
//! x[j−1, i] −= δ₁ᵢ            (correct)
//! ```
//!
//! Beyond the paper's happy path, the verifier also classifies:
//! * **checksum-row corruption** — one δ significant while the other is
//!   clean cannot be a data error (weights are never zero), so the stored
//!   checksum itself took the hit; it is repaired from the recalculation;
//! * **uncorrectable columns** — the ratio δ₂/δ₁ is not close to a valid
//!   row index, meaning ≥ 2 errors hit the same column (or propagation
//!   already smeared the block); two checksums cannot correct that.
//!
//! The routines are generic over the working precision ([`Scalar`]); the
//! delta/threshold arithmetic itself runs in `f64` (exact widening for
//! both supported precisions), so one code path serves f64 and f32.
//! Thresholds come in through a resolved [`TileTolerance`]: the fixed f64
//! policy ([`VerifyPolicy`]), or the variance-based adaptive model
//! ([`crate::tolerance`]) that scales with the precision's epsilon, the
//! accumulation depth, and the column's observed magnitude.

use crate::checksum::CHECKSUM_COUNT;
use crate::tolerance;
use hchol_matrix::{Matrix, Scalar};

/// The *fixed* (f64-calibrated) tolerance model: detection threshold
/// [`tolerance::FIXED_ABS_TOL`]` + `[`tolerance::FIXED_REL_TOL`]` ·
/// scale(column)`, locate snap [`tolerance::LOCATE_SNAP`]. It has nothing
/// to set; other crates build it with `VerifyPolicy::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct VerifyPolicy;

impl VerifyPolicy {
    fn threshold(&self, scale: f64) -> f64 {
        tolerance::FIXED_ABS_TOL + tolerance::FIXED_REL_TOL * scale.abs().max(1.0)
    }
}

/// Fully-resolved per-tile detection thresholds, handed to
/// [`verify_and_correct`]. Built by `ops::verify_batch` from the run's
/// [`crate::options::ToleranceModel`]: `Fixed` reproduces the historical
/// f64 thresholds bit-for-bit; `Adaptive` carries everything the
/// variance-based formula ([`tolerance::adaptive_threshold`]) needs —
/// the precision's epsilon, the accumulation-path length (from the plan's
/// per-panel `depth` metadata), and the column magnitude statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TileTolerance {
    /// The fixed f64-calibrated thresholds.
    Fixed(VerifyPolicy),
    /// Variance-based thresholds scaled to the working precision.
    Adaptive {
        /// Machine epsilon of the working precision.
        eps: f64,
        /// Accumulation-path length feeding the compared sums:
        /// `b · (depth + 1)` for a tile verified at iteration `depth`.
        steps: f64,
        /// Magnitude bound on the path's intermediates — the running
        /// column statistic `b · max|x|`.
        magnitude: f64,
    },
}

impl TileTolerance {
    /// Detection threshold for the unweighted checksum delta `δ₁` of a
    /// column whose observed sum magnitude is `scale`.
    pub fn t1(&self, scale: f64) -> f64 {
        match self {
            TileTolerance::Fixed(p) => p.threshold(scale),
            TileTolerance::Adaptive {
                eps,
                steps,
                magnitude,
            } => tolerance::adaptive_threshold(*eps, *steps, magnitude.max(scale)),
        }
    }

    /// Detection threshold for the weighted delta `δ₂`: its sum carries
    /// weights up to `rows`, so both the magnitude and the rounding scale
    /// up by that factor.
    pub fn t2(&self, scale: f64, rows: usize) -> f64 {
        match self {
            TileTolerance::Fixed(p) => p.threshold(scale.max(rows as f64)),
            TileTolerance::Adaptive { .. } => {
                self.t1(scale / (rows.max(1) as f64)) * rows.max(1) as f64
            }
        }
    }

    /// Integer-snap tolerance of the locate ratio test for a block of
    /// `rows` rows: the fixed policy's absolute snap, or the
    /// precision-scaled snap ([`tolerance::adaptive_locate_snap`]).
    pub fn locate_snap(&self, rows: usize) -> f64 {
        match self {
            TileTolerance::Fixed(_) => tolerance::LOCATE_SNAP,
            TileTolerance::Adaptive { eps, steps, .. } => {
                tolerance::adaptive_locate_snap(*eps, *steps, rows)
            }
        }
    }

    /// Representative detection threshold of this tile (the `δ₁` threshold
    /// at the carried magnitude) — exported as the `verify.threshold`
    /// observability gauge.
    pub fn representative(&self) -> f64 {
        match self {
            TileTolerance::Fixed(p) => p.threshold(0.0),
            TileTolerance::Adaptive { magnitude, .. } => self.t1(*magnitude),
        }
    }
}

/// What verification found and did to one block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Data elements corrected (at most one per column).
    pub corrected_data: usize,
    /// Stored checksum entries repaired from recalculated values.
    pub repaired_checksums: usize,
    /// Columns whose corruption exceeded the correction capability.
    pub uncorrectable_columns: usize,
    /// Blocks in which *anything* was detected. A final (offline-style)
    /// sweep flagging more than one block is evidence of propagation, and
    /// per-column corrections cannot be trusted then: corruption that passed
    /// through POTF2 carries a rank-1 signature (`δ₂ = (r+1)·δ₁` exactly)
    /// that satisfies the ratio test while the data is wrong in every row.
    pub tiles_flagged: usize,
}

impl VerifyOutcome {
    /// True if nothing was wrong.
    pub fn is_clean(&self) -> bool {
        self == &VerifyOutcome::default()
    }

    /// True if every detected problem was fixed.
    pub fn fully_recovered(&self) -> bool {
        self.uncorrectable_columns == 0
    }

    /// Merge outcomes across blocks.
    pub fn merge(&mut self, other: VerifyOutcome) {
        self.corrected_data += other.corrected_data;
        self.repaired_checksums += other.repaired_checksums;
        self.uncorrectable_columns += other.uncorrectable_columns;
        self.tiles_flagged += other.tiles_flagged;
    }

    /// Decision rule for an end-of-run acceptance sweep: trustworthy iff
    /// everything was recovered *and* at most one block was flagged (a lone
    /// late storage error). Multiple flagged blocks mean propagation.
    pub fn final_sweep_accepts(&self) -> bool {
        self.fully_recovered() && self.tiles_flagged <= 1
    }
}

/// Locate a candidate single data error from the two checksum deltas of one
/// column: a lone error at (1-based) row `r` satisfies `δ₂ = r·δ₁` exactly,
/// so `δ₂/δ₁` names the row. Returns the **0-based** row index, or `None`
/// when the ratio is not within `snap` of an in-range integer — i.e. ≥ 2
/// errors hit the column (or propagation smeared it) and two checksums
/// cannot correct it.
///
/// The snap is absolute: a genuine single error gives a ratio exact to a few
/// ulps, while a multi-error column's weighted average almost never sits
/// this close to an integer. (Scaling the snap with the row index would let
/// propagated corruption masquerade as correctable.) The fixed policy passes
/// [`tolerance::LOCATE_SNAP`]; the precision-scaled adaptive path passes
/// [`tolerance::adaptive_locate_snap`], since at f32 the ratio's rounding
/// error routinely exceeds the fixed snap and would misattribute the fault
/// row.
pub fn locate_row(d1: f64, d2: f64, rows: usize, snap: f64) -> Option<usize> {
    let ratio = d2 / d1;
    let row_1based = ratio.round();
    if ratio.is_finite()
        && (ratio - row_1based).abs() <= snap
        && row_1based >= 1.0
        && row_1based <= rows as f64
    {
        Some(row_1based as usize - 1)
    } else {
        None
    }
}

/// Verify `data` against its maintained checksums `stored` (a
/// `2 × cols` matrix), using freshly recalculated checksums `recalc`,
/// correcting `data` and/or `stored` in place.
///
/// `recalc` must equal `encode(data)` — the caller computes it (on the
/// simulated GPU, where the cost is charged) and passes it in.
///
/// **Iterative refinement:** subtracting `δ₁` restores a corrupted element
/// only to within the rounding of the checksum sums — after an
/// exponent-bit flip the corruption can be ~2⁶⁰× larger than the data, and
/// cancellation leaves an absolute error of order `ulp(|δ₁|)`. A second
/// pass sees that residue as a fresh (tiny) single error and removes it,
/// so after corrections the block is re-encoded locally and re-checked,
/// up to three rounds. (The paper stops at one pass; the refinement costs
/// O(B²) per *corrected* block only and restores near-exact recovery even
/// for high-exponent flips.)
pub fn verify_and_correct<S: Scalar>(
    data: &mut Matrix<S>,
    stored: &mut Matrix<S>,
    recalc: &Matrix<S>,
    tol: &TileTolerance,
) -> VerifyOutcome {
    let mut total = verify_pass(data, stored, recalc, tol, true);
    if total.corrected_data > 0 {
        for _ in 0..2 {
            let fresh = crate::checksum::encode(data);
            // Refinement passes forbid checksum repair: the stored checksum
            // was just found consistent modulo the corrections we applied,
            // so a one-sided mismatch now means a correction landed on the
            // wrong row (a multi-error column slipping through the ratio
            // test) — data corruption, not checksum corruption.
            let again = verify_pass(data, stored, &fresh, tol, false);
            if again.is_clean() {
                break;
            }
            // Refinement rounds only polish prior corrections; they are not
            // new error events, so only uncorrectable news merges upward.
            total.uncorrectable_columns += again.uncorrectable_columns;
        }
    }
    total
}

fn verify_pass<S: Scalar>(
    data: &mut Matrix<S>,
    stored: &mut Matrix<S>,
    recalc: &Matrix<S>,
    tol: &TileTolerance,
    allow_checksum_repair: bool,
) -> VerifyOutcome {
    assert_eq!(stored.shape(), (CHECKSUM_COUNT, data.cols()));
    assert_eq!(recalc.shape(), stored.shape());
    let rows = data.rows();
    let mut out = VerifyOutcome::default();
    // Histogram of corrected rows, for the coherent-corruption check below.
    let mut row_hits: Vec<u32> = vec![0; rows];

    for j in 0..data.cols() {
        let d1 = recalc.get(0, j).to_f64() - stored.get(0, j).to_f64();
        let d2 = recalc.get(1, j).to_f64() - stored.get(1, j).to_f64();
        // Scale thresholds by the magnitudes flowing into each sum: chk₂
        // sums weights up to `rows`, so it is proportionally looser.
        let t1 = tol.t1(stored
            .get(0, j)
            .to_f64()
            .abs()
            .max(recalc.get(0, j).to_f64().abs()));
        let t2 = tol.t2(
            stored
                .get(1, j)
                .to_f64()
                .abs()
                .max(recalc.get(1, j).to_f64().abs()),
            rows,
        );
        // Non-finite deltas (overflowed sums — e.g. a top-exponent bit
        // flip) are unconditionally bad: no threshold reasoning applies.
        let bad1 = !d1.is_finite() || d1.abs() > t1;
        let bad2 = !d2.is_finite() || d2.abs() > t2;
        // A one-sided mismatch is ambiguous: `t2` is proportionally looser
        // than `t1` (its sum carries weights up to `rows`), so a small data
        // error at a low row can trip `t1` alone while `δ₂ = r·δ₁` still
        // hides under `t2`. If the ratio test snaps to an in-range row the
        // single-data-error hypothesis explains the column and repairing
        // the stored checksum would launder real corruption; a genuine
        // checksum hit instead leaves the other delta at noise scale, so
        // the ratio lands near 0 (or blows up) and never snaps. Only the
        // adaptive model applies this tie-break: the fixed-threshold path
        // is pinned byte-for-byte by the golden fixtures, and its f64-sized
        // epsilons leave no gap for a real fault to hide in anyway.
        let data_explains = || {
            matches!(tol, TileTolerance::Adaptive { .. })
                && locate_row(d1, d2, rows, tol.locate_snap(rows)).is_some()
        };
        match (bad1, bad2) {
            (false, false) => {}
            // One clean, one corrupt on a *first* pass, unexplained by a
            // single data error: the stored checksum itself took the hit (a
            // single data error always moves both sums — weights are ≥ 1);
            // repair it from the recalculation. On refinement passes the
            // stored checksum was consistent moments ago, so the
            // single-error hypothesis is tested below instead — a wrong-row
            // correction shows up here as d1 ≈ 0 with d2 large (or vice
            // versa), which the ratio test rejects.
            (true, false) if allow_checksum_repair && !data_explains() => {
                stored.set(0, j, recalc.get(0, j));
                out.repaired_checksums += 1;
            }
            (false, true) if allow_checksum_repair && !data_explains() => {
                stored.set(1, j, recalc.get(1, j));
                out.repaired_checksums += 1;
            }
            _ => {
                // Candidate single data error at row r: d2 = r·d1 exactly.
                if let Some(r) = locate_row(d1, d2, rows, tol.locate_snap(rows)) {
                    let v = data.get(r, j).to_f64() - d1;
                    data.set(r, j, S::from_f64(v));
                    out.corrected_data += 1;
                    row_hits[r] += 1;
                } else {
                    out.uncorrectable_columns += 1;
                }
            }
        }
    }
    // Coherent-corruption guard. A corrupted *operand* poisons the checksum
    // update (`chk ← chk − chk(L)·L̃ᵀ` consumes the corrupt data as its right
    // factor), and the resulting delta mimics one phantom error at the same
    // row in EVERY column — per-column correction would then rewrite the
    // block into a checksum-consistent but numerically wrong state. Genuine
    // independent errors virtually never align across more than half the
    // block width, so a same-row streak that wide is treated as
    // uncorrectable (the scheme falls back to recovery, exactly the paper's
    // story for errors that escape their verification point).
    if data.cols() >= 4 {
        if let Some(&peak) = row_hits.iter().max() {
            if (peak as usize) > data.cols() / 2 {
                out.uncorrectable_columns += peak as usize;
            }
        }
    }
    if out != VerifyOutcome::default() {
        out.tiles_flagged = 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::encode;
    use hchol_matrix::generate::uniform;
    use hchol_matrix::{approx_eq, bits};

    fn setup(seed: u64) -> (Matrix, Matrix) {
        let data = uniform(8, 6, -1.0, 1.0, seed);
        let chk = encode(&data);
        (data, chk)
    }

    fn fixed() -> TileTolerance {
        TileTolerance::Fixed(VerifyPolicy)
    }

    /// Adaptive tolerance for a small f32 block verified after `depth`
    /// update rounds.
    fn adaptive_f32(b: usize, depth: usize, magnitude: f64) -> TileTolerance {
        TileTolerance::Adaptive {
            eps: f32::EPSILON as f64,
            steps: (b * (depth + 1)) as f64,
            magnitude,
        }
    }

    #[test]
    fn clean_block_verifies_clean() {
        let (mut data, mut chk) = setup(1);
        let recalc = encode(&data);
        let out = verify_and_correct(&mut data, &mut chk, &recalc, &fixed());
        assert!(out.is_clean());
        assert!(out.fully_recovered());
    }

    #[test]
    fn single_data_error_corrected_exactly() {
        let (mut data, mut chk) = setup(2);
        let truth = data.clone();
        data.set(5, 3, data.get(5, 3) + 2.5);
        let recalc = encode(&data);
        let out = verify_and_correct(&mut data, &mut chk, &recalc, &fixed());
        assert_eq!(out.corrected_data, 1);
        assert_eq!(out.uncorrectable_columns, 0);
        assert!(approx_eq(&data, &truth, 1e-9));
    }

    #[test]
    fn bit_flip_storage_error_corrected() {
        let (mut data, mut chk) = setup(3);
        let truth = data.clone();
        let v = data.get(2, 4);
        data.set(2, 4, bits::flip_bits(v, &[30, 53]));
        let recalc = encode(&data);
        let out = verify_and_correct(&mut data, &mut chk, &recalc, &fixed());
        assert_eq!(out.corrected_data, 1);
        assert!(approx_eq(&data, &truth, 1e-9));
    }

    #[test]
    fn errors_in_distinct_columns_all_corrected() {
        let (mut data, mut chk) = setup(4);
        let truth = data.clone();
        data.set(0, 0, data.get(0, 0) - 1.0);
        data.set(7, 2, data.get(7, 2) + 3.0);
        data.set(3, 5, data.get(3, 5) * -2.0 - 1.0);
        let recalc = encode(&data);
        let out = verify_and_correct(&mut data, &mut chk, &recalc, &fixed());
        assert_eq!(out.corrected_data, 3);
        assert!(approx_eq(&data, &truth, 1e-9));
    }

    #[test]
    fn two_errors_same_column_uncorrectable() {
        let (mut data, mut chk) = setup(5);
        data.set(1, 3, data.get(1, 3) + 1.0);
        data.set(6, 3, data.get(6, 3) + 1.0);
        let recalc = encode(&data);
        let out = verify_and_correct(&mut data, &mut chk, &recalc, &fixed());
        assert_eq!(out.uncorrectable_columns, 1);
        assert!(!out.fully_recovered());
    }

    #[test]
    fn corrupted_checksum_row_is_repaired_not_misdiagnosed() {
        let (mut data, mut chk) = setup(6);
        let truth = data.clone();
        // Corrupt the *stored* checksum, not the data.
        chk.set(1, 2, chk.get(1, 2) + 5.0);
        let recalc = encode(&data);
        let out = verify_and_correct(&mut data, &mut chk, &recalc, &fixed());
        assert_eq!(out.repaired_checksums, 1);
        assert_eq!(out.corrected_data, 0);
        assert!(approx_eq(&data, &truth, 0.0), "data must be untouched");
        // Checksum now consistent again.
        assert!(approx_eq(&chk, &recalc, 1e-12));
    }

    #[test]
    fn below_threshold_drift_ignored() {
        let (mut data, mut chk) = setup(7);
        // Simulate rounding drift in the stored checksum.
        chk.set(0, 1, chk.get(0, 1) + 1e-12);
        let recalc = encode(&data);
        let out = verify_and_correct(&mut data, &mut chk, &recalc, &fixed());
        assert!(out.is_clean());
    }

    #[test]
    fn error_in_first_and_last_row_locates_correctly() {
        for &row in &[0usize, 7] {
            let (mut data, mut chk) = setup(8);
            let truth = data.clone();
            data.set(row, 1, data.get(row, 1) + 4.0);
            let recalc = encode(&data);
            let out = verify_and_correct(&mut data, &mut chk, &recalc, &fixed());
            assert_eq!(out.corrected_data, 1, "row {row}");
            assert!(approx_eq(&data, &truth, 1e-9));
        }
    }

    /// The locate ratio at the block edges: row 1 (`δ₂ = δ₁`) and row
    /// `rows` (`δ₂ = rows·δ₁`) must resolve, while ratios half a step
    /// beyond either edge must not.
    #[test]
    fn locate_row_at_block_edges() {
        let snap = crate::tolerance::LOCATE_SNAP;
        let rows = 32usize;
        let d1 = 2.5e-3;
        // First row: ratio exactly 1.
        assert_eq!(locate_row(d1, d1, rows, snap), Some(0));
        // Last row: ratio exactly `rows`.
        assert_eq!(locate_row(d1, d1 * rows as f64, rows, snap), Some(rows - 1));
        // Just past either edge — out of range even though near-integer.
        assert_eq!(locate_row(d1, 0.0, rows, snap), None);
        assert_eq!(locate_row(d1, d1 * (rows as f64 + 1.0), rows, snap), None);
        // Within tolerance of an edge row still resolves.
        assert_eq!(locate_row(d1, d1 * (1.0 + snap * 0.9), rows, snap), Some(0));
        assert_eq!(
            locate_row(d1, d1 * (rows as f64 - snap * 0.9), rows, snap),
            Some(rows - 1)
        );
    }

    /// Non-integer ratios and degenerate deltas are uncorrectable.
    #[test]
    fn locate_row_rejects_multi_error_signatures() {
        let snap = crate::tolerance::LOCATE_SNAP;
        let rows = 16usize;
        // Two errors in one column average to a fractional row.
        assert_eq!(locate_row(1.0, 7.5, rows, snap), None);
        // δ₁ = 0 with δ₂ ≠ 0: infinite ratio.
        assert_eq!(locate_row(0.0, 3.0, rows, snap), None);
        // Both zero: NaN ratio.
        assert_eq!(locate_row(0.0, 0.0, rows, snap), None);
        // A 1×1 block: only row 1 is valid.
        assert_eq!(locate_row(1.0, 1.0, 1, snap), Some(0));
        assert_eq!(locate_row(1.0, 2.0, 1, snap), None);
    }

    #[test]
    fn outcome_merge_accumulates() {
        let mut a = VerifyOutcome {
            corrected_data: 1,
            repaired_checksums: 0,
            uncorrectable_columns: 0,
            tiles_flagged: 1,
        };
        a.merge(VerifyOutcome {
            corrected_data: 2,
            repaired_checksums: 3,
            uncorrectable_columns: 1,
            tiles_flagged: 1,
        });
        assert_eq!(a.corrected_data, 3);
        assert_eq!(a.repaired_checksums, 3);
        assert_eq!(a.uncorrectable_columns, 1);
        assert_eq!(a.tiles_flagged, 2);
        assert!(!a.fully_recovered());
        assert!(!a.final_sweep_accepts());
        let lone = VerifyOutcome {
            corrected_data: 1,
            repaired_checksums: 0,
            uncorrectable_columns: 0,
            tiles_flagged: 1,
        };
        assert!(lone.final_sweep_accepts());
    }

    /// An f32 block after simulated update rounds: the honest single-
    /// precision drift in the stored checksum trips the fixed f64
    /// thresholds (a false positive) but stays under the adaptive ones,
    /// while a genuinely injected error is caught by both.
    #[test]
    fn f32_drift_fixed_false_positives_adaptive_does_not() {
        let b = 16usize;
        let data: Matrix<f32> = uniform(b, b, -1.0, 1.0, 42).cast();
        let mut chk = encode(&data);
        // Simulated accumulated round-off: perturb the stored checksum by
        // a few dozen f32 ulps of its magnitude — drift far beyond the
        // `FIXED_REL_TOL` of 1e-7 but well within honest f32 rounding.
        for j in 0..b {
            let v = chk.get(0, j);
            chk.set(0, j, v + v.abs().max(1.0) * 24.0 * f32::EPSILON);
            let w = chk.get(1, j);
            chk.set(1, j, w + w.abs().max(b as f32) * 24.0 * f32::EPSILON);
        }
        let recalc = encode(&data);
        let adaptive = adaptive_f32(b, 4, b as f64);

        let mut d1 = data.clone();
        let mut c1 = chk.clone();
        let fp = verify_and_correct(&mut d1, &mut c1, &recalc, &fixed());
        assert!(!fp.is_clean(), "fixed f64 thresholds must false-positive");

        let mut d2 = data.clone();
        let mut c2 = chk.clone();
        let ok = verify_and_correct(&mut d2, &mut c2, &recalc, &adaptive);
        assert!(
            ok.is_clean(),
            "adaptive thresholds absorb f32 drift: {ok:?}"
        );
    }

    /// A real injected error at f32 is detected, located, and corrected
    /// under the adaptive tolerance.
    #[test]
    fn f32_injected_error_corrected_under_adaptive() {
        let b = 16usize;
        let mut data: Matrix<f32> = uniform(b, b, -1.0, 1.0, 43).cast();
        let truth = data.clone();
        let mut chk = encode(&data);
        // Small drift as above, plus one genuine fault.
        for j in 0..b {
            let v = chk.get(0, j);
            chk.set(0, j, v + v.abs().max(1.0) * 8.0 * f32::EPSILON);
        }
        data.set(11, 5, data.get(11, 5) + 3.0);
        let recalc = encode(&data);
        let out = verify_and_correct(&mut data, &mut chk, &recalc, &adaptive_f32(b, 4, b as f64));
        assert_eq!(out.corrected_data, 1);
        assert_eq!(out.uncorrectable_columns, 0);
        assert!(approx_eq(&data, &truth, 1e-3), "f32 recovery within drift");
    }

    /// The adaptive snap widens at f32: a ratio offset that the fixed
    /// absolute snap rejects (misattributing a legitimate f32-rounded
    /// locate) is accepted once the snap scales with ε and rows.
    #[test]
    fn adaptive_locate_snap_scales() {
        let rows = 64usize;
        let tol = TileTolerance::Adaptive {
            eps: f32::EPSILON as f64,
            steps: 4096.0 * 32.0,
            magnitude: 1.0,
        };
        let snap = tol.locate_snap(rows);
        assert!(snap > crate::tolerance::LOCATE_SNAP);
        assert!(snap <= crate::tolerance::LOCATE_SNAP_MAX);
        // Ratio 40 ± (snap·0.9): resolves under the scaled snap…
        let d1 = 1.0;
        let d2 = 40.0 + snap * 0.9;
        assert_eq!(locate_row(d1, d2, rows, snap), Some(39));
        // …but not under the fixed absolute snap.
        assert_eq!(
            locate_row(d1, d2, rows, crate::tolerance::LOCATE_SNAP),
            None
        );
    }
}
