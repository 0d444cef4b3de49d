//! The paper's Section VI analytic overhead model (Tables I–VI).
//!
//! All quantities are stated exactly as published: flop counts as functions
//! of matrix size `n`, block size `B`, and verification interval `K`, plus
//! the relative overheads against the `n³/3` factorization. The test suite
//! cross-checks these formulas against the flops the runtime actually
//! counted (the `flops.cat.*` metrics), closing the loop between the
//! analysis and the implementation.

/// Parameters of the model (the paper's Table II).
#[derive(Debug, Clone, Copy)]
pub struct ModelParams {
    /// Input matrix size `n`.
    pub n: usize,
    /// Block size `B`.
    pub b: usize,
    /// Verify-every-`K`-iterations interval.
    pub k: usize,
}

impl ModelParams {
    /// Bundle parameters (K is clamped to ≥ 1).
    pub fn new(n: usize, b: usize, k: usize) -> Self {
        ModelParams { n, b, k: k.max(1) }
    }

    fn nf(&self) -> f64 {
        self.n as f64
    }
    fn bf(&self) -> f64 {
        self.b as f64
    }
    fn kf(&self) -> f64 {
        self.k as f64
    }

    /// Cholesky flops: `n³/3`.
    pub fn cholesky_flops(&self) -> f64 {
        self.nf().powi(3) / 3.0
    }

    /// Checksum encoding flops: `O_encode = 2n²` (half the blocks, two
    /// checksums each, `4B²` per block).
    pub fn encode_flops(&self) -> f64 {
        2.0 * self.nf() * self.nf()
    }

    /// Checksum updating flops (Table III, POTF2 term ignored as the paper
    /// does): TRSM `2n²` + SYRK `2n²` + GEMM `2n³/(3B)`.
    pub fn update_flops(&self) -> f64 {
        4.0 * self.nf() * self.nf() + 2.0 * self.nf().powi(3) / (3.0 * self.bf())
    }

    /// Relative updating overhead: `12/n + 2/B` (Table III total).
    pub fn update_relative(&self) -> f64 {
        12.0 / self.nf() + 2.0 / self.bf()
    }

    /// Online-ABFT recalculation flops (Table IV, POTF2/SYRK terms
    /// ignored): TRSM `2n²` + GEMM `2n²`.
    pub fn recalc_flops_online(&self) -> f64 {
        4.0 * self.nf() * self.nf()
    }

    /// Online-ABFT relative recalculation overhead: `12/n`.
    pub fn recalc_relative_online(&self) -> f64 {
        12.0 / self.nf()
    }

    /// Enhanced recalculation flops (Table V, POTF2 term ignored):
    /// TRSM `2n²` + SYRK `2n²/K` + GEMM `2n³/(3BK)`.
    pub fn recalc_flops_enhanced(&self) -> f64 {
        2.0 * self.nf() * self.nf()
            + 2.0 * self.nf() * self.nf() / self.kf()
            + 2.0 * self.nf().powi(3) / (3.0 * self.bf() * self.kf())
    }

    /// Enhanced relative recalculation overhead:
    /// `(6K + 6)/(nK) + 2/(BK)`.
    pub fn recalc_relative_enhanced(&self) -> f64 {
        (6.0 * self.kf() + 6.0) / (self.nf() * self.kf()) + 2.0 / (self.bf() * self.kf())
    }

    /// Table VI, Online-ABFT row: `30/n + 2/B`.
    pub fn total_relative_online(&self) -> f64 {
        30.0 / self.nf() + 2.0 / self.bf()
    }

    /// Table VI, Enhanced row: `(24K + 6)/(nK) + (2K + 2)/(BK)`.
    pub fn total_relative_enhanced(&self) -> f64 {
        (24.0 * self.kf() + 6.0) / (self.nf() * self.kf())
            + (2.0 * self.kf() + 2.0) / (self.bf() * self.kf())
    }

    /// Table VI asymptotics (`n → ∞`): Online `2/B`, Enhanced `(2K+2)/(BK)`.
    pub fn asymptote_online(&self) -> f64 {
        2.0 / self.bf()
    }

    /// Enhanced asymptotic overhead.
    pub fn asymptote_enhanced(&self) -> f64 {
        (2.0 * self.kf() + 2.0) / (self.bf() * self.kf())
    }
}

/// Table I of the paper: blocks verified per operation per iteration.
/// Returns rows `(op, online_blocks, enhanced_blocks)` as formatted strings
/// for the analytic-tables binary.
pub fn table1_rows() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("POTF2", "L: O(1)", "A: O(1)"),
        ("TRSM", "B: O(n)", "L, B: O(n)"),
        ("SYRK", "A: O(1)", "A, C: O(n)"),
        ("GEMM", "B: O(n)", "B, C, D: O(n²)"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ModelParams {
        ModelParams::new(20480, 256, 1)
    }

    #[test]
    fn relative_overheads_consistent_with_flops() {
        let m = p();
        let chol = m.cholesky_flops();
        // Relative encoding overhead: `6/n`.
        assert!((m.encode_flops() / chol - 6.0 / m.n as f64).abs() < 1e-12);
        assert!((m.update_flops() / chol - m.update_relative()).abs() < 1e-12);
        assert!((m.recalc_flops_online() / chol - m.recalc_relative_online()).abs() < 1e-12);
        assert!((m.recalc_flops_enhanced() / chol - m.recalc_relative_enhanced()).abs() < 1e-12);
    }

    #[test]
    fn table6_totals_are_component_sums() {
        let m = p();
        let encode = m.encode_flops() / m.cholesky_flops();
        let online = encode + m.update_relative() + m.recalc_relative_online();
        assert!((online - m.total_relative_online()).abs() < 1e-12);
        let enhanced = encode + m.update_relative() + m.recalc_relative_enhanced();
        assert!((enhanced - m.total_relative_enhanced()).abs() < 1e-12);
    }

    #[test]
    fn enhanced_k1_is_costlier_than_online_but_k_large_converges() {
        let k1 = ModelParams::new(20480, 256, 1);
        assert!(k1.total_relative_enhanced() > k1.total_relative_online());
        let k100 = ModelParams::new(20480, 256, 100);
        // With huge K the extra recalculation vanishes and the totals of the
        // two schemes come within the 6/(nK) sliver of each other.
        assert!((k100.total_relative_enhanced() - k100.total_relative_online()).abs() < 1e-3);
    }

    #[test]
    fn asymptotes_match_table6() {
        let m = ModelParams::new(1 << 30, 256, 3);
        assert!((m.total_relative_online() - m.asymptote_online()).abs() < 1e-6);
        assert!((m.total_relative_enhanced() - m.asymptote_enhanced()).abs() < 1e-6);
        // The published closed forms at B=256: 2/256 ≈ 0.78%,
        // (2K+2)/(BK) at K=3 ≈ 1.04%.
        assert!((m.asymptote_online() - 0.0078125).abs() < 1e-9);
        assert!((m.asymptote_enhanced() - 8.0 / (256.0 * 3.0)).abs() < 1e-12);
    }

    #[test]
    fn paper_headline_overheads_small_at_scale() {
        // "less than 6% on Tardis" at n=20480, B=256, K=1
        let t = ModelParams::new(20480, 256, 1);
        assert!(t.total_relative_enhanced() < 0.06);
        // "less than 4% on Bulldozer" at n=30720, B=512, K=1
        let b = ModelParams::new(30720, 512, 1);
        assert!(b.total_relative_enhanced() < 0.04);
    }

    #[test]
    fn k_reduces_enhanced_overhead_monotonically() {
        let mut last = f64::INFINITY;
        for k in [1usize, 3, 5] {
            let v = ModelParams::new(20480, 256, k).total_relative_enhanced();
            assert!(v < last);
            last = v;
        }
    }

    #[test]
    fn k_clamps_to_one() {
        let m = ModelParams::new(1024, 64, 0);
        assert_eq!(m.k, 1);
    }

    #[test]
    fn table1_has_four_ops() {
        assert_eq!(table1_rows().len(), 4);
    }
}
