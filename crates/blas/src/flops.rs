//! Floating-point operation counts for every kernel class.
//!
//! These formulas serve two masters: the simulated device's cost model
//! (`hchol-gpusim` divides them by a profile throughput to advance its
//! virtual clock) and the paper's Section-VI overhead analysis, which states
//! its budgets in exactly these terms (`N_Cho = n³/3`, `N_Upd = 2n³/(3B)`,
//! `N_Rec = 2n³/(3B)`).

/// FLOPs of `C (m×n) += op(A) (m×k) · op(B) (k×n)`: one multiply + one add
/// per inner-product step.
pub fn gemm(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

/// FLOPs of a SYRK updating the `uplo` triangle of an `n×n` result from an
/// `n×k` operand (half of the full GEMM, plus the diagonal).
pub fn syrk(n: usize, k: usize) -> u64 {
    (n as u64) * (n as u64 + 1) * k as u64
}

/// FLOPs of a TRSM with an `s×s` triangular matrix against an `m×n` RHS
/// (`s` = m for Left, n for Right): each RHS vector costs `s²` flops.
pub fn trsm(side_dim: usize, other_dim: usize) -> u64 {
    (side_dim as u64) * (side_dim as u64) * other_dim as u64
}

/// FLOPs of an unblocked Cholesky of an `n×n` block: `n³/3` to leading order
/// (exact: n³/3 + n²/2 + n/6).
pub fn potf2(n: usize) -> u64 {
    let n = n as u64;
    (2 * n * n * n + 3 * n * n + n) / 6
}

/// FLOPs of a GEMV with an `m×n` matrix.
pub fn gemv(m: usize, n: usize) -> u64 {
    2 * m as u64 * n as u64
}

/// FLOPs to *encode* the two weighted column checksums of one `r×c` block:
/// two GEMVs (`vᵀ·A`).
pub fn encode_block(r: usize, c: usize) -> u64 {
    2 * gemv(r, c)
}

/// FLOPs to *recalculate* (re-derive for verification) both checksums of an
/// `r×c` block — identical work to encoding.
pub fn recalc_block(r: usize, c: usize) -> u64 {
    encode_block(r, c)
}

/// FLOPs to *compare* recalculated against stored checksums of a `c`-column
/// block and locate an error: a handful of ops per column.
pub fn verify_compare(c: usize) -> u64 {
    4 * c as u64
}

/// FLOPs of the *fused* checksum epilogue over an `r×c` output block: the
/// same arithmetic as [`recalc_block`] (two weighted column sums), but
/// performed on register/cache-resident tiles inside the host SYRK/GEMM
/// kernel instead of as a separate memory-bound pass.
pub fn fused_epilogue(r: usize, c: usize) -> u64 {
    recalc_block(r, c)
}

/// GFLOP/s helper: `flops / seconds / 1e9`.
pub fn gflops(flops: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    flops as f64 / seconds / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_symmetry() {
        assert_eq!(gemm(2, 3, 4), 48);
        assert_eq!(gemm(3, 2, 4), gemm(2, 3, 4));
    }

    #[test]
    fn cholesky_leading_order() {
        let n = 1000usize;
        let exact = potf2(n) as f64;
        let leading = (n as f64).powi(3) / 3.0;
        assert!((exact - leading).abs() / leading < 2e-3);
    }

    #[test]
    fn syrk_is_half_gemm_plus_diagonal() {
        let (n, k) = (64, 32);
        assert_eq!(syrk(n, k), (gemm(n, n, k) / 2) + (n as u64 * k as u64));
    }

    #[test]
    fn encode_equals_recalc() {
        assert_eq!(encode_block(256, 256), recalc_block(256, 256));
        // Two GEMVs over a B×B block = 4B² flops, matching the paper's
        // O_encode = 2n² for the whole matrix (per-block 4B², (n/B)² blocks,
        // halved for the lower triangle).
        assert_eq!(encode_block(256, 256), 4 * 256 * 256);
    }

    #[test]
    fn gflops_guards_zero_time() {
        assert_eq!(gflops(1000, 0.0), 0.0);
        assert!((gflops(2_000_000_000, 1.0) - 2.0).abs() < 1e-12);
    }
}
