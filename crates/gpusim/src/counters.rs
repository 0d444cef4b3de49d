//! The work-category tag: what a unit of work was *for*.
//!
//! The paper's Section VI derives closed-form overhead budgets
//! (encode `2n²`, update `2n³/3B`, recalculate `2n³/3B`, …). The runtime
//! tags every kernel with a [`WorkCategory`]; the simulator accumulates the
//! tagged work in the context's metrics registry — flops under
//! `flops.cat.<Category>`, moved bytes under `pcie.bytes.{h2d,d2h}` and
//! `shard.link.bytes` — and the test suite checks those totals against the
//! analytic model.

/// What a unit of work was *for* (orthogonal to its BLAS shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum WorkCategory {
    /// The factorization itself (SYRK/GEMM/POTF2/TRSM on matrix data).
    Factorization,
    /// Initial checksum encoding.
    ChecksumEncode,
    /// Checksum updating alongside each operation.
    ChecksumUpdate,
    /// Checksum recalculation for verification.
    ChecksumRecalc,
    /// Checksum recalculation fused into a level-3 kernel's epilogue
    /// (same arithmetic as [`WorkCategory::ChecksumRecalc`], charged at the
    /// host kernel's rate instead of as a separate memory-bound pass).
    FusedRecalc,
    /// Comparison/location/correction work.
    Verify,
    /// Host↔device data movement (bytes, not flops).
    Transfer,
}
