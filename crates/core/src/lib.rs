//! # hchol-core
//!
//! The paper's contribution: **Enhanced Online-ABFT Cholesky decomposition**
//! for heterogeneous (CPU + GPU) systems, able to correct both computing
//! errors and memory storage errors in the middle of the factorization —
//! plus the baselines it is evaluated against and the three overhead
//! optimizations it introduces.
//!
//! Layer map (bottom up):
//!
//! * [`checksum`] / [`chkops`] / [`verify`] — the ABFT arithmetic: two
//!   weighted column checksums per block, update rules mirroring
//!   SYRK/GEMM/POTF2/TRSM, and detection/location/correction.
//! * [`ops`] — the MAGMA Algorithm-1 operations and checksum kernels on the
//!   simulated device (`hchol-gpusim`).
//! * [`magma`] / [`cula`] — the non-fault-tolerant baselines.
//! * [`schemes`] — Offline-ABFT, Online-ABFT, and Enhanced Online-ABFT with
//!   restart-based recovery.
//! * [`options`] / [`decision`] — the paper's Optimizations 1–3 and the
//!   CPU-vs-GPU checksum-update placement model.
//! * [`overhead`] — the Section-VI closed-form overhead model (Tables I–VI).
//! * [`solve`] — using the factor (least squares, Monte Carlo, Kalman).
//!
//! Every driver emits observability data (scope spans per phase, metrics,
//! fault events) into its simulation context's `obs` state; call
//! [`FactorOutcome::report`] or `BaselineReport::report` to export a run as
//! a versioned JSON document (re-exported [`obs`] crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod chkops;
pub mod cula;
pub mod decision;
pub mod magma;
pub mod ops;
pub mod options;
pub mod overhead;
pub mod plan;
pub mod schemes;
pub mod solve;
mod span_util;
pub mod tolerance;
pub mod verify;

pub use hchol_obs as obs;
pub use options::{AbftOptions, ChecksumPlacement, ToleranceModel};
pub use schemes::{
    run_clean, run_clean_typed, run_scheme, run_scheme_typed, validate_options, FactorOutcome,
    SchemeKind,
};
pub use verify::{TileTolerance, VerifyOutcome, VerifyPolicy};
