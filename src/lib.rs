//! # hchol — Enhanced Online-ABFT Cholesky on a simulated heterogeneous system
//!
//! Facade crate re-exporting the whole workspace: dense/tile matrices
//! ([`matrix`]), from-scratch BLAS kernels ([`blas`]), the simulated GPU
//! device ([`gpusim`]), fault injection ([`faults`]), and the ABFT Cholesky
//! schemes themselves ([`core`]).
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! system inventory; the paper being reproduced is Chen, Liang & Chen,
//! *Online Algorithm-Based Fault Tolerance for Cholesky Decomposition on
//! Heterogeneous Systems with GPUs* (IPDPS 2016).
//!
//! ```
//! use hchol::prelude::*;
//! use hchol_matrix::generate::spd_diag_dominant;
//!
//! // Factor a 64x64 SPD matrix on the simulated Tardis node while a memory
//! // bit flip strikes mid-run; the Enhanced scheme corrects it in place.
//! let a = spd_diag_dominant(64, 1);
//! let out = run_scheme(
//!     SchemeKind::Enhanced,
//!     &SystemProfile::tardis(),
//!     ExecMode::Execute,
//!     64, 16,
//!     &AbftOptions::default(),
//!     FaultPlan::paper_storage_error(4, 16),
//!     Some(&a),
//! ).unwrap();
//! assert_eq!(out.attempts, 1);
//! assert_eq!(out.verify.corrected_data, 1);
//! assert!(out.factor.is_some());
//! ```

pub use hchol_blas as blas;
pub use hchol_core as core;
pub use hchol_faults as faults;
pub use hchol_gpusim as gpusim;
pub use hchol_matrix as matrix;
pub use hchol_obs as obs;

/// Convenience prelude pulling in the names almost every user needs.
pub mod prelude {
    pub use hchol_core::checksum::CHECKSUM_COUNT;
    pub use hchol_core::options::{AbftOptions, BalanceOptions, ChecksumPlacement};
    pub use hchol_core::plan::balance::{BalanceController, BalanceLog};
    pub use hchol_core::plan::exec::{run_batch, BatchOutcome, BatchRequest};
    pub use hchol_core::plan::FactorPlan;
    pub use hchol_core::schemes::{run_clean, run_scheme, FactorOutcome, SchemeKind};
    pub use hchol_core::verify::{VerifyOutcome, VerifyPolicy};
    pub use hchol_faults::{FaultKind, FaultPlan, FaultSpec};
    pub use hchol_gpusim::profile::{DeviceProfile, SystemProfile};
    pub use hchol_gpusim::ExecMode;
    pub use hchol_matrix::{Matrix, TileMatrix};
    pub use hchol_obs::RunReport;
}
