//! # hchol-blas
//!
//! From-scratch dense linear-algebra kernels for the ABFT Cholesky
//! reproduction: BLAS levels 1–3 plus the unblocked (`POTF2`) and blocked
//! (`POTRF`) Cholesky factorizations.
//!
//! The paper links against cuBLAS (GPU) and ACML (CPU); neither exists here,
//! so these kernels are the arithmetic that actually runs inside the
//! simulated device of `hchol-gpusim` *and* on the simulated host. Absolute
//! speed therefore does not determine experiment outcomes — the device
//! profiles' analytic cost model does — but Execute-mode hot paths still run
//! real flops, so large level-3 calls route through a BLIS-style blocked
//! engine (packed operands, register-tiled micro-kernel, `MC/KC/NC`
//! macro-loops — see [`level3`]), small calls keep simple cache-aware column
//! loops, and [`par`] spreads independent tiles over a team of host threads.
//!
//! Conventions match reference BLAS:
//! * column-major storage ([`hchol_matrix::Matrix`]),
//! * `Lower`/`Upper`, `Trans`, `Side`, `Diag` descriptors from
//!   `hchol_matrix::triangular`,
//! * shape errors are programming errors and panic (asserted), while
//!   *numerical* failures (loss of positive definiteness — exactly what a
//!   storage error can cause mid-factorization) are returned as
//!   `Err(MatrixError::NotPositiveDefinite)`.

// The only crate in the workspace allowed to contain `unsafe` (raw-pointer
// matrix views and SIMD intrinsics); every unsafe operation must be spelled
// out even inside unsafe fns, and every block carries a `// SAFETY:` comment
// (enforced by the hchol-analyze lint).
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod flops;
pub mod level1;
pub mod level2;
pub mod level3;
pub mod par;
pub mod potrf;
pub mod reference;

pub use level2::{gemv, trsv};
pub use level3::{gemm, gemm_fused, naive_gemm, naive_syrk, syrk, trsm};
pub use potrf::{potf2, potrf_blocked};
