//! # hchol-matrix
//!
//! Dense column-major matrix storage and the block (tile) layout used by the
//! ABFT Cholesky reproduction.
//!
//! The crate provides:
//!
//! * [`Matrix`] — an owned, contiguous, column-major matrix with a safe
//!   element / column / sub-rectangle API, generic over the [`Scalar`]
//!   element type (default `f64`). This is the unit every BLAS kernel in
//!   `hchol-blas` operates on.
//! * [`TileMatrix`] — a matrix stored as a grid of `B × B` tiles. MAGMA's
//!   blocked Cholesky treats blocks as updating units and the paper encodes
//!   checksums *per block*, so tile storage is the natural representation on
//!   the simulated device: each tile is an independently owned [`Matrix`],
//!   which lets Rust's borrow checker prove the disjointness that LAPACK-style
//!   pointer arithmetic only promises.
//! * Generators for symmetric positive-definite test problems
//!   ([`generate`]), norms and approximate comparison ([`norms`],
//!   [`compare`]), and the IEEE-754 bit manipulation used by the storage-error
//!   injector ([`bits`]).
//!
//! The paper implements and evaluates the double-precision routine
//! (`dpotrf`), so `f64` is the default element type everywhere; the sealed
//! [`Scalar`] trait additionally admits `f32` for the reduced-precision
//! workloads that the adaptive verification tolerances target. Generators
//! ([`generate`]) stay `f64`-only — reduced-precision inputs are obtained by
//! [`Matrix::cast`]-ing a generated `f64` problem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod compare;
pub mod dense;
pub mod error;
pub mod generate;
pub mod norms;
pub mod scalar;
pub mod tile;
pub mod triangular;

pub use compare::{approx_eq, max_abs_diff, relative_residual};
pub use dense::Matrix;
pub use error::MatrixError;
pub use scalar::{DType, Scalar};
pub use tile::TileMatrix;
pub use triangular::{Diag, Side, Trans, Uplo};
