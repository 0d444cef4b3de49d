//! BLAS level-3: matrix-matrix kernels.
//!
//! These are the operations MAGMA's hybrid Cholesky keeps on the GPU (SYRK,
//! GEMM, TRSM); here they run inside the simulated device. All kernels work
//! on whole [`hchol_matrix::Matrix`] operands — the tile layout of
//! `hchol-matrix` supplies the disjointness that BLAS expresses through
//! pointer/leading-dimension arithmetic.
//!
//! Two implementations coexist:
//! * the **blocked engine** ([`microkernel`]/`pack` plus the macro-loops in
//!   `gemm`), a BLIS-style cache-blocked path, generic over the element
//!   type, that packs operands into a per-thread workspace arena and runs
//!   the register-tiled micro-kernel of the element type's kernel table —
//!   used automatically above a size threshold;
//! * the **naive kernels** ([`naive_gemm`], [`naive_syrk`]), the seed
//!   column-loop implementations, kept for products below the threshold or
//!   thinner than a micro-tile (with streaming arms for the few-row
//!   checksum encode and updates) and as the baseline for benchmarks and
//!   property tests.

mod gemm;
pub mod microkernel;
mod naive;
mod pack;
mod syrk;
mod trsm;
mod workspace;

pub use gemm::{gemm, gemm_fused, gemm_into, BLOCK_THRESHOLD, KC, MC, NC};
pub use naive::{naive_gemm, naive_syrk};
pub use syrk::{syrk, syrk_fused};
pub use trsm::trsm;

pub(crate) use gemm::{apply_beta, gemm_blocked, run_tiles, use_blocked, ChkAcc};
pub(crate) use microkernel::kernel_table;
pub(crate) use pack::{pack_a, pack_b, MatMut, MatRef};
pub(crate) use workspace::{carve, lines, pack_lens, pack_lines, with_workspace};
