//! The outer-product (right-looking, trailing-update) Cholesky variant —
//! the form FT-ScaLAPACK \[18\] protects, and the form MAGMA rejected.
//!
//! Section II-A of the paper: "MAGMA chose the inner product version because
//! it has more BLAS Level-3 operations, hence, can utilize the heterogeneous
//! system more efficiently." This module implements the alternative so that
//! claim can be *measured* (the `ablation_variant` experiment):
//!
//! ```text
//! for j in 0..nt {
//!     POTF2(A[j,j])                      // CPU
//!     TRSM: A[i,j] ·= (L[j,j]ᵀ)⁻¹        // GPU
//!     trailing update: A[i,k] -= L[i,j]·L[k,j]ᵀ   (j < k ≤ i)  // GPU
//! }
//! ```
//!
//! Two structural disadvantages on a hybrid machine emerge naturally in the
//! simulator, with no special-casing:
//!
//! 1. the POTF2 round trip sits on the critical path (nothing is in flight
//!    to hide it behind — the trailing update of step j needs step j's
//!    panel, whereas the inner-product form can overlap POTF2 with the
//!    *previous* panel's big GEMM);
//! 2. per-iteration updates shrink as the factorization proceeds, so the
//!    average BLAS-3 call is smaller (modeled: the trailing update is issued
//!    per block column, as a right-looking ScaLAPACK/LAPACK code would).

use hchol_blas::{flops, gemm};
use hchol_core::magma::BaselineReport;
use hchol_core::ops;
use hchol_core::options::ChecksumPlacement;
use hchol_gpusim::context::KernelDesc;
use hchol_gpusim::counters::WorkCategory;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::{AccessSet, ExecMode, KernelClass, Label, SimContext, TileRef};
use hchol_matrix::{Matrix, MatrixError, Trans};

/// Run the outer-product hybrid factorization (no fault tolerance — this is
/// the Section II-A comparison baseline).
pub fn factor_outer(
    profile: &SystemProfile,
    mode: ExecMode,
    n: usize,
    b: usize,
    input: Option<&Matrix>,
    record_timeline: bool,
) -> Result<BaselineReport, MatrixError> {
    let mut ctx = SimContext::new(profile.clone(), mode);
    if !record_timeline {
        ctx.disable_timeline();
    }
    let mut lay = ops::setup(&mut ctx, n, b, false, ChecksumPlacement::Gpu, input)?;
    let nt = lay.nt;
    for j in 0..nt {
        // POTF2 round trip — fully exposed: the diagonal block is final
        // only now (the trailing update of step j-1 wrote it last), so the
        // transfer must be ordered behind the compute stream.
        let trailing_done = ctx.record_event(lay.streams.comp);
        ctx.stream_wait_event(lay.streams.tran, trailing_done);
        ops::diag_to_host(&mut ctx, &mut lay, j);
        ctx.sync_stream(lay.streams.tran);
        ops::host_potf2(&mut ctx, &lay, j)?;
        ops::diag_to_device(&mut ctx, &lay, j);
        let diag_back = ctx.record_event(lay.streams.tran);
        ctx.stream_wait_event(lay.streams.comp, diag_back);
        // Panel solve.
        let below: Vec<usize> = ((j + 1)..nt).collect();
        ops::trsm_panel(&mut ctx, &lay, j, &below, None);
        // Trailing update, issued per block column as a SYRK (diagonal
        // tile) followed by a GEMM (sub-diagonal tiles) — the right-looking
        // LAPACK/ScaLAPACK kernel pattern: A[i,k] -= L[i,j]·L[k,j]ᵀ, k > j.
        let mat = lay.mat;
        for k in (j + 1)..nt {
            // SYRK on the diagonal tile of column k.
            ctx.launch(
                lay.streams.comp,
                KernelDesc::new(
                    Label::IterAnd("TSYRK", j, 'k', k),
                    KernelClass::Syrk,
                    flops::gemm(lay.b, lay.b, lay.b),
                    WorkCategory::Factorization,
                )
                .with_access(AccessSet::new(
                    vec![TileRef::new(mat, k, j), TileRef::new(mat, k, k)],
                    vec![TileRef::new(mat, k, k)],
                )),
                move |mem| {
                    let m = mem.buf_mut(mat);
                    let lkj = m.tile(k, j).clone();
                    let (tkk, _) = m.tile_pair((k, k), (k, j));
                    gemm(Trans::No, Trans::Yes, -1.0, &lkj, &lkj, 1.0, tkk);
                },
            );
            // GEMM on the tiles below it.
            let rows_below = nt - k - 1;
            if rows_below == 0 {
                continue;
            }
            let f = flops::gemm(rows_below * lay.b, lay.b, lay.b);
            let mut reads = vec![TileRef::new(mat, k, j)];
            let mut writes = Vec::new();
            for i in (k + 1)..nt {
                reads.push(TileRef::new(mat, i, j));
                reads.push(TileRef::new(mat, i, k));
                writes.push(TileRef::new(mat, i, k));
            }
            ctx.launch(
                lay.streams.comp,
                KernelDesc::new(
                    Label::IterAnd("TGEMM", j, 'k', k),
                    KernelClass::Blas3,
                    f,
                    WorkCategory::Factorization,
                )
                .with_access(AccessSet::new(reads, writes)),
                move |mem| {
                    let m = mem.buf_mut(mat);
                    for i in (k + 1)..nt {
                        let lkj = m.tile(k, j).clone();
                        let (tik, lij) = m.tile_pair((i, k), (i, j));
                        gemm(Trans::No, Trans::Yes, -1.0, lij, &lkj, 1.0, tik);
                    }
                },
            );
        }
    }
    ctx.sync_all();
    let time = ctx.now();
    let factor = ops::extract_factor(&ctx, &lay);
    Ok(BaselineReport {
        n,
        b,
        time,
        factor,
        ctx,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Case, Variant};
    use hchol_core::magma::factor_magma;
    use hchol_matrix::approx_eq;
    use hchol_matrix::generate::spd_diag_dominant;

    #[test]
    fn outer_and_inner_product_agree() {
        let (n, b) = (48, 8);
        let a = spd_diag_dominant(n, 41);
        let p = SystemProfile::test_profile();
        let inner = factor_magma(&p, ExecMode::Execute, n, b, Some(&a), false).unwrap();
        let outer = factor_outer(&p, ExecMode::Execute, n, b, Some(&a), false).unwrap();
        assert!(approx_eq(
            &inner.factor.unwrap(),
            &outer.factor.unwrap(),
            1e-10
        ));
    }

    #[test]
    fn inner_product_wins_on_the_hybrid_machine() {
        // The Section II-A claim, measured: same flops, but the exposed
        // POTF2 round trips make the outer-product form slower.
        for p in [SystemProfile::tardis(), SystemProfile::bulldozer64()] {
            let case = Case::new(&p, 8 * p.default_block, p.default_block);
            let (inner, outer) = (case.secs(Variant::Magma), case.secs(Variant::Outer));
            assert!(
                outer > inner * 1.02,
                "{}: outer {outer} should trail inner {inner}",
                p.name
            );
        }
    }

    /// This driver launches kernels off the plan layer, so no plan checker
    /// covers it: its recorded schedule goes through the vector-clock
    /// analyzer instead.
    #[test]
    fn outer_product_schedule_is_race_free() {
        let p = SystemProfile::test_profile();
        let rep = factor_outer(&p, ExecMode::TimingOnly, 256, 32, None, true).expect("runs");
        let analysis = hchol_analyze::analyze_schedule(&rep.ctx.log);
        assert!(analysis.ops > 0, "the baseline must record a program");
        assert!(analysis.is_clean(), "{}", analysis.render_text());
    }
}
