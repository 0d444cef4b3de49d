//! Register-blocked micro-kernels of the blocked engine, one table per
//! precision.
//!
//! A micro-kernel computes one `mr × nr` tile of `op(A)·op(B)` from one
//! packed A row-panel and one packed B column-panel. Its shape is a property
//! of the (ISA, precision) pair, so `mr`, `nr` and the kernel fn pointer
//! travel together in a `KernelTable`, chosen by runtime feature detection
//! once per process and per precision (`kernel_table`):
//!
//! | ISA        | f64 tile        | f32 tile        | accumulators |
//! |------------|-----------------|-----------------|--------------|
//! | AVX-512F   | 16×8 (2 zmm×8)  | 32×8 (2 zmm×8)  | 16 of 32 zmm |
//! | AVX2+FMA   | 8×6 (2 ymm×6)   | 16×6 (2 ymm×6)  | 12 of 16 ymm |
//! | anything   | 8×6 scalar      | 8×6 scalar      | —            |
//!
//! Every SIMD kernel has the same form: per k step it loads the panel's `mr`
//! A values as two vectors and issues one broadcast-FMA per (vector, B
//! column). With two A vectors against `nr` broadcasts a step is `2·nr` FMAs
//! for `2 + nr` loads, so the FMA ports — not the load ports — bound it, and
//! `2·nr ≥ 12` independent chains cover the FMA latency on two ports.
//!
//! All paths perform the same fused multiply-adds in the same k order on
//! each (i, j) element independently, starting from zero, so the value of an
//! element does not depend on the tile shape it was computed in: every table
//! produces bitwise-identical products. Edge tiles reuse the full-width
//! kernel — packing zero-pads the panels — and the caller's store step masks
//! the overhang.

use hchol_matrix::{DType, Scalar};
use std::sync::OnceLock;

/// `acc[j·mr + i] = Σ_p pa[p·mr + i] · pb[p·nr + j]` over `kc` k-steps, the
/// sum built by FMAs in ascending `p` from `+0.0`.
///
/// `pa` is one packed A micro-panel (`mr` contiguous row values per k step),
/// `pb` one packed B micro-panel (`nr` contiguous column values per k step),
/// `acc` the column-major `mr × nr` output tile (overwritten).
pub(crate) type MicroKernel<S> = fn(kc: usize, pa: &[S], pb: &[S], acc: &mut [S]);

/// Upper bound on `mr · nr` over every table (sizes the caller's tile
/// buffer).
pub(crate) const MAX_TILE: usize = 256;

/// Rows per partial sum of the fused checksum epilogue. Every `mr` is a
/// multiple of it, so the deposit's summation tree — and with it the
/// checksum bits — is the same whichever table runs.
pub(crate) const CHK_GROUP: usize = 8;

/// One precision's micro-kernel and the tile shape the packers must feed it.
pub(crate) struct KernelTable<S: 'static> {
    /// Micro-tile rows: A values per k step of a packed A panel.
    pub mr: usize,
    /// Micro-tile columns: B values per k step of a packed B panel.
    pub nr: usize,
    /// The kernel itself.
    pub kernel: MicroKernel<S>,
}

impl<S> KernelTable<S> {
    fn new(mr: usize, nr: usize, kernel: MicroKernel<S>) -> Self {
        assert!(mr.is_multiple_of(CHK_GROUP) && mr * nr <= MAX_TILE);
        KernelTable { mr, nr, kernel }
    }
}

/// `(mr, nr)` of the micro-tile this CPU runs at precision `S`.
// lint:allow(dead-pub) test tool: edge-shape and allocation tests size operands by it
pub fn tile_shape<S: Scalar>() -> (usize, usize) {
    let t = kernel_table::<S>();
    (t.mr, t.nr)
}

/// The kernel table for this CPU at precision `S`, resolved on first use and
/// then a plain load: feature detection runs once per process, not once per
/// tile.
#[inline]
pub(crate) fn kernel_table<S: Scalar>() -> &'static KernelTable<S> {
    static F64: OnceLock<KernelTable<f64>> = OnceLock::new();
    static F32: OnceLock<KernelTable<f32>> = OnceLock::new();
    match S::DTYPE {
        DType::F64 => {
            let t: *const KernelTable<f64> = F64.get_or_init(|| tables_f64().swap_remove(0));
            // SAFETY: `Scalar` is sealed and `DTYPE` is `F64` only for `f64`,
            // so `S` is `f64` and the cast is the identity.
            unsafe { &*t.cast::<KernelTable<S>>() }
        }
        DType::F32 => {
            let t: *const KernelTable<f32> = F32.get_or_init(|| tables_f32().swap_remove(0));
            // SAFETY: as above — `DTYPE` is `F32` only for `f32`.
            unsafe { &*t.cast::<KernelTable<S>>() }
        }
    }
}

/// Every f64 table this CPU can run, fastest first (the scalar one last).
fn tables_f64() -> Vec<KernelTable<f64>> {
    let mut t = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            t.push(KernelTable::new(16, 8, x86::avx512_f64::<2, 8>));
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            t.push(KernelTable::new(8, 6, x86::avx2_f64::<2, 6>));
        }
    }
    t.push(KernelTable::new(8, 6, kernel_generic::<f64, 8, 6>));
    t
}

/// Every f32 table this CPU can run, fastest first (the scalar one last).
fn tables_f32() -> Vec<KernelTable<f32>> {
    let mut t = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            t.push(KernelTable::new(32, 8, x86::avx512_f32::<2, 8>));
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            t.push(KernelTable::new(16, 6, x86::avx2_f32::<2, 6>));
        }
    }
    t.push(KernelTable::new(8, 6, kernel_generic::<f32, 8, 6>));
    t
}

/// Portable kernel (and the reference the SIMD ones must match).
fn kernel_generic<S: Scalar, const MR: usize, const NR: usize>(
    kc: usize,
    pa: &[S],
    pb: &[S],
    acc: &mut [S],
) {
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR && acc.len() >= MR * NR);
    let mut c = [[S::ZERO; MR]; NR];
    for (a, b) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)).take(kc) {
        for (col, &bj) in c.iter_mut().zip(b) {
            for (x, &ai) in col.iter_mut().zip(a) {
                *x = ai.mul_add(bj, *x);
            }
        }
    }
    for (dst, col) in acc.chunks_exact_mut(MR).zip(&c) {
        dst.copy_from_slice(col);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// How many k steps ahead of its loads a kernel prefetches the A panel
    /// (measured: 4–8 steps lift a streaming 256-deep panel by 5–15 %,
    /// 16 is past the optimum).
    const PREFETCH_STEPS: usize = 8;

    /// One (ISA, element) kernel family: a safe entry generic over the tile
    /// shape (`MV` A vectors of `$lanes` rows × `NR` columns) around the
    /// `#[target_feature]` body. Only [`super::tables_f64`] /
    /// [`super::tables_f32`] hand the entries out, and only after detecting
    /// `$feat`.
    macro_rules! simd_kernel {
        ($entry:ident, $body:ident, $t:ty, $vec:ty, $lanes:literal, $feat:literal,
         $zero:ident, $load:ident, $set1:ident, $fma:ident, $store:ident) => {
            pub fn $entry<const MV: usize, const NR: usize>(
                kc: usize,
                pa: &[$t],
                pb: &[$t],
                acc: &mut [$t],
            ) {
                let mr = MV * $lanes;
                assert!(pa.len() >= kc * mr && pb.len() >= kc * NR && acc.len() >= mr * NR);
                // SAFETY: handed out only when the CPU features were
                // detected; the three lengths are asserted above.
                unsafe { $body::<MV, NR>(kc, pa.as_ptr(), pb.as_ptr(), acc.as_mut_ptr()) }
            }

            /// `MV·NR` vector accumulators, one broadcast-FMA per (vector,
            /// column) and k step.
            ///
            /// # Safety
            /// The CPU supports the enabled features; `pa`/`pb` point to at
            /// least `kc·MV·lanes` / `kc·NR` readable elements and `acc` to
            /// `MV·lanes·NR` writable ones.
            #[target_feature(enable = $feat)]
            unsafe fn $body<const MV: usize, const NR: usize>(
                kc: usize,
                pa: *const $t,
                pb: *const $t,
                acc: *mut $t,
            ) {
                let mr = MV * $lanes;
                let mut c: [[$vec; MV]; NR] = [[$zero(); MV]; NR];
                for p in 0..kc {
                    // SAFETY: caller's contract — panel `p` of `pa` holds `mr`
                    // elements, panel `p` of `pb` holds `NR`; the prefetch
                    // address is a hint, never dereferenced, and may run on.
                    unsafe {
                        let ap = pa.add(p * mr);
                        let mut a: [$vec; MV] = [$zero(); MV];
                        for (v, av) in a.iter_mut().enumerate() {
                            *av = $load(ap.add(v * $lanes));
                            // The A panel streams from L2 (the B panel is
                            // the L1 resident): pull it in a few steps ahead.
                            let ahead = ap.wrapping_add(PREFETCH_STEPS * mr + v * $lanes);
                            _mm_prefetch::<_MM_HINT_T0>(ahead.cast());
                        }
                        let bp = pb.add(p * NR);
                        for (j, cj) in c.iter_mut().enumerate() {
                            let b = $set1(*bp.add(j));
                            for (cv, av) in cj.iter_mut().zip(a) {
                                *cv = $fma(av, b, *cv);
                            }
                        }
                    }
                }
                for (j, cj) in c.iter().enumerate() {
                    for (v, cv) in cj.iter().enumerate() {
                        // SAFETY: caller's contract — `acc` holds `mr·NR`
                        // elements; column `j`, vector `v` lies inside.
                        unsafe { $store(acc.add(j * mr + v * $lanes), *cv) };
                    }
                }
            }
        };
    }

    simd_kernel!(
        avx512_f64,
        avx512_f64_body,
        f64,
        __m512d,
        8,
        "avx512f",
        _mm512_setzero_pd,
        _mm512_loadu_pd,
        _mm512_set1_pd,
        _mm512_fmadd_pd,
        _mm512_storeu_pd
    );
    simd_kernel!(
        avx512_f32,
        avx512_f32_body,
        f32,
        __m512,
        16,
        "avx512f",
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_set1_ps,
        _mm512_fmadd_ps,
        _mm512_storeu_ps
    );
    simd_kernel!(
        avx2_f64,
        avx2_f64_body,
        f64,
        __m256d,
        4,
        "avx2,fma",
        _mm256_setzero_pd,
        _mm256_loadu_pd,
        _mm256_set1_pd,
        _mm256_fmadd_pd,
        _mm256_storeu_pd
    );
    simd_kernel!(
        avx2_f32,
        avx2_f32_body,
        f32,
        __m256,
        8,
        "avx2,fma",
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_set1_ps,
        _mm256_fmadd_ps,
        _mm256_storeu_ps
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels<S: Scalar>(kc: usize, mr: usize, nr: usize) -> (Vec<S>, Vec<S>) {
        let pa = (0..kc * mr)
            .map(|v| S::from_f64((v as f64 * 0.7).sin()))
            .collect();
        let pb = (0..kc * nr)
            .map(|v| S::from_f64((v as f64 * 1.3).cos()))
            .collect();
        (pa, pb)
    }

    /// The tile by definition: one FMA chain per element, ascending k.
    fn fma_chain_tile<S: Scalar>(kc: usize, mr: usize, nr: usize, pa: &[S], pb: &[S]) -> Vec<S> {
        let mut want = vec![S::ZERO; mr * nr];
        for p in 0..kc {
            for j in 0..nr {
                for i in 0..mr {
                    want[j * mr + i] = pa[p * mr + i].mul_add(pb[p * nr + j], want[j * mr + i]);
                }
            }
        }
        want
    }

    /// Every table this CPU can run — not just the one `kernel_table` picks —
    /// must reproduce the scalar FMA chain bit for bit, and overwrite (not
    /// accumulate into) its output tile.
    fn assert_tables_bitwise<S: Scalar>(tables: Vec<KernelTable<S>>) {
        assert!(!tables.is_empty());
        for (idx, t) in tables.iter().enumerate() {
            for kc in [0usize, 1, 37, 256] {
                let (pa, pb) = panels::<S>(kc, t.mr, t.nr);
                let want = fma_chain_tile(kc, t.mr, t.nr, &pa, &pb);
                let mut got = vec![S::from_f64(0.25); t.mr * t.nr];
                (t.kernel)(kc, &pa, &pb, &mut got);
                for (e, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits_u64(),
                        w.to_bits_u64(),
                        "{} table {idx} ({}x{}), kc={kc}, element {e}",
                        S::DTYPE,
                        t.mr,
                        t.nr
                    );
                }
            }
        }
    }

    #[test]
    fn simd_paths_match_generic_bitwise() {
        assert_tables_bitwise(tables_f64());
        assert_tables_bitwise(tables_f32());
    }

    #[test]
    fn selected_table_is_the_first_candidate() {
        let (t64, t32) = (kernel_table::<f64>(), kernel_table::<f32>());
        assert_eq!((t64.mr, t64.nr), {
            let c = &tables_f64()[0];
            (c.mr, c.nr)
        });
        assert_eq!((t32.mr, t32.nr), {
            let c = &tables_f32()[0];
            (c.mr, c.nr)
        });
        assert_eq!(tile_shape::<f64>(), (t64.mr, t64.nr));
    }

    #[test]
    fn matches_scalar_triple_loop() {
        let t = kernel_table::<f64>();
        let kc = 11;
        let (pa, pb) = panels::<f64>(kc, t.mr, t.nr);
        let mut acc = vec![0.0; t.mr * t.nr];
        (t.kernel)(kc, &pa, &pb, &mut acc);
        for j in 0..t.nr {
            for i in 0..t.mr {
                let want: f64 = (0..kc).map(|p| pa[p * t.mr + i] * pb[p * t.nr + j]).sum();
                assert!((acc[j * t.mr + i] - want).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic]
    fn short_panel_is_rejected() {
        let t = kernel_table::<f32>();
        let mut acc = vec![0.0f32; t.mr * t.nr];
        (t.kernel)(4, &[0.0; 3], &[0.0; 3], &mut acc);
    }
}
