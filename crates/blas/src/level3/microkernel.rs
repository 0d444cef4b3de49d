//! Register-blocked micro-kernel of the blocked GEMM engine.
//!
//! Computes an `MR×NR` tile of `op(A)·op(B)` from one packed A row-panel and
//! one packed B column-panel, accumulating into a caller-provided `[[f64;
//! MR]; NR]` tile. On x86-64 the hot path is written with explicit SIMD
//! intrinsics — auto-vectorization of this loop proved unreliable across
//! codegen-unit splits — selected by runtime feature detection, resolved to
//! a function pointer once per process (`micro_kernel()`):
//!
//! * AVX-512F: each of the NR columns is one zmm accumulator (MR = 8 lanes)
//!   updated by a broadcast-FMA per k step;
//! * AVX2+FMA: two ymm accumulators per column — the classic 8×6 kernel,
//!   12 independent FMA chains that saturate both FMA ports;
//! * anything else: a scalar `mul_add` loop.
//!
//! All three paths perform the same fused multiply-adds in the same k order
//! on each (i, j) element independently, so they produce bitwise-identical
//! tiles. Edge tiles reuse the same full-width kernel — packing zero-pads
//! the panels — and the caller's store step masks the overhang.

use std::sync::OnceLock;

/// Micro-tile rows (vector-register lanes; one zmm / two ymm of f64).
pub const MR: usize = 8;
/// Micro-tile columns (accumulator registers).
pub const NR: usize = 6;

/// Signature shared by every micro-kernel variant:
/// `acc[j][i] += Σ_p pa[p·MR + i] · pb[p·NR + j]` over `kc` k-steps.
///
/// `pa` is one packed A micro-panel (`MR` contiguous row values per k step),
/// `pb` one packed B micro-panel (`NR` contiguous column values per k step).
pub(crate) type MicroKernel = fn(usize, &[f64], &[f64], &mut [[f64; MR]; NR]);

/// The micro-kernel for this CPU, resolved on first use and then a plain
/// load: feature detection runs once per process, not once per tile.
#[inline]
pub(crate) fn micro_kernel() -> MicroKernel {
    static KERNEL: OnceLock<MicroKernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return x86::avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return x86::fma;
            }
        }
        kernel_generic
    })
}

/// Portable fallback (and the reference the SIMD paths must match).
fn kernel_generic(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [[f64; MR]; NR]) {
    for (a, b) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)).take(kc) {
        for (j, &bj) in b.iter().enumerate() {
            let col = &mut acc[j];
            for i in 0..MR {
                col[i] = a[i].mul_add(bj, col[i]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// Safe entry to [`kernel_avx512`]; only [`super::micro_kernel`] hands
    /// it out, and only after detecting AVX-512F.
    pub fn avx512(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [[f64; MR]; NR]) {
        assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
        // SAFETY: selected only when AVX-512F was detected; panel lengths
        // asserted above.
        unsafe { kernel_avx512(kc, pa.as_ptr(), pb.as_ptr(), acc) }
    }

    /// Safe entry to [`kernel_fma`]; only [`super::micro_kernel`] hands it
    /// out, and only after detecting AVX2 and FMA.
    pub fn fma(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [[f64; MR]; NR]) {
        assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
        // SAFETY: selected only when AVX2+FMA were detected; panel lengths
        // asserted above.
        unsafe { kernel_fma(kc, pa.as_ptr(), pb.as_ptr(), acc) }
    }

    /// One zmm per column: 6 accumulators, broadcast-FMA per (j, p).
    ///
    /// # Safety
    /// Caller guarantees AVX-512F is available and that `pa`/`pb` point to
    /// at least `kc·MR` / `kc·NR` readable doubles.
    #[target_feature(enable = "avx512f")]
    unsafe fn kernel_avx512(kc: usize, pa: *const f64, pb: *const f64, acc: &mut [[f64; MR]; NR]) {
        // SAFETY: caller upholds the documented contract — AVX-512F present,
        // panels hold `kc·MR` / `kc·NR` doubles — and `acc` columns are
        // exactly MR = 8 lanes wide, so every load/store is in bounds.
        unsafe {
            let mut c: [__m512d; NR] = [_mm512_setzero_pd(); NR];
            for (j, col) in acc.iter().enumerate() {
                c[j] = _mm512_loadu_pd(col.as_ptr());
            }
            for p in 0..kc {
                let a = _mm512_loadu_pd(pa.add(p * MR));
                let bp = pb.add(p * NR);
                for (j, cj) in c.iter_mut().enumerate() {
                    let b = _mm512_set1_pd(*bp.add(j));
                    *cj = _mm512_fmadd_pd(a, b, *cj);
                }
            }
            for (j, col) in acc.iter_mut().enumerate() {
                _mm512_storeu_pd(col.as_mut_ptr(), c[j]);
            }
        }
    }

    /// Two ymm per column: the 8×6 AVX2 kernel (12 independent FMA chains).
    ///
    /// # Safety
    /// Caller guarantees AVX2 and FMA are available and that `pa`/`pb` point
    /// to at least `kc·MR` / `kc·NR` readable doubles.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn kernel_fma(kc: usize, pa: *const f64, pb: *const f64, acc: &mut [[f64; MR]; NR]) {
        // SAFETY: caller upholds the documented contract — AVX2+FMA present,
        // panels hold `kc·MR` / `kc·NR` doubles — and each 8-lane `acc`
        // column splits into two in-bounds 4-lane halves.
        unsafe {
            let mut lo: [__m256d; NR] = [_mm256_setzero_pd(); NR];
            let mut hi: [__m256d; NR] = [_mm256_setzero_pd(); NR];
            for (j, col) in acc.iter().enumerate() {
                lo[j] = _mm256_loadu_pd(col.as_ptr());
                hi[j] = _mm256_loadu_pd(col.as_ptr().add(4));
            }
            for p in 0..kc {
                let a0 = _mm256_loadu_pd(pa.add(p * MR));
                let a1 = _mm256_loadu_pd(pa.add(p * MR + 4));
                let bp = pb.add(p * NR);
                for j in 0..NR {
                    let b = _mm256_set1_pd(*bp.add(j));
                    lo[j] = _mm256_fmadd_pd(a0, b, lo[j]);
                    hi[j] = _mm256_fmadd_pd(a1, b, hi[j]);
                }
            }
            for (j, col) in acc.iter_mut().enumerate() {
                _mm256_storeu_pd(col.as_mut_ptr(), lo[j]);
                _mm256_storeu_pd(col.as_mut_ptr().add(4), hi[j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_scalar_triple_loop() {
        let kc = 11;
        let pa: Vec<f64> = (0..kc * MR).map(|v| (v as f64).sin()).collect();
        let pb: Vec<f64> = (0..kc * NR).map(|v| (v as f64).cos()).collect();
        let mut acc = [[0.0; MR]; NR];
        micro_kernel()(kc, &pa, &pb, &mut acc);
        for j in 0..NR {
            for i in 0..MR {
                let want: f64 = (0..kc).map(|p| pa[p * MR + i] * pb[p * NR + j]).sum();
                assert!((acc[j][i] - want).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn simd_paths_match_generic_bitwise() {
        let kc = 37;
        let pa: Vec<f64> = (0..kc * MR).map(|v| (v as f64 * 0.7).sin()).collect();
        let pb: Vec<f64> = (0..kc * NR).map(|v| (v as f64 * 1.3).cos()).collect();
        let mut want = [[0.25; MR]; NR];
        kernel_generic(kc, &pa, &pb, &mut want);
        let mut got = [[0.25; MR]; NR];
        micro_kernel()(kc, &pa, &pb, &mut got);
        // Same fma, same k order, independent lanes ⇒ bitwise equality.
        assert_eq!(got, want);
    }

    #[test]
    fn accumulates_into_existing_tile() {
        let kc = 3;
        let pa = vec![1.0; kc * MR];
        let pb = vec![2.0; kc * NR];
        let mut acc = [[10.0; MR]; NR];
        micro_kernel()(kc, &pa, &pb, &mut acc);
        assert_eq!(acc, [[16.0; MR]; NR]); // 10 + 3·(1·2)
    }

    #[test]
    fn kc_zero_leaves_accumulator() {
        let mut acc = [[1.5; MR]; NR];
        micro_kernel()(0, &[], &[], &mut acc);
        assert_eq!(acc, [[1.5; MR]; NR]);
    }
}
