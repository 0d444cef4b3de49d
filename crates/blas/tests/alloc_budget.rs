//! Allocation budget of the tile-shape level-3 calls.
//!
//! The ABFT run loop issues thousands of 64³–256³ products per
//! factorization, so a per-call allocation is a per-call cost (a full
//! `KC×NC` pack buffer allocated and zero-filled on every call once made a
//! 64³ GEMM run 10× slower than its flops). This pins the contract of the
//! engine's per-thread pack arena with a counting allocator:
//!
//! * the first call of a shape allocates no more than its packed working
//!   set — the real `min(MC,m)×min(KC,k)` / `min(KC,k)×min(NC,n)` extents,
//!   each buffer rounded up to a whole cache line;
//! * every later call of that shape allocates nothing —
//!
//! at both precisions: the arena and the engine are the same code for f64
//! and f32. The `2 × b` checksum-side shapes (encode `Wᵀ·tile`, product
//! update `chk·tileᵀ`, solve update `chk·(Lᵀ)⁻¹`) are held to the same
//! contract: their planar rows live on the stack or in the arena, never in a
//! per-call `Vec`.

use hchol_blas::level3::microkernel::tile_shape;
use hchol_blas::level3::{KC, MC, NC};
use hchol_blas::{gemm, syrk, trsm};
use hchol_matrix::generate::uniform;
use hchol_matrix::{Diag, Matrix, Scalar, Side, Trans, Uplo};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested by the current thread (frees are not subtracted:
    /// the budget is on traffic, not on the high-water mark).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a thread-local byte counter with a const initializer and no
// destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|b| b.set(b.get() + layout.size()));
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|b| b.set(b.get() + new_size));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes this thread allocates while running `f`.
fn allocated(f: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// `len` elements of `S` in bytes, rounded up to whole 64-byte arena lines.
fn line_bytes<S: Scalar>(len: usize) -> usize {
    (len * S::BYTES as usize).next_multiple_of(64)
}

/// Bytes of packed A stripe plus packed B slab for an `m×k · k×n` product.
fn pack_bytes<S: Scalar>(m: usize, k: usize, n: usize) -> usize {
    let (mr, nr) = tile_shape::<S>();
    let kc = KC.min(k);
    line_bytes::<S>(MC.min(m).next_multiple_of(mr) * kc)
        + line_bytes::<S>(kc * NC.min(n).next_multiple_of(nr))
}

/// On a fresh thread (so a fresh arena): the first `call` may allocate up to
/// `budget` bytes — and, given a budget, must allocate something, or the
/// counter is blind — and the next three must allocate nothing.
fn check(label: &'static str, budget: usize, mut call: impl FnMut() + Send + 'static) {
    std::thread::spawn(move || {
        let first = allocated(&mut call);
        assert!(
            (budget == 0 || 0 < first) && first <= budget,
            "{label}: first call allocated {first} B, packed working set is {budget} B"
        );
        for _ in 0..3 {
            let again = allocated(&mut call);
            assert_eq!(again, 0, "{label}: warm call allocated {again} B");
        }
    })
    .join()
    .expect("budget holds");
}

fn tile_gemm<S: Scalar>() {
    for b in [64usize, 128, 256] {
        let lik: Matrix<S> = uniform(b, b, -1.0, 1.0, 1).cast();
        let ljk: Matrix<S> = uniform(b, b, -1.0, 1.0, 2).cast();
        let mut tij: Matrix<S> = uniform(b, b, -1.0, 1.0, 3).cast();
        check("gemm NT", pack_bytes::<S>(b, b, b), move || {
            gemm(Trans::No, Trans::Yes, -1.0, &lik, &ljk, 1.0, &mut tij);
        });
    }
}

#[test]
fn tile_gemm_allocates_its_pack_buffers_once() {
    tile_gemm::<f64>();
    tile_gemm::<f32>();
}

fn panel_trsm<S: Scalar>() {
    let b = 256usize;
    // A well-conditioned lower triangle; the solve never looks above it.
    let mut ljj = uniform(b, b, -0.5, 0.5, 4);
    for j in 0..b {
        ljj.set(j, j, 4.0);
    }
    let ljj: Matrix<S> = ljj.cast();
    let mut panel: Matrix<S> = uniform(b, b, -1.0, 1.0, 5).cast();
    // The largest rank update of the recursion is b × b/2 × b/2.
    check("trsm RLT", pack_bytes::<S>(b, b / 2, b / 2), move || {
        trsm(
            Side::Right,
            Uplo::Lower,
            Trans::Yes,
            Diag::NonUnit,
            1.0,
            &ljj,
            &mut panel,
        );
    });
}

#[test]
fn panel_trsm_allocates_its_pack_buffers_once() {
    panel_trsm::<f64>();
    panel_trsm::<f32>();
}

fn diag_syrk<S: Scalar>() {
    let b = 256usize;
    let ljk: Matrix<S> = uniform(b, b, -1.0, 1.0, 6).cast();
    let mut diag = Matrix::<S>::zeros(b, b);
    // One scratch tile for the diagonal block plus the pack buffers.
    let budget = line_bytes::<S>(b * b) + pack_bytes::<S>(b, b, b);
    check("syrk LN", budget, move || {
        syrk(Uplo::Lower, Trans::No, -1.0, &ljk, 1.0, &mut diag);
    });
}

#[test]
fn diag_syrk_allocates_its_workspace_once() {
    diag_syrk::<f64>();
    diag_syrk::<f32>();
}

fn checksum_shapes<S: Scalar>() {
    for b in [64usize, 256] {
        // Encode / recalculation: Wᵀ (2 × b) · tile, accumulators in registers.
        let w: Matrix<S> = uniform(b, 2, 0.0, 1.0, 7).cast();
        let tile: Matrix<S> = uniform(b, b, -1.0, 1.0, 8).cast();
        let mut chk = Matrix::<S>::zeros(2, b);
        check("encode 2×b TN", 0, {
            let tile = tile.clone();
            move || gemm(Trans::Yes, Trans::No, 1.0, &w, &tile, 0.0, &mut chk)
        });
        // Product update: chk (2 × b) −= chk_src · tileᵀ, planar rows on the
        // stack.
        let chk_src: Matrix<S> = uniform(2, b, -1.0, 1.0, 9).cast();
        let mut chk = Matrix::<S>::zeros(2, b);
        check("update 2×b NT", 0, {
            let tile = tile.clone();
            move || gemm(Trans::No, Trans::Yes, -1.0, &chk_src, &tile, 1.0, &mut chk)
        });
        // Solve update: chk (2 × b) · (Lᵀ)⁻¹, planar rows in the arena.
        let mut ljj = tile;
        for j in 0..b {
            ljj.set(j, j, S::from_f64(4.0));
        }
        let mut chk: Matrix<S> = uniform(2, b, -1.0, 1.0, 10).cast();
        check("update 2×b trsm RLT", line_bytes::<S>(2 * b), move || {
            trsm(
                Side::Right,
                Uplo::Lower,
                Trans::Yes,
                Diag::NonUnit,
                1.0,
                &ljj,
                &mut chk,
            );
        });
    }
}

#[test]
fn checksum_side_shapes_allocate_at_most_their_planar_rows_once() {
    checksum_shapes::<f64>();
    checksum_shapes::<f32>();
}
