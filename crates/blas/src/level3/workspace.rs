//! Per-thread pack workspace of the blocked engine.
//!
//! Every buffer the engine packs into — the `op(A)` stripe, the `op(B)` slab,
//! SYRK's diagonal scratch tile, the fused epilogue's f64 checksum lanes — is
//! carved out of one grow-only arena owned by the calling thread, so a call
//! costs what its flops cost: after the first call of a given shape nothing
//! is allocated, and nothing is ever zero-filled per call ([`super::pack`]
//! writes its own edge padding).
//!
//! The arena is a run of cache [`Line`]s rather than of elements: one arena
//! serves both precisions (and the f64 lanes of an f32 call), and every
//! buffer [`carve`]d from it starts on a 64-byte boundary, so a micro-kernel
//! vector load never straddles two lines.
//!
//! Each public entry point borrows the arena once, sized by [`pack_lines`]
//! for the largest product it will issue, and threads the slice down through
//! the internal view-level functions; those never re-enter the arena.

use super::gemm::{KC, MC, NC};
use super::microkernel::kernel_table;
use hchol_matrix::Scalar;
use std::cell::RefCell;

/// One cache line of arena storage.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct Line([u64; 8]);

const LINE_BYTES: usize = std::mem::size_of::<Line>();

thread_local! {
    static ARENA: RefCell<Vec<Line>> = const { RefCell::new(Vec::new()) };
}

/// Packed-A stripe and packed-B slab lengths (in elements) of an
/// `m × k · k × n` product at precision `S`: the real `min(MC, m) × min(KC,
/// k)` / `min(KC, k) × min(NC, n)` extents, rounded up to whole micro-panels.
#[inline]
pub(crate) fn pack_lens<S: Scalar>(m: usize, k: usize, n: usize) -> (usize, usize) {
    let t = kernel_table::<S>();
    let kc = KC.min(k);
    (
        MC.min(m).next_multiple_of(t.mr) * kc,
        kc * NC.min(n).next_multiple_of(t.nr),
    )
}

/// Lines that hold `len` elements of `T`.
#[inline]
pub(crate) fn lines<T>(len: usize) -> usize {
    (len * std::mem::size_of::<T>()).div_ceil(LINE_BYTES)
}

/// Total workspace (in lines) one blocked product of this shape needs.
#[inline]
pub(crate) fn pack_lines<S: Scalar>(m: usize, k: usize, n: usize) -> usize {
    let (a, b) = pack_lens::<S>(m, k, n);
    lines::<S>(a) + lines::<S>(b)
}

/// Split `len` elements of `T` (contents arbitrary) off the front of `ws`.
/// `T` is a float type: every bit pattern is a value and 64-byte lines
/// over-align it.
pub(crate) fn carve<T: Scalar>(ws: &mut [Line], len: usize) -> (&mut [T], &mut [Line]) {
    let (head, rest) = ws.split_at_mut(lines::<T>(len));
    // SAFETY: `head` is exclusively borrowed, spans at least `len` elements
    // of `T` (`lines` rounds up), is 64-byte aligned, and `T` is `f32` or
    // `f64` (`Scalar` is sealed), for which any initialised bytes are valid.
    let elems = unsafe { std::slice::from_raw_parts_mut(head.as_mut_ptr().cast::<T>(), len) };
    (elems, rest)
}

/// Run `f` with `len` lines of this thread's arena (contents arbitrary).
/// The arena only ever grows, and only by what the largest request needs.
pub(crate) fn with_workspace<R>(len: usize, f: impl FnOnce(&mut [Line]) -> R) -> R {
    ARENA.with(|arena| {
        let mut buf = arena
            .try_borrow_mut()
            .expect("engine entry points borrow the pack arena once, never nested");
        if buf.len() < len {
            let grow = len - buf.len();
            buf.reserve_exact(grow);
            buf.resize(len, Line([0; 8]));
        }
        f(&mut buf[..len])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_lens_follow_real_extents() {
        fn check<S: Scalar>() {
            let t = kernel_table::<S>();
            let (mr, nr) = (t.mr, t.nr);
            // A 64³ tile product packs whole micro-panels of its real extent.
            assert_eq!(
                pack_lens::<S>(64, 64, 64),
                (
                    64usize.next_multiple_of(mr) * 64,
                    64 * 64usize.next_multiple_of(nr)
                )
            );
            // Extents saturate at the blocking constants.
            assert_eq!(
                pack_lens::<S>(10 * MC, 10 * KC, 10 * NC),
                (MC.next_multiple_of(mr) * KC, KC * NC.next_multiple_of(nr))
            );
            // Edge rows round up to a whole micro-panel.
            assert_eq!(pack_lens::<S>(mr + 1, 3, 1), (2 * mr * 3, 3 * nr));
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn lines_round_up_per_element_size() {
        assert_eq!(lines::<f64>(0), 0);
        assert_eq!(lines::<f64>(8), 1);
        assert_eq!(lines::<f64>(9), 2);
        assert_eq!(lines::<f32>(16), 1);
        assert_eq!(lines::<f32>(17), 2);
    }

    #[test]
    fn carved_buffers_are_line_aligned_and_disjoint() {
        with_workspace(lines::<f32>(5) + lines::<f64>(9), |ws| {
            let (a, rest) = carve::<f32>(ws, 5);
            let (b, rest) = carve::<f64>(rest, 9);
            assert!(rest.is_empty());
            assert_eq!((a.len(), b.len()), (5, 9));
            assert_eq!(a.as_ptr() as usize % 64, 0);
            assert_eq!(b.as_ptr() as usize % 64, 0);
            a.fill(1.0);
            b.fill(2.0);
            assert!(a.iter().all(|&v| v == 1.0) && b.iter().all(|&v| v == 2.0));
        });
    }

    #[test]
    fn arena_grows_and_is_reused() {
        let p1 = with_workspace(13, |ws| {
            assert_eq!(ws.len(), 13);
            let (w, _) = carve::<f64>(ws, 100);
            w[99] = 7.0;
            w.as_ptr()
        });
        // A smaller request reuses the same storage, unzeroed.
        let p2 = with_workspace(7, |ws| {
            assert_eq!(ws.len(), 7);
            carve::<f64>(ws, 50).0.as_ptr()
        });
        assert_eq!(p1, p2);
        with_workspace(13, |ws| assert_eq!(carve::<f64>(ws, 100).0[99], 7.0));
    }
}
