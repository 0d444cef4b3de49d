//! Per-thread pack workspace of the blocked engine.
//!
//! Every buffer the engine packs into — the `op(A)` stripe, the `op(B)` slab,
//! SYRK's diagonal scratch tile — is carved out of one grow-only arena owned
//! by the calling thread, so a call costs what its flops cost: after the
//! first call of a given shape nothing is allocated, and nothing is ever
//! zero-filled per call ([`super::pack`] writes its own edge padding).
//!
//! Each public entry point borrows the arena once, sized by [`pack_len`] for
//! the largest product it will issue, and threads the slice down through the
//! internal view-level functions; those never re-enter the arena.

use super::gemm::{KC, MC, NC};
use super::microkernel::{MR, NR};
use std::cell::RefCell;

thread_local! {
    static ARENA: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Packed-A stripe and packed-B slab lengths of an `m × k · k × n` product:
/// the real `min(MC, m) × min(KC, k)` / `min(KC, k) × min(NC, n)` extents,
/// rounded up to whole micro-panels.
#[inline]
pub(crate) fn pack_lens(m: usize, k: usize, n: usize) -> (usize, usize) {
    let kc = KC.min(k);
    (
        MC.min(m).next_multiple_of(MR) * kc,
        kc * NC.min(n).next_multiple_of(NR),
    )
}

/// Total workspace one blocked product of this shape needs.
#[inline]
pub(crate) fn pack_len(m: usize, k: usize, n: usize) -> usize {
    let (a, b) = pack_lens(m, k, n);
    a + b
}

/// Run `f` with `len` doubles of this thread's arena (contents arbitrary).
/// The arena only ever grows, and only by what the largest request needs.
pub(crate) fn with_workspace<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    ARENA.with(|arena| {
        let mut buf = arena
            .try_borrow_mut()
            .expect("engine entry points borrow the pack arena once, never nested");
        if buf.len() < len {
            let grow = len - buf.len();
            buf.reserve_exact(grow);
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_lens_follow_real_extents() {
        // A 64³ tile product packs 64×64 of A and 64×66 of B (NR-rounded).
        assert_eq!(pack_lens(64, 64, 64), (64 * 64, 64 * 66));
        // Extents saturate at the blocking constants.
        assert_eq!(
            pack_lens(10 * MC, 10 * KC, 10 * NC),
            (MC.next_multiple_of(MR) * KC, KC * NC.next_multiple_of(NR))
        );
        // Edge rows round up to a whole micro-panel.
        assert_eq!(pack_lens(MR + 1, 3, 1), (2 * MR * 3, 3 * NR));
    }

    #[test]
    fn arena_grows_and_is_reused() {
        let p1 = with_workspace(100, |w| {
            assert_eq!(w.len(), 100);
            w[99] = 7.0;
            w.as_ptr()
        });
        // A smaller request reuses the same storage, unzeroed.
        let p2 = with_workspace(50, |w| {
            assert_eq!(w.len(), 50);
            w.as_ptr()
        });
        assert_eq!(p1, p2);
        with_workspace(100, |w| assert_eq!(w[99], 7.0));
    }
}
