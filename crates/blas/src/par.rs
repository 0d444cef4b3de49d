//! The host-thread team: one fork-join primitive ([`for_each`]) and the
//! batched trailing update built on it ([`rank_update_batch`]).
//!
//! The simulated device charges time from its cost model, so the team moves
//! no virtual clock. It makes *real* wall-clock work scale across host
//! cores: every Execute-mode factorization (`hchol-core` hands its panel
//! GEMM/SYRK/TRSM tiles, input tiling and factor extraction to the team),
//! tests, examples and library users factoring actual matrices.
//!
//! **The team.** A fork runs on `std::thread::scope`: item `i` goes to
//! member `i mod t`, and member 0 is the caller's own thread. `t` is the
//! host's `available_parallelism()`, read once per process, clamped to the
//! number of items; a team of one runs inline, in item order. There is no
//! pool and no knob: each fork spawns `t − 1` threads, and a fresh thread
//! grows its own pack arena on its first blocked product.
//!
//! **Bits.** [`for_each`] and [`rank_update_batch`] never move a bit: each
//! unit of work — an output tile with its whole k-chain, one `MC`-row stripe
//! of such a tile, one tile of a panel solve — has exactly one writer and
//! makes the same kernel calls in the same order as the sequential loop.

use crate::level3::{
    gemm, gemm_blocked, gemm_fused, pack_lines, use_blocked, with_workspace, MatMut, MatRef, MC,
};
use hchol_matrix::{Matrix, Scalar, Trans};
use std::sync::OnceLock;

/// Members of the team: the host's `available_parallelism()`, read once per
/// process (the query costs as much as a 64³ tile product).
fn team_size() -> usize {
    static TEAM: OnceLock<usize> = OnceLock::new();
    *TEAM.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run `f` once on every item, on the host's team (see the module docs):
/// item `i` on member `i mod t`, member 0 being the calling thread. Returns
/// after every item has run.
pub fn for_each<T: Send>(items: Vec<T>, f: impl Fn(T) + Sync) {
    for_each_with_threads(items, team_size(), f);
}

/// [`for_each`] on a team of `threads` (clamped to `1..=items.len()`); a
/// team of one runs the items inline, in order.
fn for_each_with_threads<T: Send>(items: Vec<T>, threads: usize, f: impl Fn(T) + Sync) {
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        items.into_iter().for_each(f);
        return;
    }
    let share = items.len().div_ceil(threads);
    let mut shares: Vec<Vec<T>> = (0..threads).map(|_| Vec::with_capacity(share)).collect();
    for (i, item) in items.into_iter().enumerate() {
        shares[i % threads].push(item);
    }
    let mut shares = shares.into_iter();
    let own = shares.next().unwrap_or_default();
    let f = &f;
    std::thread::scope(|s| {
        for share in shares {
            s.spawn(move || share.into_iter().for_each(f));
        }
        own.into_iter().for_each(f);
    });
}

/// One output tile of a batched trailing update `C := C − Σₖ Aₖ·Bₖᵀ` — a
/// tile of MAGMA's panel GEMM, or its diagonal SYRK tile (`Aₖ = Bₖ`).
pub struct RankUpdate<'a, S: Scalar> {
    /// The tile, updated in place.
    pub c: &'a mut Matrix<S>,
    /// The `(Aₖ, Bₖ)` pairs, applied in this order.
    pub chain: &'a [(&'a Matrix<S>, &'a Matrix<S>)],
    /// With a deposit, the chain's last product runs as [`gemm_fused`] and
    /// leaves the two column checksums of the finished tile here.
    pub deposit: Option<&'a mut Matrix<S>>,
}

impl<S: Scalar> RankUpdate<'_, S> {
    /// The sequential definition: one [`gemm`] per pair, in chain order.
    fn run(self) {
        let last = self.chain.len().saturating_sub(1);
        let mut deposit = self.deposit;
        for (k, &(a, b)) in self.chain.iter().enumerate() {
            match deposit.as_deref_mut().filter(|_| k == last) {
                Some(chk) => gemm_fused(Trans::No, Trans::Yes, -1.0, a, b, 1.0, self.c, chk),
                None => gemm(Trans::No, Trans::Yes, -1.0, a, b, 1.0, self.c),
            }
        }
    }

    /// `MC`-row stripes the tile may split into without moving a bit: more
    /// than one only when every product of the chain is one the blocked
    /// engine runs (its `ic` loop visits exactly these stripes, one after
    /// another) and no deposit is asked for (splitting would re-associate
    /// the f64 checksum lanes).
    fn stripes(&self) -> usize {
        let (m, n) = self.c.shape();
        let blocked = self.chain.iter().all(|(a, b)| {
            a.rows() == m && b.rows() == n && a.cols() == b.cols() && use_blocked(m, n, a.cols())
        });
        if self.deposit.is_none() && blocked {
            m.div_ceil(MC)
        } else {
            1
        }
    }
}

/// One `MC`-row stripe of a split [`RankUpdate`]: rows `row0..` of `c`.
struct Stripe<'a, S: Scalar> {
    c: MatMut<S>,
    chain: &'a [(&'a Matrix<S>, &'a Matrix<S>)],
    row0: usize,
}

impl<S: Scalar> Stripe<'_, S> {
    /// The chain on this stripe's rows: per product, the blocked engine's
    /// `ic` iteration for this stripe, alone.
    fn run(self) {
        let (m, n) = (self.c.rows, self.c.cols);
        let mc = MC.min(m - self.row0);
        let c = self.c.sub(self.row0, 0, mc, n);
        for &(a, b) in self.chain {
            let k = a.cols();
            let av = MatRef::new(a, Trans::No).sub(self.row0, 0, mc, k);
            let bv = MatRef::new(b, Trans::Yes);
            with_workspace(pack_lines::<S>(mc, k, n), |ws| {
                gemm_blocked(-1.0, &av, &bv, &c, None, ws)
            });
        }
    }
}

/// A unit of work of [`rank_update_batch`].
enum Unit<'a, S: Scalar> {
    Tile(RankUpdate<'a, S>),
    Stripe(Stripe<'a, S>),
}

/// Run a batch of [`RankUpdate`]s on the team, every output bit equal to
/// running them one after another. The unit of work is a tile with its
/// whole chain; when the batch has fewer tiles than the team, each tile
/// that [may](RankUpdate) splits into its `MC`-row stripes instead.
pub fn rank_update_batch<S: Scalar>(batch: Vec<RankUpdate<'_, S>>) {
    rank_update_batch_with_threads(batch, team_size());
}

/// [`rank_update_batch`] on a team of `threads`.
fn rank_update_batch_with_threads<S: Scalar>(batch: Vec<RankUpdate<'_, S>>, threads: usize) {
    let split = batch.len() < threads;
    let mut units = Vec::with_capacity(if split { threads } else { batch.len() });
    for u in batch {
        match if split { u.stripes() } else { 1 } {
            1 => units.push(Unit::Tile(u)),
            stripes => {
                let (c, chain) = (MatMut::new(u.c), u.chain);
                units.extend((0..stripes).map(|s| {
                    Unit::Stripe(Stripe {
                        c,
                        chain,
                        row0: s * MC,
                    })
                }));
            }
        }
    }
    for_each_with_threads(units, threads, |u| match u {
        Unit::Tile(t) => t.run(),
        Unit::Stripe(s) => s.run(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_matrix::approx_eq;
    use hchol_matrix::generate::uniform;
    use std::sync::Mutex;

    #[test]
    fn team_runs_every_item_once_dealt_round_robin_from_the_caller() {
        let caller = std::thread::current().id();
        for threads in 1..=4 {
            for len in 0..10usize {
                let seen = Mutex::new(vec![None; len]);
                for_each_with_threads((0..len).collect(), threads, |i| {
                    let mut seen = seen.lock().expect("no member panicked");
                    assert!(seen[i].is_none(), "item {i} ran twice");
                    seen[i] = Some(std::thread::current().id());
                });
                let seen: Vec<_> = seen.into_inner().expect("no member panicked");
                let t = threads.min(len).max(1);
                for (i, who) in seen.iter().enumerate() {
                    let who = who.expect("every item runs");
                    assert_eq!(
                        who == caller,
                        i % t == 0,
                        "threads={threads} len={len} item {i}"
                    );
                    assert_eq!(Some(who), seen[i % t], "item {i} left member {}", i % t);
                }
            }
        }
    }

    /// Operands of a batch of `tiles` output tiles `m × n`, each with a
    /// chain of `depth` products of inner size `k`: the tiles, then the
    /// `(A, B)` pairs of every chain.
    type Operands = (Vec<Matrix>, Vec<Vec<(Matrix, Matrix)>>);

    fn operands(
        tiles: usize,
        (m, n, k): (usize, usize, usize),
        depth: usize,
        seed: u64,
    ) -> Operands {
        let c = (0..tiles)
            .map(|t| uniform(m, n, -1.0, 1.0, seed + 100 * t as u64))
            .collect();
        let chains = (0..tiles)
            .map(|t| {
                (0..depth)
                    .map(|d| {
                        let s = seed + 100 * t as u64 + 2 * d as u64 + 1;
                        (uniform(m, k, -1.0, 1.0, s), uniform(n, k, -1.0, 1.0, s + 1))
                    })
                    .collect()
            })
            .collect();
        (c, chains)
    }

    /// The team against a plain loop of `gemm` / `gemm_fused` calls, bit for
    /// bit on every tile and every deposit, for team sizes 1..=4.
    fn check_batch(tiles: usize, shape: (usize, usize, usize), depth: usize, fused: bool) {
        let (c0, chains) = operands(tiles, shape, depth, 7 + shape.0 as u64);
        let n = shape.1;
        let mut want = c0.clone();
        let mut want_chk = vec![Matrix::zeros(2, n); tiles];
        for ((c, chain), chk) in want.iter_mut().zip(&chains).zip(&mut want_chk) {
            for (k, (a, b)) in chain.iter().enumerate() {
                if fused && k + 1 == depth {
                    gemm_fused(Trans::No, Trans::Yes, -1.0, a, b, 1.0, c, chk);
                } else {
                    gemm(Trans::No, Trans::Yes, -1.0, a, b, 1.0, c);
                }
            }
        }
        let refs: Vec<Vec<_>> = chains
            .iter()
            .map(|chain| chain.iter().map(|(a, b)| (a, b)).collect())
            .collect();
        for threads in 1..=4 {
            let mut got = c0.clone();
            let mut got_chk = vec![Matrix::zeros(2, n); tiles];
            let batch = got
                .iter_mut()
                .zip(&refs)
                .zip(&mut got_chk)
                .map(|((c, chain), chk)| RankUpdate {
                    c,
                    chain: chain.as_slice(),
                    deposit: fused.then_some(chk),
                })
                .collect();
            rank_update_batch_with_threads(batch, threads);
            let at = format!(
                "tiles={tiles} shape={shape:?} depth={depth} fused={fused} threads={threads}"
            );
            for (g, w) in got.iter().zip(&want) {
                assert!(approx_eq(g, w, 0.0), "tile bits moved: {at}");
            }
            for (g, w) in got_chk.iter().zip(&want_chk) {
                assert!(approx_eq(g, w, 0.0), "deposit bits moved: {at}");
            }
        }
    }

    /// Square tiles at b ∈ {64, 128, 256} (b = 256 is the first that splits
    /// into two `MC` stripes), a ragged edge tile (`n % b ≠ 0`: fewer rows
    /// than the block), and single-tile batches — the SYRK shape, which a
    /// team of two or more always splits when it can.
    #[test]
    fn rank_update_batches_equal_the_sequential_calls_bit_for_bit() {
        let blocks: &[usize] = if cfg!(debug_assertions) {
            &[64]
        } else {
            &[64, 128, 256]
        };
        let ragged = if cfg!(debug_assertions) {
            (MC + 8, 64, 64)
        } else {
            (200, 256, 256)
        };
        for fused in [false, true] {
            for &b in blocks {
                check_batch(3, (b, b, b), 3, fused);
                check_batch(1, (b, b, b), 3, fused);
            }
            check_batch(2, ragged, 2, fused);
            check_batch(1, ragged, 2, fused);
            check_batch(1, (ragged.0, ragged.0, ragged.2), 2, fused);
        }
    }

    #[test]
    fn only_unfused_blocked_tiles_split_into_their_stripes() {
        let stripes = |shape: (usize, usize, usize), fused: bool| {
            let (mut c, chain) = operands(1, shape, 1, 3);
            let mut chk = Matrix::zeros(2, shape.1);
            let (a, b) = &chain[0][0];
            RankUpdate {
                c: &mut c[0],
                chain: &[(a, b)],
                deposit: fused.then_some(&mut chk),
            }
            .stripes()
        };
        assert_eq!(stripes((2 * MC + 1, 64, 64), false), 3);
        assert_eq!(stripes((2 * MC + 1, 64, 64), true), 1);
        // Below the blocked engine's thresholds the product is one naive
        // call, which has no stripes to split along.
        assert_eq!(stripes((2 * MC + 1, 4, 64), false), 1);
    }
}
