//! The host-thread team: one fork-join primitive ([`for_each`]) and the
//! kernels built on it.
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
//! of such a tile, one column of a solve — has exactly one writer and makes
//! the same kernel calls in the same order as the sequential loop. (The
//! stand-alone [`par_gemm_fused`] is the exception: its per-thread checksum
//! lanes are reduced after the join, so they agree with [`gemm_fused`] to
//! rounding only.)
//!
//! [`par_gemm`] follows the blocked engine's macro-tiles: within each
//! `(jc, pc)` block the packed-B panel is shared read-only by the whole team
//! while `MC`-row stripes of `C` (each with its own packed-A buffer) are
//! dealt round-robin — stripes are disjoint, so nothing synchronizes beyond
//! the join.

use crate::level2::trsv;
use crate::level3::{
    apply_beta, carve, gemm, gemm_blocked, gemm_fused, kernel_table, lines, pack_a, pack_b,
    pack_lens, pack_lines, run_tiles, use_blocked, with_workspace, ChkAcc, MatMut, MatRef, KC, MC,
    NC,
};
use hchol_matrix::{Diag, Matrix, Scalar, Trans, Uplo};
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

/// Parallel `C := alpha·op(A)·op(B) + beta·C`.
///
/// Same contract and (to rounding) same result as [`crate::gemm`];
/// products too small for the blocked engine — or hosts with one core —
/// run the sequential kernel.
pub fn par_gemm<S: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
) {
    par_gemm_with_threads(trans_a, trans_b, alpha, a, b, beta, c, team_size());
}

/// [`par_gemm`] with an explicit team size instead of the host's core
/// count — the knob the kernel benchmarks sweep. `threads` is clamped to
/// the number of `MC` row stripes; `0` or `1` runs the sequential engine.
#[allow(clippy::too_many_arguments)]
pub fn par_gemm_with_threads<S: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
    threads: usize,
) {
    let (m, ka) = trans_a.apply(a.shape());
    let (kb, n) = trans_b.apply(b.shape());
    assert_eq!(ka, kb, "par_gemm inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "par_gemm output shape mismatch");
    let k = ka;

    let threads = threads.min(m.div_ceil(MC));
    if threads <= 1 || !use_blocked(m, n, k) || alpha == 0.0 || k == 0 {
        gemm(trans_a, trans_b, alpha, a, b, beta, c);
        return;
    }

    apply_beta(beta, c.as_mut_slice());
    let av = MatRef::new(a, trans_a);
    let bv = MatRef::new(b, trans_b);
    let cv = MatMut::new(c);
    par_macro_loop(alpha, &av, &bv, cv, threads, &mut []);
}

/// Parallel [`crate::level3::gemm_fused`]: the product plus the two weighted
/// column checksums of the finished `C`, with per-thread epilogue
/// accumulators reduced after the macro-tile join.
#[allow(clippy::too_many_arguments)]
pub fn par_gemm_fused<S: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
    chk: &mut Matrix<S>,
) {
    par_gemm_fused_with_threads(trans_a, trans_b, alpha, a, b, beta, c, chk, team_size());
}

/// [`par_gemm_fused`] with an explicit team size (see
/// [`par_gemm_with_threads`] for the clamping rules).
#[allow(clippy::too_many_arguments)]
pub fn par_gemm_fused_with_threads<S: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: f64,
    a: &Matrix<S>,
    b: &Matrix<S>,
    beta: f64,
    c: &mut Matrix<S>,
    chk: &mut Matrix<S>,
    threads: usize,
) {
    let (m, ka) = trans_a.apply(a.shape());
    let (kb, n) = trans_b.apply(b.shape());
    assert_eq!(ka, kb, "par_gemm_fused inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "par_gemm_fused output shape mismatch");
    assert_eq!(
        chk.shape(),
        (2, n),
        "par_gemm_fused checksum shape mismatch"
    );
    let k = ka;

    let threads = threads.min(m.div_ceil(MC));
    if threads <= 1 || !use_blocked(m, n, k) || alpha == 0.0 || k == 0 {
        gemm_fused(trans_a, trans_b, alpha, a, b, beta, c, chk);
        return;
    }

    apply_beta(beta, c.as_mut_slice());
    let av = MatRef::new(a, trans_a);
    let bv = MatRef::new(b, trans_b);
    let cv = MatMut::new(c);
    // One (v1, v2) epilogue accumulator pair per member, reduced in member
    // order once every macro tile has joined.
    let mut tacc: Vec<(Vec<f64>, Vec<f64>)> =
        (0..threads).map(|_| (vec![0.0; n], vec![0.0; n])).collect();
    par_macro_loop(alpha, &av, &bv, cv, threads, &mut tacc);
    for j in 0..n {
        let (v1, v2) = tacc
            .iter()
            .fold((0.0, 0.0), |(s1, s2), (t1, t2)| (s1 + t1[j], s2 + t2[j]));
        chk.set(0, j, S::from_f64(v1));
        chk.set(1, j, S::from_f64(v2));
    }
}

/// Threaded macro-loop: identical blocking to the sequential engine, with
/// the `ic` stripe loop of each `(jc, pc)` block split across a team of
/// `threads`. The caller (member 0) packs each B slab into its arena beside
/// its own A stripe buffer; every other member packs its A stripes into its
/// own arena. `tacc` holds one `(v1, v2)` epilogue accumulator pair per
/// member (fused), or is empty (plain).
fn par_macro_loop<S: Scalar>(
    alpha: f64,
    a: &MatRef<'_, S>,
    b: &MatRef<'_, S>,
    c: MatMut<S>,
    threads: usize,
    tacc: &mut [(Vec<f64>, Vec<f64>)],
) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let stripes = m.div_ceil(MC);
    let t = kernel_table::<S>();
    let (a_len, b_len) = pack_lens::<S>(m, k, n);
    with_workspace(lines::<S>(b_len) + lines::<S>(a_len), |ws| {
        let (packed_b, ws) = carve::<S>(ws, b_len);
        let (own_a, _) = carve::<S>(ws, a_len);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let last_slab = pc + kc == k;
                pack_b(&b.sub(pc, jc, kc, nc), t.nr, packed_b);
                let pb: &[S] = packed_b;
                let mut accs = tacc.iter_mut();
                let mut own = Some(&mut *own_a);
                let members: Vec<_> = (0..threads)
                    .map(|tid| (tid, own.take(), accs.next().filter(|_| last_slab), c))
                    .collect();
                for_each_with_threads(members, threads, |(tid, own_a, mut acc, c)| {
                    // Round-robin stripe assignment: stripe si → member
                    // si mod threads. Stripes are disjoint C row ranges.
                    let mut stripes_of = |packed_a: &mut [S]| {
                        for si in (tid..stripes).step_by(threads) {
                            let ic = si * MC;
                            let mc = MC.min(m - ic);
                            pack_a(&a.sub(ic, pc, mc, kc), t.mr, packed_a);
                            let mut epi = acc.as_mut().map(|(v1, v2)| ChkAcc {
                                row0: ic,
                                col0: jc,
                                v1: &mut v1[..],
                                v2: &mut v2[..],
                            });
                            run_tiles(
                                alpha,
                                kc,
                                packed_a,
                                pb,
                                &c.sub(ic, jc, mc, nc),
                                epi.as_mut(),
                            );
                        }
                    };
                    match own_a {
                        Some(packed_a) => stripes_of(packed_a),
                        None => with_workspace(lines::<S>(a_len), |ws| {
                            stripes_of(carve::<S>(ws, a_len).0)
                        }),
                    }
                });
            }
        }
    });
}

/// Parallel left-sided triangular solve `op(A)·X = alpha·B`: every column
/// of `B` is an independent `trsv`, dealt round-robin to the team.
pub fn par_trsm_left<S: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: &Matrix<S>,
    b: &mut Matrix<S>,
) {
    assert!(a.is_square(), "par_trsm_left A must be square");
    assert_eq!(a.rows(), b.rows(), "par_trsm_left dimension mismatch");
    if alpha != 1.0 {
        apply_beta(alpha, b.as_mut_slice());
    }
    let rows = b.rows();
    if rows == 0 || b.cols() == 0 {
        return;
    }
    let cols = b.as_mut_slice().chunks_mut(rows).collect();
    for_each(cols, |x| trsv(uplo, trans, diag, a, x));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level3::gemm;
    use crate::level3::trsm;
    use hchol_matrix::generate::uniform;
    use hchol_matrix::{approx_eq, Matrix, Side};
    use std::sync::Mutex;

    #[test]
    fn par_gemm_matches_sequential_all_transposes() {
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let a_shape = ta.apply((33, 17));
            let b_shape = tb.apply((17, 29));
            let a = uniform(a_shape.0, a_shape.1, -1.0, 1.0, 1);
            let b = uniform(b_shape.0, b_shape.1, -1.0, 1.0, 2);
            let mut c1 = uniform(33, 29, -1.0, 1.0, 3);
            let mut c2 = c1.clone();
            gemm(ta, tb, 1.3, &a, &b, 0.4, &mut c1);
            par_gemm(ta, tb, 1.3, &a, &b, 0.4, &mut c2);
            assert!(approx_eq(&c1, &c2, 1e-12), "ta={ta:?} tb={tb:?}");
        }
    }

    #[test]
    fn threaded_macro_loop_matches_sequential() {
        // Drive par_macro_loop directly with several threads so the
        // threaded path is exercised even on single-core CI hosts.
        let (m, n, k) = (2 * MC + 9, NC.min(80) + 7, KC + 5);
        let a = uniform(m, k, -1.0, 1.0, 6);
        let b = uniform(k, n, -1.0, 1.0, 7);
        let mut c1 = uniform(m, n, -1.0, 1.0, 8);
        let mut c2 = c1.clone();
        gemm(Trans::No, Trans::No, 0.9, &a, &b, -0.2, &mut c1);
        apply_beta(-0.2, c2.as_mut_slice());
        let av = MatRef::new(&a, Trans::No);
        let bv = MatRef::new(&b, Trans::No);
        let cv = MatMut::new(&mut c2);
        par_macro_loop(0.9, &av, &bv, cv, 3, &mut []);
        assert!(approx_eq(&c1, &c2, 1e-12));
    }

    #[test]
    fn par_trsm_left_matches_sequential() {
        let n = 24;
        let mut l = uniform(n, n, -0.4, 0.4, 4);
        for j in 0..n {
            for i in 0..j {
                l.set(i, j, 0.0);
            }
            l.set(j, j, 3.0);
        }
        let b0 = uniform(n, 9, -1.0, 1.0, 5);
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            Diag::NonUnit,
            2.0,
            &l,
            &mut b1,
        );
        par_trsm_left(Uplo::Lower, Trans::No, Diag::NonUnit, 2.0, &l, &mut b2);
        assert!(approx_eq(&b1, &b2, 1e-12));
    }

    #[test]
    fn par_gemm_fused_matches_sequential_across_thread_counts() {
        // Checksum accumulation is per-thread and reduced at the join; every
        // team size must agree with the sequential fused engine to rounding.
        let (m, n, k) = (2 * MC + 9, 60, KC + 5);
        let a = uniform(m, k, -1.0, 1.0, 31);
        let b = uniform(k, n, -1.0, 1.0, 32);
        let c0 = uniform(m, n, -1.0, 1.0, 33);
        let mut c_ref = c0.clone();
        let mut chk_ref = Matrix::zeros(2, n);
        gemm_fused(
            Trans::No,
            Trans::No,
            0.9,
            &a,
            &b,
            -0.2,
            &mut c_ref,
            &mut chk_ref,
        );
        for threads in [1, 2, 3, 4] {
            let mut c = c0.clone();
            let mut chk = Matrix::zeros(2, n);
            par_gemm_fused_with_threads(
                Trans::No,
                Trans::No,
                0.9,
                &a,
                &b,
                -0.2,
                &mut c,
                &mut chk,
                threads,
            );
            assert!(approx_eq(&c, &c_ref, 0.0), "threads={threads}");
            assert!(approx_eq(&chk, &chk_ref, 1e-10), "threads={threads}");
        }
    }

    #[test]
    fn par_gemm_fused_transposes_match_reference() {
        for (ta, tb) in [
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let (m, n, k) = (MC + 11, 47, KC + 3);
            let a_shape = ta.apply((m, k));
            let b_shape = tb.apply((k, n));
            let a = uniform(a_shape.0, a_shape.1, -1.0, 1.0, 34);
            let b = uniform(b_shape.0, b_shape.1, -1.0, 1.0, 35);
            let mut c = uniform(m, n, -1.0, 1.0, 36);
            let mut c_ref = c.clone();
            let mut chk = Matrix::zeros(2, n);
            let mut chk_ref = Matrix::zeros(2, n);
            par_gemm_fused_with_threads(ta, tb, 1.2, &a, &b, 0.3, &mut c, &mut chk, 3);
            gemm_fused(ta, tb, 1.2, &a, &b, 0.3, &mut c_ref, &mut chk_ref);
            assert!(approx_eq(&c, &c_ref, 0.0), "ta={ta:?} tb={tb:?}");
            assert!(approx_eq(&chk, &chk_ref, 1e-10), "ta={ta:?} tb={tb:?}");
        }
    }

    #[test]
    fn par_gemm_with_threads_matches_sequential() {
        let (m, n, k) = (2 * MC + 1, 52, KC + 9);
        let a = uniform(m, k, -1.0, 1.0, 37);
        let b = uniform(k, n, -1.0, 1.0, 38);
        let mut c1 = uniform(m, n, -1.0, 1.0, 39);
        let mut c2 = c1.clone();
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c1);
        par_gemm_with_threads(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c2, 4);
        assert!(approx_eq(&c1, &c2, 1e-12));
    }

    #[test]
    fn par_gemm_beta_zero_clears_nan() {
        let a = Matrix::identity(4);
        let b = Matrix::identity(4);
        let mut c = Matrix::filled(4, 4, f64::NAN);
        par_gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(approx_eq(&c, &Matrix::identity(4), 0.0));
    }

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
