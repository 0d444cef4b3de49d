//! Microbenchmarks of the from-scratch BLAS kernels — the arithmetic
//! substrate every simulated kernel executes. (Wall-clock here; the paper
//! experiments use the virtual clock and run from the `bench` binary.)
//!
//! The sweep probes the host's single-thread FMA peak at both precisions
//! (before, between and after its sections, keeping the best reading),
//! times the blocked level-3 engine against the naive seed kernels at
//! n ∈ {256, 512, 1024, 2048} × {f64, f32}, then the tile shapes the ABFT
//! run loop really issues (NT GEMM, lower SYRK, right-TRSM, POTF2, the 2×b
//! checksum update and the 2×b encode at b ∈ {64, 128, 256} × {f64, f32},
//! min and median over repeats), then sweeps the threaded engine with and
//! without the fused checksum epilogue at n ∈ {2048, 4096} × 1/2/4
//! threads, and writes the GFLOP/s of every kernel — each row also as a
//! percentage of its precision's peak — to `BENCH_kernels.json` at the repo
//! root (machine-readable; consumed by EXPERIMENTS.md). Pass `--quick` to
//! stop the sweeps at n = 1024 and shorten per-point timing budgets; a
//! quick run writes `target/BENCH_kernels.json` and leaves the root
//! artifact — full runs only — alone, the rule every artifact follows
//! (`hchol_bench::driver::artifact_path`).

use hchol_blas::flops;
use hchol_blas::par::{par_gemm, par_gemm_fused_with_threads, par_gemm_with_threads};
use hchol_blas::{gemm, naive_gemm, naive_syrk, potf2, syrk, trsm};
use hchol_core::checksum::{encode, encode_into};
use hchol_core::chkops::{update_potf2, update_product, update_trsm};
use hchol_matrix::generate::{spd_diag_dominant, uniform};
use hchol_matrix::{DType, Diag, Matrix, Scalar, Side, Trans, Uplo};
use std::hint::black_box;
use std::time::Instant; // lint:allow(wall-clock) — microbenchmark, not a model path

// ---------------------------------------------------------------------------
// Blocked-vs-naive sweep → BENCH_kernels.json
// ---------------------------------------------------------------------------

#[derive(serde::Serialize)]
struct Entry {
    kernel: String,
    dtype: String,
    n: usize,
    seconds: f64,
    gflops: f64,
    /// `gflops` as a percentage of the single-thread FMA peak of `dtype`.
    pct_peak: f64,
}

/// One kernel at one tile shape of the ABFT run loop.
#[derive(serde::Serialize)]
struct TileEntry {
    kernel: String,
    dtype: String,
    b: usize,
    min_seconds: f64,
    median_seconds: f64,
    /// Flops ÷ median seconds.
    gflops: f64,
    /// `gflops` as a percentage of the single-thread FMA peak of `dtype`.
    pct_peak: f64,
    /// Bytes of the tile operand's footprint (`b²` elements; the lower
    /// triangle for the solve updates) ÷ median seconds, for the checksum
    /// kernels: they stream one tile per call at ≤ 4 flops per element, so
    /// memory speed is their yardstick and `pct_peak` says nothing about
    /// them.
    tile_gbps: Option<f64>,
}

/// Single-thread FMA peak per precision, GFLOP/s (see [`fma_peak`]).
#[derive(serde::Serialize, Clone, Copy)]
struct Peak {
    f64: f64,
    f32: f64,
}

impl Peak {
    /// `gflops` of a `dtype` row as a percentage of that precision's peak.
    fn pct(self, dtype: &str, gflops: f64) -> f64 {
        let peak = if dtype == DType::F32.name() {
            self.f32
        } else {
            self.f64
        };
        100.0 * gflops / peak
    }

    fn max(self, other: Peak) -> Peak {
        Peak {
            f64: self.f64.max(other.f64),
            f32: self.f32.max(other.f32),
        }
    }
}

#[derive(serde::Serialize)]
struct FusedEntry {
    n: usize,
    threads: usize,
    unfused_gflops: f64,
    fused_gflops: f64,
    /// Throughput the fused epilogue costs, percent of the unfused rate.
    epilogue_cost_pct: f64,
}

#[derive(serde::Serialize)]
struct Report {
    /// Host threads the parallel kernels could use (1 ⇒ par == sequential).
    threads: usize,
    quick: bool,
    /// What one core can retire: the denominator of every `pct_peak`.
    peak_gflops: Peak,
    results: Vec<Entry>,
    /// The per-tile kernels `ops.rs` issues, at the block sizes it issues them.
    tiles: Vec<TileEntry>,
    /// Fused vs. unfused epilogue throughput across sizes and team sizes.
    fused: Vec<FusedEntry>,
    /// gemm_blocked GFLOP/s ÷ gemm_naive GFLOP/s at n = 1024
    /// (the ≥5× single-thread acceptance figure).
    speedup_gemm_n1024: f64,
}

/// Mean seconds per call: one warmup, then iterate until the budget (or an
/// iteration cap for the slow naive points) is spent.
fn time_call<F: FnMut()>(mut f: F, budget: f64) -> f64 {
    f();
    let start = Instant::now(); // lint:allow(wall-clock) — real kernel timing

    let mut iters = 0u32;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= budget || iters >= 50 {
            return elapsed / f64::from(iters);
        }
    }
}

/// Single-thread FMA peak in GFLOP/s: twelve independent chains of
/// full-width vector FMAs that never leave the registers, best of several
/// passes. The
/// widest vector unit the CPU reports is probed with intrinsics — the
/// compiler's own vectoriser prefers 256-bit vectors on AVX-512 hosts and
/// would read half the rate; anything else gets a scalar `mul_add` loop for
/// the compiler to vectorise as it can.
fn fma_peak() -> Peak {
    const ITERS: usize = 1_000_000;
    const CHAINS: usize = 12;

    /// One probe per (vector type, element): `CHAINS` accumulators,
    /// `acc = acc·a + b`, `ITERS` rounds; returns GFLOP/s.
    #[cfg(target_arch = "x86_64")]
    macro_rules! probe {
        ($name:ident, $feat:literal, $lanes:literal, $zero:ident, $set1:ident, $fma:ident) => {
            #[target_feature(enable = $feat)]
            fn $name() -> f64 {
                use std::arch::x86_64::*;
                let (a, b) = ($set1(black_box(0.999_999)), $set1(black_box(1e-6)));
                let mut acc = [$zero(); CHAINS];
                let start = Instant::now(); // lint:allow(wall-clock) — real kernel timing
                for _ in 0..ITERS {
                    for x in acc.iter_mut() {
                        *x = $fma(*x, a, b);
                    }
                }
                let secs = start.elapsed().as_secs_f64();
                black_box(acc);
                2.0 * (CHAINS * $lanes * ITERS) as f64 / secs / 1e9
            }
        };
    }
    #[cfg(target_arch = "x86_64")]
    probe!(
        zmm_f64,
        "avx512f",
        8,
        _mm512_setzero_pd,
        _mm512_set1_pd,
        _mm512_fmadd_pd
    );
    #[cfg(target_arch = "x86_64")]
    probe!(
        zmm_f32,
        "avx512f",
        16,
        _mm512_setzero_ps,
        _mm512_set1_ps,
        _mm512_fmadd_ps
    );
    #[cfg(target_arch = "x86_64")]
    probe!(
        ymm_f64,
        "avx2,fma",
        4,
        _mm256_setzero_pd,
        _mm256_set1_pd,
        _mm256_fmadd_pd
    );
    #[cfg(target_arch = "x86_64")]
    probe!(
        ymm_f32,
        "avx2,fma",
        8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_fmadd_ps
    );

    fn portable<S: Scalar>() -> f64 {
        const WIDTH: usize = 64;
        let (a, b) = (
            black_box(S::from_f64(0.999_999)),
            black_box(S::from_f64(1e-6)),
        );
        let mut acc = [S::ZERO; WIDTH];
        let start = Instant::now(); // lint:allow(wall-clock) — real kernel timing
        for _ in 0..ITERS {
            for x in acc.iter_mut() {
                *x = x.mul_add(a, b);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(acc);
        2.0 * (WIDTH * ITERS) as f64 / secs / 1e9
    }

    let mut probes: [fn() -> f64; 2] = [portable::<f64>, portable::<f32>];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F was detected on this CPU just above.
            probes = [|| unsafe { zmm_f64() }, || unsafe { zmm_f32() }];
        } else if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: AVX2 and FMA were detected on this CPU just above.
            probes = [|| unsafe { ymm_f64() }, || unsafe { ymm_f32() }];
        }
    }
    let [f64, f32] = probes.map(|probe| (0..10).map(|_| probe()).fold(0.0, f64::max));
    Peak { f64, f32 }
}

/// Blocked-vs-naive rows of one precision at the square sizes.
fn square_sweep<S: Scalar>(sizes: &[usize], budget: f64, results: &mut Vec<Entry>) {
    let dtype = S::DTYPE.name();
    let mut push = |kernel: &str, n: usize, secs: f64, fl: u64| {
        let gflops = fl as f64 / secs / 1e9;
        println!("  {kernel:<14} {dtype} n={n:<5} {secs:>9.4} s   {gflops:>7.2} GFLOP/s");
        results.push(Entry {
            kernel: kernel.to_string(),
            dtype: dtype.to_string(),
            n,
            seconds: secs,
            gflops,
            pct_peak: f64::NAN,
        });
    };

    for &n in sizes {
        let a: Matrix<S> = uniform(n, n, -1.0, 1.0, 11).cast();
        let b: Matrix<S> = uniform(n, n, -1.0, 1.0, 12).cast();
        let mut c = Matrix::<S>::zeros(n, n);
        let gemm_fl = flops::gemm(n, n, n);

        let s = time_call(
            || naive_gemm(Trans::No, Trans::Yes, -1.0, &a, &b, 1.0, &mut c),
            budget,
        );
        push("gemm_naive", n, s, gemm_fl);
        let s = time_call(
            || gemm(Trans::No, Trans::Yes, -1.0, &a, &b, 1.0, &mut c),
            budget,
        );
        push("gemm_blocked", n, s, gemm_fl);
        let s = time_call(
            || par_gemm(Trans::No, Trans::Yes, -1.0, &a, &b, 1.0, &mut c),
            budget,
        );
        push("gemm_par", n, s, gemm_fl);

        let syrk_fl = flops::syrk(n, n);
        let s = time_call(
            || naive_syrk(Uplo::Lower, Trans::No, -1.0, &a, 1.0, &mut c),
            budget,
        );
        push("syrk_naive", n, s, syrk_fl);
        let s = time_call(
            || syrk(Uplo::Lower, Trans::No, -1.0, &a, 1.0, &mut c),
            budget,
        );
        push("syrk_blocked", n, s, syrk_fl);

        let mut l = spd_diag_dominant(n, 13);
        potf2(&mut l, 0).unwrap();
        let l: Matrix<S> = l.cast();
        let trsm_fl = flops::trsm(n, n);
        // Solved in place, so each timed call first restores its input (an
        // n² copy): left to feed on its own output the right-hand side
        // decays into subnormals, which f32 reaches within a few calls.
        let rhs0: Matrix<S> = uniform(n, n, -1.0, 1.0, 14).cast();
        let mut rhs = rhs0.clone();
        let s = time_call(
            || {
                rhs.as_mut_slice().copy_from_slice(rhs0.as_slice());
                trsm(
                    Side::Right,
                    Uplo::Lower,
                    Trans::Yes,
                    Diag::NonUnit,
                    1.0,
                    &l,
                    &mut rhs,
                );
                black_box(&mut rhs);
            },
            budget,
        );
        push("trsm_blocked", n, s, trsm_fl);
    }
}

fn sweep(quick: bool) -> Report {
    let sizes: &[usize] = if quick {
        &[256, 512, 1024]
    } else {
        &[256, 512, 1024, 2048]
    };
    let budget = if quick { 0.1 } else { 0.3 };
    // The shared host's clock wanders on a scale of seconds (one probe has
    // read anywhere from 67 to 94 f64 GFLOP/s on the CI host), and a peak is
    // a maximum: probe between the sections and keep the best reading.
    let mut peak = fma_peak();
    let mut results = Vec::new();
    square_sweep::<f64>(sizes, budget, &mut results);
    square_sweep::<f32>(sizes, budget, &mut results);
    peak = peak.max(fma_peak());

    let gf = |kernel: &str| {
        results
            .iter()
            .find(|e| e.kernel == kernel && e.dtype == "f64" && e.n == 1024)
            .map_or(f64::NAN, |e| e.gflops)
    };
    let speedup = gf("gemm_blocked") / gf("gemm_naive");
    let mut tiles = Vec::new();
    tile_sweep::<f64>(quick, &mut tiles);
    tile_sweep::<f32>(quick, &mut tiles);
    peak = peak.max(fma_peak());
    let fused = fused_sweep(quick, budget);
    peak = peak.max(fma_peak());

    println!(
        "  FMA peak, one thread: f64 {:.1} GFLOP/s, f32 {:.1} GFLOP/s; %peak per row:",
        peak.f64, peak.f32
    );
    for e in &mut results {
        e.pct_peak = peak.pct(&e.dtype, e.gflops);
        println!(
            "  {:<14} {} n={:<5} {:>5.1} %peak",
            e.kernel, e.dtype, e.n, e.pct_peak
        );
    }
    for e in &mut tiles {
        e.pct_peak = peak.pct(&e.dtype, e.gflops);
        println!(
            "  {:<14} {} b={:<5} {:>5.1} %peak",
            e.kernel, e.dtype, e.b, e.pct_peak
        );
    }
    Report {
        threads: std::thread::available_parallelism().map_or(1, |t| t.get()),
        quick,
        peak_gflops: peak,
        results,
        tiles,
        fused,
        speedup_gemm_n1024: speedup,
    }
}

/// Seconds per call of `f` as (min, median) over `reps` timed batches; a
/// batch repeats the call until it spans ~1 ms, so microsecond kernels are
/// timed well above the clock's resolution.
fn time_tile<F: FnMut()>(mut f: F, reps: usize) -> (f64, f64) {
    f();
    let one = Instant::now(); // lint:allow(wall-clock) — real kernel timing
    f();
    let iters = (1e-3 / one.elapsed().as_secs_f64().max(1e-9)).clamp(1.0, 1e4) as u32;
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now(); // lint:allow(wall-clock) — real kernel timing
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / f64::from(iters)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[0], samples[samples.len() / 2])
}

/// The kernels one iteration of the ABFT run loop issues, at its tile
/// shapes and at precision `S`: `b³` NT GEMM, `b×b` right-TRSM against Lᵀ,
/// `b×b` POTF2, and the four checksum-side kernels — the `2×b · b×b`
/// product update, the two `2×b` solve updates and the `2×b` encode.
fn tile_sweep<S: Scalar>(quick: bool, out: &mut Vec<TileEntry>) {
    let reps = if quick { 7 } else { 31 };
    let dtype = S::DTYPE.name();
    let mut push = |kernel: &str,
                    b: usize,
                    (min, median): (f64, f64),
                    fl: u64,
                    streamed: Option<usize>| {
        let gflops = fl as f64 / median / 1e9;
        let tile_gbps = streamed.map(|elems| elems as f64 * S::BYTES as f64 / median / 1e9);
        println!(
            "  {kernel:<14} {dtype} b={b:<4} min {:>9.2} us  median {:>9.2} us  {gflops:>7.2} GFLOP/s{}",
            min * 1e6,
            median * 1e6,
            tile_gbps.map_or(String::new(), |g| format!("  {g:>6.2} GB/s"))
        );
        out.push(TileEntry {
            kernel: kernel.to_string(),
            dtype: dtype.to_string(),
            b,
            min_seconds: min,
            median_seconds: median,
            gflops,
            pct_peak: f64::NAN,
            tile_gbps,
        });
    };
    for b in [64usize, 128, 256] {
        let lik: Matrix<S> = uniform(b, b, -1.0, 1.0, 31).cast();
        let ljk: Matrix<S> = uniform(b, b, -1.0, 1.0, 32).cast();
        let mut tij = Matrix::<S>::zeros(b, b);
        let t = time_tile(
            || gemm(Trans::No, Trans::Yes, -1.0, &lik, &ljk, 1.0, &mut tij),
            reps,
        );
        push("gemm_nt", b, t, flops::gemm(b, b, b), None);

        let mut diag = Matrix::<S>::zeros(b, b);
        let t = time_tile(
            || syrk(Uplo::Lower, Trans::No, -1.0, &lik, 1.0, &mut diag),
            reps,
        );
        push("syrk_lower", b, t, flops::syrk(b, b), None);

        let mut ljj = spd_diag_dominant(b, 33);
        potf2(&mut ljj, 0).unwrap();
        let ljj: Matrix<S> = ljj.cast();
        // Solve and factor in place, so each timed call first restores its
        // input (a b² copy, a few percent of the b³ kernel).
        let rhs: Matrix<S> = uniform(b, b, -1.0, 1.0, 34).cast();
        let mut panel = rhs.clone();
        let t = time_tile(
            || {
                panel.as_mut_slice().copy_from_slice(rhs.as_slice());
                trsm(
                    Side::Right,
                    Uplo::Lower,
                    Trans::Yes,
                    Diag::NonUnit,
                    1.0,
                    &ljj,
                    &mut panel,
                );
            },
            reps,
        );
        push("trsm_right", b, t, flops::trsm(b, b), None);

        let spd: Matrix<S> = spd_diag_dominant(b, 35).cast();
        let mut w = spd.clone();
        let t = time_tile(
            || {
                w.as_mut_slice().copy_from_slice(spd.as_slice());
                potf2(&mut w, 0).unwrap();
            },
            reps,
        );
        push("potf2", b, t, flops::potf2(b), None);

        let chk_src = encode(&lik);
        let mut chk = encode(&tij);
        let t = time_tile(|| update_product(&mut chk, &chk_src, &ljk), reps);
        push("update_product", b, t, flops::gemm(2, b, b), Some(b * b));

        // The solve updates run in place: restore the 2 × b input per call.
        let chk0 = chk.clone();
        type SolveUpdate<S> = fn(&mut Matrix<S>, &Matrix<S>);
        let solves: [(&str, SolveUpdate<S>); 2] =
            [("update_trsm", update_trsm), ("update_potf2", update_potf2)];
        for (kernel, update) in solves {
            let t = time_tile(
                || {
                    chk.as_mut_slice().copy_from_slice(chk0.as_slice());
                    update(&mut chk, black_box(&ljj));
                },
                reps,
            );
            push(kernel, b, t, flops::trsm(b, 2), Some(b * (b + 1) / 2));
        }

        let t = time_tile(|| encode_into(black_box(&lik), &mut chk), reps);
        push("encode_into", b, t, flops::gemm(2, b, b), Some(b * b));
    }
}

/// Fused vs. unfused epilogue throughput of the threaded level-3 engine,
/// past the single-thread ceiling: n ∈ {2048, 4096} × 1/2/4 threads (quick:
/// n ∈ {512, 1024} × 1/2). The fused variant deposits both column checksums
/// of `C` in the micro-kernel epilogue; its GFLOP/s are computed on the
/// *product* flops only, so `epilogue_cost_pct` is the true throughput
/// price of the in-kernel deposits.
fn fused_sweep(quick: bool, budget: f64) -> Vec<FusedEntry> {
    let (sizes, teams): (&[usize], &[usize]) = if quick {
        (&[512, 1024], &[1, 2])
    } else {
        (&[2048, 4096], &[1, 2, 4])
    };
    // Best-of-N rather than mean-of-budget: at these sizes one call can
    // outlast the whole budget, and a single timing on a shared host is
    // noise-dominated. The minimum is the standard robust estimator here.
    let reps = if quick { 2 } else { 3 };
    let time_best = |f: &mut dyn FnMut(), budget: f64| {
        (0..reps)
            .map(|_| time_call(&mut *f, budget))
            .fold(f64::INFINITY, f64::min)
    };
    let mut out = Vec::new();
    for &n in sizes {
        let a = uniform(n, n, -1.0, 1.0, 21);
        let b = uniform(n, n, -1.0, 1.0, 22);
        let mut c = Matrix::zeros(n, n);
        let mut chk = Matrix::zeros(2, n);
        let fl = flops::gemm(n, n, n) as f64;
        for &t in teams {
            let s = time_best(
                &mut || par_gemm_with_threads(Trans::No, Trans::Yes, -1.0, &a, &b, 1.0, &mut c, t),
                budget,
            );
            let unfused_gflops = fl / s / 1e9;
            let s = time_best(
                &mut || {
                    par_gemm_fused_with_threads(
                        Trans::No,
                        Trans::Yes,
                        -1.0,
                        &a,
                        &b,
                        1.0,
                        &mut c,
                        &mut chk,
                        t,
                    )
                },
                budget,
            );
            let fused_gflops = fl / s / 1e9;
            let cost = (unfused_gflops - fused_gflops) / unfused_gflops * 100.0;
            println!(
                "  gemm n={n:<5} threads={t}: unfused {unfused_gflops:>7.2} GF/s, \
                 fused {fused_gflops:>7.2} GF/s (epilogue cost {cost:>5.2}%)"
            );
            out.push(FusedEntry {
                n,
                threads: t,
                unfused_gflops,
                fused_gflops,
                epilogue_cost_pct: cost,
            });
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Under `cargo test --benches` the build is the smoke test.
    if args.iter().any(|a| a == "--test") {
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    println!(
        "\nblocked-vs-naive sweep ({}):",
        if quick { "quick" } else { "full" }
    );
    let report = sweep(quick);
    println!(
        "\ngemm blocked/naive speedup at n=1024: {:.2}x",
        report.speedup_gemm_n1024
    );
    let env = hchol_obs::envelope("bench", "kernels", serde::Serialize::to_value(&report));
    let json = serde_json::to_string_pretty(&env).expect("serialize report");
    // The root artifact is full-run only; a quick pass lands under target/.
    let path = hchol_bench::driver::artifact_path(quick, "BENCH_kernels.json");
    std::fs::write(&path, json).expect("write kernel bench artifact");
    println!("wrote {}", path.display());
}
