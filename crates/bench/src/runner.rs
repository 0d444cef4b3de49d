//! One shape for every factorization an experiment runs: a [`Case`] names
//! the system, size and block, and only what sets the run apart from a
//! fault-free TimingOnly run with default options.

use hchol_blas::potrf::reconstruct_lower;
use hchol_core::cula::factor_cula;
use hchol_core::magma::{factor_magma, factor_outer};
use hchol_core::options::AbftOptions;
use hchol_core::plan::exec::{run_batch, BatchRequest};
use hchol_core::schemes::{run_scheme_typed, FactorOutcome, SchemeKind};
use hchol_faults::FaultPlan;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;
use hchol_matrix::{relative_residual, Matrix, Scalar};

/// A factorization variant under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Plain MAGMA-style hybrid Cholesky (no fault tolerance).
    Magma,
    /// Simulated CULA R18 baseline.
    Cula,
    /// The right-looking outer-product form ([`factor_outer`]).
    Outer,
    /// One of the three ABFT schemes.
    Scheme(SchemeKind),
}

/// One factorization: system, matrix size and block size, plus the options
/// and fault plan when they differ from the defaults (none).
#[derive(Clone)]
pub struct Case<'a> {
    profile: &'a SystemProfile,
    n: usize,
    b: usize,
    opts: AbftOptions,
    faults: FaultPlan,
}

impl<'a> Case<'a> {
    /// A fault-free run of `n × n` in blocks of `b` with default options.
    pub fn new(profile: &'a SystemProfile, n: usize, b: usize) -> Self {
        Case {
            profile,
            n,
            b,
            opts: AbftOptions::default(),
            faults: FaultPlan::none(),
        }
    }

    /// The same case under `opts` (ABFT schemes only).
    pub fn with_opts(self, opts: AbftOptions) -> Self {
        Case { opts, ..self }
    }

    /// The same case under the fault plan `faults` (ABFT schemes only).
    pub fn with_faults(self, faults: FaultPlan) -> Self {
        Case { faults, ..self }
    }

    /// The same case without the program view, for runs whose clock alone
    /// is read.
    fn untraced(&self) -> Self {
        let opts = AbftOptions {
            trace_schedule: false,
            ..self.opts.clone()
        };
        self.clone().with_opts(opts)
    }

    /// Virtual seconds of `variant` in TimingOnly mode.
    pub fn secs(&self, variant: Variant) -> f64 {
        let (p, n, b, mode) = (self.profile, self.n, self.b, ExecMode::TimingOnly);
        let time = match variant {
            Variant::Magma => factor_magma(p, mode, n, b, None, false).map(|r| r.time),
            Variant::Cula => factor_cula(p, mode, n, b, None).map(|r| r.time),
            Variant::Outer => factor_outer(p, mode, n, b, None, false).map(|r| r.time),
            Variant::Scheme(kind) => return self.untraced().run(kind).time.as_secs(),
        };
        time.unwrap_or_else(|e| panic!("{variant:?} n={n} b={b}: {e}"))
            .as_secs()
    }

    /// Run the ABFT scheme `kind` in TimingOnly mode.
    pub fn run(&self, kind: SchemeKind) -> FactorOutcome {
        self.go::<f64>(kind, ExecMode::TimingOnly, None)
    }

    /// Run the ABFT scheme `kind` in Execute mode on `a`, at `a`'s precision.
    pub fn execute<S: Scalar>(&self, kind: SchemeKind, a: &Matrix<S>) -> FactorOutcome<S> {
        self.go(kind, ExecMode::Execute, Some(a))
    }

    fn go<S: Scalar>(
        &self,
        kind: SchemeKind,
        mode: ExecMode,
        a: Option<&Matrix<S>>,
    ) -> FactorOutcome<S> {
        let (n, b) = (self.n, self.b);
        run_scheme_typed(
            kind,
            self.profile,
            mode,
            n,
            b,
            &self.opts,
            self.faults.clone(),
            a,
        )
        .unwrap_or_else(|e| panic!("{} n={n} b={b}: {e}", kind.name()))
    }

    /// Virtual seconds of `batch` runs of `kind` back to back, and of the
    /// same runs interleaved through one simulator context ([`run_batch`]);
    /// both TimingOnly with no program view.
    pub fn batched(&self, kind: SchemeKind, batch: usize) -> (f64, f64) {
        let one = self.untraced();
        let sequential: f64 = (0..batch).map(|_| one.run(kind).time.as_secs()).sum();
        let (n, b, opts) = (self.n, self.b, &one.opts);
        let reqs: Vec<BatchRequest> = (0..batch)
            .map(|_| BatchRequest {
                kind,
                n,
                b,
                opts: opts.clone(),
            })
            .collect();
        let batched = run_batch(self.profile, &reqs).expect("batched run");
        (sequential, batched.time.as_secs())
    }
}

/// Relative overhead of `t` against baseline `base`, in percent.
pub fn overhead_pct(t: f64, base: f64) -> f64 {
    (t - base) / base * 100.0
}

/// GFLOP/s of an `n × n` Cholesky (`n³/3` flops) taking `secs`.
pub fn gflops(n: usize, secs: f64) -> f64 {
    (n as f64).powi(3) / 3.0 / secs / 1e9
}

/// `‖LLᵀ − A‖ / ‖A‖` of a run's factor; infinite when it produced none.
pub fn residual<S: Scalar>(out: &FactorOutcome<S>, a: &Matrix<S>) -> f64 {
    out.factor.as_ref().map_or(f64::INFINITY, |l| {
        relative_residual(&reconstruct_lower(l), a)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_runs_in_timing_mode() {
        let p = SystemProfile::test_profile();
        let case = Case::new(&p, 64, 8);
        let baselines = [Variant::Magma, Variant::Cula, Variant::Outer];
        for v in baselines
            .into_iter()
            .chain(SchemeKind::all().map(Variant::Scheme))
        {
            assert!(case.secs(v) > 0.0, "{v:?} produced zero time");
        }
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

    #[test]
    fn batched_mode_reports_a_speedup() {
        let p = SystemProfile::test_profile();
        let (sequential, batched) = Case::new(&p, 256, 32).batched(SchemeKind::Enhanced, 4);
        assert!(
            batched < sequential,
            "batched {batched} vs sequential {sequential}"
        );
    }

    #[test]
    fn overhead_pct_basics() {
        assert!((overhead_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(1.0, 1.0), 0.0);
    }
}
