//! # hchol-bench
//!
//! The experiment harness: everything needed to regenerate every table and
//! figure of the paper's evaluation section (Tables I–VIII, Figures 1 and
//! 8–17). Each experiment is a binary under `src/bin/`; shared machinery —
//! variant runner, size sweeps, plain-text/CSV reporting — lives here.
//!
//! All experiments run on the **virtual clock** of `hchol-gpusim` in
//! `TimingOnly` mode at the paper's full matrix sizes (up to 30720²), so a
//! full reproduction takes seconds of wall time on any machine. Numerical
//! behaviour (real fault injection and correction) is covered by the
//! Execute-mode test suites; `table07`/`table08` additionally run a scaled
//! Execute-mode replica to show real corrections happening.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod outer;
pub mod report;
pub mod runner;
pub mod sweep;

pub use args::BenchArgs;
pub use runner::{run_variant, RunResult, Variant};
pub use sweep::{paper_sizes, system_by_name};
