//! # hchol-bench
//!
//! The experiment harness: every table and figure of the paper's evaluation
//! (Tables I–VIII, Figures 1 and 8–17), its extensions and the root
//! `BENCH_*.json` sweeps. One registry ([`registry::EXPERIMENTS`]) declares
//! each experiment — id, description, grid of systems × sizes with its
//! quick form, run function, and for the sweeps the claims checked before
//! the artifact is written — and one binary runs them ([`driver`]). A full
//! run writes the committed artifacts; a quick one writes under `target/`.
//!
//! Most experiments run on the **virtual clock** of `hchol-gpusim` in
//! `TimingOnly` mode at the paper's full sizes (up to 30720²), so a full
//! reproduction takes seconds; numerical behaviour is covered by the
//! Execute-mode test suites and by the Execute-mode experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod figure;
mod paper;
pub mod registry;
pub mod report;
pub mod runner;
mod sweeps;
