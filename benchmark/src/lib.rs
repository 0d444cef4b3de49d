//! # hchol-benchmark
//!
//! The repository's end-to-end benchmark: six workloads measured on two
//! clocks — gpusim's virtual makespan and the host wall time of the
//! numerics, planner, simulator, recorders and analyzers — with a
//! per-layer decomposition taken entirely from outside the library.
//!
//! `BENCHMARK.json` at the repository root is the contract (workloads,
//! metric names, units, bounds); see `benchmark/README.md` for what each
//! workload is for and how to read the output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod env;
pub mod harness;
pub mod json;
pub mod layers;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
