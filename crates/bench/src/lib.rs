//! # loom-bench
//!
//! Experiment definitions for the LOOM reproduction.
//!
//! The paper (a work-in-progress workshop paper) contains no result tables;
//! DESIGN.md §6 defines the experiment suite this crate regenerates — one
//! function per experiment, each returning renderable [`Table`]s. The
//! `experiments` binary is a thin CLI over [`experiments`]. Speed is measured
//! by `loom-benchmark` (`benchmark/`, declared in `BENCHMARK.json`), not
//! here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod scenarios;

pub use experiments::{run_experiment, ExperimentId, Scale};
pub use loom_sim::report::Table;
