//! # loom-bench
//!
//! Experiment definitions for the LOOM reproduction.
//!
//! The paper (a work-in-progress workshop paper) contains no result tables;
//! DESIGN.md §6 defines the experiment suite this crate regenerates — one
//! function per experiment, each returning renderable [`Table`]s. The
//! `experiments` binary is a thin CLI over [`experiments`]. Speed is measured
//! by `loom-benchmark` (`benchmark/`, declared in `BENCHMARK.json`), not
//! here; the two benches left in `benches/` — `capacity` and `adapt_drift`,
//! plain `fn main()` programs — write `BENCH_capacity.json` and
//! `BENCH_adapt.json` until those become benchmark workloads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod scenarios;

pub use experiments::{run_experiment, ExperimentId, Scale};
pub use loom_sim::report::Table;

use std::path::Path;

/// Whether `LOOM_BENCH_FAST` asks for the reduced-size CI smoke run.
pub fn fast_mode() -> bool {
    std::env::var("LOOM_BENCH_FAST").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Write a bench's `BENCH_*.json` report and print where it went.
///
/// A full run replaces the committed baseline at the workspace root. A
/// [`fast_mode`] run writes to `target/bench-fast/` instead, so the smoke
/// runs CI does never overwrite a baseline with reduced-size numbers.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn persist(file_name: &str, json: &str) {
    // Benches run with the package as cwd; reports belong to the workspace.
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if fast_mode() {
        workspace.join("target/bench-fast")
    } else {
        workspace
    };
    std::fs::create_dir_all(&dir).expect("report directory can be created");
    let path = dir.join(file_name);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    println!("wrote {}", path.display());
}
