//! # loom — workload-aware streaming graph partitioning
//!
//! Umbrella crate re-exporting the full LOOM stack (Firth & Missier,
//! *Workload-aware Streaming Graph Partitioning*, GraphQ@EDBT 2016):
//!
//! * [`loom_graph`] — labelled graphs, generators, graph streams, orderings;
//! * [`loom_motif`] — pattern queries, sub-graph isomorphism, signatures,
//!   the TPSTry++ and motif mining;
//! * [`loom_partition`] — Hash / LDG / Fennel / offline multilevel
//!   partitioners, the [`Partitioner`](loom_partition::traits::Partitioner)
//!   contract, the declarative
//!   [`PartitionerSpec`](loom_partition::spec::PartitionerSpec) registry and
//!   quality metrics;
//! * [`loom_core`] — the LOOM workload-aware streaming partitioner itself
//!   and the workload-aware registry extension;
//! * [`loom_sim`] — the distributed query-execution simulator and the shared
//!   instrumented pattern matcher;
//! * [`loom_serve`] — the concurrent sharded serving engine: partition-major
//!   CSR shards, a home-shard query router, message-passing shard workers
//!   behind the wire-shaped
//!   [`ShardTransport`](loom_serve::transport::ShardTransport) channel, and
//!   an epoch store that swaps in a new snapshot without blocking reads
//!   (adaptive serving publishes its migrations, tombstone batches and
//!   compactions there; a served [`Session`] graph never grows, because
//!   `serve` consumes the session);
//! * [`loom_adapt`] — the adaptation loop: drift detection over the observed
//!   query mix, bounded incremental migration planning, and epoch-published
//!   shard rebuilds that never block reads — in memory only: no migration
//!   or tombstone reaches the WAL;
//! * [`loom_store`] — the durability subsystem: CRC-framed write-ahead
//!   logging of every ingested batch, per-shard checkpoints that carry the
//!   partitioner's state and are on disk when `checkpoint()` returns, with a
//!   manifest-written-last atomicity rule, and restart-and-serve recovery
//!   that restores the partitioner and replays only the log past the
//!   checkpoint
//!   ([`SessionBuilder::with_durability`](session::SessionBuilder::with_durability)
//!   / [`Session::recover`](session::Session::recover));
//! * [`loom_load`] — the open-loop capacity harness: seeded Poisson /
//!   constant-interval arrival schedules that never block on backpressure,
//!   `initial_rps → increment_rps → max_rps` ramp sweeps over the serving
//!   engine, per-step offered-vs-achieved tables with wall-clock sojourn
//!   quantiles, and saturation-knee detection
//!   ([`ShardedServing::capacity`](session::ShardedServing::capacity));
//! * [`loom_obs`] — the telemetry subsystem: a lock-free metric registry
//!   (counters, gauges, mergeable log-linear histograms with re-sort-free
//!   quantiles), zero-alloc scoped spans charging stage wall-clock, a
//!   flight recorder of structured events latched into dumps on deadline or
//!   admission failures, and Prometheus / JSON-lines exporters — attached
//!   per session via [`SessionBuilder::telemetry`](session::SessionBuilder::telemetry).
//!
//! ## Quickstart: the `Session` façade
//!
//! [`session::Session`] is the one entry point tying the pipeline together —
//! mine the workload, build any partitioner from a declarative spec, ingest
//! the stream in batches, then compile the workload's query plans **once**
//! and serve [`QueryRequest`](loom_sim::engine::QueryRequest)s against the
//! partitioned graph through the unified
//! [`QueryEngine`](loom_sim::engine::QueryEngine) API:
//!
//! ```
//! use loom::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = paper_example_graph();
//! let workload = paper_example_workload();
//!
//! let spec = PartitionerSpec::Loom(
//!     LoomConfig::new(2, graph.vertex_count()).with_window_size(4),
//! );
//! let mut session = Session::builder(spec).workload(workload).build()?;
//!
//! let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
//! session.ingest_stream(&stream)?;
//!
//! let serving = session.serve(graph)?;
//! let response = serving.run(QueryRequest::workload(500).with_seed(42));
//! println!(
//!     "inter-partition traversal probability: {:.3}",
//!     response.metrics.inter_partition_probability()
//! );
//!
//! // Concrete matches stream out of a pull-based cursor.
//! let first = serving.workload().expect("has workload").queries()[0].id();
//! let matches = serving.run(QueryRequest::query(first).collect_matches(true));
//! for embedding in matches.into_cursor().take(3) {
//!     println!("match: {:?}", embedding.iter().collect::<Vec<_>>());
//! }
//!
//! // Requests can carry a deadline; expired searches unwind cooperatively
//! // and flag the partial result instead of running to completion.
//! let bounded = serving.run(
//!     QueryRequest::workload(500)
//!         .with_seed(42)
//!         .with_timeout(std::time::Duration::from_millis(50)),
//! );
//! assert!(bounded.metrics.queries_executed == 500);
//! # Ok(())
//! # }
//! ```
//!
//! The [`prelude`] pulls in the commonly used types from every layer; the
//! `examples/` directory shows end-to-end usage.

#![warn(missing_docs)]

pub mod session;

pub use loom_adapt;
pub use loom_core;
pub use loom_graph;
pub use loom_load;
pub use loom_motif;
pub use loom_obs;
pub use loom_partition;
pub use loom_serve;
pub use loom_sim;
pub use loom_store;

pub use session::{Recovered, Serving, Session, SessionBuilder, SessionError, ShardedServing};

/// One-stop prelude for examples, tests and downstream experiments.
pub mod prelude {
    pub use crate::session::{
        Recovered, Serving, Session, SessionBuilder, SessionError, ShardedServing,
    };
    pub use loom_adapt::prelude::*;
    pub use loom_core::prelude::*;
    pub use loom_graph::prelude::*;
    pub use loom_load::prelude::*;
    pub use loom_motif::prelude::*;
    pub use loom_obs::{stage, FlightKind, SpanTimer, Telemetry, TelemetrySnapshot};
    pub use loom_serve::prelude::*;
    pub use loom_sim::prelude::*;
}
