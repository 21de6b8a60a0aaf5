//! # loom-serve
//!
//! The concurrent sharded serving engine: the layer that finally *exploits*
//! a LOOM partitioning for parallelism instead of only measuring it.
//!
//! A finished [`Partitioning`](loom_partition::partition::Partitioning)
//! becomes a running engine in four pieces:
//!
//! * [`shard`] — [`shard::ShardedStore`]: an immutable partition-major CSR
//!   snapshot where each partition's home vertices form a contiguous slice
//!   (its [`shard::Shard`], which keeps a per-label count of its vertices
//!   for the router; a shard's boundary and halo are read off its slice
//!   when asked for, never stored);
//! * [`router`] — `router::QueryRouter`: anchors each rooted pattern query
//!   on its home shard via the label/partition indexes;
//! * [`transport`] — [`transport::ShardTransport`]: the object-safe,
//!   wire-shaped message channel between the coordinator and each worker.
//!   Everything that crosses it is a [`transport::ShardMsg`] of plain owned
//!   data (routed queries, results, shard reports, epoch notices) — no
//!   shared-memory handle ever does.
//!   [`transport::InProcTransport`] is the bounded-channel in-process
//!   implementation;
//! * [`engine`] — [`engine::ServeEngine`]: the run coordinator, with one
//!   closed-loop door — `run(source, workload, request, ctx)`, where the
//!   [`engine::Source`] is a pinned `&Arc<ShardedStore>` or an
//!   `&EpochStore` — beside `open_loop` for driver-paced load. It routes
//!   queries and owns only transport endpoints. On a closed-loop run the
//!   calling thread also serves shard 0, between its offers to the others,
//!   and every other shard gets an independent worker event loop (a
//!   `std::thread::scope` thread); an open-loop run gives every shard a
//!   thread, because its driver's thread must keep pacing injection. Each
//!   query is executed as a single run of the shared instrumented matcher
//!   from `loom-sim` under each request's
//!   [`RequestContext`](loom_sim::context::RequestContext) — deadlines and
//!   cancellation unwind searches cooperatively mid-backtrack. Admission
//!   applies deadline-aware backpressure: a full worker inbox is waited out
//!   on the coordinator's own inbox (a worker's group of completions is the
//!   credit for the inbox it took) and rejects the request at its deadline
//!   instead of wedging. Hand-offs move in runs: the coordinator admits a
//!   worker's staged queries in one push, a worker takes its whole inbox,
//!   and completions come back in groups;
//! * [`epoch`] — [`epoch::EpochStore`]: epoch-swapped snapshots — a writer
//!   publishes a new immutable shard set through an `arc-swap`-style pointer,
//!   so queries pin one epoch end-to-end and reads never block on writes.
//!   `loom-adapt`'s adaptive serving publishes its migrations, tombstone
//!   batches and compactions this way; the `loom` session façade publishes
//!   nothing (a served graph never grows). Publications are broadcast to
//!   registered `epoch::EpochSink`s; the serving coordinator relays them to
//!   workers as messages.
//!
//! [`metrics::ServeReport`] summarises a run: per-shard execution metrics
//! and remote-hop fraction, peak queue depth, queue-wait p99, admission
//! rejects, and the run's wall-clock goodput.
//!
//! ```
//! use loom_serve::prelude::*;
//! use loom_graph::generators::regular::path_graph;
//! use loom_graph::Label;
//! use loom_motif::query::{PatternQuery, QueryId};
//! use loom_motif::workload::Workload;
//! use loom_partition::partition::{PartitionId, Partitioning};
//! use loom_sim::context::RequestContext;
//! use loom_sim::engine::QueryRequest;
//! use loom_sim::executor::QueryMode;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = path_graph(8, &[Label::new(0), Label::new(1)]);
//! let mut partitioning = Partitioning::new(2, 8)?;
//! for (i, v) in graph.vertices_sorted().into_iter().enumerate() {
//!     partitioning.assign(v, PartitionId::new((i / 4) as u32))?;
//! }
//! let store = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
//!
//! let workload = Workload::uniform(vec![PatternQuery::path(
//!     QueryId::new(0),
//!     &[Label::new(0), Label::new(1)],
//! )?])?;
//! let engine = ServeEngine::new(ServeConfig::new(2).with_mode(QueryMode::Rooted { seed_count: 4 }));
//! let request = QueryRequest::workload(100).with_seed(42);
//! let ctx = RequestContext::unbounded();
//! // One pinned snapshot …
//! let (report, response) = engine.run(&store, &workload, request, &ctx);
//! assert_eq!(report.aggregate.queries_executed, 100);
//! assert_eq!(response.metrics, report.aggregate);
//! // … or an epoch store ingestion can keep publishing into.
//! let epochs = EpochStore::new(ShardedStore::from_parts(&graph, &partitioning));
//! let (served, _) = engine.run(&epochs, &workload, request, &ctx);
//! assert_eq!(served.aggregate, report.aggregate);
//! assert_eq!(served.epochs_observed, vec![epochs.current_epoch()]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod epoch;
pub mod metrics;
pub mod queue;
pub mod router;
pub mod shard;
pub mod transport;
mod worker;

pub use engine::{Admission, Completion, OpenLoopInjector, ServeConfig, ServeEngine, Source};
pub use epoch::EpochStore;
pub use metrics::{ErrorBudget, ServeReport, ShardServeMetrics};
pub use shard::{Shard, ShardBorder, ShardedStore};
pub use transport::{
    InProcTransport, QueryDoneMsg, QueryTaskMsg, ShardMsg, ShardReportMsg, ShardTransport,
};

/// Convenient re-exports for examples, tests and the umbrella crate.
pub mod prelude {
    pub use crate::engine::{
        Admission, Completion, OpenLoopInjector, ServeConfig, ServeEngine, Source,
    };
    pub use crate::epoch::EpochStore;
    pub use crate::metrics::{ErrorBudget, ServeReport, ShardServeMetrics};
    pub use crate::shard::{Shard, ShardBorder, ShardedStore};
    pub use crate::transport::{InProcTransport, ShardMsg, ShardTransport};
}
