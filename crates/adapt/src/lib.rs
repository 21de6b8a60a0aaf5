//! # loom-adapt
//!
//! Workload-drift detection and incremental shard re-partitioning: the layer
//! that closes the loop from *observed* queries back to *placement*.
//!
//! LOOM's core claim (Firth & Missier, GraphQ@EDBT 2016) is that partitioning
//! should follow the query workload — yet mining happens once, at build time.
//! When the live traffic's motif mix shifts away from the mined distribution,
//! a static placement serves an ever-worsening remote-hop fraction. This
//! crate notices and repairs that, without ever blocking reads:
//!
//! * [`tracker::WorkloadTracker`] — a decayed sliding histogram of the query
//!   mix observed in every
//!   [`ServeReport`](loom_serve::metrics::ServeReport), compared against the
//!   mix the partitioning was mined for by total-variation distance; crossing
//!   a threshold flags **drift**;
//! * [`MigrationPlanner`](loom_partition::migrate::MigrationPlanner) (in
//!   `loom-partition`) — turns the drifted mix's hot-label weights into a
//!   **bounded batch** of gain-scored, Fennel-balance-penalized vertex moves
//!   rather than a full repartition;
//! * [`adaptive::AdaptiveServing`] — the driver: applies the plan through
//!   [`ShardedStore::apply_migration`](loom_serve::shard::ShardedStore::apply_migration)
//!   (rebuilding only the affected shards' CSR slices and label counts)
//!   and publishes the result as a new epoch through the existing
//!   [`EpochStore`](loom_serve::epoch::EpochStore) — queries in flight keep
//!   their pinned snapshot.
//!
//! **Nothing here is durable.** [`adaptive::AdaptiveServing`] holds a copy
//! of the partitioning and the snapshots it publishes, in memory, and no
//! graph (its first epoch is the frozen store it is handed, shared):
//! [`apply_mutations`](adaptive::AdaptiveServing::apply_mutations) applies
//! removals and relabels and ignores `AddVertex` / `AddEdge`, and none of
//! its tombstones, compactions or drift migrations (which
//! [`serve`](adaptive::AdaptiveServing::serve) runs) reaches a write-ahead
//! log. A crash recovers what the session's own log and
//! checkpoints hold: the placement from before every migration. ROADMAP
//! item 15(c) is the change that makes served changes durable.
//!
//! The two-phase [`DriftScenario`](loom_sim::drift::DriftScenario) in
//! `loom-sim` (disjoint hot motif families per phase) exercises the loop end
//! to end; `tests/adapt.rs` at the workspace root proves both migration
//! parity and remote-hop recovery after a phase change.
//!
//! ```
//! use loom_adapt::prelude::*;
//! use loom_graph::generators::regular::path_graph;
//! use loom_graph::Label;
//! use loom_motif::query::{PatternQuery, QueryId};
//! use loom_motif::workload::Workload;
//! use loom_partition::partition::{PartitionId, Partitioning};
//! use loom_serve::engine::{ServeConfig, ServeEngine};
//! use loom_serve::shard::ShardedStore;
//! use loom_sim::executor::QueryMode;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = path_graph(12, &[Label::new(0), Label::new(1), Label::new(2)]);
//! let mut partitioning = Partitioning::new(2, 12)?;
//! for (i, v) in graph.vertices_sorted().into_iter().enumerate() {
//!     partitioning.assign(v, PartitionId::new((i % 2) as u32))?;
//! }
//! let workload = Workload::uniform(vec![PatternQuery::path(
//!     QueryId::new(0),
//!     &[Label::new(0), Label::new(1), Label::new(2)],
//! )?])?;
//!
//! let store = Arc::new(ShardedStore::from_parts(&graph, &partitioning).with_epoch(1));
//! let mut serving = AdaptiveServing::new(
//!     store,
//!     partitioning,
//!     workload.clone(),
//!     ServeEngine::new(ServeConfig::new(2).with_mode(QueryMode::Rooted { seed_count: 4 })),
//!     AdaptConfig::default(),
//! );
//! let (report, adaptation) = serving.serve(&workload, 100, 42)?;
//! assert_eq!(report.queries, 100);
//! # let _ = adaptation;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod tracker;

pub use adaptive::{AdaptConfig, AdaptiveServing};

/// Convenient re-exports for examples, tests and the umbrella crate.
pub mod prelude {
    pub use crate::adaptive::{AdaptConfig, AdaptiveServing};
}
