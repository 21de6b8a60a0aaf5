//! # loom-partition
//!
//! Graph partitioners and partition-quality metrics for the LOOM stack
//! (Firth & Missier, GraphQ@EDBT 2016).
//!
//! The crate provides the *workload-agnostic* baselines the paper builds on
//! and compares against, plus the shared machinery the workload-aware LOOM
//! partitioner (in `loom-core`) reuses:
//!
//! * [`partition`] — partition identifiers, the assignment table
//!   ([`Partitioning`]), capacity accounting, and the two greedy placement
//!   rules, both "highest score, ties to the smaller partition":
//!   `Partitioning::best_partition`, Fennel's, which scores every
//!   partition, and [`Partitioning::ldg_choice`], which LDG and both LOOM
//!   placement modes call and which scores only the partitions a neighbour
//!   lives in (its docs say why that gives the full scan's answer);
//! * [`metrics`] — edge cut, cut ratio, balance/imbalance, communication
//!   volume and ground-truth community agreement;
//! * [`migrate`] — the incremental re-partitioner: bounded batches of
//!   gain-scored, Fennel-balance-penalized vertex moves that repair a
//!   placement after workload drift (consumed by `loom-adapt`);
//! * [`traits`] — the object-safe [`Partitioner`] contract (batched
//!   ingestion, non-destructive snapshots, move-out `finish`, unified stats)
//!   plus drivers that feed a [`loom_graph::GraphStream`] through any
//!   implementation, per element or in chunks;
//! * [`spec`] — the declarative [`PartitionerSpec`] / [`PartitionerRegistry`]
//!   layer that builds any partitioner as a `Box<dyn Partitioner>` from plain
//!   data;
//! * [`state`] — a partitioner's state as the bytes a checkpoint carries
//!   beside its arena, and the checked reader that restores it;
//! * [`hash`] — hash partitioning (the default placement strategy of
//!   distributed graph stores, the paper's strawman);
//! * [`pending`] — the one-pending-vertex stream driver (buffer a vertex,
//!   place it when the next one arrives) that LDG and Fennel instantiate
//!   with their placement rule;
//! * [`ldg`] — Linear Deterministic Greedy (Stanton & Kliot, KDD 2012), the
//!   heuristic LOOM extends;
//! * [`fennel`] — Fennel (Tsourakakis et al., WSDM 2014);
//! * [`window`] — the sliding buffer over a graph stream that LOOM places
//!   from;
//! * [`offline`] — a multilevel (METIS-like) offline partitioner used as the
//!   quality reference point.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod fennel;
pub mod hash;
pub mod ldg;
pub mod metrics;
pub mod migrate;
pub mod offline;
pub mod partition;
pub mod pending;
pub mod spec;
pub mod state;
pub mod traits;
pub mod window;

pub use error::PartitionError;
pub use fennel::FennelPartitioner;
pub use hash::HashPartitioner;
pub use ldg::LdgPartitioner;
pub use migrate::{MigrationConfig, MigrationPlanner};
pub use partition::{PartitionId, Partitioning};
pub use spec::{LoomConfig, PartitionerRegistry, PartitionerSpec};
pub use traits::{partition_stream, partition_stream_batched, Partitioner, PartitionerStats};

/// Convenient re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::error::PartitionError;
    pub use crate::fennel::{FennelConfig, FennelPartitioner};
    pub use crate::hash::{HashConfig, HashPartitioner};
    pub use crate::ldg::{LdgConfig, LdgPartitioner};
    pub use crate::metrics::{PartitionQuality, QualityReport};
    pub use crate::migrate::{MigrationConfig, MigrationPlanner};
    pub use crate::offline::{MultilevelConfig, MultilevelPartitioner};
    pub use crate::partition::{PartitionId, Partitioning};
    pub use crate::spec::{LoomConfig, PartitionerRegistry, PartitionerSpec};
    pub use crate::traits::{
        partition_stream, partition_stream_batched, Partitioner, PartitionerStats,
    };
    pub use crate::window::StreamWindow;
}
