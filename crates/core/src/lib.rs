//! # loom-core
//!
//! LOOM — the workload-aware streaming graph partitioner of Firth & Missier
//! (GraphQ@EDBT 2016).
//!
//! LOOM consumes a graph stream and a summary of the query workload `Q`
//! (a [`loom_motif::Tpstry`] mined from `Q`) and produces a k-way
//! partitioning whose goal is not merely a small edge cut but a small
//! **probability of inter-partition traversals** when the queries of `Q` are
//! executed against the partitioned graph.
//!
//! The pipeline (paper §4):
//!
//! 1. the stream is buffered in a sliding [`loom_partition::window::StreamWindow`];
//! 2. a [`matcher::StreamMotifMatcher`] tracks, incrementally and via
//!    number-theoretic signatures, which window sub-graphs match *frequent
//!    motifs* of the workload (§4.3);
//! 3. when the oldest vertex of a motif match leaves the window, the whole
//!    match — together with any overlapping matches — is assigned to a single
//!    partition using the LDG score; vertices that belong to no match are
//!    assigned individually with plain LDG (§4.1, §4.4).
//!
//! ```
//! use loom_core::prelude::*;
//! use loom_graph::prelude::*;
//! use loom_motif::prelude::*;
//!
//! // Mine the workload summary offline.
//! let workload = paper_example_workload();
//! let tpstry = MotifMiner::default().mine(&workload).unwrap();
//!
//! // Partition the example graph stream, workload-aware.
//! let graph = paper_example_graph();
//! let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
//! let config = LoomConfig::new(2, graph.vertex_count());
//! let mut loom = LoomPartitioner::new(config, &tpstry).unwrap();
//! let partitioning = partition_stream(&mut loom, &stream).unwrap();
//! assert_eq!(partitioning.assigned_count(), graph.vertex_count());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod index;
pub mod loom;
pub mod matcher;
pub mod registry;
pub mod stats;

pub use index::FrequentMotifIndex;
pub use loom::LoomPartitioner;
pub use loom_partition::spec::LoomConfig;
pub use registry::workload_registry;
pub use stats::LoomStats;

/// Convenient re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::index::FrequentMotifIndex;
    pub use crate::loom::LoomPartitioner;
    pub use crate::matcher::StreamMotifMatcher;
    pub use crate::registry::workload_registry;
    pub use crate::stats::LoomStats;
    pub use loom_partition::prelude::*;
}
