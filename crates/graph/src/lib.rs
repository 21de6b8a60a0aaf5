//! # loom-graph
//!
//! Labelled graph substrate for the LOOM workload-aware streaming graph
//! partitioner (Firth & Missier, GraphQ@EDBT 2016).
//!
//! This crate provides everything the upper layers need in order to talk about
//! graphs:
//!
//! * compact identifiers and an interner for vertex labels ([`ids`], [`labels`]),
//!   and the id-keyed table under every graph-sized map ([`vertex_index`]),
//! * a mutable adjacency-list [`LabelledGraph`] on a slab, and the list arena
//!   it shares with the partitioner's window ([`pool`]),
//! * induced sub-graph extraction and traversal helpers ([`subgraph`],
//!   [`traversal`]),
//! * deterministic random graph generators covering the families used in the
//!   evaluation (Erdős–Rényi, Barabási–Albert, planted-partition communities,
//!   grids, regular topologies and motif-planted graphs) ([`generators`]),
//! * the graph *stream* abstraction and the stream orderings the paper
//!   discusses (random, BFS, DFS, adversarial, stochastic) ([`stream`],
//!   [`ordering`]),
//! * the checksummed-frame primitives the durability layer builds on ([`io`]).
//!
//! Everything is deterministic given an explicit seed; nothing in this crate
//! performs global introspection that would not be available to a streaming
//! partitioner.
//!
//! ## Example
//!
//! ```
//! use loom_graph::prelude::*;
//!
//! let mut g = LabelledGraph::new();
//! let a = g.add_vertex(Label::new(0));
//! let b = g.add_vertex(Label::new(1));
//! g.add_edge(a, b).unwrap();
//! assert_eq!(g.vertex_count(), 2);
//! assert_eq!(g.degree(a), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod fxhash;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod io;
pub mod labels;
pub mod ordering;
pub mod pool;
pub mod stats;
pub mod stream;
pub mod subgraph;
pub mod traversal;
pub mod vertex_index;

pub use error::GraphError;
pub use graph::LabelledGraph;
pub use ids::{Label, VertexId};
pub use labels::LabelInterner;
pub use stream::{GraphStream, StreamElement};
pub use vertex_index::VertexIndex;

/// Convenient re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::error::GraphError;
    pub use crate::fxhash::{FxHashMap, FxHashSet};
    pub use crate::generators::{
        barabasi_albert, community_graph, erdos_renyi, grid_graph, motif_planted_graph,
        regular::{clique, cycle_graph, path_graph, star_graph},
        GeneratorConfig,
    };
    pub use crate::graph::LabelledGraph;
    pub use crate::ids::{Label, VertexId};
    pub use crate::labels::LabelInterner;
    pub use crate::ordering::StreamOrder;
    pub use crate::stats::{clustering_coefficient, degree_stats, DegreeStats};
    pub use crate::stream::{GraphStream, StreamElement};
    pub use crate::subgraph::induced_subgraph;
}
