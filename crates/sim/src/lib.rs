//! # loom-sim
//!
//! A deterministic, in-process simulator of a *distributed* pattern-matching
//! query engine, used to measure the metric LOOM actually optimises: the
//! number (and probability) of **inter-partition traversals** incurred while
//! executing a workload of pattern matching queries against a partitioned
//! graph.
//!
//! The paper assumes a distributed graph database (e.g. Titan) hosting the
//! partitions; rebuilding one would add enormous noise without changing the
//! quantity of interest, so this crate substitutes a faithful cost model:
//!
//! * [`store::PartitionedStore`] — the partitioned graph as hash maps:
//!   vertex data plus a routing table mapping every vertex to its host
//!   partition. It is the tests' reference store, the one the matcher
//!   oracle and the parity tests hold every engine against; the `loom`
//!   façade serves from `loom-serve`'s frozen arena and never builds it;
//! * [`plan`] — compile-once query planning: the [`plan::QueryPlanner`]
//!   cost-ranks candidate matching orders against graph statistics and the
//!   [`plan::PlanCache`] shares the compiled [`plan::QueryPlan`]s (one per
//!   workload query) with the router, the sequential reference run and
//!   every serving worker;
//! * [`matcher`] — the one instrumented backtracking sub-graph matcher,
//!   driven by compiled plans ([`matcher::execute_plan`]) and written
//!   against the handle-keyed [`matcher::PatternStore`] interface: a store
//!   names vertices by its own `Handle` (the [`store::PartitionedStore`]
//!   by `VertexId`, `loom-serve`'s CSR store by `u32` arena position),
//!   roots come out of the label index as handles, every neighbour is
//!   metered from its arc ([`matcher::TaggedArc`]) and the whole search
//!   runs in handle space — the same kernel, monomorphised per store, behind
//!   the sequential reference run and every concurrent worker;
//! * [`executor`] — how an execution is seeded ([`executor::QueryMode`]) and
//!   what it measured ([`executor::ExecutionMetrics`]): every traversal
//!   performed, and whether it stayed on the local partition or had to hop
//!   to a remote one;
//! * [`engine`] — the unified [`engine::QueryEngine`] API:
//!   [`engine::QueryRequest`] / [`engine::QueryResponse`] with a pull-based
//!   [`engine::MatchCursor`] over concrete embeddings, and the schedule and
//!   plans every engine shares; the one engine value that runs them —
//!   sequentially over any [`matcher::PatternStore`] or sharded — is
//!   `loom-serve`'s `ServeEngine`;
//! * [`context`] — per-request deadlines and cooperative cancellation
//!   ([`context::RequestContext`] / [`context::CancelToken`]), threaded from
//!   every engine into the matcher's traversal-budget check so an expired
//!   deadline or a fired token unwinds a search mid-backtrack;
//! * [`drift`] — the two-phase drifting-workload scenario (disjoint hot
//!   motif families per phase) driving the `loom-adapt` adaptation story;
//! * [`churn`] — the deletion-churn scenario (grow, then dissolve planted
//!   instances through removals and relabels) driving the tombstone and
//!   epoch-compaction story.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod churn;
pub mod context;
pub mod drift;
pub mod engine;
pub mod executor;
pub mod matcher;
pub mod plan;
pub mod store;

pub use churn::{ChurnRun, DeletionChurnScenario};
pub use context::{CancelToken, RequestContext};
pub use drift::DriftScenario;
pub use engine::{MatchCursor, QueryEngine, QueryRequest, QueryResponse};
pub use executor::{ExecutionMetrics, QueryMode};
pub use matcher::{Embedding, PatternStore};
pub use plan::{GraphStatistics, PlanCache, PlanStrategy, QueryPlan, QueryPlanner};
pub use store::PartitionedStore;

/// Convenient re-exports for examples and tests.
pub mod prelude {
    pub use crate::churn::{ChurnRun, DeletionChurnScenario};
    pub use crate::context::{CancelToken, RequestContext};
    pub use crate::drift::DriftScenario;
    pub use crate::engine::{MatchCursor, QueryEngine, QueryRequest, QueryResponse};
    pub use crate::executor::{ExecutionMetrics, QueryMode};
    pub use crate::matcher::{Embedding, PatternStore};
    pub use crate::plan::{GraphStatistics, PlanCache, PlanStrategy, QueryPlan, QueryPlanner};
    pub use crate::store::PartitionedStore;
}
