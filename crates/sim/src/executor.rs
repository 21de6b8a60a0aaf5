//! Distributed query execution simulation.
//!
//! [`QueryExecutor`] answers pattern matching queries against a
//! [`PartitionedStore`] with the shared instrumented backtracking search in
//! [`crate::matcher`] (the same code path the concurrent `loom-serve` worker
//! shards execute): every expansion from a matched vertex to a candidate
//! neighbour either stays on the local partition or requires a hop to a
//! remote partition. The remote fraction is exactly the "probability of
//! inter-partition traversals" the paper optimises; two fixed hop prices
//! ([`LOCAL_HOP_US`], [`REMOTE_HOP_US`]) convert hop counts into an estimated
//! query latency.

use crate::matcher::{self, ExecOptions};
use crate::plan::{PlanCache, PlanId, QueryPlan};
use crate::store::PartitionedStore;
use loom_motif::query::PatternQuery;
use loom_motif::workload::Workload;
use std::sync::Arc;

/// How query executions are seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Enumerate every embedding in the whole graph (an analytical scan).
    /// Almost any partitioning incurs remote traversals in this mode; the
    /// informative metric is the inter-partition traversal *probability*.
    #[default]
    FullEnumeration,
    /// The online / transactional mode the paper targets: each execution is
    /// anchored at a bounded number of randomly chosen root vertices (as a
    /// graph database would do after an index lookup) and explores only
    /// around them. `local_only_fraction` is meaningful in this mode.
    Rooted {
        /// Number of root vertices sampled per execution.
        seed_count: usize,
    },
}

/// Price of a traversal that stays on the local partition, in microseconds.
pub const LOCAL_HOP_US: f64 = 1.0;
/// Price of a traversal that crosses to another partition, in microseconds
/// (network round-trip dominated). Chosen, not measured: ROADMAP item 13(c) is
/// to replace it with the cost of a loopback message.
pub const REMOTE_HOP_US: f64 = 300.0;

/// Aggregated execution metrics over one or more query executions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutionMetrics {
    /// Number of query executions aggregated.
    pub queries_executed: usize,
    /// Total embeddings (query answers) found.
    pub matches_found: usize,
    /// Total traversals performed by the search.
    pub total_traversals: usize,
    /// Traversals that crossed a partition boundary.
    pub remote_traversals: usize,
    /// Executions that completed without a single remote traversal.
    pub local_only_queries: usize,
    /// Whether any aggregated execution stopped early — at its match limit,
    /// its traversal budget, a deadline or a cancellation — so the
    /// enumeration may be incomplete. Reports must never silently compare a
    /// limited run against a full one; this flag survives merging (a merge
    /// of limited and unlimited runs is limited).
    pub matches_limited: bool,
    /// Whether any aggregated execution was cut short by its wall-clock
    /// deadline (see [`crate::context::RequestContext`]). The metrics up to
    /// the cut are still reported — partial answers, honestly flagged.
    pub deadline_exceeded: bool,
    /// Whether any aggregated execution unwound because its
    /// [`crate::context::CancelToken`] fired mid-run.
    pub cancelled: bool,
    /// Provenance: the compiled plan every aggregated execution ran under,
    /// or `None` when executions under *different* plans were merged (so a
    /// blended row can never masquerade as a single plan's result).
    pub plan: Option<PlanId>,
}

impl ExecutionMetrics {
    /// The probability that a traversal crosses partitions
    /// (`remote / total`, 0.0 when no traversals happened).
    pub fn inter_partition_probability(&self) -> f64 {
        if self.total_traversals == 0 {
            0.0
        } else {
            self.remote_traversals as f64 / self.total_traversals as f64
        }
    }

    /// Fraction of executions answered entirely within single partitions.
    pub fn local_only_fraction(&self) -> f64 {
        if self.queries_executed == 0 {
            0.0
        } else {
            self.local_only_queries as f64 / self.queries_executed as f64
        }
    }

    /// Estimated total latency in microseconds: every remote traversal at
    /// [`REMOTE_HOP_US`], every other one at [`LOCAL_HOP_US`]. Both counts
    /// are integers far below 2^53, so the estimate of a merge is exactly the
    /// sum of the estimates merged.
    pub fn estimated_latency_us(&self) -> f64 {
        self.remote_traversals as f64 * REMOTE_HOP_US
            + (self.total_traversals - self.remote_traversals) as f64 * LOCAL_HOP_US
    }

    /// Mean estimated latency per query, in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.queries_executed == 0 {
            0.0
        } else {
            self.estimated_latency_us() / self.queries_executed as f64
        }
    }

    /// Merge another metrics block into this one.
    pub fn merge(&mut self, other: &ExecutionMetrics) {
        self.plan = if self.queries_executed == 0 {
            other.plan
        } else if other.queries_executed == 0 || self.plan == other.plan {
            self.plan
        } else {
            None
        };
        self.matches_limited |= other.matches_limited;
        self.deadline_exceeded |= other.deadline_exceeded;
        self.cancelled |= other.cancelled;
        self.queries_executed += other.queries_executed;
        self.matches_found += other.matches_found;
        self.total_traversals += other.total_traversals;
        self.remote_traversals += other.remote_traversals;
        self.local_only_queries += other.local_only_queries;
    }
}

/// The instrumented query executor.
#[derive(Debug, Clone)]
pub struct QueryExecutor {
    /// Cap on embeddings enumerated per execution; keeps dense pathological
    /// cases from dominating run time without changing the traversal ratio
    /// materially.
    max_matches_per_query: usize,
    /// How executions are seeded.
    mode: QueryMode,
    /// Compiled plans shared with the router and the serving workers. When
    /// absent, every execution compiles a legacy plan on the spot (the
    /// pre-redesign behaviour, bit-identical metrics).
    plans: Option<Arc<PlanCache>>,
}

impl Default for QueryExecutor {
    fn default() -> Self {
        Self {
            max_matches_per_query: 10_000,
            mode: QueryMode::FullEnumeration,
            plans: None,
        }
    }
}

impl QueryExecutor {
    /// Builder-style cap on enumerated embeddings per execution.
    #[must_use]
    pub fn with_match_limit(mut self, limit: usize) -> Self {
        self.max_matches_per_query = limit.max(1);
        self
    }

    /// Builder-style execution mode (full enumeration or rooted).
    #[must_use]
    pub fn with_mode(mut self, mode: QueryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder-style plan cache: executions of workload queries reuse the
    /// compiled plans (shared with the router and serving workers) instead
    /// of re-deriving a matching order per call.
    #[must_use]
    pub fn with_plan_cache(mut self, plans: Arc<PlanCache>) -> Self {
        self.plans = Some(plans);
        self
    }

    /// The execution mode in use.
    pub fn mode(&self) -> QueryMode {
        self.mode
    }

    /// The cap on embeddings enumerated per execution.
    pub fn match_limit(&self) -> usize {
        self.max_matches_per_query
    }

    /// The shared plan cache, if one is wired in.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plans.as_ref()
    }

    /// The compiled plan for a query: the cached instance when the cache
    /// holds a structurally matching one, otherwise a legacy plan compiled
    /// on the spot (see [`crate::plan::resolve_plan`]).
    pub(crate) fn plan_for(&self, query: &PatternQuery) -> Arc<QueryPlan> {
        crate::plan::resolve_plan(self.plans.as_ref(), query)
    }

    /// The execution options one seeded execution runs under.
    pub(crate) fn exec_options(&self, root_seed: u64) -> ExecOptions {
        ExecOptions {
            mode: self.mode,
            match_limit: self.max_matches_per_query,
            root_seed,
            ..ExecOptions::default()
        }
    }

    /// Execute a single query and return its metrics. In rooted mode the
    /// roots are drawn deterministically from `root_seed`.
    pub fn execute_seeded(
        &self,
        store: &PartitionedStore,
        query: &PatternQuery,
        root_seed: u64,
    ) -> ExecutionMetrics {
        if query.graph().is_empty() {
            return ExecutionMetrics {
                queries_executed: 1,
                local_only_queries: 1,
                ..ExecutionMetrics::default()
            };
        }
        let plan = self.plan_for(query);
        matcher::execute_plan(store, &plan, &self.exec_options(root_seed)).metrics
    }

    /// Execute a single query with the default root seed. In
    /// [`QueryMode::FullEnumeration`] (the default) the seed is irrelevant.
    pub fn execute(&self, store: &PartitionedStore, query: &PatternQuery) -> ExecutionMetrics {
        self.execute_seeded(store, query, 0)
    }

    /// Execute `samples` queries drawn from the workload according to its
    /// frequencies (deterministic for a given seed) and return the aggregate
    /// metrics. In rooted mode each sample is anchored at fresh random
    /// roots. Delegates to the unified engine path
    /// ([`crate::engine::run_sequential`]), so each distinct sampled query's
    /// plan is resolved once per call, not once per sample.
    pub fn execute_workload(
        &self,
        store: &PartitionedStore,
        workload: &Workload,
        samples: usize,
        seed: u64,
    ) -> ExecutionMetrics {
        let request = crate::engine::QueryRequest::workload(samples).with_seed(seed);
        let ctx = crate::context::RequestContext::unbounded();
        crate::engine::run_sequential(self, store, workload, request, &ctx).metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::{Label, LabelledGraph, VertexId};
    use loom_motif::fixtures::{paper_example_graph, paper_example_workload};
    use loom_motif::query::{PatternQuery, QueryId};
    use loom_partition::partition::{PartitionId, Partitioning};

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    /// A store over the paper's Figure 1 graph with a given partition map
    /// from vertex id → partition index.
    fn fig1_store(assignment: &[(u64, u32)]) -> PartitionedStore {
        let g = paper_example_graph();
        let mut part = Partitioning::new(2, 8).unwrap();
        for &(v, p) in assignment {
            part.assign(VertexId::new(v), PartitionId::new(p)).unwrap();
        }
        PartitionedStore::new(g, part)
    }

    #[test]
    fn single_partition_execution_has_no_remote_traversals() {
        let store = fig1_store(&(1..=8).map(|v| (v, 0)).collect::<Vec<_>>());
        let workload = paper_example_workload();
        let executor = QueryExecutor::default();
        for (query, _) in workload.iter() {
            let metrics = executor.execute(&store, query);
            assert!(metrics.matches_found > 0, "query {} unmatched", query.id());
            assert_eq!(metrics.remote_traversals, 0);
            assert_eq!(metrics.local_only_queries, 1);
            assert_eq!(metrics.inter_partition_probability(), 0.0);
        }
    }

    #[test]
    fn split_motif_costs_remote_traversals() {
        // Split the q1 square {1, 2, 5, 6} across partitions.
        let assignment: Vec<(u64, u32)> = vec![
            (1, 0),
            (2, 1),
            (3, 0),
            (4, 0),
            (5, 1),
            (6, 0),
            (7, 1),
            (8, 1),
        ];
        let store = fig1_store(&assignment);
        let workload = paper_example_workload();
        let q1 = workload.query(QueryId::new(1)).unwrap();
        let executor = QueryExecutor::default();
        let metrics = executor.execute(&store, q1);
        assert!(metrics.matches_found > 0);
        assert!(metrics.remote_traversals > 0);
        assert!(metrics.inter_partition_probability() > 0.0);
        assert_eq!(metrics.local_only_queries, 0);
        assert!(metrics.estimated_latency_us() > 0.0);
    }

    #[test]
    fn good_partitioning_beats_bad_partitioning_on_latency() {
        let aligned = fig1_store(&[
            (1, 0),
            (2, 0),
            (5, 0),
            (6, 0),
            (3, 1),
            (4, 1),
            (7, 1),
            (8, 1),
        ]);
        let scattered = fig1_store(&(1..=8).map(|v| (v, (v % 2) as u32)).collect::<Vec<_>>());
        let workload = paper_example_workload();
        let executor = QueryExecutor::default();
        let aligned_metrics = executor.execute_workload(&aligned, &workload, 60, 7);
        let scattered_metrics = executor.execute_workload(&scattered, &workload, 60, 7);
        assert!(
            aligned_metrics.inter_partition_probability()
                < scattered_metrics.inter_partition_probability()
        );
        assert!(aligned_metrics.mean_latency_us() < scattered_metrics.mean_latency_us());
    }

    #[test]
    fn workload_execution_is_deterministic_per_seed() {
        let store = fig1_store(&(1..=8).map(|v| (v, (v % 2) as u32)).collect::<Vec<_>>());
        let workload = paper_example_workload();
        let executor = QueryExecutor::default();
        let a = executor.execute_workload(&store, &workload, 40, 3);
        let b = executor.execute_workload(&store, &workload, 40, 3);
        assert_eq!(a, b);
        assert_eq!(a.queries_executed, 40);
    }

    #[test]
    fn match_limit_caps_enumeration() {
        // A graph with many a-b edges and a 2-vertex query explodes in
        // matches; the limit keeps it bounded.
        let mut g = LabelledGraph::new();
        let hub = g.add_vertex(l(0));
        for _ in 0..50 {
            let leaf = g.add_vertex(l(1));
            g.add_edge(hub, leaf).unwrap();
        }
        let mut part = Partitioning::new(1, 64).unwrap();
        for v in g.vertices_sorted() {
            part.assign(v, PartitionId::new(0)).unwrap();
        }
        let store = PartitionedStore::new(g, part);
        let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap();
        let metrics = QueryExecutor::default()
            .with_match_limit(5)
            .execute(&store, &query);
        assert_eq!(metrics.matches_found, 5);
    }

    #[test]
    fn rooted_mode_limits_seed_fanout_and_is_deterministic() {
        let store = fig1_store(&(1..=8).map(|v| (v, (v % 2) as u32)).collect::<Vec<_>>());
        let workload = paper_example_workload();
        let q2 = workload.query(QueryId::new(2)).unwrap();

        let full = QueryExecutor::default().execute(&store, q2);
        let rooted = QueryExecutor::default()
            .with_mode(QueryMode::Rooted { seed_count: 1 })
            .execute_seeded(&store, q2, 5);
        // A single-rooted execution explores no more than the full scan.
        assert!(rooted.total_traversals <= full.total_traversals);
        assert_eq!(QueryExecutor::default().mode(), QueryMode::FullEnumeration);
        // Deterministic per root seed, different seeds may pick other roots.
        let again = QueryExecutor::default()
            .with_mode(QueryMode::Rooted { seed_count: 1 })
            .execute_seeded(&store, q2, 5);
        assert_eq!(rooted, again);
    }

    #[test]
    fn rooted_workload_execution_can_stay_local_on_aligned_partitions() {
        // Partition aligned with the motifs: rooted executions anchored inside
        // one partition frequently finish without a remote hop, so the
        // local-only fraction is meaningfully non-zero (unlike a full scan).
        let aligned = fig1_store(&[
            (1, 0),
            (2, 0),
            (5, 0),
            (6, 0),
            (3, 1),
            (4, 1),
            (7, 1),
            (8, 1),
        ]);
        let workload = paper_example_workload();
        let rooted = QueryExecutor::default()
            .with_mode(QueryMode::Rooted { seed_count: 1 })
            .execute_workload(&aligned, &workload, 100, 3);
        let full = QueryExecutor::default().execute_workload(&aligned, &workload, 100, 3);
        assert!(rooted.local_only_fraction() >= full.local_only_fraction());
        assert!(rooted.local_only_fraction() > 0.0);
    }

    #[test]
    fn unmatched_query_reports_zero_matches() {
        let store = fig1_store(&(1..=8).map(|v| (v, 0)).collect::<Vec<_>>());
        // No vertex carries label 9.
        let query = PatternQuery::path(QueryId::new(9), &[l(9), l(0)]).unwrap();
        let metrics = QueryExecutor::default().execute(&store, &query);
        assert_eq!(metrics.matches_found, 0);
        assert_eq!(metrics.total_traversals, 0);
    }

    #[test]
    fn metrics_aggregation_helpers() {
        let mut a = ExecutionMetrics {
            queries_executed: 2,
            matches_found: 3,
            total_traversals: 10,
            remote_traversals: 5,
            local_only_queries: 1,
            ..ExecutionMetrics::default()
        };
        let b = ExecutionMetrics {
            queries_executed: 2,
            matches_found: 1,
            total_traversals: 10,
            remote_traversals: 0,
            local_only_queries: 2,
            ..ExecutionMetrics::default()
        };
        // Five remote hops at 300 µs and five local at 1 µs; ten local.
        assert_eq!(a.estimated_latency_us(), 1505.0);
        assert_eq!(b.estimated_latency_us(), 10.0);
        let sum_of_estimates = a.estimated_latency_us() + b.estimated_latency_us();
        a.merge(&b);
        assert_eq!(a.estimated_latency_us(), sum_of_estimates);
        assert_eq!(a.queries_executed, 4);
        assert!((a.inter_partition_probability() - 0.25).abs() < 1e-12);
        assert!((a.local_only_fraction() - 0.75).abs() < 1e-12);
        assert!((a.mean_latency_us() - 1515.0 / 4.0).abs() < 1e-12);
        assert_eq!(
            ExecutionMetrics::default().inter_partition_probability(),
            0.0
        );
        assert_eq!(ExecutionMetrics::default().mean_latency_us(), 0.0);
    }

    #[test]
    fn merge_tracks_limit_flags_and_plan_provenance() {
        use crate::plan::PlanId;
        let run = |plan: Option<PlanId>, limited: bool| ExecutionMetrics {
            queries_executed: 1,
            plan,
            matches_limited: limited,
            ..ExecutionMetrics::default()
        };
        // An empty accumulator adopts the first run's provenance.
        let mut acc = ExecutionMetrics::default();
        acc.merge(&run(Some(PlanId(7)), false));
        assert_eq!(acc.plan, Some(PlanId(7)));
        assert!(!acc.matches_limited);
        // Same plan keeps the id; a limited run taints the aggregate.
        acc.merge(&run(Some(PlanId(7)), true));
        assert_eq!(acc.plan, Some(PlanId(7)));
        assert!(acc.matches_limited);
        // A different plan blanks the provenance — a blended row must not
        // claim a single plan identity.
        acc.merge(&run(Some(PlanId(8)), false));
        assert_eq!(acc.plan, None);
        // Merging in a zero-query block changes nothing.
        let before = acc;
        acc.merge(&ExecutionMetrics::default());
        assert_eq!(acc, before);
    }

    #[test]
    fn executing_a_path_query_on_a_path_graph_counts_traversals() {
        let g = path_graph(3, &[l(0), l(1), l(2)]);
        let vs = g.vertices_sorted();
        let mut part = Partitioning::new(2, 3).unwrap();
        part.assign(vs[0], PartitionId::new(0)).unwrap();
        part.assign(vs[1], PartitionId::new(0)).unwrap();
        part.assign(vs[2], PartitionId::new(1)).unwrap();
        let store = PartitionedStore::new(g, part);
        let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let metrics = QueryExecutor::default().execute(&store, &query);
        assert_eq!(metrics.matches_found, 1);
        assert!(metrics.total_traversals >= 2);
        assert!(metrics.remote_traversals >= 1);
    }
}
