//! What one query execution is asked to do and what it measured.
//!
//! [`QueryMode`] says how an execution is seeded; [`ExecutionMetrics`]
//! aggregates what the instrumented matcher ([`crate::matcher`]) counted:
//! every expansion from a matched vertex to a candidate neighbour either
//! stays on the local partition or requires a hop to a remote partition.
//! The remote fraction is exactly the "probability of inter-partition
//! traversals" the paper optimises. Every engine reports in these terms.

use crate::plan::PlanId;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{request_schedule, QueryRequest};
    use crate::matcher::{execute_plan, ExecOptions};
    use crate::plan::QueryPlan;
    use crate::store::PartitionedStore;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::{Label, LabelledGraph, VertexId};
    use loom_motif::fixtures::{paper_example_graph, paper_example_workload};
    use loom_motif::query::{PatternQuery, QueryId};
    use loom_motif::workload::Workload;
    use loom_partition::partition::{PartitionId, Partitioning};

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    const ROOTED: QueryMode = QueryMode::Rooted { seed_count: 1 };

    /// One execution of `query` under `opts`, through its legacy plan.
    fn execute(
        store: &PartitionedStore,
        query: &PatternQuery,
        opts: ExecOptions,
    ) -> ExecutionMetrics {
        execute_plan(store, &QueryPlan::legacy(query), &opts).metrics
    }

    /// `samples` executions drawn from `workload` by the schedule every
    /// engine shares, each under `mode` with its scheduled root seed.
    fn execute_workload(
        store: &PartitionedStore,
        workload: &Workload,
        (samples, seed): (usize, u64),
        mode: QueryMode,
    ) -> ExecutionMetrics {
        let request = QueryRequest::workload(samples).with_seed(seed);
        let mut metrics = ExecutionMetrics::default();
        for (index, root_seed) in request_schedule(workload, &request) {
            let opts = ExecOptions {
                mode,
                root_seed,
                ..ExecOptions::default()
            };
            metrics.merge(&execute(store, &workload.queries()[index], opts));
        }
        metrics
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
        for (query, _) in workload.iter() {
            let metrics = execute(&store, query, ExecOptions::default());
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
        let metrics = execute(&store, q1, ExecOptions::default());
        assert!(metrics.matches_found > 0);
        assert!(metrics.remote_traversals > 0);
        assert!(metrics.inter_partition_probability() > 0.0);
        assert_eq!(metrics.local_only_queries, 0);
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
        let aligned_metrics =
            execute_workload(&aligned, &workload, (60, 7), QueryMode::FullEnumeration);
        let scattered_metrics =
            execute_workload(&scattered, &workload, (60, 7), QueryMode::FullEnumeration);
        assert!(
            aligned_metrics.inter_partition_probability()
                < scattered_metrics.inter_partition_probability()
        );
        // The same claim per query: fewer remote traversals for each one.
        let remote_per_query =
            |m: &ExecutionMetrics| m.remote_traversals as f64 / m.queries_executed as f64;
        assert!(remote_per_query(&aligned_metrics) < remote_per_query(&scattered_metrics));
    }

    #[test]
    fn workload_execution_is_deterministic_per_seed() {
        let store = fig1_store(&(1..=8).map(|v| (v, (v % 2) as u32)).collect::<Vec<_>>());
        let workload = paper_example_workload();
        let a = execute_workload(&store, &workload, (40, 3), QueryMode::FullEnumeration);
        let b = execute_workload(&store, &workload, (40, 3), QueryMode::FullEnumeration);
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
        let opts = ExecOptions {
            match_limit: 5,
            ..ExecOptions::default()
        };
        let metrics = execute(&store, &query, opts);
        assert_eq!(metrics.matches_found, 5);
    }

    #[test]
    fn rooted_mode_limits_seed_fanout_and_is_deterministic() {
        let store = fig1_store(&(1..=8).map(|v| (v, (v % 2) as u32)).collect::<Vec<_>>());
        let workload = paper_example_workload();
        let q2 = workload.query(QueryId::new(2)).unwrap();

        let full = execute(&store, q2, ExecOptions::default());
        let seeded = ExecOptions {
            mode: ROOTED,
            root_seed: 5,
            ..ExecOptions::default()
        };
        let rooted = execute(&store, q2, seeded);
        // A single-rooted execution explores no more than the full scan.
        assert!(rooted.total_traversals <= full.total_traversals);
        assert_eq!(ExecOptions::default().mode, QueryMode::FullEnumeration);
        // Deterministic per root seed, different seeds may pick other roots.
        let again = execute(&store, q2, seeded);
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
        let rooted = execute_workload(&aligned, &workload, (100, 3), ROOTED);
        let full = execute_workload(&aligned, &workload, (100, 3), QueryMode::FullEnumeration);
        assert!(rooted.local_only_fraction() >= full.local_only_fraction());
        assert!(rooted.local_only_fraction() > 0.0);
    }

    #[test]
    fn unmatched_query_reports_zero_matches() {
        let store = fig1_store(&(1..=8).map(|v| (v, 0)).collect::<Vec<_>>());
        // No vertex carries label 9.
        let query = PatternQuery::path(QueryId::new(9), &[l(9), l(0)]).unwrap();
        let metrics = execute(&store, &query, ExecOptions::default());
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
        a.merge(&b);
        assert_eq!(a.queries_executed, 4);
        assert!((a.inter_partition_probability() - 0.25).abs() < 1e-12);
        assert!((a.local_only_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(
            ExecutionMetrics::default().inter_partition_probability(),
            0.0
        );
    }

    #[test]
    fn merge_tracks_limit_flags_and_plan_provenance() {
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
        let metrics = execute(&store, &query, ExecOptions::default());
        assert_eq!(metrics.matches_found, 1);
        assert!(metrics.total_traversals >= 2);
        assert!(metrics.remote_traversals >= 1);
    }
}
