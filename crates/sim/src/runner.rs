//! The experiment driver.
//!
//! [`ExperimentRunner`] takes a data graph, a stream ordering and a query
//! workload, runs every partitioner under test over the same stream, then
//! executes a sampled query mix against each resulting partitioning and
//! collects both the classic partitioning metrics (cut, balance) and the
//! workload-aware ones (inter-partition traversal probability, latency).
//!
//! Partitioner runs are independent, so [`ExperimentRunner::run_many`] fans
//! them out across scoped threads.

use crate::executor::{ExecutionMetrics, QueryExecutor, QueryMode};
use crate::plan::{GraphStatistics, PlanCache, PlanStrategy, QueryPlanner};
use crate::store::PartitionedStore;
use loom_core::{workload_registry, LoomConfig};
use loom_graph::ordering::StreamOrder;
use loom_graph::{GraphStream, LabelledGraph};
use loom_motif::mining::MotifMiner;
use loom_motif::tpstry::Tpstry;
use loom_motif::workload::Workload;
use loom_partition::fennel::FennelConfig;
use loom_partition::hash::HashConfig;
use loom_partition::ldg::LdgConfig;
use loom_partition::metrics::evaluate;
use loom_partition::offline::{MultilevelConfig, MultilevelPartitioner};
use loom_partition::partition::Partitioning;
use loom_partition::spec::{PartitionerRegistry, PartitionerSpec};
use loom_partition::traits::partition_stream_batched;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Errors produced while running an experiment.
#[derive(Debug)]
pub enum SimError {
    /// A partitioner failed.
    Partition(loom_partition::PartitionError),
    /// Workload mining failed.
    Motif(loom_motif::MotifError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Partition(e) => write!(f, "partitioning failed: {e}"),
            SimError::Motif(e) => write!(f, "workload mining failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<loom_partition::PartitionError> for SimError {
    fn from(e: loom_partition::PartitionError) -> Self {
        SimError::Partition(e)
    }
}

impl From<loom_motif::MotifError> for SimError {
    fn from(e: loom_motif::MotifError) -> Self {
        SimError::Motif(e)
    }
}

/// Result alias for experiment runs.
pub type SimResult<T> = std::result::Result<T, SimError>;

/// The partitioners the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Hash placement (the distributed-store default).
    Hash,
    /// Linear Deterministic Greedy.
    Ldg,
    /// Fennel.
    Fennel,
    /// LOOM with the full workload-aware pipeline.
    Loom,
    /// Ablation: LOOM without motif clustering (≈ windowed LDG).
    LoomNoMotifs,
    /// Ablation: LOOM without merging of overlapping matches.
    LoomNoOverlapMerge,
    /// The offline multilevel (METIS-like) reference partitioner.
    Offline,
}

impl PartitionerKind {
    /// Short, stable name used in report tables.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionerKind::Hash => "hash",
            PartitionerKind::Ldg => "ldg",
            PartitionerKind::Fennel => "fennel",
            PartitionerKind::Loom => "loom",
            PartitionerKind::LoomNoMotifs => "loom-no-motifs",
            PartitionerKind::LoomNoOverlapMerge => "loom-no-merge",
            PartitionerKind::Offline => "offline",
        }
    }

    /// The comparison set used by most experiments.
    pub fn standard_set() -> Vec<PartitionerKind> {
        vec![
            PartitionerKind::Hash,
            PartitionerKind::Ldg,
            PartitionerKind::Fennel,
            PartitionerKind::Loom,
            PartitionerKind::Offline,
        ]
    }

    /// The LOOM ablation set: the full pipeline, then the two switches that
    /// move a number (motif clustering off, overlap merging off).
    pub fn ablation_set() -> Vec<PartitionerKind> {
        vec![
            PartitionerKind::Loom,
            PartitionerKind::LoomNoMotifs,
            PartitionerKind::LoomNoOverlapMerge,
        ]
    }
}

/// Shared experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Number of partitions.
    pub k: u32,
    /// Balance slack used by every partitioner that honours one.
    pub slack: f64,
    /// LOOM window size (vertices).
    pub window_size: usize,
    /// LOOM motif frequency threshold `T`.
    pub motif_threshold: f64,
    /// Number of query executions sampled from the workload per run.
    pub query_samples: usize,
    /// RNG seed for the query sampling.
    pub seed: u64,
    /// Query execution mode (rooted, by default, to model the online
    /// transactional queries the paper targets).
    pub query_mode: QueryMode,
    /// Chunk size used to drive streams through partitioners batch-wise
    /// (batched and per-element ingestion are contractually identical; this
    /// only affects throughput).
    pub chunk_size: usize,
}

impl ExperimentConfig {
    /// Sensible defaults for `k` partitions.
    pub fn new(k: u32) -> Self {
        Self {
            k,
            slack: 1.1,
            window_size: 256,
            motif_threshold: 0.4,
            query_samples: 200,
            seed: 42,
            query_mode: QueryMode::Rooted { seed_count: 4 },
            chunk_size: loom_partition::traits::DEFAULT_BATCH_SIZE,
        }
    }
}

/// One row of an experiment: a partitioner's quality and execution figures on
/// one (graph, ordering, workload) combination.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Partitioner name.
    pub partitioner: String,
    /// Stream ordering name.
    pub ordering: String,
    /// Vertices in the data graph.
    pub graph_vertices: usize,
    /// Edges in the data graph.
    pub graph_edges: usize,
    /// Number of partitions.
    pub k: u32,
    /// Fraction of edges cut.
    pub cut_ratio: f64,
    /// Balance: max partition size over ideal size.
    pub imbalance: f64,
    /// Communication volume (distinct remote partitions summed over vertices).
    pub communication_volume: usize,
    /// Wall-clock time spent partitioning, in milliseconds.
    pub partition_time_ms: f64,
    /// Partitioning throughput in vertices per second.
    pub vertices_per_second: f64,
    /// Probability that a query traversal crosses partitions.
    pub ipt_probability: f64,
    /// Mean remote traversals per query.
    pub remote_per_query: f64,
    /// Fraction of query executions answered without any remote traversal.
    pub local_only_fraction: f64,
    /// Mean estimated query latency, in microseconds.
    pub mean_latency_us: f64,
    /// Total matches found while executing the sampled workload.
    pub matches_found: usize,
}

impl ExperimentResult {
    fn from_parts(
        partitioner: &str,
        ordering: &str,
        graph: &LabelledGraph,
        k: u32,
        partitioning: &Partitioning,
        partition_time_ms: f64,
        execution: &ExecutionMetrics,
    ) -> Self {
        let quality = evaluate(graph, partitioning);
        let seconds = (partition_time_ms / 1_000.0).max(1e-9);
        Self {
            partitioner: partitioner.to_owned(),
            ordering: ordering.to_owned(),
            graph_vertices: graph.vertex_count(),
            graph_edges: graph.edge_count(),
            k,
            cut_ratio: quality.cut_ratio,
            imbalance: quality.imbalance,
            communication_volume: quality.communication_volume,
            partition_time_ms,
            vertices_per_second: graph.vertex_count() as f64 / seconds,
            ipt_probability: execution.inter_partition_probability(),
            remote_per_query: execution.remote_traversals_per_query(),
            local_only_fraction: execution.local_only_fraction(),
            mean_latency_us: execution.mean_latency_us(),
            matches_found: execution.matches_found,
        }
    }
}

/// The experiment driver.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    config: ExperimentConfig,
}

impl ExperimentRunner {
    /// Create a runner with the given shared parameters.
    pub fn new(config: ExperimentConfig) -> Self {
        Self { config }
    }

    /// The shared parameters.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Mine the workload summary the LOOM variants share.
    ///
    /// # Errors
    ///
    /// Propagates workload mining failures.
    pub fn mine_workload(&self, workload: &Workload) -> SimResult<Tpstry> {
        Ok(MotifMiner::default().mine(workload)?)
    }

    /// Build a LOOM configuration matching the experiment parameters.
    pub fn loom_config(&self, graph: &LabelledGraph) -> LoomConfig {
        LoomConfig::new(self.config.k, graph.vertex_count())
            .with_window_size(self.config.window_size)
            .with_motif_threshold(self.config.motif_threshold)
            .with_slack(self.config.slack)
    }

    /// Compile the workload's plans once against this graph's statistics —
    /// shared by every partitioner's execution run, so the planning cost is
    /// amortised from per-execution to per-workload.
    pub fn plan_cache(&self, graph: &LabelledGraph, workload: &Workload) -> Arc<PlanCache> {
        let stats = GraphStatistics::from_graph(graph);
        let planner = QueryPlanner::new(PlanStrategy::default());
        Arc::new(PlanCache::compile(&planner, workload, &stats))
    }

    /// Run a single partitioner over a pre-built stream and evaluate it,
    /// executing the sampled workload through a pre-compiled shared plan
    /// cache ([`ExperimentRunner::plan_cache`]). The registry is pre-built
    /// too, so the timed partitioning region covers partitioning work only
    /// (registry construction clones the workload summary and stays outside
    /// the clock). [`ExperimentRunner::run_many`] shares both across kinds.
    ///
    /// # Errors
    ///
    /// Propagates partitioner failures.
    #[allow(clippy::too_many_arguments)]
    pub fn run_one(
        &self,
        kind: PartitionerKind,
        graph: &LabelledGraph,
        stream: &GraphStream,
        ordering_name: &str,
        workload: &Workload,
        registry: &PartitionerRegistry,
        plans: &Arc<PlanCache>,
    ) -> SimResult<ExperimentResult> {
        let start = Instant::now();
        let partitioning = self.partition(kind, graph, stream, registry)?;
        let partition_time_ms = start.elapsed().as_secs_f64() * 1_000.0;

        let store = PartitionedStore::new(graph.clone(), partitioning.clone());
        let executor = QueryExecutor::default()
            .with_mode(self.config.query_mode)
            .with_plan_cache(Arc::clone(plans));
        let execution = executor.execute_workload(
            &store,
            workload,
            self.config.query_samples,
            self.config.seed,
        );
        Ok(ExperimentResult::from_parts(
            kind.name(),
            ordering_name,
            graph,
            self.config.k,
            &partitioning,
            partition_time_ms,
            &execution,
        ))
    }

    /// Run several partitioners (in parallel threads) over the same graph,
    /// ordering and workload.
    ///
    /// # Errors
    ///
    /// Returns the first partitioner failure encountered.
    pub fn run_many(
        &self,
        kinds: &[PartitionerKind],
        graph: &LabelledGraph,
        order: &StreamOrder,
        workload: &Workload,
    ) -> SimResult<Vec<ExperimentResult>> {
        let tpstry = self.mine_workload(workload)?;
        let registry = workload_registry(&tpstry);
        // One compiled plan per workload query, shared by every partitioner
        // run below — the compile-once contract.
        let plans = self.plan_cache(graph, workload);
        let stream = GraphStream::from_graph(graph, order);
        let ordering_name = order.name();

        let results: Mutex<Vec<(usize, SimResult<ExperimentResult>)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (index, &kind) in kinds.iter().enumerate() {
                let results = &results;
                let stream = &stream;
                let registry = &registry;
                let plans = &plans;
                scope.spawn(move || {
                    let outcome = self.run_one(
                        kind,
                        graph,
                        stream,
                        ordering_name,
                        workload,
                        registry,
                        plans,
                    );
                    results.lock().push((index, outcome));
                });
            }
        });

        let mut collected = results.into_inner();
        collected.sort_by_key(|(index, _)| *index);
        collected.into_iter().map(|(_, outcome)| outcome).collect()
    }

    /// The declarative spec for a streaming partitioner kind under this
    /// runner's shared parameters, or `None` for [`PartitionerKind::Offline`]
    /// (the offline multilevel partitioner consumes a whole graph, not a
    /// stream, and is therefore not spec-constructible).
    pub fn spec_for(
        &self,
        kind: PartitionerKind,
        graph: &LabelledGraph,
    ) -> Option<PartitionerSpec> {
        let n = graph.vertex_count();
        let k = self.config.k;
        Some(match kind {
            PartitionerKind::Hash => {
                let capacity =
                    ((n as f64 / f64::from(k.max(1)) * self.config.slack).ceil() as usize).max(1);
                PartitionerSpec::Hash(HashConfig::new(k, capacity))
            }
            PartitionerKind::Ldg => PartitionerSpec::Ldg(LdgConfig {
                k,
                expected_vertices: n,
                slack: self.config.slack,
            }),
            PartitionerKind::Fennel => PartitionerSpec::Fennel(FennelConfig {
                balance_cap: self.config.slack,
                ..FennelConfig::new(k, n, graph.edge_count())
            }),
            PartitionerKind::Loom => PartitionerSpec::Loom(self.loom_config(graph)),
            PartitionerKind::LoomNoMotifs => {
                PartitionerSpec::Loom(self.loom_config(graph).without_motif_clustering())
            }
            PartitionerKind::LoomNoOverlapMerge => {
                PartitionerSpec::Loom(self.loom_config(graph).without_overlap_merging())
            }
            PartitionerKind::Offline => return None,
        })
    }

    /// Produce a partitioning of `graph` with the requested partitioner.
    ///
    /// Streaming partitioners are built from their declarative spec through
    /// the workload `registry` (see [`loom_core::workload_registry`]) and
    /// driven as `Box<dyn Partitioner>` trait objects with batched
    /// ingestion; the offline multilevel reference keeps its direct
    /// whole-graph path.
    ///
    /// # Errors
    ///
    /// Propagates partitioner failures.
    pub fn partition(
        &self,
        kind: PartitionerKind,
        graph: &LabelledGraph,
        stream: &GraphStream,
        registry: &PartitionerRegistry,
    ) -> SimResult<Partitioning> {
        let Some(spec) = self.spec_for(kind, graph) else {
            let partitioner = MultilevelPartitioner::new(MultilevelConfig {
                k: self.config.k,
                slack: self.config.slack.max(1.05),
                ..MultilevelConfig::new(self.config.k)
            })?;
            return Ok(partitioner.partition(graph)?);
        };
        let mut partitioner = registry.build(&spec)?;
        Ok(partition_stream_batched(
            partitioner.as_mut(),
            stream,
            self.config.chunk_size,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::generators::{motif_planted_graph, MotifPlantConfig};
    use loom_graph::Label;
    use loom_motif::query::{PatternQuery, QueryId};

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    fn abc_workload() -> Workload {
        let q1 = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let q2 = PatternQuery::path(QueryId::new(1), &[l(0), l(1)]).unwrap();
        Workload::new(vec![(q1, 3.0), (q2, 1.0)]).unwrap()
    }

    fn planted_graph(seed: u64) -> LabelledGraph {
        let motif = path_graph(3, &[l(0), l(1), l(2)]);
        motif_planted_graph(
            &MotifPlantConfig {
                background_vertices: 300,
                background_edges: 600,
                instances_per_motif: 40,
                attachment_edges: 1,
                label_count: 4,
                seed,
            },
            &[motif],
        )
        .unwrap()
        .0
    }

    #[test]
    fn run_many_produces_one_row_per_partitioner() {
        let graph = planted_graph(1);
        let workload = abc_workload();
        let runner = ExperimentRunner::new(ExperimentConfig {
            query_samples: 30,
            window_size: 64,
            ..ExperimentConfig::new(4)
        });
        let kinds = PartitionerKind::standard_set();
        let results = runner
            .run_many(&kinds, &graph, &StreamOrder::Bfs, &workload)
            .unwrap();
        assert_eq!(results.len(), kinds.len());
        for (kind, result) in kinds.iter().zip(&results) {
            assert_eq!(result.partitioner, kind.name());
            assert_eq!(result.graph_vertices, graph.vertex_count());
            assert!(result.cut_ratio >= 0.0 && result.cut_ratio <= 1.0);
            assert!(result.imbalance >= 1.0);
            assert!(result.vertices_per_second > 0.0);
            assert!(result.ipt_probability >= 0.0 && result.ipt_probability <= 1.0);
        }
        // Hash should be the worst on inter-partition traversal probability.
        let hash = results.iter().find(|r| r.partitioner == "hash").unwrap();
        let loom = results.iter().find(|r| r.partitioner == "loom").unwrap();
        assert!(
            loom.ipt_probability <= hash.ipt_probability,
            "LOOM ({:.3}) should not exceed hash ({:.3}) on ipt probability",
            loom.ipt_probability,
            hash.ipt_probability
        );
    }

    #[test]
    fn loom_beats_ldg_on_workload_locality_for_motif_heavy_graphs() {
        let graph = planted_graph(9);
        let workload = abc_workload();
        let runner = ExperimentRunner::new(ExperimentConfig {
            query_samples: 60,
            window_size: 128,
            ..ExperimentConfig::new(8)
        });
        let results = runner
            .run_many(
                &[PartitionerKind::Ldg, PartitionerKind::Loom],
                &graph,
                &StreamOrder::Random { seed: 3 },
                &workload,
            )
            .unwrap();
        let ldg = &results[0];
        let loom = &results[1];
        assert!(
            loom.local_only_fraction >= ldg.local_only_fraction,
            "LOOM local-only fraction {:.3} should be at least LDG's {:.3}",
            loom.local_only_fraction,
            ldg.local_only_fraction
        );
    }

    #[test]
    fn ablation_set_runs() {
        let graph = planted_graph(4);
        let workload = abc_workload();
        let runner = ExperimentRunner::new(ExperimentConfig {
            query_samples: 20,
            window_size: 64,
            ..ExperimentConfig::new(4)
        });
        let results = runner
            .run_many(
                &PartitionerKind::ablation_set(),
                &graph,
                &StreamOrder::Bfs,
                &workload,
            )
            .unwrap();
        assert_eq!(results.len(), 3);
        assert!(results.iter().any(|r| r.partitioner == "loom-no-motifs"));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(PartitionerKind::Hash.name(), "hash");
        assert_eq!(PartitionerKind::LoomNoOverlapMerge.name(), "loom-no-merge");
        assert_eq!(PartitionerKind::standard_set().len(), 5);
    }

    #[test]
    fn sim_error_display() {
        let err: SimError = loom_partition::PartitionError::InvalidConfig("k = 0".into()).into();
        assert!(err.to_string().contains("partitioning failed"));
    }
}
