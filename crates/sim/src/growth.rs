//! Dynamic graph growth: streaming adaptation vs periodic offline
//! repartitioning.
//!
//! One of the paper's two arguments for *streaming* partitioners (§3.1) is
//! that offline partitioners such as METIS "may have to perform expensive
//! full repartitioning in the presence of graph changes". This module
//! quantifies that trade-off: a graph stream is replayed as a growing graph
//! with a number of checkpoints; at every checkpoint we record, for each
//! strategy,
//!
//! * the cumulative partitioning time spent so far,
//! * the quality (cut ratio) of the current partitioning of the
//!   graph-so-far, and
//! * the *churn*: the fraction of previously placed vertices whose partition
//!   changed since the last checkpoint (vertex moves are what a live system
//!   pays for as data migration).
//!
//! A streaming partitioner never moves a vertex (churn 0) and its cost grows
//! linearly with the stream; the offline partitioner produces better cuts but
//! pays a full repartition — and potentially large migrations — at every
//! checkpoint.

use loom_graph::fxhash::FxHashMap;
use loom_graph::{GraphStream, LabelledGraph, VertexId};
use loom_partition::error::Result;
use loom_partition::metrics::evaluate;
use loom_partition::offline::{MultilevelConfig, MultilevelPartitioner};
use loom_partition::partition::{PartitionId, Partitioning};
use loom_partition::traits::Partitioner;
use std::time::Instant;

/// Measurements at one growth checkpoint for one strategy.
#[derive(Debug, Clone)]
pub struct GrowthCheckpoint {
    /// Strategy name (`"streaming:<partitioner>"` or `"offline"`).
    pub strategy: String,
    /// Fraction of the stream consumed at this checkpoint (0, 1].
    pub progress: f64,
    /// Vertices present in the graph-so-far.
    pub vertices: usize,
    /// Cut ratio of the current partitioning of the graph-so-far.
    pub cut_ratio: f64,
    /// Imbalance of the current partitioning.
    pub imbalance: f64,
    /// Cumulative partitioning time in milliseconds.
    pub cumulative_time_ms: f64,
    /// Vertices whose partition changed since the previous checkpoint.
    pub moved_vertices: usize,
    /// `moved_vertices / vertices` (0 for the first checkpoint).
    pub churn: f64,
}

/// Compare a streaming partitioner against periodic offline repartitioning on
/// a growing graph.
#[derive(Debug, Clone)]
pub struct GrowthScenario {
    /// Number of partitions.
    pub k: u32,
    /// Number of checkpoints (≥ 1); the stream is cut into this many equal
    /// element ranges.
    pub checkpoints: usize,
    /// Balance slack shared by both strategies.
    pub slack: f64,
}

impl GrowthScenario {
    /// Create a scenario with the given number of partitions and checkpoints.
    pub fn new(k: u32, checkpoints: usize) -> Self {
        Self {
            k,
            checkpoints: checkpoints.max(1),
            slack: 1.1,
        }
    }

    /// Run a streaming partitioner over the growing stream, recording a
    /// checkpoint after each segment. The partitioner keeps its state across
    /// checkpoints — no vertex is ever moved, so churn is always zero.
    ///
    /// Intermediate checkpoints use the non-destructive
    /// [`Partitioner::snapshot`] (a live system would checkpoint exactly
    /// this: buffered vertices are still awaiting placement); the final
    /// checkpoint calls [`Partitioner::finish`], flushing every buffered
    /// vertex and moving the complete partitioning out.
    ///
    /// # Errors
    ///
    /// Propagates partitioner failures.
    pub fn run_streaming<P: Partitioner + ?Sized>(
        &self,
        partitioner: &mut P,
        stream: &GraphStream,
    ) -> Result<Vec<GrowthCheckpoint>> {
        let name = format!("streaming:{}", partitioner.name());
        let segments = segment_bounds(stream.len(), self.checkpoints);
        let mut checkpoints = Vec::with_capacity(self.checkpoints);
        let mut graph_so_far = LabelledGraph::new();
        let mut cumulative_ms = 0.0;
        let mut previous: FxHashMap<VertexId, PartitionId> = FxHashMap::default();
        let mut consumed = 0usize;
        let last_segment = segments.len().saturating_sub(1);
        for (index, end) in segments.iter().enumerate() {
            let start = Instant::now();
            partitioner.ingest_batch(&stream.elements()[consumed..*end])?;
            for element in &stream.elements()[consumed..*end] {
                graph_so_far.apply(element);
            }
            let partitioning = if index == last_segment {
                partitioner.finish()?
            } else {
                partitioner.snapshot()
            };
            cumulative_ms += start.elapsed().as_secs_f64() * 1_000.0;
            consumed = *end;
            checkpoints.push(self.checkpoint(
                &name,
                index,
                &graph_so_far,
                &partitioning,
                cumulative_ms,
                &mut previous,
            ));
        }
        Ok(checkpoints)
    }

    /// Repartition the graph-so-far from scratch with the offline multilevel
    /// partitioner at every checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates partitioner failures.
    pub fn run_offline_periodic(&self, stream: &GraphStream) -> Result<Vec<GrowthCheckpoint>> {
        let segments = segment_bounds(stream.len(), self.checkpoints);
        let mut checkpoints = Vec::with_capacity(self.checkpoints);
        let mut graph_so_far = LabelledGraph::new();
        let mut cumulative_ms = 0.0;
        let mut previous: FxHashMap<VertexId, PartitionId> = FxHashMap::default();
        let mut consumed = 0usize;
        for (index, end) in segments.iter().enumerate() {
            for element in &stream.elements()[consumed..*end] {
                graph_so_far.apply(element);
            }
            consumed = *end;
            let partitioner = MultilevelPartitioner::new(MultilevelConfig {
                k: self.k,
                slack: self.slack.max(1.05),
                ..MultilevelConfig::new(self.k)
            })?;
            let start = Instant::now();
            let partitioning = partitioner.partition(&graph_so_far)?;
            cumulative_ms += start.elapsed().as_secs_f64() * 1_000.0;
            checkpoints.push(self.checkpoint(
                "offline",
                index,
                &graph_so_far,
                &partitioning,
                cumulative_ms,
                &mut previous,
            ));
        }
        Ok(checkpoints)
    }

    fn checkpoint(
        &self,
        strategy: &str,
        index: usize,
        graph: &LabelledGraph,
        partitioning: &Partitioning,
        cumulative_ms: f64,
        previous: &mut FxHashMap<VertexId, PartitionId>,
    ) -> GrowthCheckpoint {
        let quality = evaluate(graph, partitioning);
        let mut moved = 0usize;
        for (v, p) in partitioning.assignments() {
            if let Some(&old) = previous.get(&v) {
                if old != p {
                    moved += 1;
                }
            }
        }
        previous.clear();
        previous.extend(partitioning.assignments());
        let vertices = graph.vertex_count();
        GrowthCheckpoint {
            strategy: strategy.to_owned(),
            progress: (index + 1) as f64 / self.checkpoints as f64,
            vertices,
            cut_ratio: quality.cut_ratio,
            imbalance: quality.imbalance,
            cumulative_time_ms: cumulative_ms,
            moved_vertices: moved,
            churn: if vertices == 0 {
                0.0
            } else {
                moved as f64 / vertices as f64
            },
        }
    }
}

/// Element index boundaries for `checkpoints` equal segments.
fn segment_bounds(len: usize, checkpoints: usize) -> Vec<usize> {
    (1..=checkpoints).map(|i| len * i / checkpoints).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::{barabasi_albert, GeneratorConfig};
    use loom_graph::ordering::StreamOrder;
    use loom_partition::ldg::{LdgConfig, LdgPartitioner};

    fn stream() -> (LabelledGraph, GraphStream) {
        let graph = barabasi_albert(GeneratorConfig::new(600, 4, 3), 2).unwrap();
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 2 });
        (graph, stream)
    }

    #[test]
    fn streaming_strategy_has_zero_churn() {
        let (graph, stream) = stream();
        let scenario = GrowthScenario::new(4, 5);
        let mut ldg = LdgPartitioner::new(LdgConfig::new(4, graph.vertex_count())).unwrap();
        let checkpoints = scenario.run_streaming(&mut ldg, &stream).unwrap();
        assert_eq!(checkpoints.len(), 5);
        for c in &checkpoints {
            assert_eq!(c.moved_vertices, 0, "streaming must never move vertices");
            assert_eq!(c.churn, 0.0);
            assert!(c.cut_ratio >= 0.0 && c.cut_ratio <= 1.0);
        }
        // Progress and vertex counts grow monotonically; the final checkpoint
        // covers the whole graph.
        assert!((checkpoints.last().unwrap().progress - 1.0).abs() < 1e-12);
        assert_eq!(checkpoints.last().unwrap().vertices, graph.vertex_count());
        assert!(checkpoints
            .windows(2)
            .all(|w| w[0].vertices <= w[1].vertices));
        assert!(checkpoints
            .windows(2)
            .all(|w| w[0].cumulative_time_ms <= w[1].cumulative_time_ms));
    }

    #[test]
    fn offline_periodic_repartitioning_moves_vertices() {
        let (graph, stream) = stream();
        let scenario = GrowthScenario::new(4, 4);
        let checkpoints = scenario.run_offline_periodic(&stream).unwrap();
        assert_eq!(checkpoints.len(), 4);
        assert_eq!(checkpoints.last().unwrap().vertices, graph.vertex_count());
        // Re-partitioning from scratch after growth moves at least some
        // previously placed vertices at some checkpoint.
        let total_moved: usize = checkpoints.iter().map(|c| c.moved_vertices).sum();
        assert!(total_moved > 0, "offline repartitioning should cause churn");
    }

    #[test]
    fn offline_cut_is_no_worse_than_streaming_at_the_end() {
        let (graph, stream) = stream();
        let scenario = GrowthScenario::new(4, 3);
        let mut ldg = LdgPartitioner::new(LdgConfig::new(4, graph.vertex_count())).unwrap();
        let streaming = scenario.run_streaming(&mut ldg, &stream).unwrap();
        let offline = scenario.run_offline_periodic(&stream).unwrap();
        let final_streaming = streaming.last().unwrap();
        let final_offline = offline.last().unwrap();
        assert!(final_offline.cut_ratio <= final_streaming.cut_ratio + 0.05);
    }

    #[test]
    fn segment_bounds_cover_the_stream() {
        assert_eq!(segment_bounds(10, 3), vec![3, 6, 10]);
        assert_eq!(segment_bounds(0, 4), vec![0, 0, 0, 0]);
        assert_eq!(segment_bounds(5, 1), vec![5]);
    }
}
