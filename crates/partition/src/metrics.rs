//! Partition quality metrics.
//!
//! The classic, workload-agnostic measures every streaming-partitioning paper
//! reports (edge cut λ, cut ratio, imbalance ρ, communication volume), plus a
//! ground-truth agreement score for planted-partition graphs. The
//! *workload-aware* metric the paper actually optimises — inter-partition
//! traversal probability — depends on query execution and therefore lives in
//! `loom-sim`.

use crate::partition::{PartitionId, Partitioning};
use loom_graph::fxhash::FxHashSet;
use loom_graph::LabelledGraph;

/// Aggregated quality figures for a partitioning of a specific graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Number of vertices assigned.
    pub assigned_vertices: usize,
    /// Number of vertices in the graph (assigned or not).
    pub graph_vertices: usize,
    /// Number of edges whose endpoints live in different partitions.
    pub cut_edges: usize,
    /// Total number of edges considered.
    pub total_edges: usize,
    /// `cut_edges / total_edges` (0.0 for empty graphs).
    pub cut_ratio: f64,
    /// `max_i |V_i| / (n / k)` — 1.0 is perfectly balanced.
    pub imbalance: f64,
    /// Total communication volume: for each vertex, the number of *distinct*
    /// remote partitions among its neighbours, summed over all vertices.
    pub communication_volume: usize,
}

impl std::fmt::Display for QualityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cut={}/{} ({:.3}) imbalance={:.3} comm_volume={}",
            self.cut_edges,
            self.total_edges,
            self.cut_ratio,
            self.imbalance,
            self.communication_volume
        )
    }
}

/// Compute partition quality metrics for a graph + partitioning pair.
///
/// Edges with an unassigned endpoint are ignored (streaming partitioners may
/// legitimately be mid-stream when quality is sampled).
pub fn evaluate(graph: &LabelledGraph, partitioning: &Partitioning) -> QualityReport {
    let mut cut_edges = 0usize;
    let mut total_edges = 0usize;
    for e in graph.edges() {
        let (Some(pa), Some(pb)) = (
            partitioning.partition_of(e.lo),
            partitioning.partition_of(e.hi),
        ) else {
            continue;
        };
        total_edges += 1;
        if pa != pb {
            cut_edges += 1;
        }
    }
    let mut communication_volume = 0usize;
    for v in graph.vertices() {
        let Some(home) = partitioning.partition_of(v) else {
            continue;
        };
        let mut remotes: FxHashSet<PartitionId> = FxHashSet::default();
        for &n in graph.neighbors(v) {
            if let Some(p) = partitioning.partition_of(n) {
                if p != home {
                    remotes.insert(p);
                }
            }
        }
        communication_volume += remotes.len();
    }
    QualityReport {
        assigned_vertices: partitioning.assigned_count(),
        graph_vertices: graph.vertex_count(),
        cut_edges,
        total_edges,
        cut_ratio: if total_edges == 0 {
            0.0
        } else {
            cut_edges as f64 / total_edges as f64
        },
        imbalance: partitioning.imbalance(),
        communication_volume,
    }
}

/// Convenience trait: anything that can produce a final [`Partitioning`] can
/// be evaluated against a graph.
pub trait PartitionQuality {
    /// Evaluate the quality of this partitioning on `graph`.
    fn quality(&self, graph: &LabelledGraph) -> QualityReport;
}

impl PartitionQuality for Partitioning {
    fn quality(&self, graph: &LabelledGraph) -> QualityReport {
        evaluate(graph, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::{Label, VertexId};

    fn two_block_graph() -> LabelledGraph {
        // Two triangles joined by a single bridge edge.
        let mut g = LabelledGraph::new();
        let vs: Vec<VertexId> = (0..6).map(|_| g.add_vertex(Label::new(0))).collect();
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            g.add_edge(vs[a], vs[b]).unwrap();
        }
        g
    }

    #[test]
    fn perfect_split_cuts_only_the_bridge() {
        let g = two_block_graph();
        let mut part = Partitioning::new(2, 3).unwrap();
        for i in 0..3u64 {
            part.assign(VertexId::new(i), PartitionId::new(0)).unwrap();
        }
        for i in 3..6u64 {
            part.assign(VertexId::new(i), PartitionId::new(1)).unwrap();
        }
        let report = evaluate(&g, &part);
        assert_eq!(report.cut_edges, 1);
        assert_eq!(report.total_edges, 7);
        assert!((report.cut_ratio - 1.0 / 7.0).abs() < 1e-12);
        assert!((report.imbalance - 1.0).abs() < 1e-12);
        // Only the two bridge endpoints see one remote partition each.
        assert_eq!(report.communication_volume, 2);
        assert!(report.to_string().contains("cut=1/7"));
    }

    #[test]
    fn everything_in_one_partition_has_zero_cut_but_max_imbalance() {
        let g = two_block_graph();
        let mut part = Partitioning::new(2, 6).unwrap();
        for i in 0..6u64 {
            part.assign(VertexId::new(i), PartitionId::new(0)).unwrap();
        }
        let report = evaluate(&g, &part);
        assert_eq!(report.cut_edges, 0);
        assert!((report.imbalance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn partial_assignments_are_ignored() {
        let g = path_graph(4, &[Label::new(0)]);
        let vs = g.vertices_sorted();
        let mut part = Partitioning::new(2, 4).unwrap();
        part.assign(vs[0], PartitionId::new(0)).unwrap();
        part.assign(vs[1], PartitionId::new(1)).unwrap();
        let report = evaluate(&g, &part);
        assert_eq!(report.total_edges, 1);
        assert_eq!(report.cut_edges, 1);
        assert_eq!(report.assigned_vertices, 2);
        assert_eq!(report.graph_vertices, 4);
    }

    #[test]
    fn quality_trait_matches_free_function() {
        let g = two_block_graph();
        let mut part = Partitioning::new(2, 6).unwrap();
        for i in 0..6u64 {
            part.assign(VertexId::new(i), PartitionId::new((i % 2) as u32))
                .unwrap();
        }
        assert_eq!(part.quality(&g), evaluate(&g, &part));
    }

    #[test]
    fn empty_graph_reports_zeroes() {
        let g = LabelledGraph::new();
        let part = Partitioning::new(2, 1).unwrap();
        let report = evaluate(&g, &part);
        assert_eq!(report.cut_edges, 0);
        assert_eq!(report.cut_ratio, 0.0);
        assert_eq!(report.communication_volume, 0);
    }
}
