//! Linear Deterministic Greedy (LDG) streaming partitioning.
//!
//! LDG (Stanton & Kliot, KDD 2012) is the heuristic LOOM builds on (paper
//! §4.1): a new vertex `v` goes to the partition `S_i` maximising
//!
//! ```text
//! |N(v) ∩ V_i| · (1 − |V_i| / C)
//! ```
//!
//! i.e. the partition holding most of `v`'s already-placed neighbours,
//! discounted by how full that partition already is. Ties are broken towards
//! the emptier partition, and a vertex with no placed neighbours goes to the
//! least-loaded partition.
//!
//! The streaming model (one pending vertex, decided when the next vertex
//! arrives) is [`crate::pending`]'s; this module supplies the rule.

use crate::error::Result;
use crate::partition::{PartitionId, Partitioning};
use crate::pending::{PendingVertexPartitioner, PlacementRule};
use loom_graph::VertexId;

/// Configuration for [`LdgPartitioner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdgConfig {
    /// Number of partitions.
    pub k: u32,
    /// Expected number of vertices in the stream (used to derive the
    /// capacity `C = slack · n / k`).
    pub expected_vertices: usize,
    /// Multiplicative balance slack (≥ 1.0).
    pub slack: f64,
}

impl LdgConfig {
    /// Convenience constructor with the customary 10% slack.
    pub fn new(k: u32, expected_vertices: usize) -> Self {
        Self {
            k,
            expected_vertices,
            slack: 1.1,
        }
    }
}

/// The LDG streaming partitioner.
pub type LdgPartitioner = PendingVertexPartitioner<LdgRule>;

/// The LDG placement rule (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct LdgRule;

impl PlacementRule for LdgRule {
    const NAME: &'static str = "ldg";

    fn place(&self, partitioning: &Partitioning, neighbours: &[VertexId]) -> PartitionId {
        LdgPartitioner::choose_partition(partitioning, neighbours)
    }
}

impl LdgPartitioner {
    /// Create an LDG partitioner from a configuration.
    ///
    /// # Errors
    ///
    /// Propagates invalid `k` / slack configurations.
    pub fn new(config: LdgConfig) -> Result<Self> {
        let partitioning =
            Partitioning::with_slack(config.k, config.expected_vertices, config.slack)?;
        Ok(Self::with_rule(LdgRule, partitioning))
    }

    /// Pick the LDG-best partition for a vertex with the given placed
    /// neighbours: the least-loaded partition unless some partition scores
    /// above zero ([`Partitioning::ldg_choice`] over every partition). The
    /// workload-aware extension in `loom-core` falls back to it when no
    /// partition has room for a whole motif cluster.
    pub fn choose_partition(partitioning: &Partitioning, neighbours: &[VertexId]) -> PartitionId {
        partitioning
            .ldg_choice(neighbours, |_| true)
            .expect("every partition is eligible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use crate::traits::{partition_stream, Partitioner};
    use loom_graph::generators::{
        barabasi_albert, community_graph, CommunityConfig, GeneratorConfig,
    };
    use loom_graph::ordering::StreamOrder;
    use loom_graph::{GraphStream, Label, LabelledGraph, StreamElement};

    fn run_ldg(graph: &LabelledGraph, k: u32, order: &StreamOrder) -> Partitioning {
        let stream = GraphStream::from_graph(graph, order);
        let mut partitioner = LdgPartitioner::new(LdgConfig::new(k, graph.vertex_count())).unwrap();
        partition_stream(&mut partitioner, &stream).unwrap()
    }

    #[test]
    fn assigns_every_vertex_within_slack() {
        let g = barabasi_albert(GeneratorConfig::new(2_000, 4, 3), 2).unwrap();
        let part = run_ldg(&g, 8, &StreamOrder::Random { seed: 1 });
        assert_eq!(part.assigned_count(), 2_000);
        // Soft capacity: no partition exceeds C (it can only be reached).
        for p in part.partitions() {
            assert!(part.size(p) <= part.capacity() + 1);
        }
        assert!(part.imbalance() < 1.3);
    }

    #[test]
    fn beats_hash_on_cut_ratio() {
        let g = barabasi_albert(GeneratorConfig::new(3_000, 4, 5), 2).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Random { seed: 3 });

        let ldg = {
            let mut p = LdgPartitioner::new(LdgConfig::new(4, g.vertex_count())).unwrap();
            partition_stream(&mut p, &stream).unwrap()
        };
        let hash = {
            let mut p = crate::hash::HashPartitioner::new(4, g.vertex_count()).unwrap();
            partition_stream(&mut p, &stream).unwrap()
        };
        let ldg_cut = evaluate(&g, &ldg).cut_ratio;
        let hash_cut = evaluate(&g, &hash).cut_ratio;
        assert!(
            ldg_cut < hash_cut,
            "LDG ({ldg_cut:.3}) should cut fewer edges than hash ({hash_cut:.3})"
        );
    }

    /// Fraction of intra-community edges that a partitioning keeps internal,
    /// given the planted ground-truth membership of a community graph. 1.0 means
    /// every planted community edge is uncut: the check LDG's community test
    /// reads.
    fn community_agreement(
        graph: &LabelledGraph,
        partitioning: &Partitioning,
        membership: &[(VertexId, usize)],
    ) -> f64 {
        let community_of: loom_graph::fxhash::FxHashMap<VertexId, usize> =
            membership.iter().copied().collect();
        let mut intra = 0usize;
        let mut kept = 0usize;
        for e in graph.edges() {
            let (Some(&ca), Some(&cb)) = (community_of.get(&e.lo), community_of.get(&e.hi)) else {
                continue;
            };
            if ca != cb {
                continue;
            }
            let (Some(pa), Some(pb)) = (
                partitioning.partition_of(e.lo),
                partitioning.partition_of(e.hi),
            ) else {
                continue;
            };
            intra += 1;
            if pa == pb {
                kept += 1;
            }
        }
        if intra == 0 {
            1.0
        } else {
            kept as f64 / intra as f64
        }
    }

    #[test]
    fn keeps_communities_together_on_community_graphs() {
        let (g, membership) = community_graph(CommunityConfig {
            vertices: 800,
            communities: 4,
            p_in: 0.08,
            p_out: 0.002,
            label_count: 4,
            seed: 11,
        })
        .unwrap();
        // BFS ordering gives the heuristic the locality it needs.
        let part = run_ldg(&g, 4, &StreamOrder::Bfs);
        let agreement = community_agreement(&g, &part, &membership);
        assert!(
            agreement > 0.5,
            "expected most community edges kept internal, got {agreement:.3}"
        );
    }

    #[test]
    fn isolated_vertices_go_to_least_loaded_partition() {
        let mut g = LabelledGraph::new();
        for _ in 0..12 {
            g.add_vertex(Label::new(0));
        }
        let part = run_ldg(&g, 4, &StreamOrder::Random { seed: 2 });
        // With no edges at all LDG degenerates to round-robin-ish balance.
        for p in part.partitions() {
            assert_eq!(part.size(p), 3);
        }
    }

    #[test]
    fn choose_partition_prefers_neighbour_majority() {
        let mut partitioning = Partitioning::new(2, 10).unwrap();
        for i in 0..3u64 {
            partitioning
                .assign(VertexId::new(i), PartitionId::new(0))
                .unwrap();
        }
        partitioning
            .assign(VertexId::new(3), PartitionId::new(1))
            .unwrap();
        let neighbours = vec![VertexId::new(0), VertexId::new(1), VertexId::new(3)];
        let choice = LdgPartitioner::choose_partition(&partitioning, &neighbours);
        assert_eq!(choice, PartitionId::new(0));
    }

    #[test]
    fn capacity_penalty_steers_away_from_full_partitions() {
        // Partition 0 holds most neighbours but is (almost) full; partition 1
        // holds one neighbour and is empty. With C = 4, LDG should pick p1.
        let mut partitioning = Partitioning::new(2, 4).unwrap();
        for i in 0..4u64 {
            partitioning
                .assign(VertexId::new(i), PartitionId::new(0))
                .unwrap();
        }
        partitioning
            .assign(VertexId::new(10), PartitionId::new(1))
            .unwrap();
        let neighbours: Vec<VertexId> = (0..4u64)
            .map(VertexId::new)
            .chain([VertexId::new(10)])
            .collect();
        let choice = LdgPartitioner::choose_partition(&partitioning, &neighbours);
        assert_eq!(choice, PartitionId::new(1));
    }

    #[test]
    fn batched_ingestion_matches_per_element() {
        let g = barabasi_albert(GeneratorConfig::new(1_200, 4, 13), 2).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Random { seed: 17 });
        let reference = {
            let mut p = LdgPartitioner::new(LdgConfig::new(4, g.vertex_count())).unwrap();
            for element in &stream {
                p.ingest(element).unwrap();
            }
            p.finish().unwrap()
        };
        for chunk_size in [1usize, 64, 1024] {
            let mut p = LdgPartitioner::new(LdgConfig::new(4, g.vertex_count())).unwrap();
            let batched =
                crate::traits::partition_stream_batched(&mut p, &stream, chunk_size).unwrap();
            assert_eq!(batched.assigned_count(), reference.assigned_count());
            for (v, part) in reference.assignments() {
                assert_eq!(batched.partition_of(v), Some(part), "chunk={chunk_size}");
            }
        }
    }

    #[test]
    fn snapshot_excludes_the_pending_vertex() {
        let mut p = LdgPartitioner::new(LdgConfig::new(2, 10)).unwrap();
        p.ingest(&StreamElement::AddVertex {
            id: VertexId::new(0),
            label: Label::new(0),
        })
        .unwrap();
        // Vertex 0 is still pending: the snapshot is empty, stats say so.
        assert_eq!(p.snapshot().assigned_count(), 0);
        assert_eq!(p.stats().buffered, 1);
        let finished = p.finish().unwrap();
        assert_eq!(finished.assigned_count(), 1);
        assert_eq!(p.stats().buffered, 0);
        assert_eq!(p.stats().assigned, 0, "finish moves the result out");
    }

    #[test]
    fn removals_update_pending_state_and_reclaim_load() {
        let mut p = LdgPartitioner::new(LdgConfig::new(2, 10)).unwrap();
        let add = |id: u64| StreamElement::AddVertex {
            id: VertexId::new(id),
            label: Label::new(0),
        };
        let edge = |a: u64, b: u64| StreamElement::AddEdge {
            source: VertexId::new(a),
            target: VertexId::new(b),
        };
        // Removing the pending vertex itself drops the buffered decision.
        p.ingest(&add(0)).unwrap();
        p.ingest(&StreamElement::RemoveVertex {
            id: VertexId::new(0),
        })
        .unwrap();
        assert_eq!(p.stats().buffered, 0);
        assert_eq!(p.finish().unwrap().assigned_count(), 0);

        // Removing an assigned vertex reclaims its slot and stops it pulling
        // the pending vertex towards its old partition.
        let mut p = LdgPartitioner::new(LdgConfig::new(2, 10)).unwrap();
        p.ingest_batch(&[add(0), add(1), edge(0, 1)]).unwrap();
        p.ingest(&StreamElement::RemoveVertex {
            id: VertexId::new(0),
        })
        .unwrap();
        let finished = p.finish().unwrap();
        assert_eq!(finished.assigned_count(), 1);
        assert_eq!(finished.partition_of(VertexId::new(0)), None);

        // RemoveEdge cancels exactly one matching AddEdge for the pending
        // vertex; Relabel places nothing.
        let mut p = LdgPartitioner::new(LdgConfig::new(2, 10)).unwrap();
        p.ingest_batch(&[
            add(0),
            add(1),
            edge(0, 1),
            StreamElement::RemoveEdge {
                source: VertexId::new(1),
                target: VertexId::new(0),
            },
            StreamElement::Relabel {
                id: VertexId::new(1),
                label: Label::new(5),
            },
        ])
        .unwrap();
        assert!(p.pending_neighbours().unwrap().is_empty());
        assert_eq!(p.finish().unwrap().assigned_count(), 2);
    }

    #[test]
    fn ordering_changes_results_but_not_correctness() {
        let g = barabasi_albert(GeneratorConfig::new(500, 4, 2), 2).unwrap();
        for order in [
            StreamOrder::Bfs,
            StreamOrder::Dfs,
            StreamOrder::Adversarial,
            StreamOrder::Random { seed: 5 },
        ] {
            let part = run_ldg(&g, 4, &order);
            assert_eq!(part.assigned_count(), g.vertex_count());
        }
    }
}
