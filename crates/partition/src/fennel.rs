//! Fennel streaming partitioning (Tsourakakis et al., WSDM 2014).
//!
//! Fennel replaces LDG's multiplicative capacity discount with an additive,
//! degree-based cost: a new vertex `v` goes to the partition maximising
//!
//! ```text
//! |N(v) ∩ V_i| − α · γ · |V_i|^(γ − 1)
//! ```
//!
//! subject to a hard balance cap `|V_i| ≤ ν · n / k`. With the paper's
//! recommended parameters `γ = 1.5` and `α = √k · m / n^{3/2}` the objective
//! interpolates between edge-cut minimisation and balance.
//!
//! The streaming model (one pending vertex, decided when the next vertex
//! arrives) is [`crate::pending`]'s; this module supplies the rule.

use crate::error::{PartitionError, Result};
use crate::partition::{PartitionId, Partitioning};
use crate::pending::{PendingVertexPartitioner, PlacementRule};
use crate::state::Setting;
use loom_graph::VertexId;

/// Configuration for [`FennelPartitioner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FennelConfig {
    /// Number of partitions.
    pub k: u32,
    /// Expected number of vertices (used for α and the balance cap).
    pub expected_vertices: usize,
    /// Expected number of edges (used for α).
    pub expected_edges: usize,
    /// Balance cap multiplier ν (≥ 1.0); partitions never exceed
    /// `ν · n / k` vertices.
    pub balance_cap: f64,
    /// The γ exponent of the cost term (the paper recommends 1.5).
    pub gamma: f64,
}

impl FennelConfig {
    /// Recommended defaults for a graph of the given expected size.
    pub fn new(k: u32, expected_vertices: usize, expected_edges: usize) -> Self {
        Self {
            k,
            expected_vertices,
            expected_edges,
            balance_cap: 1.1,
            gamma: 1.5,
        }
    }

    /// The α load-cost coefficient: `√k · m / n^{3/2}` for γ = 1.5, and the
    /// general form `m · k^{γ-1} / n^γ` otherwise.
    pub(crate) fn alpha(&self) -> f64 {
        let n = self.expected_vertices.max(1) as f64;
        let m = self.expected_edges.max(1) as f64;
        let k = f64::from(self.k.max(1));
        m * k.powf(self.gamma - 1.0) / n.powf(self.gamma)
    }
}

/// The Fennel streaming partitioner.
pub type FennelPartitioner = PendingVertexPartitioner<FennelRule>;

/// The Fennel placement rule (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct FennelRule {
    alpha: f64,
    gamma: f64,
    hard_cap: usize,
}

impl PlacementRule for FennelRule {
    const NAME: &'static str = "fennel";

    fn place(&self, partitioning: &Partitioning, neighbours: &[VertexId]) -> PartitionId {
        partitioning
            .best_partition(neighbours, None, |p, in_p| {
                let size = partitioning.size(p);
                (size < self.hard_cap).then(|| {
                    let marginal_cost =
                        self.alpha * self.gamma * (size as f64).powf(self.gamma - 1.0);
                    in_p as f64 - marginal_cost
                })
            })
            // Every partition hit the hard cap (only possible when the stream
            // exceeds the expected size): fall back to the least loaded one.
            .unwrap_or_else(|| partitioning.least_loaded())
    }

    /// α and γ; the hard cap is the partitioning's capacity.
    fn settings(&self) -> Vec<(&'static str, Setting)> {
        vec![
            ("alpha", Setting::Float(self.alpha)),
            ("gamma", Setting::Float(self.gamma)),
        ]
    }
}

impl FennelPartitioner {
    /// Create a Fennel partitioner.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidConfig`] for degenerate parameters.
    pub fn new(config: FennelConfig) -> Result<Self> {
        if config.gamma <= 1.0 {
            return Err(PartitionError::InvalidConfig(format!(
                "gamma must exceed 1.0, got {}",
                config.gamma
            )));
        }
        if config.balance_cap < 1.0 {
            return Err(PartitionError::InvalidConfig(format!(
                "balance_cap must be >= 1.0, got {}",
                config.balance_cap
            )));
        }
        let ideal = config.expected_vertices as f64 / config.k.max(1) as f64;
        let hard_cap = ((ideal * config.balance_cap).ceil() as usize).max(1);
        let rule = FennelRule {
            alpha: config.alpha(),
            gamma: config.gamma,
            hard_cap,
        };
        Ok(Self::with_rule(
            rule,
            Partitioning::new(config.k, hard_cap)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use crate::traits::{partition_stream, Partitioner};
    use loom_graph::generators::{barabasi_albert, GeneratorConfig};
    use loom_graph::ordering::StreamOrder;
    use loom_graph::{GraphStream, StreamElement};

    #[test]
    fn config_validation_and_alpha() {
        assert!(FennelPartitioner::new(FennelConfig {
            gamma: 1.0,
            ..FennelConfig::new(4, 100, 300)
        })
        .is_err());
        assert!(FennelPartitioner::new(FennelConfig {
            balance_cap: 0.9,
            ..FennelConfig::new(4, 100, 300)
        })
        .is_err());
        let config = FennelConfig::new(4, 10_000, 30_000);
        let expected = (4.0f64).sqrt() * 30_000.0 / (10_000.0f64).powf(1.5);
        assert!((config.alpha() - expected).abs() < 1e-9);
    }

    #[test]
    fn respects_the_hard_balance_cap() {
        let g = barabasi_albert(GeneratorConfig::new(2_000, 4, 3), 2).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Bfs);
        let config = FennelConfig::new(4, g.vertex_count(), g.edge_count());
        // The hard cap `ν · n / k`.
        let cap = (g.vertex_count() as f64 / 4.0 * config.balance_cap).ceil() as usize;
        let mut partitioner = FennelPartitioner::new(config).unwrap();
        let part = partition_stream(&mut partitioner, &stream).unwrap();
        assert_eq!(part.assigned_count(), 2_000);
        for p in part.partitions() {
            assert!(part.size(p) <= cap, "partition over hard cap");
        }
    }

    #[test]
    fn beats_hash_on_cut_ratio() {
        let g = barabasi_albert(GeneratorConfig::new(3_000, 4, 1), 2).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Random { seed: 4 });
        let fennel = {
            let mut p =
                FennelPartitioner::new(FennelConfig::new(4, g.vertex_count(), g.edge_count()))
                    .unwrap();
            partition_stream(&mut p, &stream).unwrap()
        };
        let hash = {
            let mut p = crate::hash::HashPartitioner::new(4, g.vertex_count()).unwrap();
            partition_stream(&mut p, &stream).unwrap()
        };
        assert!(evaluate(&g, &fennel).cut_ratio < evaluate(&g, &hash).cut_ratio);
    }

    #[test]
    fn overflow_beyond_expected_size_still_assigns() {
        // Expect 10 vertices but stream 40: the hard cap fills up and the
        // fallback path must still place everything.
        let g = barabasi_albert(GeneratorConfig::new(40, 2, 2), 1).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Bfs);
        let mut partitioner = FennelPartitioner::new(FennelConfig::new(2, 10, 10)).unwrap();
        let part = partition_stream(&mut partitioner, &stream).unwrap();
        assert_eq!(part.assigned_count(), 40);
    }

    #[test]
    fn name_is_stable() {
        let p = FennelPartitioner::new(FennelConfig::new(2, 10, 10)).unwrap();
        assert_eq!(p.name(), "fennel");
    }

    #[test]
    fn removals_reclaim_capacity_under_the_hard_cap() {
        use loom_graph::Label;
        // Cap of 2 vertices per partition with k=2: four adds fill both
        // partitions; a removal must free a slot the next vertex can take.
        let mut p = FennelPartitioner::new(FennelConfig::new(2, 4, 4)).unwrap();
        let add = |id: u64| StreamElement::AddVertex {
            id: VertexId::new(id),
            label: Label::new(0),
        };
        p.ingest_batch(&[add(0), add(1), add(2), add(3)]).unwrap();
        p.ingest(&StreamElement::RemoveVertex {
            id: VertexId::new(2),
        })
        .unwrap();
        p.ingest(&add(4)).unwrap();
        let finished = p.finish().unwrap();
        assert_eq!(finished.assigned_count(), 4);
        assert_eq!(finished.partition_of(VertexId::new(2)), None);
        for part in finished.partitions() {
            assert!(finished.size(part) <= 2, "hard cap respected after churn");
        }
    }

    #[test]
    fn batched_ingestion_matches_per_element() {
        let g = barabasi_albert(GeneratorConfig::new(1_200, 4, 21), 2).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Random { seed: 23 });
        let reference = {
            let mut p =
                FennelPartitioner::new(FennelConfig::new(4, g.vertex_count(), g.edge_count()))
                    .unwrap();
            for element in &stream {
                p.ingest(element).unwrap();
            }
            p.finish().unwrap()
        };
        for chunk_size in [1usize, 64, 1024] {
            let mut p =
                FennelPartitioner::new(FennelConfig::new(4, g.vertex_count(), g.edge_count()))
                    .unwrap();
            let batched =
                crate::traits::partition_stream_batched(&mut p, &stream, chunk_size).unwrap();
            assert_eq!(batched.assigned_count(), reference.assigned_count());
            for (v, part) in reference.assignments() {
                assert_eq!(batched.partition_of(v), Some(part), "chunk={chunk_size}");
            }
        }
    }
}
