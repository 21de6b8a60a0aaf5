//! Deterministic random graph generators.
//!
//! The experiments partition synthetic graphs from families whose structure
//! stresses the partitioners in different ways:
//!
//! * [`erdos_renyi()`] — no structure at all; every partitioner degrades to the
//!   balance constraint.
//! * [`barabasi_albert()`] — heavy-tailed degree distribution, the regime where
//!   Fennel/LDG shine over hashing.
//! * [`community_graph`] — planted-partition graphs with strong modularity;
//!   the "right answer" is known, so edge-cut quality is interpretable.
//! * [`grid_graph`], [`regular`] topologies — worst/best cases with known cuts.
//! * [`motif_planted_graph`] — a background graph with explicitly planted
//!   labelled motif instances, used to demonstrate workload-aware gains.
//!
//! Every generator takes an explicit seed and is fully deterministic.

pub mod barabasi_albert;
pub mod community;
pub mod erdos_renyi;
pub mod grid;
pub mod motif_planted;
pub mod regular;

pub use barabasi_albert::barabasi_albert;
pub use community::{community_graph, CommunityConfig};
pub use erdos_renyi::erdos_renyi;
pub use grid::grid_graph;
pub use motif_planted::{motif_planted_graph, MotifPlantConfig};

use crate::graph::LabelledGraph;
use crate::ids::Label;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Common knobs shared by the random generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Number of vertices to generate.
    pub vertices: usize,
    /// Size of the label alphabet; labels are assigned uniformly at random.
    pub label_count: u32,
    /// RNG seed — the same seed always produces the same graph.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Convenience constructor.
    pub fn new(vertices: usize, label_count: u32, seed: u64) -> Self {
        Self {
            vertices,
            label_count,
            seed,
        }
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            vertices: 1_000,
            label_count: 4,
            seed: 42,
        }
    }
}

/// Create a seeded RNG for generator use.
pub(crate) fn rng_for(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Add `count` vertices with uniformly random labels drawn from
/// `0..label_count`, returning the created ids in creation order.
pub(crate) fn add_random_vertices(
    graph: &mut LabelledGraph,
    count: usize,
    label_count: u32,
    rng: &mut StdRng,
) -> Vec<crate::ids::VertexId> {
    let label_count = label_count.max(1);
    (0..count)
        .map(|_| graph.add_vertex(Label::new(rng.random_range(0..label_count))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let cfg = GeneratorConfig::default();
        assert!(cfg.vertices > 0);
        assert!(cfg.label_count > 0);
    }

    #[test]
    fn random_vertices_use_requested_alphabet() {
        let mut g = LabelledGraph::new();
        let mut rng = rng_for(7);
        let vs = add_random_vertices(&mut g, 200, 3, &mut rng);
        assert_eq!(vs.len(), 200);
        for v in vs {
            assert!(g.label(v).unwrap().raw() < 3);
        }
    }

    #[test]
    fn zero_label_count_is_clamped_to_one() {
        let mut g = LabelledGraph::new();
        let mut rng = rng_for(7);
        let vs = add_random_vertices(&mut g, 10, 0, &mut rng);
        assert!(vs.iter().all(|&v| g.label(v) == Some(Label::new(0))));
    }
}
