//! Planted-partition ("community") graphs.
//!
//! The graph is divided into `communities` equally sized groups; a pair of
//! vertices inside the same group is connected with probability `p_in`, a
//! pair in different groups with probability `p_out << p_in`. The planted
//! grouping is returned alongside the graph so experiments can compare a
//! partitioner's cut against the ground-truth community cut.

use super::rng_for;
use crate::error::{GraphError, Result};
use crate::graph::LabelledGraph;
use crate::ids::{Label, VertexId};
use rand::Rng;

/// Parameters for [`community_graph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunityConfig {
    /// Total number of vertices (distributed as evenly as possible).
    pub vertices: usize,
    /// Number of planted communities.
    pub communities: usize,
    /// Probability of an edge inside a community.
    pub p_in: f64,
    /// Probability of an edge between communities.
    pub p_out: f64,
    /// Size of the label alphabet.
    pub label_count: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CommunityConfig {
    fn default() -> Self {
        Self {
            vertices: 1_000,
            communities: 8,
            p_in: 0.05,
            p_out: 0.001,
            label_count: 4,
            seed: 42,
        }
    }
}

/// Generate a planted-partition graph. Returns the graph and, for each vertex,
/// the index of the community it was planted in.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorConfig`] if there are no communities,
/// no vertices, or the probabilities are outside `[0, 1]`.
pub fn community_graph(config: CommunityConfig) -> Result<(LabelledGraph, Vec<(VertexId, usize)>)> {
    if config.communities == 0 || config.vertices == 0 {
        return Err(GraphError::InvalidGeneratorConfig(
            "need at least one community and one vertex".into(),
        ));
    }
    for p in [config.p_in, config.p_out] {
        if !(0.0..=1.0).contains(&p) {
            return Err(GraphError::InvalidGeneratorConfig(format!(
                "probability {p} outside [0, 1]"
            )));
        }
    }
    let mut rng = rng_for(config.seed);
    let label_count = config.label_count.max(1);
    let mut graph = LabelledGraph::with_capacity(config.vertices, config.vertices * 8);
    let mut membership = Vec::with_capacity(config.vertices);

    for i in 0..config.vertices {
        let community = i % config.communities;
        let v = graph.add_vertex(Label::new(rng.random_range(0..label_count)));
        membership.push((v, community));
    }

    for i in 0..config.vertices {
        for j in (i + 1)..config.vertices {
            let (vi, ci) = membership[i];
            let (vj, cj) = membership[j];
            let p = if ci == cj { config.p_in } else { config.p_out };
            if p > 0.0 && rng.random_bool(p) {
                graph.add_edge(vi, vj)?;
            }
        }
    }
    Ok((graph, membership))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_community_edges_dominate() {
        let (g, membership) = community_graph(CommunityConfig {
            vertices: 400,
            communities: 4,
            p_in: 0.1,
            p_out: 0.002,
            label_count: 4,
            seed: 3,
        })
        .unwrap();
        let community_of: std::collections::HashMap<_, _> = membership.iter().copied().collect();
        let mut intra = 0usize;
        let mut inter = 0usize;
        for e in g.edges() {
            if community_of[&e.lo] == community_of[&e.hi] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > 5 * inter, "intra={intra} inter={inter}");
    }

    #[test]
    fn membership_is_balanced() {
        let (_, membership) = community_graph(CommunityConfig {
            vertices: 100,
            communities: 4,
            ..CommunityConfig::default()
        })
        .unwrap();
        let mut counts = [0usize; 4];
        for (_, c) in membership {
            counts[c] += 1;
        }
        assert!(counts.iter().all(|&c| c == 25));
    }

    #[test]
    fn rejects_invalid_config() {
        assert!(community_graph(CommunityConfig {
            communities: 0,
            ..CommunityConfig::default()
        })
        .is_err());
        assert!(community_graph(CommunityConfig {
            p_in: 1.5,
            ..CommunityConfig::default()
        })
        .is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = CommunityConfig {
            vertices: 120,
            communities: 3,
            ..CommunityConfig::default()
        };
        let (a, _) = community_graph(cfg).unwrap();
        let (b, _) = community_graph(cfg).unwrap();
        assert_eq!(a.edges_sorted(), b.edges_sorted());
    }
}
