//! Graphs with explicitly planted labelled motif instances.
//!
//! The key claim of the paper is that placing *frequently traversed motifs*
//! wholly within a partition reduces inter-partition traversals for a
//! pattern-matching workload. To evaluate that claim we need graphs where the
//! number and location of motif instances is controlled. This generator
//! plants `instances` disjoint copies of each supplied motif graph into a
//! random background graph and stitches them in with a configurable number of
//! attachment edges.

use super::rng_for;
use crate::error::{GraphError, Result};
use crate::graph::LabelledGraph;
use crate::ids::{Label, VertexId};
use rand::Rng;

/// Parameters for [`motif_planted_graph`].
#[derive(Debug, Clone)]
pub struct MotifPlantConfig {
    /// Number of background vertices (labelled uniformly at random).
    pub background_vertices: usize,
    /// Number of background edges (uniform random pairs).
    pub background_edges: usize,
    /// Number of disjoint instances to plant *per motif*.
    pub instances_per_motif: usize,
    /// Number of random edges connecting each planted instance to the
    /// background (0 keeps instances as separate components).
    pub attachment_edges: usize,
    /// Size of the label alphabet for background vertices.
    pub label_count: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MotifPlantConfig {
    fn default() -> Self {
        Self {
            background_vertices: 1_000,
            background_edges: 3_000,
            instances_per_motif: 50,
            attachment_edges: 1,
            label_count: 4,
            seed: 42,
        }
    }
}

/// Record of one planted motif instance.
#[derive(Debug, Clone)]
pub struct PlantedInstance {
    /// Index of the motif in the `motifs` slice passed to the generator.
    pub motif_index: usize,
    /// Vertices of this instance, in the same order as the motif's sorted
    /// vertex list.
    pub vertices: Vec<VertexId>,
}

/// Generate a background graph and plant disjoint copies of each motif in it.
///
/// Returns the combined graph together with the list of planted instances so
/// experiments can verify motif-aware placement against ground truth.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorConfig`] if any motif is empty or the
/// background edge request is impossible.
pub fn motif_planted_graph(
    config: &MotifPlantConfig,
    motifs: &[LabelledGraph],
) -> Result<(LabelledGraph, Vec<PlantedInstance>)> {
    for (i, motif) in motifs.iter().enumerate() {
        if motif.is_empty() {
            return Err(GraphError::InvalidGeneratorConfig(format!(
                "motif {i} has no vertices"
            )));
        }
    }
    let n = config.background_vertices;
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    if config.background_edges > max_edges {
        return Err(GraphError::InvalidGeneratorConfig(format!(
            "requested {} background edges but at most {max_edges} are possible",
            config.background_edges
        )));
    }

    let mut rng = rng_for(config.seed);
    let label_count = config.label_count.max(1);
    let mut graph = LabelledGraph::with_capacity(
        n + motifs
            .iter()
            .map(LabelledGraph::vertex_count)
            .sum::<usize>()
            * config.instances_per_motif,
        config.background_edges,
    );

    // Background vertices + edges.
    let background: Vec<VertexId> = (0..n)
        .map(|_| graph.add_vertex(Label::new(rng.random_range(0..label_count))))
        .collect();
    let mut placed = 0usize;
    let mut attempts = 0usize;
    let budget = config.background_edges.saturating_mul(50).max(1_000);
    while placed < config.background_edges && attempts < budget && n >= 2 {
        attempts += 1;
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i == j {
            continue;
        }
        if graph.add_edge_idempotent(background[i], background[j])? {
            placed += 1;
        }
    }

    // Planted instances.
    let mut instances = Vec::new();
    for (motif_index, motif) in motifs.iter().enumerate() {
        let motif_vertices = motif.vertices_sorted();
        for _ in 0..config.instances_per_motif {
            let mut mapping = crate::fxhash::FxHashMap::default();
            let mut instance_vertices = Vec::with_capacity(motif_vertices.len());
            for &mv in &motif_vertices {
                let label = motif.label(mv).expect("motif vertex has a label");
                let v = graph.add_vertex(label);
                mapping.insert(mv, v);
                instance_vertices.push(v);
            }
            for e in motif.edges_sorted() {
                graph.add_edge(mapping[&e.lo], mapping[&e.hi])?;
            }
            // Stitch the instance to the background.
            if !background.is_empty() {
                for _ in 0..config.attachment_edges {
                    let inst_v = instance_vertices[rng.random_range(0..instance_vertices.len())];
                    let bg_v = background[rng.random_range(0..background.len())];
                    let _ = graph.add_edge_idempotent(inst_v, bg_v)?;
                }
            }
            instances.push(PlantedInstance {
                motif_index,
                vertices: instance_vertices,
            });
        }
    }
    Ok((graph, instances))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::regular::path_graph;

    fn abc_path() -> LabelledGraph {
        path_graph(3, &[Label::new(0), Label::new(1), Label::new(2)])
    }

    #[test]
    fn plants_requested_instances() {
        let config = MotifPlantConfig {
            background_vertices: 100,
            background_edges: 200,
            instances_per_motif: 10,
            attachment_edges: 1,
            label_count: 4,
            seed: 1,
        };
        let (g, instances) = motif_planted_graph(&config, &[abc_path()]).unwrap();
        assert_eq!(instances.len(), 10);
        assert_eq!(g.vertex_count(), 100 + 10 * 3);
        // Every instance's internal structure exists in the combined graph.
        for inst in &instances {
            assert_eq!(inst.vertices.len(), 3);
            assert!(g.contains_edge(inst.vertices[0], inst.vertices[1]));
            assert!(g.contains_edge(inst.vertices[1], inst.vertices[2]));
            assert_eq!(g.label(inst.vertices[0]), Some(Label::new(0)));
            assert_eq!(g.label(inst.vertices[1]), Some(Label::new(1)));
            assert_eq!(g.label(inst.vertices[2]), Some(Label::new(2)));
        }
    }

    #[test]
    fn multiple_motifs_and_zero_attachment() {
        let square = crate::generators::regular::cycle_graph(4, &[Label::new(0), Label::new(1)]);
        let config = MotifPlantConfig {
            background_vertices: 20,
            background_edges: 30,
            instances_per_motif: 3,
            attachment_edges: 0,
            label_count: 2,
            seed: 9,
        };
        let (g, instances) = motif_planted_graph(&config, &[abc_path(), square]).unwrap();
        assert_eq!(instances.len(), 6);
        assert_eq!(g.vertex_count(), 20 + 3 * 3 + 3 * 4);
    }

    #[test]
    fn rejects_empty_motif() {
        let config = MotifPlantConfig::default();
        assert!(motif_planted_graph(&config, &[LabelledGraph::new()]).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let config = MotifPlantConfig {
            background_vertices: 50,
            background_edges: 80,
            instances_per_motif: 4,
            attachment_edges: 2,
            label_count: 3,
            seed: 77,
        };
        let (a, _) = motif_planted_graph(&config, &[abc_path()]).unwrap();
        let (b, _) = motif_planted_graph(&config, &[abc_path()]).unwrap();
        assert_eq!(a.edges_sorted(), b.edges_sorted());
    }
}
