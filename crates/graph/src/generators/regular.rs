//! Small regular topologies: paths, cycles, stars and cliques.
//!
//! These mirror the query-graph shapes in the paper's Figure 1 (paths and a
//! branching query) and provide worst/best-case inputs for the partitioners.

use crate::graph::LabelledGraph;
use crate::ids::{Label, VertexId};

/// A path `v0 - v1 - ... - v{n-1}` with the given label sequence applied
/// cyclically (`labels[i % labels.len()]`).
pub fn path_graph(n: usize, labels: &[Label]) -> LabelledGraph {
    let mut g = LabelledGraph::with_capacity(n, n.saturating_sub(1));
    let ids: Vec<VertexId> = (0..n).map(|i| g.add_vertex(label_at(labels, i))).collect();
    for w in ids.windows(2) {
        g.add_edge(w[0], w[1]).expect("path edges are valid");
    }
    g
}

/// A cycle on `n >= 3` vertices with labels applied cyclically.
pub fn cycle_graph(n: usize, labels: &[Label]) -> LabelledGraph {
    let mut g = path_graph(n, labels);
    if n >= 3 {
        let ids = g.vertices_sorted();
        g.add_edge(ids[0], ids[n - 1]).expect("cycle closing edge");
    }
    g
}

/// A star: one hub (labelled `labels[0]`) connected to `leaves` leaf vertices
/// (labelled cyclically from `labels[1..]`, falling back to `labels[0]`).
pub fn star_graph(leaves: usize, labels: &[Label]) -> LabelledGraph {
    let mut g = LabelledGraph::with_capacity(leaves + 1, leaves);
    let hub = g.add_vertex(label_at(labels, 0));
    for i in 0..leaves {
        let leaf_labels = if labels.len() > 1 {
            &labels[1..]
        } else {
            labels
        };
        let leaf = g.add_vertex(label_at(leaf_labels, i));
        g.add_edge(hub, leaf).expect("star edges are valid");
    }
    g
}

/// A complete graph on `n` vertices with labels applied cyclically.
pub fn clique(n: usize, labels: &[Label]) -> LabelledGraph {
    let mut g = LabelledGraph::with_capacity(n, n * n / 2);
    let ids: Vec<VertexId> = (0..n).map(|i| g.add_vertex(label_at(labels, i))).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(ids[i], ids[j]).expect("clique edges are valid");
        }
    }
    g
}

fn label_at(labels: &[Label], i: usize) -> Label {
    if labels.is_empty() {
        Label::new(0)
    } else {
        labels[i % labels.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Vec<Label> {
        vec![Label::new(0), Label::new(1)]
    }

    #[test]
    fn path_structure() {
        let g = path_graph(4, &ab());
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        // Labels alternate a, b, a, b.
        let ids = g.vertices_sorted();
        assert_eq!(g.label(ids[0]), Some(Label::new(0)));
        assert_eq!(g.label(ids[1]), Some(Label::new(1)));
        assert_eq!(g.label(ids[2]), Some(Label::new(0)));
    }

    #[test]
    fn cycle_structure() {
        let g = cycle_graph(5, &ab());
        assert_eq!(g.edge_count(), 5);
        assert!(g.vertices_sorted().iter().all(|&v| g.degree(v) == 2));
        // A 2-cycle is not a simple graph; we return a path instead.
        let tiny = cycle_graph(2, &ab());
        assert_eq!(tiny.edge_count(), 1);
    }

    #[test]
    fn star_structure() {
        let g = star_graph(6, &[Label::new(0), Label::new(1), Label::new(2)]);
        assert_eq!(g.vertex_count(), 7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.max_degree(), 6);
        let hub = g.vertices_sorted()[0];
        assert_eq!(g.label(hub), Some(Label::new(0)));
    }

    #[test]
    fn clique_structure() {
        let g = clique(5, &ab());
        assert_eq!(g.edge_count(), 10);
        assert!(g.vertices_sorted().iter().all(|&v| g.degree(v) == 4));
    }

    #[test]
    fn empty_label_slice_defaults_to_zero() {
        let g = path_graph(3, &[]);
        assert!(g
            .vertices_sorted()
            .iter()
            .all(|&v| g.label(v) == Some(Label::new(0))));
    }
}
