//! Induced sub-graph extraction.
//!
//! Both the motif miner (paper Algorithm 1) and the stream matcher (paper
//! §4.3) repeatedly materialise the sub-graph induced by a small vertex set;
//! this module provides that operation plus helpers for testing connectivity
//! of candidate sub-graphs.

use crate::fxhash::FxHashSet;
use crate::graph::LabelledGraph;
use crate::ids::VertexId;

/// Return the sub-graph of `graph` induced by `vertices`: the given vertices
/// (with their labels) plus every edge of `graph` whose endpoints are both in
/// the set. Vertices absent from `graph` are silently ignored.
pub fn induced_subgraph<I>(graph: &LabelledGraph, vertices: I) -> LabelledGraph
where
    I: IntoIterator<Item = VertexId>,
{
    let set: FxHashSet<VertexId> = vertices
        .into_iter()
        .filter(|&v| graph.contains_vertex(v))
        .collect();
    let mut sub = LabelledGraph::with_capacity(set.len(), set.len());
    for &v in &set {
        if let Some(label) = graph.label(v) {
            sub.insert_vertex(v, label);
        }
    }
    for &v in &set {
        for &n in graph.neighbors(v) {
            if n > v && set.contains(&n) {
                let _ = sub.add_edge_idempotent(v, n);
            }
        }
    }
    sub
}

/// Build the sub-graph of `graph` consisting of exactly the given vertices
/// and exactly the given edges (an *edge sub-graph*, not the vertex-induced
/// one: edges of `graph` between the given vertices that are not listed are
/// omitted). Vertices or edges absent from `graph` are silently ignored.
///
/// The motif miner uses this to materialise the sub-graphs produced by
/// Algorithm 1, which grow one *edge* at a time.
pub fn edge_subgraph(
    graph: &LabelledGraph,
    vertices: &[VertexId],
    edges: &[crate::ids::EdgeKey],
) -> LabelledGraph {
    let mut sub = LabelledGraph::with_capacity(vertices.len(), edges.len());
    for &v in vertices {
        if let Some(label) = graph.label(v) {
            sub.insert_vertex(v, label);
        }
    }
    for e in edges {
        if graph.contains_edge(e.lo, e.hi) && sub.contains_vertex(e.lo) && sub.contains_vertex(e.hi)
        {
            let _ = sub.add_edge_idempotent(e.lo, e.hi);
        }
    }
    sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Label;

    fn path_of(n: usize) -> (LabelledGraph, Vec<VertexId>) {
        let mut g = LabelledGraph::new();
        let vs: Vec<_> = (0..n)
            .map(|i| g.add_vertex(Label::new(i as u32 % 3)))
            .collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        (g, vs)
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let (g, vs) = path_of(5);
        let sub = induced_subgraph(&g, [vs[0], vs[1], vs[3]]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.contains_edge(vs[0], vs[1]));
        assert!(!sub.contains_edge(vs[1], vs[3]));
        // Labels are preserved.
        assert_eq!(sub.label(vs[3]), g.label(vs[3]));
    }

    #[test]
    fn induced_subgraph_ignores_unknown_vertices() {
        let (g, vs) = path_of(3);
        let sub = induced_subgraph(&g, [vs[0], VertexId::new(999)]);
        assert_eq!(sub.vertex_count(), 1);
        assert_eq!(sub.edge_count(), 0);
    }

    #[test]
    fn connectivity_checks() {
        // An induced sub-graph is connected exactly when its vertex set is.
        use crate::traversal::is_connected;
        let (g, vs) = path_of(5);
        assert!(is_connected(&induced_subgraph(&g, vs.iter().copied())));
        let split = [vs[0], vs[1], vs[3], vs[4]];
        assert!(!is_connected(&induced_subgraph(&g, split)));
        assert!(is_connected(&induced_subgraph(&g, [])));
    }

    #[test]
    fn edge_subgraph_keeps_only_listed_edges() {
        use crate::ids::EdgeKey;
        // Triangle a-b-c; take the path a-b-c (omit the closing edge).
        let mut g = LabelledGraph::new();
        let a = g.add_vertex(Label::new(0));
        let b = g.add_vertex(Label::new(1));
        let c = g.add_vertex(Label::new(2));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, a).unwrap();
        let sub = edge_subgraph(&g, &[a, b, c], &[EdgeKey::new(a, b), EdgeKey::new(b, c)]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert!(!sub.contains_edge(c, a));
        // Unknown vertices/edges are ignored.
        let bogus = edge_subgraph(
            &g,
            &[a, VertexId::new(99)],
            &[EdgeKey::new(a, VertexId::new(99))],
        );
        assert_eq!(bogus.vertex_count(), 1);
        assert_eq!(bogus.edge_count(), 0);
    }
}
