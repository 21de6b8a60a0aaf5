//! Graph traversal utilities: BFS / DFS orders and connected components.
//!
//! These are used to produce the BFS / DFS stream orderings discussed in
//! §3.1 of the paper and by the offline partitioner's coarsening phase.

use crate::fxhash::FxHashSet;
use crate::graph::LabelledGraph;
use crate::ids::VertexId;
use std::collections::VecDeque;

/// Visit every vertex of the graph in breadth-first order, starting new
/// traversals from the smallest unvisited vertex id whenever a component is
/// exhausted. The result is deterministic: neighbours are visited in sorted
/// order.
pub(crate) fn bfs_order(graph: &LabelledGraph) -> Vec<VertexId> {
    let mut order = Vec::with_capacity(graph.vertex_count());
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    let roots = graph.vertices_sorted();
    let mut queue = VecDeque::new();
    for root in roots {
        if seen.contains(&root) {
            continue;
        }
        seen.insert(root);
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut neighbours: Vec<_> = graph.neighbors(v).to_vec();
            neighbours.sort_unstable();
            for n in neighbours {
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
    }
    order
}

/// Visit every vertex in depth-first order (deterministic, sorted neighbours,
/// components started from the smallest unvisited id).
pub(crate) fn dfs_order(graph: &LabelledGraph) -> Vec<VertexId> {
    let mut order = Vec::with_capacity(graph.vertex_count());
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    for root in graph.vertices_sorted() {
        if seen.contains(&root) {
            continue;
        }
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            if !seen.insert(v) {
                continue;
            }
            order.push(v);
            let mut neighbours: Vec<_> = graph.neighbors(v).to_vec();
            // Push in reverse sorted order so that the smallest neighbour is
            // popped (and therefore visited) first.
            neighbours.sort_unstable_by(|a, b| b.cmp(a));
            for n in neighbours {
                if !seen.contains(&n) {
                    stack.push(n);
                }
            }
        }
    }
    order
}

/// The connected components of the graph, each a sorted vector of vertex ids.
/// Components are returned sorted by their smallest member.
pub(crate) fn connected_components(graph: &LabelledGraph) -> Vec<Vec<VertexId>> {
    let mut components = Vec::new();
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    for root in graph.vertices_sorted() {
        if seen.contains(&root) {
            continue;
        }
        let mut component = Vec::new();
        let mut stack = vec![root];
        seen.insert(root);
        while let Some(v) = stack.pop() {
            component.push(v);
            for &n in graph.neighbors(v) {
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

/// Whether the whole graph is connected (the empty graph counts as connected).
pub fn is_connected(graph: &LabelledGraph) -> bool {
    connected_components(graph).len() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Label;

    fn sample_graph() -> (LabelledGraph, Vec<VertexId>) {
        // 0 - 1 - 2      3 - 4 (two components)
        let mut g = LabelledGraph::new();
        let vs: Vec<_> = (0..5).map(|_| g.add_vertex(Label::new(0))).collect();
        g.add_edge(vs[0], vs[1]).unwrap();
        g.add_edge(vs[1], vs[2]).unwrap();
        g.add_edge(vs[3], vs[4]).unwrap();
        (g, vs)
    }

    #[test]
    fn bfs_order_visits_all_vertices_once() {
        let (g, _) = sample_graph();
        let order = bfs_order(&g);
        assert_eq!(order.len(), 5);
        let unique: FxHashSet<_> = order.iter().copied().collect();
        assert_eq!(unique.len(), 5);
        // Component of 0 comes first, in BFS layers.
        assert_eq!(order[0], VertexId::new(0));
        assert_eq!(order[1], VertexId::new(1));
        assert_eq!(order[2], VertexId::new(2));
    }

    #[test]
    fn dfs_order_visits_all_vertices_once() {
        let (g, _) = sample_graph();
        let order = dfs_order(&g);
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], VertexId::new(0));
        // DFS from 0 goes deep: 0, 1, 2.
        assert_eq!(order[1], VertexId::new(1));
        assert_eq!(order[2], VertexId::new(2));
    }

    #[test]
    fn components_are_detected() {
        let (g, vs) = sample_graph();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![vs[0], vs[1], vs[2]]);
        assert_eq!(comps[1], vec![vs[3], vs[4]]);
        assert!(!is_connected(&g));
        assert!(is_connected(&LabelledGraph::new()));
    }
}
