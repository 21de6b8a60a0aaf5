//! Labelled sub-graph isomorphism (VF2-style backtracking).
//!
//! The paper defines a query answer as every sub-graph of `G` for which a
//! bijection onto the query graph exists that preserves edges and labels
//! (§2). This module provides:
//!
//! * [`find_matches`] / `find_matches_limited` — enumerate embeddings of a
//!   pattern into a target graph;
//! * `has_match` — early-exit existence check;
//! * [`are_isomorphic`] — exact isomorphism between two graphs of the same
//!   size, used to collapse motifs onto canonical TPSTry++ nodes and to
//!   verify the non-authoritative signature matches.
//!
//! The matcher uses the standard VF2 ingredients: pattern vertices are
//! ordered so that each (after the first) touches an already-matched vertex,
//! candidates are restricted by label and degree, and adjacency consistency
//! is enforced against every previously matched pattern neighbour.

use loom_graph::fxhash::{FxHashMap, FxHashSet};
use loom_graph::{LabelledGraph, VertexId};

/// A single embedding: pattern vertex → target vertex.
pub type Embedding = FxHashMap<VertexId, VertexId>;

/// Find every embedding of `pattern` into `target`.
///
/// An embedding maps distinct pattern vertices to distinct target vertices
/// such that labels match and every pattern edge maps to a target edge
/// (sub-graph *monomorphism*, the semantics used for query answering).
pub fn find_matches(pattern: &LabelledGraph, target: &LabelledGraph) -> Vec<Embedding> {
    find_matches_limited(pattern, target, usize::MAX)
}

/// Like [`find_matches`] but stops after `limit` embeddings have been found.
pub(crate) fn find_matches_limited(
    pattern: &LabelledGraph,
    target: &LabelledGraph,
    limit: usize,
) -> Vec<Embedding> {
    let mut results = Vec::new();
    if pattern.is_empty() || pattern.vertex_count() > target.vertex_count() || limit == 0 {
        return results;
    }
    let order = matching_order(pattern);
    let mut state = MatchState {
        pattern,
        target,
        order: &order,
        mapping: FxHashMap::default(),
        used: FxHashSet::default(),
        results: &mut results,
        limit,
    };
    state.extend(0);
    results
}

/// Whether at least one embedding of `pattern` into `target` exists.
pub(crate) fn has_match(pattern: &LabelledGraph, target: &LabelledGraph) -> bool {
    !find_matches_limited(pattern, target, 1).is_empty()
}

/// Exact labelled isomorphism between two graphs.
pub fn are_isomorphic(a: &LabelledGraph, b: &LabelledGraph) -> bool {
    if a.vertex_count() != b.vertex_count() || a.edge_count() != b.edge_count() {
        return false;
    }
    if a.is_empty() {
        return true;
    }
    // Same vertex and edge count, so a monomorphism a → b is automatically an
    // isomorphism *provided* it is edge-surjective; since it maps |E_a| = |E_b|
    // distinct edges onto distinct edges, it is.
    has_match(a, b)
}

/// Count the embeddings of `pattern` in `target` (convenience wrapper).
pub fn count_matches(pattern: &LabelledGraph, target: &LabelledGraph) -> usize {
    find_matches(pattern, target).len()
}

/// Order pattern vertices so each one (after the first) is adjacent to at
/// least one earlier vertex; ties broken towards higher degree so the most
/// constrained vertices are matched first.
fn matching_order(pattern: &LabelledGraph) -> Vec<VertexId> {
    let mut order = Vec::with_capacity(pattern.vertex_count());
    let mut placed: FxHashSet<VertexId> = FxHashSet::default();
    let mut vertices = pattern.vertices_sorted();
    // Start from the highest-degree vertex (most constrained).
    vertices.sort_by_key(|&v| std::cmp::Reverse(pattern.degree(v)));
    while placed.len() < pattern.vertex_count() {
        // Prefer an unplaced vertex adjacent to the placed set.
        let next = vertices
            .iter()
            .copied()
            .filter(|v| !placed.contains(v))
            .max_by_key(|&v| {
                let connectivity = pattern
                    .neighbors(v)
                    .iter()
                    .filter(|n| placed.contains(n))
                    .count();
                (connectivity, pattern.degree(v))
            })
            .expect("there is always an unplaced vertex in the loop");
        placed.insert(next);
        order.push(next);
    }
    order
}

struct MatchState<'a> {
    pattern: &'a LabelledGraph,
    target: &'a LabelledGraph,
    order: &'a [VertexId],
    mapping: Embedding,
    used: FxHashSet<VertexId>,
    results: &'a mut Vec<Embedding>,
    limit: usize,
}

impl MatchState<'_> {
    fn extend(&mut self, depth: usize) {
        if self.results.len() >= self.limit {
            return;
        }
        if depth == self.order.len() {
            self.results.push(self.mapping.clone());
            return;
        }
        let pv = self.order[depth];
        let p_label = self.pattern.label(pv).expect("pattern vertex exists");
        let p_degree = self.pattern.degree(pv);

        // Matched pattern neighbours constrain the candidate set: the target
        // vertex must be adjacent to their images.
        let matched_neighbours: Vec<VertexId> = self
            .pattern
            .neighbors(pv)
            .iter()
            .copied()
            .filter(|n| self.mapping.contains_key(n))
            .collect();

        let candidates: Vec<VertexId> = if let Some(&anchor) = matched_neighbours.first() {
            let image = self.mapping[&anchor];
            self.target.neighbors(image).to_vec()
        } else {
            self.target.vertices_sorted()
        };

        for tv in candidates {
            if self.used.contains(&tv) {
                continue;
            }
            if self.target.label(tv) != Some(p_label) {
                continue;
            }
            if self.target.degree(tv) < p_degree {
                continue;
            }
            let consistent = matched_neighbours
                .iter()
                .all(|n| self.target.contains_edge(tv, self.mapping[n]));
            if !consistent {
                continue;
            }
            self.mapping.insert(pv, tv);
            self.used.insert(tv);
            self.extend(depth + 1);
            self.mapping.remove(&pv);
            self.used.remove(&tv);
            if self.results.len() >= self.limit {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::{clique, cycle_graph, path_graph, star_graph};
    use loom_graph::Label;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    /// Check that `embedding` really is a valid embedding of `pattern` into
    /// `target`: the tests' check on every match the search returns.
    fn verify_embedding(
        pattern: &LabelledGraph,
        target: &LabelledGraph,
        embedding: &Embedding,
    ) -> bool {
        if embedding.len() != pattern.vertex_count() {
            return false;
        }
        let mut images: FxHashSet<VertexId> = FxHashSet::default();
        for (pv, tv) in embedding {
            if pattern.label(*pv) != target.label(*tv) {
                return false;
            }
            if !images.insert(*tv) {
                return false;
            }
        }
        pattern
            .edges()
            .all(|e| match (embedding.get(&e.lo), embedding.get(&e.hi)) {
                (Some(&a), Some(&b)) => target.contains_edge(a, b),
                _ => false,
            })
    }

    /// The paper's Figure 1 example graph: 8 vertices, labels
    /// 1:a 2:b 3:c 4:d 5:b 6:a 7:d 8:c with a 4-cycle (1,2,5,6) and a path.
    fn fig1_graph() -> LabelledGraph {
        let mut g = LabelledGraph::new();
        // index 0 unused so ids match the paper's 1-based numbering
        let labels = [0u32, 0, 1, 2, 3, 1, 0, 3, 2]; // 1:a 2:b 3:c 4:d 5:b 6:a 7:d 8:c
        for i in 1..=8u64 {
            g.insert_vertex(VertexId::new(i), l(labels[i as usize]));
        }
        let edges = [
            (1u64, 2u64),
            (2, 3),
            (3, 4),
            (1, 5),
            (2, 6),
            (5, 6),
            (6, 7),
            (3, 7),
            (4, 8),
            (7, 8),
        ];
        for (a, b) in edges {
            g.add_edge(VertexId::new(a), VertexId::new(b)).unwrap();
        }
        g
    }

    #[test]
    fn path_pattern_matches_in_path_target() {
        let pattern = path_graph(3, &[l(0), l(1), l(0)]);
        let target = path_graph(5, &[l(0), l(1), l(0), l(1), l(0)]);
        let matches = find_matches(&pattern, &target);
        // a-b-a occurs at positions (0,1,2), (2,1,0), (2,3,4), (4,3,2).
        assert_eq!(matches.len(), 4);
        for m in &matches {
            assert!(verify_embedding(&pattern, &target, m));
        }
    }

    #[test]
    fn label_mismatch_produces_no_matches() {
        let pattern = path_graph(2, &[l(5), l(6)]);
        let target = path_graph(4, &[l(0), l(1), l(0), l(1)]);
        assert!(find_matches(&pattern, &target).is_empty());
        assert!(!has_match(&pattern, &target));
    }

    #[test]
    fn square_query_matches_fig1_cycle() {
        // q1 from the paper: the a-b / b-a square matches vertices 1,2,5,6.
        let pattern = cycle_graph(4, &[l(0), l(1), l(0), l(1)]);
        let target = fig1_graph();
        let matches = find_matches(&pattern, &target);
        assert!(!matches.is_empty());
        for m in &matches {
            let mut image: Vec<u64> = m.values().map(|v| v.raw()).collect();
            image.sort_unstable();
            assert_eq!(image, vec![1, 2, 5, 6]);
        }
    }

    #[test]
    fn abcd_path_matches_fig1() {
        // q3 from the paper: the a-b-c-d path.
        let pattern = path_graph(4, &[l(0), l(1), l(2), l(3)]);
        let target = fig1_graph();
        let matches = find_matches(&pattern, &target);
        assert!(!matches.is_empty());
        for m in &matches {
            assert!(verify_embedding(&pattern, &target, m));
        }
    }

    #[test]
    fn limit_stops_enumeration_early() {
        let pattern = path_graph(2, &[l(0), l(0)]);
        let target = clique(6, &[l(0)]);
        let all = find_matches(&pattern, &target);
        assert_eq!(all.len(), 30); // ordered pairs of distinct vertices
        let limited = find_matches_limited(&pattern, &target, 3);
        assert_eq!(limited.len(), 3);
    }

    #[test]
    fn isomorphism_checks() {
        let a = cycle_graph(4, &[l(0), l(1), l(0), l(1)]);
        let b = cycle_graph(4, &[l(1), l(0), l(1), l(0)]);
        assert!(are_isomorphic(&a, &b));
        let c = cycle_graph(4, &[l(0), l(0), l(1), l(1)]);
        assert!(!are_isomorphic(&a, &c));
        let d = path_graph(4, &[l(0), l(1), l(0), l(1)]);
        assert!(!are_isomorphic(&a, &d));
        assert!(are_isomorphic(&LabelledGraph::new(), &LabelledGraph::new()));
    }

    #[test]
    fn star_matches_respect_degree_constraints() {
        let pattern = star_graph(3, &[l(0), l(1), l(1), l(1)]);
        let target = star_graph(2, &[l(0), l(1), l(1)]);
        // Hub has degree 2 < 3 in the target, so no match exists.
        assert!(!has_match(&pattern, &target));
        let bigger = star_graph(5, &[l(0), l(1), l(1), l(1), l(1), l(1)]);
        assert!(has_match(&pattern, &bigger));
    }

    #[test]
    fn empty_pattern_and_oversized_pattern() {
        let target = path_graph(3, &[l(0), l(1), l(2)]);
        assert!(find_matches(&LabelledGraph::new(), &target).is_empty());
        let pattern = path_graph(5, &[l(0), l(1), l(2), l(0), l(1)]);
        assert!(find_matches(&pattern, &target).is_empty());
    }

    #[test]
    fn verify_embedding_rejects_bad_mappings() {
        let pattern = path_graph(2, &[l(0), l(1)]);
        let target = path_graph(2, &[l(0), l(1)]);
        let pv = pattern.vertices_sorted();
        let tv = target.vertices_sorted();
        // Swapped labels: map a-vertex onto b-vertex.
        let mut bad: Embedding = FxHashMap::default();
        bad.insert(pv[0], tv[1]);
        bad.insert(pv[1], tv[0]);
        assert!(!verify_embedding(&pattern, &target, &bad));
        // Non-injective mapping.
        let mut dup: Embedding = FxHashMap::default();
        dup.insert(pv[0], tv[0]);
        dup.insert(pv[1], tv[0]);
        assert!(!verify_embedding(&pattern, &target, &dup));
    }

    #[test]
    fn count_matches_counts_all_embeddings() {
        let pattern = path_graph(2, &[l(0), l(1)]);
        let target = path_graph(4, &[l(0), l(1), l(0), l(1)]);
        // Edges with (a,b) label pattern: (0,1), (2,1), (2,3) → 3 embeddings
        // (each pattern vertex maps one way because labels differ).
        assert_eq!(count_matches(&pattern, &target), 3);
    }
}
