//! Canonical codes for small labelled graphs.
//!
//! The G-Trie work that inspired TPSTry++ stores each node's graph in a
//! canonical form so that isomorphic graphs map to the same trie node. The
//! paper replaces unlabelled canonical forms with label-aware signatures,
//! which are *non-authoritative*; we additionally keep an exact canonical
//! code for the small motif graphs stored in TPSTry++ nodes so that node
//! identity is never corrupted by a signature collision.
//!
//! The code is the lexicographically smallest serialisation of the label
//! sequence plus adjacency matrix over all vertex permutations. Permutations
//! are pruned by first grouping vertices into (label, degree) classes, which
//! keeps the search practical for motif-sized graphs (≲ 10 vertices). Above
//! `EXACT_LIMIT` vertices the code degrades to a strong but inexact
//! invariant (sorted label/degree/neighbour-label profile), which is
//! acceptable because motifs of that size are never produced by the miner's
//! default configuration.

use loom_graph::{LabelledGraph, VertexId};

/// Maximum graph size for which the canonical code is exact.
pub(crate) const EXACT_LIMIT: usize = 10;

/// A canonical code: equal codes ⇔ isomorphic graphs (exact up to
/// `EXACT_LIMIT` vertices, a strong invariant beyond that).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalCode(Vec<u32>);

impl CanonicalCode {
    /// The raw code words.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }
}

/// Compute the canonical code of a labelled graph.
pub fn canonical_code(graph: &LabelledGraph) -> CanonicalCode {
    let n = graph.vertex_count();
    if n == 0 {
        return CanonicalCode(vec![]);
    }
    if n > EXACT_LIMIT {
        return CanonicalCode(invariant_code(graph));
    }
    let vertices = graph.vertices_sorted();
    // Group vertices by (label, degree); only permutations that respect the
    // groups can be automorphisms, so we only permute within groups.
    let mut groups: Vec<(u64, Vec<VertexId>)> = Vec::new();
    {
        let mut keyed: Vec<(u64, VertexId)> = vertices
            .iter()
            .map(|&v| {
                let key = (u64::from(graph.label(v).expect("vertex exists").raw()) << 32)
                    | graph.degree(v) as u64;
                (key, v)
            })
            .collect();
        keyed.sort_unstable();
        for (key, v) in keyed {
            match groups.last_mut() {
                Some((k, members)) if *k == key => members.push(v),
                _ => groups.push((key, vec![v])),
            }
        }
    }

    let mut best: Option<Vec<u32>> = None;
    let mut arrangement: Vec<VertexId> = Vec::with_capacity(n);
    permute_groups(graph, &groups, 0, &mut arrangement, &mut best);
    CanonicalCode(best.expect("at least one permutation considered"))
}

fn permute_groups(
    graph: &LabelledGraph,
    groups: &[(u64, Vec<VertexId>)],
    group_index: usize,
    arrangement: &mut Vec<VertexId>,
    best: &mut Option<Vec<u32>>,
) {
    if group_index == groups.len() {
        let code = encode(graph, arrangement);
        if best.as_ref().map(|b| code < *b).unwrap_or(true) {
            *best = Some(code);
        }
        return;
    }
    let members = &groups[group_index].1;
    let mut perm: Vec<VertexId> = members.clone();
    permute_within(graph, groups, group_index, &mut perm, 0, arrangement, best);
}

fn permute_within(
    graph: &LabelledGraph,
    groups: &[(u64, Vec<VertexId>)],
    group_index: usize,
    perm: &mut Vec<VertexId>,
    start: usize,
    arrangement: &mut Vec<VertexId>,
    best: &mut Option<Vec<u32>>,
) {
    if start == perm.len() {
        let len_before = arrangement.len();
        arrangement.extend_from_slice(perm);
        permute_groups(graph, groups, group_index + 1, arrangement, best);
        arrangement.truncate(len_before);
        return;
    }
    for i in start..perm.len() {
        perm.swap(start, i);
        permute_within(
            graph,
            groups,
            group_index,
            perm,
            start + 1,
            arrangement,
            best,
        );
        perm.swap(start, i);
    }
}

/// Encode a fixed vertex arrangement as label sequence + upper-triangular
/// adjacency bits (one u32 word per bit, kept simple since codes are short).
fn encode(graph: &LabelledGraph, arrangement: &[VertexId]) -> Vec<u32> {
    let n = arrangement.len();
    let mut code = Vec::with_capacity(n + n * (n - 1) / 2);
    for &v in arrangement {
        code.push(graph.label(v).expect("vertex exists").raw());
    }
    for i in 0..n {
        for j in (i + 1)..n {
            code.push(u32::from(
                graph.contains_edge(arrangement[i], arrangement[j]),
            ));
        }
    }
    code
}

/// Inexact fallback invariant for oversized graphs: sorted
/// (label, degree, sorted neighbour labels) profiles flattened into words.
fn invariant_code(graph: &LabelledGraph) -> Vec<u32> {
    let mut profiles: Vec<Vec<u32>> = graph
        .vertices_sorted()
        .into_iter()
        .map(|v| {
            let mut profile = vec![
                graph.label(v).expect("vertex exists").raw(),
                graph.degree(v) as u32,
            ];
            let mut neighbour_labels: Vec<u32> = graph
                .neighbors(v)
                .iter()
                .map(|&n| graph.label(n).expect("neighbour exists").raw())
                .collect();
            neighbour_labels.sort_unstable();
            profile.extend(neighbour_labels);
            profile
        })
        .collect();
    profiles.sort();
    let mut code = vec![
        u32::MAX,
        graph.vertex_count() as u32,
        graph.edge_count() as u32,
    ];
    for p in profiles {
        code.push(u32::MAX - 1); // separator
        code.extend(p);
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isomorphism::are_isomorphic;
    use loom_graph::generators::regular::{cycle_graph, path_graph, star_graph};
    use loom_graph::Label;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    #[test]
    fn isomorphic_graphs_share_a_code() {
        // Same path with ids assigned in different orders.
        let a = path_graph(4, &[l(0), l(1), l(2), l(3)]);
        let mut b = LabelledGraph::new();
        let v3 = b.add_vertex(l(3));
        let v2 = b.add_vertex(l(2));
        let v1 = b.add_vertex(l(1));
        let v0 = b.add_vertex(l(0));
        b.add_edge(v0, v1).unwrap();
        b.add_edge(v1, v2).unwrap();
        b.add_edge(v2, v3).unwrap();
        assert!(are_isomorphic(&a, &b));
        assert_eq!(canonical_code(&a), canonical_code(&b));
    }

    #[test]
    fn non_isomorphic_graphs_differ() {
        let path = path_graph(4, &[l(0), l(1), l(0), l(1)]);
        let cycle = cycle_graph(4, &[l(0), l(1), l(0), l(1)]);
        assert_ne!(canonical_code(&path), canonical_code(&cycle));

        let star = star_graph(3, &[l(0), l(1), l(1), l(1)]);
        let path4 = path_graph(4, &[l(1), l(0), l(1), l(1)]);
        assert_ne!(canonical_code(&star), canonical_code(&path4));
    }

    #[test]
    fn label_permutations_matter() {
        let ab = path_graph(2, &[l(0), l(1)]);
        let ba = path_graph(2, &[l(1), l(0)]);
        // a-b and b-a are the same undirected labelled edge.
        assert_eq!(canonical_code(&ab), canonical_code(&ba));
        let aa = path_graph(2, &[l(0), l(0)]);
        assert_ne!(canonical_code(&ab), canonical_code(&aa));
    }

    #[test]
    fn empty_and_single_vertex_codes() {
        assert_eq!(
            canonical_code(&LabelledGraph::new()).as_slice(),
            &[] as &[u32]
        );
        let mut g = LabelledGraph::new();
        g.add_vertex(l(7));
        assert_eq!(canonical_code(&g).as_slice(), &[7]);
    }

    #[test]
    fn large_graph_uses_invariant_fallback() {
        let big = cycle_graph(EXACT_LIMIT + 5, &[l(0), l(1)]);
        let code = canonical_code(&big);
        assert_eq!(code.as_slice()[0], u32::MAX);
        // The invariant still distinguishes clearly different graphs.
        let other = path_graph(EXACT_LIMIT + 5, &[l(0), l(1)]);
        assert_ne!(code, canonical_code(&other));
    }

    #[test]
    fn code_is_stable_under_id_relabelling() {
        // Same square, ids shifted by 100.
        let base = cycle_graph(4, &[l(0), l(1), l(0), l(1)]);
        let mut shifted = LabelledGraph::new();
        for v in base.vertices_sorted() {
            shifted.insert_vertex(VertexId::new(v.raw() + 100), base.label(v).unwrap());
        }
        for e in base.edges_sorted() {
            shifted
                .add_edge(
                    VertexId::new(e.lo.raw() + 100),
                    VertexId::new(e.hi.raw() + 100),
                )
                .unwrap();
        }
        assert_eq!(canonical_code(&base), canonical_code(&shifted));
    }
}
