//! Worked examples from the paper, used by tests, examples and docs.
//!
//! * [`paper_example_graph`] — the 8-vertex example graph `G` of Figure 1
//!   (labels `1:a 2:b 3:c 4:d 5:b 6:a 7:d 8:c`).
//! * [`paper_example_workload`] — the three-query workload `Q` of Figure 1:
//!   `q1` the a–b / b–a square, `q2` the `a-b-c` path, `q3` the `a-b-c-d`
//!   path, with uniform frequencies.
//! * [`fig3_stream_graph`] — the small graph of Figure 3: two overlapping
//!   `a-b-c` motif instances sharing the `a-b` edge, used to exercise the
//!   stream matcher's incremental-recomputation path.

use crate::query::{PatternQuery, QueryId};
use crate::workload::Workload;
use loom_graph::{Label, LabelledGraph, VertexId};

/// Label `a` (0), used by the fixtures.
pub(crate) const LABEL_A: Label = Label::new(0);
/// Label `b` (1), used by the fixtures.
pub(crate) const LABEL_B: Label = Label::new(1);
/// Label `c` (2), used by the fixtures.
pub(crate) const LABEL_C: Label = Label::new(2);
/// Label `d` (3), used by the fixtures.
pub(crate) const LABEL_D: Label = Label::new(3);

/// The example graph `G` of the paper's Figure 1.
///
/// Vertices `1..=8` carry labels `1:a 2:b 3:c 4:d 5:b 6:a 7:d 8:c`. The edge
/// set is chosen so that the documented query answers hold: the answer to
/// `q1` (the a–b/b–a square) is exactly the sub-graph on vertices
/// `{1, 2, 5, 6}`, and the `a-b-c-d` path of `q3` has matches along the
/// bottom row.
pub fn paper_example_graph() -> LabelledGraph {
    let mut g = LabelledGraph::new();
    let labels = [
        (1u64, LABEL_A),
        (2, LABEL_B),
        (3, LABEL_C),
        (4, LABEL_D),
        (5, LABEL_B),
        (6, LABEL_A),
        (7, LABEL_D),
        (8, LABEL_C),
    ];
    for (id, label) in labels {
        g.insert_vertex(VertexId::new(id), label);
    }
    let edges = [
        (1u64, 2u64), // a-b (bottom row)
        (2, 3),       // b-c
        (3, 4),       // c-d
        (1, 5),       // a-b (up the left side)
        (2, 6),       // b-a
        (5, 6),       // b-a (top row) — closes the q1 square 1-2-6-5
        (6, 7),       // a-d
        (3, 7),       // c-d (vertical)
        (4, 8),       // d-c
        (7, 8),       // d-c (top row)
    ];
    for (a, b) in edges {
        g.add_edge(VertexId::new(a), VertexId::new(b))
            .expect("fixture edges are valid");
    }
    g
}

/// The query workload `Q` of the paper's Figure 1 (uniform frequencies).
///
/// * `q1`: the 4-cycle with alternating labels `a, b, a, b`;
/// * `q2`: the path `a - b - c`;
/// * `q3`: the path `a - b - c - d`.
pub fn paper_example_workload() -> Workload {
    let q1 = PatternQuery::cycle(QueryId::new(1), &[LABEL_A, LABEL_B, LABEL_A, LABEL_B])
        .expect("q1 is a valid cycle query");
    let q2 = PatternQuery::path(QueryId::new(2), &[LABEL_A, LABEL_B, LABEL_C])
        .expect("q2 is a valid path query");
    let q3 = PatternQuery::path(QueryId::new(3), &[LABEL_A, LABEL_B, LABEL_C, LABEL_D])
        .expect("q3 is a valid path query");
    Workload::uniform(vec![q1, q2, q3]).expect("three valid queries")
}

/// The small graph of the paper's Figure 3: a path `a - b - c` plus a second
/// `c`-labelled vertex attached to the same `b`, so that two distinct `abc`
/// motif instances share the `a - b` edge.
///
/// Returns the graph together with the ids `(a, b, c1, c2)`.
pub fn fig3_stream_graph() -> (LabelledGraph, [VertexId; 4]) {
    let mut g = LabelledGraph::new();
    let a = VertexId::new(1);
    let b = VertexId::new(2);
    let c1 = VertexId::new(3);
    let c2 = VertexId::new(4);
    g.insert_vertex(a, LABEL_A);
    g.insert_vertex(b, LABEL_B);
    g.insert_vertex(c1, LABEL_C);
    g.insert_vertex(c2, LABEL_C);
    g.add_edge(a, b).expect("valid edge");
    g.add_edge(b, c1).expect("valid edge");
    g.add_edge(b, c2).expect("valid edge");
    (g, [a, b, c1, c2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isomorphism::find_matches;

    #[test]
    fn fig1_graph_shape() {
        let g = paper_example_graph();
        assert_eq!(g.vertex_count(), 8);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.label(VertexId::new(1)), Some(LABEL_A));
        assert_eq!(g.label(VertexId::new(8)), Some(LABEL_C));
    }

    #[test]
    fn fig1_q1_answer_is_vertices_1_2_5_6() {
        // "the answer to q1 would be the sub-graph of G containing the
        //  vertices 1, 2, 5, 6 and their interconnecting edges"
        let g = paper_example_graph();
        let workload = paper_example_workload();
        let q1 = workload.query(QueryId::new(1)).unwrap();
        let matches = find_matches(q1.graph(), &g);
        assert!(!matches.is_empty());
        for m in &matches {
            let mut image: Vec<u64> = m.values().map(|v| v.raw()).collect();
            image.sort_unstable();
            assert_eq!(image, vec![1, 2, 5, 6]);
        }
    }

    #[test]
    fn fig1_q2_and_q3_have_matches() {
        let g = paper_example_graph();
        let workload = paper_example_workload();
        for id in [QueryId::new(2), QueryId::new(3)] {
            let q = workload.query(id).unwrap();
            assert!(
                !find_matches(q.graph(), &g).is_empty(),
                "query {id} should match the example graph"
            );
        }
    }

    #[test]
    fn workload_is_uniform_over_three_queries() {
        let w = paper_example_workload();
        assert_eq!(w.len(), 3);
        for (_, f) in w.iter() {
            assert!((f - 1.0 / 3.0).abs() < 1e-12);
        }
        assert_eq!(w.label_alphabet_size(), 4);
    }

    #[test]
    fn fig3_graph_contains_two_abc_instances() {
        let (g, [a, b, c1, c2]) = fig3_stream_graph();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        let abc = loom_graph::generators::regular::path_graph(3, &[LABEL_A, LABEL_B, LABEL_C]);
        let matches = find_matches(&abc, &g);
        assert_eq!(matches.len(), 2);
        let _ = (a, b, c1, c2);
    }
}
