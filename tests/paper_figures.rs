//! Executable reproductions of the paper's illustrative figures.
//!
//! The paper contains no result tables; its three figures are worked
//! examples. Each test here pins one of them:
//!
//! * `fig1_worked_example` — the answer to query `q1` on the example graph is
//!   exactly the sub-graph on vertices {1, 2, 5, 6};
//! * `fig2_tpstry_structure` — the TPSTry++ mined from the Figure 1 workload
//!   contains the motifs the figure shows, with the expected p-values;
//! * `fig3_stream_matching` — two `abc` motif instances sharing an `a-b` edge
//!   are both detected by the stream matcher and assigned to one partition.
//!
//! `loom_lowers_ipt_on_the_order_it_is_made_for` then asserts the paper's
//! claim itself, through the `Session` façade, on the stream order where
//! LOOM's windowed matcher has motifs to find.

use loom::prelude::*;
use loom_core::matcher::StreamMotifMatcher;
use loom_core::FrequentMotifIndex;
use loom_graph::generators::motif_planted::MotifPlantConfig;
use loom_graph::VertexId;
use loom_motif::fixtures::fig3_stream_graph;

fn l(x: u32) -> Label {
    Label::new(x)
}

#[test]
fn fig1_worked_example() {
    let graph = paper_example_graph();
    let workload = paper_example_workload();

    // q1: the a-b / b-a square. Its only answer is the sub-graph on
    // vertices 1, 2, 5, 6 (paper §1).
    let q1 = workload.query(QueryId::new(1)).expect("q1 exists");
    let matches = find_matches(q1.graph(), &graph);
    assert!(!matches.is_empty(), "q1 must have at least one embedding");
    for embedding in &matches {
        let mut image: Vec<u64> = embedding.values().map(|v| v.raw()).collect();
        image.sort_unstable();
        assert_eq!(image, vec![1, 2, 5, 6]);
    }

    // q2 (a-b-c) and q3 (a-b-c-d) also have answers in the example graph.
    for id in [QueryId::new(2), QueryId::new(3)] {
        let q = workload.query(id).expect("query exists");
        assert!(
            !find_matches(q.graph(), &graph).is_empty(),
            "query {id} should match the Figure 1 graph"
        );
    }
}

#[test]
fn fig2_tpstry_structure() {
    let workload = paper_example_workload();
    let tpstry = MotifMiner::default()
        .mine(&workload)
        .expect("mining succeeds");
    assert!(tpstry.check_invariants().is_ok());

    // Figure 2 shows, among others, these motifs for the Figure 1 workload.
    // p-values: a motif's support is the fraction of queries containing it.
    let expectations: Vec<(LabelledGraph, f64)> = vec![
        // single labels
        (single_vertex(l(0)), 1.0),       // a: in q1, q2, q3
        (single_vertex(l(1)), 1.0),       // b
        (single_vertex(l(2)), 2.0 / 3.0), // c: q2, q3
        (single_vertex(l(3)), 1.0 / 3.0), // d: q3 only
        // edges
        (path_graph(2, &[l(0), l(1)]), 1.0), // a-b: all queries
        (path_graph(2, &[l(1), l(2)]), 2.0 / 3.0), // b-c
        (path_graph(2, &[l(2), l(3)]), 1.0 / 3.0), // c-d
        // longer paths
        (path_graph(3, &[l(0), l(1), l(2)]), 2.0 / 3.0), // a-b-c
        (path_graph(4, &[l(0), l(1), l(2), l(3)]), 1.0 / 3.0), // a-b-c-d
        // the q1 square and its 3-vertex sub-path
        (cycle_graph(4, &[l(0), l(1), l(0), l(1)]), 1.0 / 3.0),
        (path_graph(3, &[l(1), l(0), l(1)]), 1.0 / 3.0),
    ];
    for (motif, expected_p) in expectations {
        let id = tpstry
            .find_isomorphic(&motif)
            .unwrap_or_else(|| panic!("motif with {} vertices missing", motif.vertex_count()));
        let p = tpstry.p_value(id);
        assert!(
            (p - expected_p).abs() < 1e-9,
            "motif with {} vertices / {} edges: expected p {expected_p:.3}, got {p:.3}",
            motif.vertex_count(),
            motif.edge_count()
        );
    }

    // The roots of the DAG are the four single-label motifs.
    assert_eq!(tpstry.roots().len(), 4);
}

#[test]
fn fig3_stream_matching() {
    // Workload: the abc path (the motif of Figure 3).
    let abc = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).expect("valid query");
    let workload = Workload::uniform(vec![abc]).expect("valid workload");
    let tpstry = MotifMiner::default()
        .mine(&workload)
        .expect("mining succeeds");
    let index = FrequentMotifIndex::new(&tpstry, 0.5);
    let mut matcher = StreamMotifMatcher::new(index);

    // Stream the Figure 3 graph into a window.
    let (graph, [a, b, c1, c2]) = fig3_stream_graph();
    let mut window = StreamWindow::new(16);
    for v in [a, b, c1, c2] {
        window.push_vertex(v, graph.label(v).expect("labelled"));
    }
    for (x, y) in [(a, b), (b, c1), (b, c2)] {
        window.push_edge(x, y);
        matcher.on_window_edge(&window, x, y);
    }

    // Both overlapping abc instances are tracked, and the cluster anchored at
    // the shared a-b edge covers all four vertices — so LOOM assigns them
    // together, avoiding the inter-partition edge Figure 3 warns about.
    let three_vertex_matches: Vec<Vec<VertexId>> = matcher
        .matches()
        .filter(|m| m.len() == 3)
        .map(|m| m.vertices.clone())
        .collect();
    assert!(three_vertex_matches.contains(&vec![a, b, c1]));
    assert!(three_vertex_matches.contains(&vec![a, b, c2]));
    let cluster = matcher.cluster_for(a);
    assert_eq!(cluster.len(), 4);

    // End-to-end: partitioning the Figure 3 graph with LOOM puts all four
    // vertices in one partition.
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let config = LoomConfig::new(2, graph.vertex_count())
        .with_window_size(4)
        .with_motif_threshold(0.5);
    let mut loom = LoomPartitioner::new(config, &tpstry).expect("valid config");
    let partitioning = partition_stream(&mut loom, &stream).expect("stream consumed");
    let home = partitioning.partition_of(a);
    assert!(home.is_some());
    for v in [b, c1, c2] {
        assert_eq!(partitioning.partition_of(v), home);
    }
}

fn single_vertex(label: Label) -> LabelledGraph {
    let mut g = LabelledGraph::new();
    g.add_vertex(label);
    g
}

/// The workload's inter-partition traversal probability once `graph`,
/// streamed in `order`, is partitioned and served by a session on `spec`:
/// 2 000 queries rooted at 4 vertices each, sampled at seed 42.
fn served_ipt(
    spec: PartitionerSpec,
    graph: &LabelledGraph,
    order: &StreamOrder,
    workload: &Workload,
) -> f64 {
    let mut session = Session::builder(spec)
        .workload(workload.clone())
        .query_mode(QueryMode::Rooted { seed_count: 4 })
        .build()
        .expect("a session");
    session
        .ingest_stream(&GraphStream::from_graph(graph, order))
        .expect("ingests");
    let serving = session.serve(graph.clone()).expect("serves");
    serving
        .run(QueryRequest::workload(2_000).with_seed(42))
        .metrics
        .inter_partition_probability()
}

/// LOOM places the motif matches it finds inside its window together, so its
/// advantage depends on how close together a motif's vertices arrive. On the
/// benchmark's generator (`abc` paths and `abab` squares planted in a random
/// background, label_count 8) at 8 000 background vertices, 20 000 background
/// edges and 600 instances per motif — 12 200 vertices — with k = 8, window
/// 128, T = 0.3 and slack 1.1, graph and stream seed 1:
///
/// * on an organic-growth order (`Stochastic`, jump probability 0.05) LOOM's
///   `ipt` is 0.3095 against LDG 0.3458 and Fennel 0.3467: a ratio of 0.895
///   to the better baseline, under the 0.93 bound by 0.035;
/// * LOOM places 39.4 % of the vertices as motif clusters (bound 30 %);
/// * on a random order, where the window holds 1 % of the graph, LOOM reads
///   0.4333 against LDG's 0.4365: a 0.7 % gap, inside the 2.5 % bound, so no
///   document may claim more there.
///
/// Over graph and stream seeds 1–6 the ratio read 0.849–0.895, the cluster
/// fraction 0.386–0.394 and the random-order gap 0.1–2.6 %. With motif
/// clustering switched off, LOOM is windowed LDG and the first bound fails.
#[test]
fn loom_lowers_ipt_on_the_order_it_is_made_for() {
    let seed = 1;
    let (graph, _) = motif_planted_graph(
        &MotifPlantConfig {
            background_vertices: 8_000,
            background_edges: 20_000,
            instances_per_motif: 600,
            attachment_edges: 1,
            label_count: 8,
            seed,
        },
        &[
            path_graph(3, &[l(0), l(1), l(2)]),
            cycle_graph(4, &[l(0), l(1), l(0), l(1)]),
        ],
    )
    .expect("valid plant config");
    let abc = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).expect("valid query");
    let abab = PatternQuery::cycle(QueryId::new(1), &[l(0), l(1), l(0), l(1)]).expect("valid");
    let ab = PatternQuery::path(QueryId::new(2), &[l(0), l(1)]).expect("valid query");
    let workload = Workload::new(vec![(abc, 4.0), (abab, 2.0), (ab, 1.0)]).expect("valid");

    let n = graph.vertex_count();
    let config = LoomConfig::new(8, n)
        .with_window_size(128)
        .with_motif_threshold(0.3);
    let loom = PartitionerSpec::Loom(config);
    let ldg = PartitionerSpec::Ldg(LdgConfig::new(8, n));
    let fennel = PartitionerSpec::Fennel(FennelConfig::new(8, n, graph.edge_count()));

    let organic = StreamOrder::Stochastic {
        seed,
        jump_probability: 0.05,
    };
    let loom_ipt = served_ipt(loom, &graph, &organic, &workload);
    let baseline = served_ipt(ldg, &graph, &organic, &workload)
        .min(served_ipt(fennel, &graph, &organic, &workload));
    assert!(
        loom_ipt <= 0.93 * baseline,
        "on a Stochastic order LOOM's ipt {loom_ipt:.4} should be ≤ 0.93 × {baseline:.4}"
    );

    let tpstry = MotifMiner::default().mine(&workload).expect("mines");
    let mut bare = LoomPartitioner::new(config, &tpstry).expect("valid config");
    partition_stream(&mut bare, &GraphStream::from_graph(&graph, &organic)).expect("partitions");
    let clustered = bare.loom_stats().cluster_fraction();
    assert!(
        clustered >= 0.3,
        "LOOM placed only {clustered:.3} of the vertices as motif clusters"
    );

    let random = StreamOrder::Random { seed };
    let loom_ipt = served_ipt(loom, &graph, &random, &workload);
    let ldg_ipt = served_ipt(ldg, &graph, &random, &workload);
    let gap = (loom_ipt - ldg_ipt).abs() / ldg_ipt;
    assert!(
        gap <= 0.025,
        "on a Random order LOOM ({loom_ipt:.4}) and LDG ({ldg_ipt:.4}) differ by {:.1} %",
        gap * 100.0
    );
}
