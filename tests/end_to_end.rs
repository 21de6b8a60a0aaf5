//! End-to-end integration tests across the whole LOOM stack: generate a
//! graph and a workload, partition the stream with every partitioner through
//! the `Session` façade, execute the workload on what it serves, and check
//! that the headline claims of the paper hold in direction — and that ids
//! spread over the `u64` range take the same durable path at the same order
//! of cost as dense ones.

use loom::loom_partition::metrics::{evaluate, QualityReport};
use loom::loom_partition::spec::LoomConfig;
use loom::prelude::*;
use loom_graph::generators::motif_planted::MotifPlantConfig;

fn l(x: u32) -> Label {
    Label::new(x)
}

/// A motif-heavy transaction-style graph plus the workload that traverses the
/// planted motifs.
fn motif_scenario(seed: u64) -> (LabelledGraph, Workload) {
    motif_scenario_scaled(seed, 1)
}

/// [`motif_scenario`] with `scale` times the vertices, edges and instances.
fn motif_scenario_scaled(seed: u64, scale: usize) -> (LabelledGraph, Workload) {
    let abc = path_graph(3, &[l(0), l(1), l(2)]);
    let square = cycle_graph(4, &[l(0), l(1), l(0), l(1)]);
    let (graph, _) = motif_planted_graph(
        &MotifPlantConfig {
            background_vertices: 800 * scale,
            background_edges: 2_000 * scale,
            instances_per_motif: 80 * scale,
            attachment_edges: 1,
            label_count: 4,
            seed,
        },
        &[abc, square],
    )
    .expect("valid plant config");
    let q_abc = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
    let q_square = PatternQuery::cycle(QueryId::new(1), &[l(0), l(1), l(0), l(1)]).unwrap();
    let q_ab = PatternQuery::path(QueryId::new(2), &[l(0), l(1)]).unwrap();
    let workload = Workload::new(vec![(q_abc, 4.0), (q_square, 2.0), (q_ab, 1.0)]).unwrap();
    (graph, workload)
}

/// 300 background vertices plus 40 planted `abc` paths, and the `abc` / `ab`
/// workload that reads them.
fn abc_scenario(seed: u64) -> (LabelledGraph, Workload) {
    let (graph, _) = motif_planted_graph(
        &MotifPlantConfig {
            background_vertices: 300,
            background_edges: 600,
            instances_per_motif: 40,
            attachment_edges: 1,
            label_count: 4,
            seed,
        },
        &[path_graph(3, &[l(0), l(1), l(2)])],
    )
    .expect("valid plant config");
    let abc = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
    let ab = PatternQuery::path(QueryId::new(1), &[l(0), l(1)]).unwrap();
    (graph, Workload::new(vec![(abc, 3.0), (ab, 1.0)]).unwrap())
}

/// Hash, LDG, Fennel and LOOM at `k` partitions and slack 1.1, LOOM with
/// `window` and motif threshold `threshold`.
fn streaming_specs(
    k: u32,
    graph: &LabelledGraph,
    window: usize,
    threshold: f64,
) -> [PartitionerSpec; 4] {
    let n = graph.vertex_count();
    let capacity = (n as f64 / f64::from(k) * 1.1).ceil() as usize;
    [
        PartitionerSpec::Hash(HashConfig::new(k, capacity)),
        PartitionerSpec::Ldg(LdgConfig::new(k, n)),
        PartitionerSpec::Fennel(FennelConfig::new(k, n, graph.edge_count())),
        PartitionerSpec::Loom(
            LoomConfig::new(k, n)
                .with_window_size(window)
                .with_motif_threshold(threshold),
        ),
    ]
}

/// Stream `graph` in `order` through a session on `spec`, serve it, and
/// execute `samples` rooted queries of `workload` at seed 42: what the
/// workload pays, and the partitioning's cut and balance.
fn served(
    spec: PartitionerSpec,
    graph: &LabelledGraph,
    order: &StreamOrder,
    workload: &Workload,
    samples: usize,
) -> (ExecutionMetrics, QualityReport) {
    let mut session = Session::builder(spec)
        .workload(workload.clone())
        .query_mode(QueryMode::Rooted { seed_count: 4 })
        .build()
        .expect("a session");
    session
        .ingest_stream(&GraphStream::from_graph(graph, order))
        .expect("ingests");
    let serving = session.serve(graph.clone()).expect("serves");
    let quality = evaluate(graph, serving.partitioning());
    let request = QueryRequest::workload(samples).with_seed(42);
    (serving.run(request).metrics, quality)
}

#[test]
fn every_partitioner_assigns_every_vertex() {
    let (graph, workload) = motif_scenario(1);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 2 });
    let mut partitionings = Vec::new();
    for spec in streaming_specs(4, &graph, 128, 0.4) {
        let mut session = Session::builder(spec)
            .workload(workload.clone())
            .build()
            .expect("a session");
        session.ingest_stream(&stream).expect("ingests");
        partitionings.push((spec.name(), session.into_partitioning().unwrap()));
    }
    let offline = MultilevelPartitioner::new(MultilevelConfig {
        slack: 1.1,
        ..MultilevelConfig::new(4)
    })
    .unwrap();
    partitionings.push(("offline", offline.partition(&graph).unwrap()));
    for (name, partitioning) in partitionings {
        assert_eq!(
            partitioning.assigned_count(),
            graph.vertex_count(),
            "{name} left vertices unassigned"
        );
        for v in graph.vertices_sorted() {
            let p = partitioning.partition_of(v).expect("assigned");
            assert!(p.0 < 4, "partition id out of range for {name}");
        }
    }
}

#[test]
fn loom_improves_workload_locality_over_workload_agnostic_baselines() {
    let (graph, workload) = motif_scenario(7);
    let [hash, ldg, _, loom] = streaming_specs(8, &graph, 128, 0.3);
    // 400 sampled queries: at 80 the local-only fraction is dominated by
    // sampling noise (a single lucky query flips the comparison).
    let order = StreamOrder::Random { seed: 5 };
    let run = |spec| served(spec, &graph, &order, &workload, 400);
    let (hash, hash_quality) = run(hash);
    let (ldg, ldg_quality) = run(ldg);
    let (loom, loom_quality) = run(loom);

    // Headline direction: the workload-aware partitioner answers more of the
    // workload locally than the agnostic streaming baseline, and hash is the
    // worst of the three.
    assert!(
        loom.local_only_fraction() >= ldg.local_only_fraction(),
        "LOOM local-only {:.3} < LDG {:.3}",
        loom.local_only_fraction(),
        ldg.local_only_fraction()
    );
    assert!(
        loom.inter_partition_probability() <= hash.inter_partition_probability(),
        "LOOM ipt {:.3} should not exceed hash {:.3}",
        loom.inter_partition_probability(),
        hash.inter_partition_probability()
    );
    assert!(
        ldg_quality.cut_ratio < hash_quality.cut_ratio,
        "LDG should cut fewer edges than hash"
    );
    // Balance must stay within the configured slack for the streaming
    // partitioners.
    for (name, quality) in [("ldg", ldg_quality), ("loom", loom_quality)] {
        assert!(
            quality.imbalance <= 1.35,
            "{name} imbalance {}",
            quality.imbalance
        );
    }
}

/// Hash placement, blind to both the graph and the workload, crosses
/// partitions on more of the workload's traversals than any other
/// streaming partitioner.
#[test]
fn hash_is_the_worst_streaming_partitioner_on_ipt() {
    let (graph, workload) = abc_scenario(1);
    let ipt = |spec: PartitionerSpec| {
        let (metrics, quality) = served(spec, &graph, &StreamOrder::Bfs, &workload, 30);
        assert!((0.0..=1.0).contains(&quality.cut_ratio), "{}", spec.name());
        assert!(quality.imbalance >= 1.0, "{}", spec.name());
        metrics.inter_partition_probability()
    };
    let [hash, others @ ..] = streaming_specs(4, &graph, 64, 0.4);
    let hash = ipt(hash);
    for spec in others {
        let other = ipt(spec);
        assert!(
            other <= hash,
            "{} ipt {other:.3} should not exceed hash {hash:.3}",
            spec.name()
        );
    }
}

#[test]
fn loom_beats_ldg_on_workload_locality_for_motif_heavy_graphs() {
    let (graph, workload) = abc_scenario(9);
    let [_, ldg, _, loom] = streaming_specs(8, &graph, 128, 0.4);
    let order = StreamOrder::Random { seed: 3 };
    let (ldg, _) = served(ldg, &graph, &order, &workload, 60);
    let (loom, _) = served(loom, &graph, &order, &workload, 60);
    assert!(
        loom.local_only_fraction() >= ldg.local_only_fraction(),
        "LOOM local-only fraction {:.3} should be at least LDG's {:.3}",
        loom.local_only_fraction(),
        ldg.local_only_fraction()
    );
    // Both answer no query wholly locally here, so the traversals decide.
    assert!(
        loom.inter_partition_probability() < ldg.inter_partition_probability(),
        "LOOM ipt {:.3} should be under LDG's {:.3}",
        loom.inter_partition_probability(),
        ldg.inter_partition_probability()
    );
}

#[test]
fn workload_agnostic_equivalence_when_no_motif_is_frequent() {
    // With an index built at an unattainable threshold, LOOM tracks no motifs
    // and must still produce a complete, balanced partitioning (the
    // degenerate windowed-LDG behaviour).
    let (graph, workload) = motif_scenario(3);
    let tpstry = MotifMiner::default().mine(&workload).unwrap();
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let config = LoomConfig::new(4, graph.vertex_count()).with_window_size(64);
    let empty_index = loom_core::FrequentMotifIndex::new(&tpstry, 1.01);
    assert!(empty_index.is_empty());
    let mut loom = LoomPartitioner::with_index(config, empty_index).unwrap();
    let partitioning = partition_stream(&mut loom, &stream).unwrap();
    assert_eq!(partitioning.assigned_count(), graph.vertex_count());
    assert_eq!(loom.loom_stats().clusters_assigned, 0);
    assert!(partitioning.imbalance() < 1.3);
}

#[test]
fn stream_round_trip_preserves_graph_for_all_orderings() {
    let (graph, _) = motif_scenario(11);
    for order in [
        StreamOrder::Random { seed: 1 },
        StreamOrder::Bfs,
        StreamOrder::Dfs,
        StreamOrder::Adversarial,
        StreamOrder::Stochastic {
            seed: 2,
            jump_probability: 0.1,
        },
    ] {
        let stream = GraphStream::from_graph(&graph, &order);
        let rebuilt = stream.materialise();
        assert_eq!(rebuilt.vertex_count(), graph.vertex_count());
        assert_eq!(rebuilt.edges_sorted(), graph.edges_sorted());
    }
}

/// The order-preserving renaming `v ↦ v << 24 | 0x5a5`: every renamed id
/// shares its low 24 bits, and none is below a `VertexIndex`'s direct
/// allowance but the image of 0, so the sparse twin lives in the hashed side
/// of every id-keyed table.
fn sparse(v: VertexId) -> VertexId {
    VertexId::new(v.raw() << 24 | 0x5a5)
}

fn renamed(element: &StreamElement) -> StreamElement {
    match *element {
        StreamElement::AddVertex { id, label } => StreamElement::AddVertex {
            id: sparse(id),
            label,
        },
        StreamElement::AddEdge { source, target } => StreamElement::AddEdge {
            source: sparse(source),
            target: sparse(target),
        },
        _ => unreachable!("the motif stream is insert-only"),
    }
}

/// What one twin's durable run shows: partition sizes at the checkpoint
/// and after recovery, the recovered graph's shape, and the recovered
/// session's sequential and two-worker sharded metrics.
#[derive(Debug, PartialEq)]
struct TwinRun {
    sizes: Vec<usize>,
    recovered_sizes: Vec<usize>,
    shape: (usize, usize),
    sequential: ExecutionMetrics,
    sharded: ExecutionMetrics,
}

/// One twin's durable run, and its fastest durable ingest of three.
fn durable_twin(
    name: &str,
    elements: &[StreamElement],
    vertices: usize,
    workload: &Workload,
) -> (TwinRun, std::time::Duration) {
    let builder = |root: &std::path::Path| {
        Session::builder(PartitionerSpec::Loom(
            LoomConfig::new(4, vertices).with_window_size(64),
        ))
        .workload(workload.clone())
        .chunk_size(256)
        .with_durability(root)
    };
    let mut fastest = std::time::Duration::MAX;
    let mut last = None;
    for attempt in 0..3 {
        let root =
            std::env::temp_dir().join(format!("loom-e2e-{name}-{attempt}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut session = builder(&root).build().expect("a durable session");
        let started = std::time::Instant::now();
        session.ingest_batch(elements).expect("ingests");
        fastest = fastest.min(started.elapsed());
        session.checkpoint().expect("checkpoints");
        let sizes = session.snapshot().sizes().to_vec();
        drop(session);
        if let Some(old) = last.replace((root, sizes)) {
            std::fs::remove_dir_all(old.0).expect("removes a root");
        }
    }
    let (root, sizes) = last.expect("three runs");
    let recovered = builder(&root).recover().expect("recovers");
    let request = QueryRequest::workload(100).with_seed(7);
    let sequential = recovered.serving().run(request).metrics;
    let sharded = recovered.sharded(2).serve_request(request).0.aggregate;
    let run = TwinRun {
        sizes,
        recovered_sizes: recovered.partitioning().sizes().to_vec(),
        shape: (
            recovered.store().vertex_count(),
            recovered.store().edge_count(),
        ),
        sequential,
        sharded,
    };
    drop(recovered);
    std::fs::remove_dir_all(&root).expect("removes a root");
    (run, fastest)
}

/// The motif stream renamed by [`sparse`] goes through durable ingest,
/// checkpoint, `Session::recover` and two-worker serving exactly as the
/// dense stream does — same partition sizes, same recovered graph, same
/// sequential and sharded metrics — and its durable ingest, fastest of
/// three, costs less than three times the dense twin's.
#[test]
fn sparse_ids_partition_recover_and_serve_as_their_dense_twin() {
    for seed in [1, 7] {
        // Four times the usual scenario: ≈ 5 400 vertices, 16 000 elements.
        let (graph, workload) = motif_scenario_scaled(seed, 4);
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed });
        let dense = stream.elements();
        let sparse: Vec<StreamElement> = dense.iter().map(renamed).collect();
        let n = graph.vertex_count();
        let (dense_run, dense_time) = durable_twin(&format!("dense{seed}"), dense, n, &workload);
        let (sparse_run, sparse_time) =
            durable_twin(&format!("sparse{seed}"), &sparse, n, &workload);

        println!(
            "seed {seed}: {} elements, durable ingest dense {dense_time:?}, sparse {sparse_time:?}",
            dense.len()
        );
        assert_eq!(dense_run.sizes, dense_run.recovered_sizes, "seed {seed}");
        assert_eq!(dense_run.shape, (n, graph.edge_count()), "seed {seed}");
        assert_eq!(dense_run.sequential, dense_run.sharded, "seed {seed}");
        assert!(dense_run.sequential.matches_found > 0, "seed {seed}");
        assert_eq!(sparse_run, dense_run, "seed {seed}");
        // A hash that lets shared low bits pick the bucket put every sparse
        // id on one probe chain.
        assert!(
            sparse_time < 3 * dense_time,
            "seed {seed}: sparse durable ingest {sparse_time:?} vs dense {dense_time:?}"
        );
    }
}
