//! Workspace-surface smoke test: the umbrella crate's re-exports resolve and
//! a minimal end-to-end pipeline (generate → stream → partition → metric)
//! runs. This is the first thing to break if a crate manifest, a prelude
//! re-export or an inter-crate dependency goes missing.

use loom::prelude::*;

/// Every layer's headline types are reachable through `loom::prelude::*` and
/// through the per-crate re-exports on the umbrella crate.
#[test]
fn prelude_reexports_resolve() {
    // loom_graph
    let _graph: LabelledGraph = LabelledGraph::new();
    let _label: Label = Label::new(0);
    let _order: StreamOrder = StreamOrder::Bfs;
    // loom_motif
    let _miner: MotifMiner = MotifMiner::default();
    let _table: PrimeTable = PrimeTable::new(4);
    // loom_partition (via loom_core's prelude)
    let _hash = HashPartitioner::new(2, 8).unwrap();
    let _config: LoomConfig = LoomConfig::new(2, 8);
    // loom_sim and loom_serve
    let _mode: QueryMode = QueryMode::FullEnumeration;
    let _engine: ServeEngine = ServeEngine::default();

    // The individual crates are also exposed as modules on the umbrella.
    let _ = loom::loom_graph::Label::new(1);
    let _ = loom::loom_motif::PrimeTable::new(2);
    let _ = loom::loom_partition::PartitionId::new(0);
    let _ = loom::loom_core::LoomConfig::new(2, 8);
    let _ = loom::loom_sim::QueryMode::FullEnumeration;
    let _ = loom::loom_serve::ServeEngine::default();
}

/// Generate a small graph, stream it, partition it with LOOM, and check the
/// quality metrics are coherent — one pass over the whole stack.
#[test]
fn trivial_pipeline_runs_end_to_end() {
    // Generate.
    let graph = erdos_renyi(GeneratorConfig::new(200, 3, 17), 4).unwrap();
    assert_eq!(graph.vertex_count(), 200);

    // Mine a tiny workload.
    let query = PatternQuery::path(QueryId::new(0), &[Label::new(0), Label::new(1)]).unwrap();
    let workload = Workload::uniform(vec![query]).unwrap();
    let tpstry = MotifMiner::default().mine(&workload).unwrap();

    // Stream.
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 3 });

    // Partition.
    let config = LoomConfig::new(4, graph.vertex_count()).with_window_size(32);
    let mut partitioner = LoomPartitioner::new(config, &tpstry).unwrap();
    let partitioning = partition_stream(&mut partitioner, &stream).unwrap();
    assert_eq!(partitioning.assigned_count(), graph.vertex_count());

    // Metric.
    let report = partitioning.quality(&graph);
    assert_eq!(report.total_edges, graph.edge_count());
    assert!(report.cut_edges <= report.total_edges);
    assert!((0.0..=1.0).contains(&report.cut_ratio));
    assert!(report.imbalance >= 1.0);
}
