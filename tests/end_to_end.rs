//! End-to-end integration tests across the whole LOOM stack: generate a
//! graph and a workload, mine the workload, partition the stream with every
//! partitioner, execute the workload in the simulator, and check that the
//! headline claims of the paper hold in direction.

use loom::loom_core::workload_registry;
use loom::loom_sim::runner::{ExperimentConfig, ExperimentRunner, PartitionerKind};
use loom::prelude::*;
use loom_graph::generators::motif_planted::MotifPlantConfig;

fn l(x: u32) -> Label {
    Label::new(x)
}

/// A motif-heavy transaction-style graph plus the workload that traverses the
/// planted motifs.
fn motif_scenario(seed: u64) -> (LabelledGraph, Workload) {
    let abc = path_graph(3, &[l(0), l(1), l(2)]);
    let square = cycle_graph(4, &[l(0), l(1), l(0), l(1)]);
    let (graph, _) = motif_planted_graph(
        &MotifPlantConfig {
            background_vertices: 800,
            background_edges: 2_000,
            instances_per_motif: 80,
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

#[test]
fn every_partitioner_assigns_every_vertex() {
    let (graph, workload) = motif_scenario(1);
    let runner = ExperimentRunner::new(ExperimentConfig {
        query_samples: 20,
        window_size: 128,
        ..ExperimentConfig::new(4)
    });
    let registry = workload_registry(&runner.mine_workload(&workload).unwrap());
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 2 });
    for kind in [
        PartitionerKind::Hash,
        PartitionerKind::Ldg,
        PartitionerKind::Fennel,
        PartitionerKind::Loom,
        PartitionerKind::Offline,
    ] {
        let partitioning = runner
            .partition(kind, &graph, &stream, &registry)
            .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
        assert_eq!(
            partitioning.assigned_count(),
            graph.vertex_count(),
            "{} left vertices unassigned",
            kind.name()
        );
        for v in graph.vertices_sorted() {
            let p = partitioning.partition_of(v).expect("assigned");
            assert!(p.0 < 4, "partition id out of range for {}", kind.name());
        }
    }
}

#[test]
fn loom_improves_workload_locality_over_workload_agnostic_baselines() {
    let (graph, workload) = motif_scenario(7);
    // 400 sampled queries: at 80 the local-only fraction is dominated by
    // sampling noise (a single lucky query flips the comparison).
    let runner = ExperimentRunner::new(ExperimentConfig {
        query_samples: 400,
        window_size: 128,
        motif_threshold: 0.3,
        ..ExperimentConfig::new(8)
    });
    let results = runner
        .run_many(
            &[
                PartitionerKind::Hash,
                PartitionerKind::Ldg,
                PartitionerKind::Loom,
            ],
            &graph,
            &StreamOrder::Random { seed: 5 },
            &workload,
        )
        .unwrap();
    let by_name = |name: &str| results.iter().find(|r| r.partitioner == name).unwrap();
    let hash = by_name("hash");
    let ldg = by_name("ldg");
    let loom = by_name("loom");

    // Headline direction: the workload-aware partitioner answers more of the
    // workload locally than the agnostic streaming baseline, and hash is the
    // worst of the three.
    assert!(
        loom.local_only_fraction >= ldg.local_only_fraction,
        "LOOM local-only {:.3} < LDG {:.3}",
        loom.local_only_fraction,
        ldg.local_only_fraction
    );
    assert!(
        loom.ipt_probability <= hash.ipt_probability,
        "LOOM ipt {:.3} should not exceed hash {:.3}",
        loom.ipt_probability,
        hash.ipt_probability
    );
    assert!(
        ldg.cut_ratio < hash.cut_ratio,
        "LDG should cut fewer edges than hash"
    );
    // Balance must stay within the configured slack for the streaming
    // partitioners.
    for r in [ldg, loom] {
        assert!(
            r.imbalance <= 1.35,
            "{} imbalance {}",
            r.partitioner,
            r.imbalance
        );
    }
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
