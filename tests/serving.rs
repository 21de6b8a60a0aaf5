//! Concurrency test suite for the `loom-serve` engine.
//!
//! Two properties matter:
//!
//! * **parity** — sharded parallel execution returns exactly the same
//!   aggregate match counts and traversal metrics as the same engine's
//!   sequential run on identical seeds (the engine parallelises the work,
//!   it must not change the answers);
//! * **ingest-while-serve** — queries keep executing correctly while the
//!   streaming partitioner publishes new epochs concurrently: no panics, no
//!   torn reads, every query pinned to exactly one published epoch.

use loom::prelude::*;
use loom_graph::generators::{barabasi_albert, GeneratorConfig};
use loom_partition::hash::HashConfig;
use loom_partition::ldg::LdgConfig;
use loom_partition::spec::LoomConfig;
use std::sync::Arc;

fn l(x: u32) -> Label {
    Label::new(x)
}

fn social_graph(vertices: usize, seed: u64) -> LabelledGraph {
    barabasi_albert(
        GeneratorConfig {
            vertices,
            label_count: 4,
            seed,
        },
        3,
    )
    .expect("valid BA parameters")
}

fn motif_workload() -> Workload {
    let q_path = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
    let q_cycle = PatternQuery::cycle(QueryId::new(1), &[l(0), l(1), l(0), l(1)]).unwrap();
    let q_edge = PatternQuery::path(QueryId::new(2), &[l(0), l(1)]).unwrap();
    Workload::new(vec![(q_path, 4.0), (q_cycle, 2.0), (q_edge, 1.0)]).unwrap()
}

/// Stream a graph through a partitioner and return (graph, partitioning).
fn partitioned(graph: &LabelledGraph, spec: PartitionerSpec, workload: &Workload) -> Partitioning {
    let mut session = Session::builder(spec)
        .workload(workload.clone())
        .build()
        .unwrap();
    let stream = GraphStream::from_graph(graph, &StreamOrder::Bfs);
    session.ingest_stream(&stream).unwrap();
    session.into_partitioning().unwrap()
}

/// `samples` workload queries from `seed`, closed-loop and unbounded, against
/// a pinned snapshot (`&Arc<ShardedStore>`) or an epoch store.
fn serve<'a>(
    engine: &ServeEngine,
    source: impl Into<Source<'a>>,
    workload: &Workload,
    samples: usize,
    seed: u64,
) -> ServeReport {
    let request = QueryRequest::workload(samples).with_seed(seed);
    engine
        .run(source, workload, request, &RequestContext::unbounded())
        .0
}

#[test]
fn sharded_execution_matches_sequential_metrics_exactly() {
    let graph = social_graph(600, 11);
    let workload = motif_workload();
    let specs = vec![
        PartitionerSpec::Hash(HashConfig::new(8, graph.vertex_count())),
        PartitionerSpec::Loom(LoomConfig::new(8, graph.vertex_count()).with_window_size(64)),
    ];
    for spec in specs {
        let partitioning = partitioned(&graph, spec, &workload);
        let mode = QueryMode::Rooted { seed_count: 3 };
        let sequential_store = PartitionedStore::new(graph.clone(), partitioning.clone());
        let engine = ServeEngine::new(ServeConfig::new(1).with_mode(mode));
        let request = QueryRequest::workload(120).with_seed(42);
        let expected = engine
            .run_sequential(
                &sequential_store,
                &workload,
                request,
                &RequestContext::unbounded(),
            )
            .metrics;

        let sharded = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
        for workers in [1usize, 2, 4, 8] {
            let engine = engine.clone().with_workers(workers);
            let report = serve(&engine, &sharded, &workload, 120, 42);
            assert_eq!(
                report.aggregate, expected,
                "workers={workers}: sharded aggregate diverged from sequential"
            );
            assert_eq!(report.shards.iter().map(|s| s.queries).sum::<usize>(), 120);
        }
    }
}

#[test]
fn parity_holds_under_full_enumeration_too() {
    let graph = social_graph(200, 3);
    let workload = motif_workload();
    let partitioning = partitioned(
        &graph,
        PartitionerSpec::Ldg(LdgConfig::new(4, graph.vertex_count())),
        &workload,
    );
    let sequential_store = PartitionedStore::new(graph.clone(), partitioning.clone());
    let engine = ServeEngine::new(ServeConfig::new(4).with_mode(QueryMode::FullEnumeration));
    let request = QueryRequest::workload(30).with_seed(7);
    let expected = engine
        .run_sequential(
            &sequential_store,
            &workload,
            request,
            &RequestContext::unbounded(),
        )
        .metrics;

    let sharded = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
    let report = serve(&engine, &sharded, &workload, 30, 7);
    assert_eq!(report.aggregate, expected);
}

#[test]
fn session_facade_drives_the_sharded_engine() {
    let graph = social_graph(300, 9);
    let workload = motif_workload();
    let spec = PartitionerSpec::Loom(LoomConfig::new(4, graph.vertex_count()).with_window_size(64));
    let mut session = Session::builder(spec)
        .workload(workload.clone())
        .query_mode(QueryMode::Rooted { seed_count: 2 })
        .build()
        .unwrap();
    session
        .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
        .unwrap();
    let serving = session.serve(graph.clone()).unwrap();
    let request = QueryRequest::workload(80).with_seed(21);
    let sequential = serving.run(request).metrics;

    let sharded = serving.sharded(4);
    let (report, response) = sharded.serve_request(request);
    assert_eq!(report.aggregate, sequential);
    assert_eq!(response.metrics, sequential);
    // Both handles expose the same compiled plan cache instance.
    let a = serving.plan_cache().expect("plans compiled");
    let b = sharded.plan_cache().expect("plans shared");
    assert!(Arc::ptr_eq(a, b));
    // One store behind every engine of the handle: the sequential path and
    // every sharded engine run on the arena frozen once.
    assert!(Arc::ptr_eq(serving.store(), sharded.store()));
    assert!(Arc::ptr_eq(serving.store(), serving.sharded(2).store()));

    // The façade answers as the hash-map reference store does under the same
    // plans and mode: metrics and embeddings, query for query.
    let reference = PartitionedStore::new(graph, serving.partitioning().clone());
    let engine =
        ServeEngine::new(ServeConfig::new(1).with_mode(QueryMode::Rooted { seed_count: 2 }))
            .with_plan_cache(Arc::clone(a));
    let ctx = RequestContext::unbounded();
    assert_eq!(
        engine
            .run_sequential(&reference, &workload, request, &ctx)
            .metrics,
        sequential
    );
    let collect = request.collect_matches(true);
    let expected = engine.run_sequential(&reference, &workload, collect, &ctx);
    let (expected_metrics, expected_matches) = (expected.metrics, expected.into_cursor());
    let served = serving.run(collect);
    assert_eq!(served.metrics, expected_metrics);
    assert_ne!(expected_matches.len(), 0, "the rooted mix finds matches");
    assert!(served.into_cursor().eq(expected_matches));
}

#[test]
fn queries_survive_epoch_swaps_without_torn_reads() {
    // Ingest-while-serve: a partitioner keeps consuming the stream and
    // publishing epochs while the engine serves queries. Every query must
    // pin exactly one epoch (snapshot consistency) and the run must cover
    // several distinct epochs.
    let graph = social_graph(500, 17);
    let workload = motif_workload();
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);

    let spec = PartitionerSpec::Ldg(LdgConfig::new(4, graph.vertex_count()));
    let registry = loom_partition::spec::PartitionerRegistry::baselines();
    let mut partitioner = registry.build(&spec).unwrap();

    // Seed epoch 1 from a small stream prefix.
    let elements = stream.elements();
    let prefix = elements.len() / 10;
    let mut grown = GraphStream::from_elements(elements[..prefix].to_vec()).materialise();
    partitioner.ingest_batch(&elements[..prefix]).unwrap();
    let epochs = EpochStore::new(ShardedStore::from_parts(&grown, &partitioner.snapshot()));

    let engine = ServeEngine::new(
        ServeConfig::new(4)
            .with_mode(QueryMode::Rooted { seed_count: 2 })
            .with_queue_capacity(8),
    );

    let report = std::thread::scope(|scope| {
        let epochs_ref = &epochs;
        let ingest = scope.spawn(move || {
            for chunk in elements[prefix..].chunks(200) {
                partitioner.ingest_batch(chunk).unwrap();
                for element in chunk {
                    match *element {
                        StreamElement::AddVertex { id, label } => {
                            grown.insert_vertex(id, label);
                        }
                        StreamElement::AddEdge { source, target } => {
                            grown.add_edge_idempotent(source, target).unwrap();
                        }
                        // `from_graph` streams are insert-only.
                        _ => unreachable!("graph streams carry no mutations"),
                    }
                }
                epochs_ref.publish(ShardedStore::from_parts(&grown, &partitioner.snapshot()));
            }
        });
        let report = serve(&engine, &epochs, &workload, 400, 23);
        ingest.join().expect("ingest thread panicked");
        report
    });

    assert_eq!(report.aggregate.queries_executed, 400);
    assert!(!report.epochs_observed.is_empty());
    // Every pinned epoch was a published one.
    let last = epochs.current_epoch();
    assert!(report.epochs_observed.iter().all(|&e| e >= 1 && e <= last));
    assert!(report.aggregate.total_traversals > 0);
    // Serving continued after the swaps: the final epoch serves correctly too.
    let final_report = serve(&engine, &epochs.load(), &workload, 50, 31);
    assert_eq!(final_report.aggregate.queries_executed, 50);
}

#[test]
fn epoch_pinned_results_are_reproducible_after_the_run() {
    // Determinism across the swap: re-executing the same (query, seed) pairs
    // against the *final* epoch sequentially gives the same answer the
    // engine produces for that snapshot — i.e. concurrent serving did not
    // corrupt the snapshot.
    let graph = social_graph(300, 29);
    let workload = motif_workload();
    let partitioning = partitioned(
        &graph,
        PartitionerSpec::Hash(HashConfig::new(4, graph.vertex_count())),
        &workload,
    );
    let epochs = EpochStore::new(ShardedStore::from_parts(&graph, &partitioning));
    let engine =
        ServeEngine::new(ServeConfig::new(4).with_mode(QueryMode::Rooted { seed_count: 2 }));
    let a = serve(&engine, &epochs, &workload, 100, 37);
    let b = serve(&engine, &epochs, &workload, 100, 37);
    assert_eq!(a.aggregate, b.aggregate);
    assert_eq!(a.epochs_observed, vec![1]);
}
