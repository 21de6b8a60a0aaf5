//! The compile-once query-plan acceptance suite.
//!
//! Four contracts are pinned here:
//!
//! * **planner-vs-legacy parity** — executing a compiled plan returns
//!   *identical* match counts and traversal metrics to the pre-redesign
//!   per-call path (a [`QueryPlan::legacy`] compiled on the spot) for every
//!   workload query, seed and mode under [`PlanStrategy::Legacy`], and identical
//!   full-enumeration match counts under the default cost-ranked strategy
//!   (the embedding count of a query is order-invariant);
//! * **compile-once reuse** — one [`QueryPlan`] instance per [`QueryId`]
//!   per workload, observably shared by the router, the sequential run and
//!   the sharded workers (plan-cache hit counters);
//! * **cross-engine parity** — `QueryEngine::run` returns the same metrics
//!   from the sequential run, the sharded engine and adaptive serving for
//!   the same request;
//! * **cursor semantics** — `MatchCursor` with an unbounded limit yields
//!   exactly `matches_found` embeddings (property-tested over random
//!   graphs), and a bounded limit terminates the search early (strictly
//!   fewer traversals than the unlimited run);
//! * **statistics off the store** — `ShardedStore::statistics` equals
//!   `GraphStatistics::from_graph` of the graph the store holds on every
//!   kind of epoch, so `Session::serve` and `Recovered::serving`, which
//!   compile from the store, compile the plans a compile from the graph
//!   gives.

use loom::prelude::*;
use loom_graph::generators::motif_planted::{motif_planted_graph, MotifPlantConfig};
use loom_graph::generators::regular::{cycle_graph, path_graph};
use loom_graph::VertexId;
use loom_sim::matcher;
use proptest::prelude::*;
use std::sync::Arc;

fn l(x: u32) -> Label {
    Label::new(x)
}

/// The paper's Figure-1 workload over its example graph, aligned on a
/// 2-partition split.
fn paper_store() -> (PartitionedStore, Workload) {
    let graph = paper_example_graph();
    let workload = paper_example_workload();
    let mut part = Partitioning::new(2, 8).unwrap();
    for v in 1..=8u64 {
        part.assign(VertexId::new(v), PartitionId::new((v % 2) as u32))
            .unwrap();
    }
    (PartitionedStore::new(graph, part), workload)
}

/// A generated multi-core workload over a planted graph (richer shapes than
/// the paper example: branches, longer paths, skewed frequencies).
fn generated() -> (PartitionedStore, Workload) {
    let workload = WorkloadGenerator {
        query_count: 10,
        label_count: 4,
        core_count: 3,
        core_length: 3,
        max_extension: 2,
        zipf_exponent: 1.0,
        seed: 5,
    }
    .generate()
    .unwrap();
    let graph = barabasi_albert(GeneratorConfig::new(400, 4, 7), 3).unwrap();
    let n = graph.vertex_count();
    let mut part = Partitioning::new(4, n).unwrap();
    for (i, v) in graph.vertices_sorted().into_iter().enumerate() {
        part.assign(v, PartitionId::new((i % 4) as u32)).unwrap();
    }
    (PartitionedStore::new(graph, part), workload)
}

/// Legacy-strategy planned execution is bit-identical to the pre-redesign
/// per-call path, for every workload query, seed and mode.
#[test]
fn legacy_plans_reproduce_the_pre_redesign_path_exactly() {
    for (store, workload) in [paper_store(), generated()] {
        let stats = GraphStatistics::from_graph(store.graph());
        let cache = Arc::new(PlanCache::compile(
            &QueryPlanner::new(PlanStrategy::Legacy),
            &workload,
            &stats,
        ));
        for mode in [
            QueryMode::FullEnumeration,
            QueryMode::Rooted { seed_count: 2 },
        ] {
            let engine = ServeEngine::new(ServeConfig::new(1).with_mode(mode))
                .with_plan_cache(Arc::clone(&cache));
            for (query, _) in workload.iter() {
                for seed in 0..4u64 {
                    // A one-sample request runs at root seed `seed + 1`.
                    let reference = matcher::execute_plan(
                        &store,
                        &QueryPlan::legacy(query),
                        &matcher::ExecOptions {
                            mode,
                            match_limit: engine.config().match_limit,
                            root_seed: seed + 1,
                            ..Default::default()
                        },
                    )
                    .metrics;
                    let request = QueryRequest::query(query.id()).with_seed(seed);
                    let ctx = RequestContext::unbounded();
                    let planned = engine
                        .run_sequential(&store, &workload, request, &ctx)
                        .metrics;
                    assert_eq!(
                        planned,
                        reference,
                        "query {} mode {mode:?} seed {seed}",
                        query.id()
                    );
                }
            }
        }
    }
}

/// Full-enumeration match counts are order-invariant: the default
/// cost-ranked plans find exactly the same embeddings as the legacy path,
/// at an estimated cost never above the legacy order's.
#[test]
fn cost_ranked_plans_preserve_match_counts() {
    for (store, workload) in [paper_store(), generated()] {
        let stats = GraphStatistics::from_graph(store.graph());
        let ranked = QueryPlanner::new(PlanStrategy::CostRanked);
        let legacy = QueryPlanner::new(PlanStrategy::Legacy);
        for (query, _) in workload.iter() {
            let ranked_plan = ranked.plan(query, &stats);
            let legacy_plan = legacy.plan(query, &stats);
            assert!(
                ranked_plan.est_cost() <= legacy_plan.est_cost() + 1e-9,
                "query {}: cost-ranked must never be priced above legacy",
                query.id()
            );
            let opts = loom_sim::matcher::ExecOptions {
                match_limit: usize::MAX,
                ..Default::default()
            };
            let a = matcher::execute_plan(&store, &ranked_plan, &opts);
            let b = matcher::execute_plan(&store, &legacy_plan, &opts);
            assert_eq!(
                a.metrics.matches_found,
                b.metrics.matches_found,
                "query {}: embedding count is order-invariant",
                query.id()
            );
        }
    }
}

/// The acceptance contract: one plan instance per query id per workload,
/// derived once and observably reused by the router, the sequential run
/// and the sharded workers.
#[test]
fn one_plan_per_query_reused_by_router_and_executor() {
    let graph = paper_example_graph();
    let workload = paper_example_workload();
    let spec = PartitionerSpec::Loom(LoomConfig::new(2, graph.vertex_count()).with_window_size(4));
    let mut session = Session::builder(spec)
        .workload(workload.clone())
        .query_mode(QueryMode::Rooted { seed_count: 2 })
        .build()
        .unwrap();
    session
        .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
        .unwrap();
    let serving = session.serve(graph).unwrap();

    let cache = serving.plan_cache().expect("compiled at serve()").clone();
    assert_eq!(cache.len(), workload.len(), "one plan per workload query");
    assert_eq!(cache.hits(), 0, "compilation is not a lookup");

    // The same single instance is handed out on every lookup.
    let id = workload.queries()[0].id();
    let a = cache.get(id).unwrap();
    let b = cache.get(id).unwrap();
    assert!(Arc::ptr_eq(&a, &b));
    let baseline = cache.hits();

    // Sequential run: one resolution per *distinct* sampled query per run —
    // not per sample.
    serving.run(QueryRequest::workload(50).with_seed(1));
    let sequential_lookups = cache.hits() - baseline;
    assert!(sequential_lookups >= 1 && sequential_lookups <= workload.len());

    // Sharded engine: the router *and* the workers share that same one
    // resolution per distinct query — identical hit pattern, zero misses.
    let sharded = serving.sharded(2);
    let before = cache.hits();
    sharded.run(QueryRequest::workload(50).with_seed(1));
    assert_eq!(cache.hits(), before + sequential_lookups);
    assert_eq!(cache.misses(), 0);

    // A single-query request resolves exactly one plan, on either engine.
    let before = cache.hits();
    serving.run(QueryRequest::query(id).with_samples(10));
    sharded.run(QueryRequest::query(id).with_samples(10));
    assert_eq!(cache.hits(), before + 2);
}

/// `QueryEngine::run` parity across all three engines: sequential,
/// sharded, adaptive — identical metrics and cursors for identical
/// requests, every override (mode, match limit, traversal budget,
/// collection) resolved alike.
#[test]
fn query_engine_parity_across_sequential_sharded_and_adaptive() {
    let graph = barabasi_albert(GeneratorConfig::new(300, 4, 13), 3).unwrap();
    let workload = Workload::new(vec![
        (
            PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap(),
            3.0,
        ),
        (
            PatternQuery::branch(QueryId::new(1), l(1), &[l(0), l(2)]).unwrap(),
            1.0,
        ),
    ])
    .unwrap();
    let spec = PartitionerSpec::Loom(LoomConfig::new(4, graph.vertex_count()).with_window_size(64));
    let mut session = Session::builder(spec)
        .workload(workload.clone())
        .query_mode(QueryMode::Rooted { seed_count: 3 })
        .build()
        .unwrap();
    session
        .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
        .unwrap();
    let serving = session.serve(graph).unwrap();
    let sharded = serving.sharded(4);
    let adaptive = serving.adaptive(4, AdaptConfig::default()).unwrap();

    let engines: [(&str, &dyn QueryEngine); 3] = [
        ("sequential", &serving),
        ("sharded", &sharded),
        ("adaptive", &adaptive),
    ];
    for request in [
        QueryRequest::workload(120).with_seed(17),
        QueryRequest::query(QueryId::new(0))
            .with_samples(20)
            .with_seed(3),
        QueryRequest::query(QueryId::new(1))
            .with_samples(10)
            .with_seed(8)
            .with_match_limit(5),
        // A raw zero limit (the builder clamps, the pub field does not) is
        // a no-op probe on every engine alike.
        QueryRequest {
            match_limit: Some(0),
            ..QueryRequest::workload(10).with_seed(2)
        },
        QueryRequest::workload(60)
            .with_seed(5)
            .with_traversal_budget(6),
        QueryRequest::workload(40)
            .with_seed(11)
            .with_mode(QueryMode::FullEnumeration)
            .collect_matches(true),
    ] {
        let (reference, cursor) = serving.run(request).into_parts();
        let cursor: Vec<Embedding> = cursor.collect();
        assert_eq!(
            cursor.len(),
            if request.collect_matches {
                reference.matches_found
            } else {
                0
            }
        );
        for (name, engine) in engines {
            let (metrics, got) = engine.run(request).into_parts();
            assert_eq!(metrics, reference, "{name} diverged on {request:?}");
            assert!(
                got.eq(cursor.iter().cloned()),
                "{name}'s cursor diverged on {request:?}"
            );
        }
    }
    // Every engine shares the session's one compiled cache.
    let cache = serving.plan_cache().unwrap();
    assert!(Arc::ptr_eq(cache, sharded.plan_cache().unwrap()));
    assert!(Arc::ptr_eq(cache, adaptive.plan_cache().unwrap()));
}

/// Cursor contents agree across engines, element for element, regardless of
/// worker counts.
#[test]
fn cursors_are_identical_across_engines() {
    let (store, workload) = paper_store();
    let cache = Arc::new(PlanCache::compile(
        &QueryPlanner::default(),
        &workload,
        &GraphStatistics::from_graph(store.graph()),
    ));
    let sharded_store = Arc::new(ShardedStore::from_parts(
        store.graph(),
        store.partitioning(),
    ));
    let engine = ServeEngine::new(ServeConfig::new(2).with_mode(QueryMode::FullEnumeration))
        .with_plan_cache(Arc::clone(&cache));

    let request = QueryRequest::workload(40)
        .with_seed(2)
        .collect_matches(true);
    let unbounded = RequestContext::unbounded();
    let a: Vec<Embedding> = engine
        .run_sequential(&store, &workload, request, &unbounded)
        .into_cursor()
        .collect();
    let (_, response) = engine.run(&sharded_store, &workload, request, &unbounded);
    let b: Vec<Embedding> = response.into_cursor().collect();
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

/// Match limits terminate the search early: strictly fewer traversals than
/// the unlimited run, and the cursor yields exactly the limit.
#[test]
fn match_limits_cut_traversals_and_bound_the_cursor() {
    // A hub with 60 like-labelled leaves: the 2-vertex query has 60
    // embeddings, so a limit of 5 must stop the scan long before the end.
    let mut graph = LabelledGraph::new();
    let hub = graph.add_vertex(l(0));
    for _ in 0..60 {
        let leaf = graph.add_vertex(l(1));
        graph.add_edge(hub, leaf).unwrap();
    }
    let mut part = Partitioning::new(2, 64).unwrap();
    for (i, v) in graph.vertices_sorted().into_iter().enumerate() {
        part.assign(v, PartitionId::new((i % 2) as u32)).unwrap();
    }
    let workload = Workload::uniform(vec![
        PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap()
    ])
    .unwrap();
    let store = PartitionedStore::new(graph, part);
    let engine = ServeEngine::new(ServeConfig::new(1).with_mode(QueryMode::FullEnumeration));
    let run = |request| {
        let ctx = RequestContext::unbounded();
        engine.run_sequential(&store, &workload, request, &ctx)
    };

    let unlimited = run(QueryRequest::query(QueryId::new(0)).collect_matches(true));
    let limited = run(QueryRequest::query(QueryId::new(0))
        .with_match_limit(5)
        .collect_matches(true));
    assert_eq!(unlimited.metrics.matches_found, 60);
    assert!(!unlimited.metrics.matches_limited);
    assert_eq!(limited.metrics.matches_found, 5);
    assert!(limited.metrics.matches_limited);
    assert!(
        limited.metrics.total_traversals < unlimited.metrics.total_traversals,
        "early termination must cut traversals: {} !< {}",
        limited.metrics.total_traversals,
        unlimited.metrics.total_traversals
    );
    assert_eq!(limited.into_cursor().count(), 5);
    assert_eq!(unlimited.into_cursor().count(), 60);
}

/// Strategy: a random small labelled graph (path backbone plus extra
/// edges) and a 2–3 label path query drawn from the same alphabet.
/// A motif-planted graph — `a-b-c` paths and `a-b-a-b` squares in a random
/// background of eight labels — with a workload over those shapes and one
/// the background holds only by chance.
fn planted() -> (LabelledGraph, Workload) {
    let abc = path_graph(3, &[l(0), l(1), l(2)]);
    let square = cycle_graph(4, &[l(0), l(1), l(0), l(1)]);
    let config = MotifPlantConfig {
        background_vertices: 600,
        background_edges: 1_500,
        instances_per_motif: 60,
        attachment_edges: 1,
        label_count: 8,
        seed: 11,
    };
    let (graph, _) = motif_planted_graph(&config, &[abc, square]).unwrap();
    let workload = Workload::new(vec![
        (
            PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap(),
            4.0,
        ),
        (
            PatternQuery::cycle(QueryId::new(1), &[l(0), l(1), l(0), l(1)]).unwrap(),
            2.0,
        ),
        (
            PatternQuery::branch(QueryId::new(2), l(1), &[l(0), l(2), l(5)]).unwrap(),
            1.0,
        ),
    ])
    .unwrap();
    (graph, workload)
}

fn planted_session(graph: &LabelledGraph, workload: &Workload) -> SessionBuilder {
    let spec = PartitionerSpec::Loom(LoomConfig::new(3, graph.vertex_count()).with_window_size(16));
    Session::builder(spec).workload(workload.clone())
}

/// The planner's statistics read off a store equal those of the graph it
/// holds on every kind of epoch a store reaches: a recovered arena, a fresh
/// freeze, a tombstoned epoch, its compaction and a migrated epoch.
#[test]
fn store_statistics_equal_the_graphs_on_every_epoch() {
    let (graph, workload) = planted();
    let pinned = |what: &str, store: &ShardedStore| {
        let from_graph = GraphStatistics::from_graph(&store.to_graph());
        assert_eq!(store.statistics(), from_graph, "{what}");
    };

    let root = std::env::temp_dir().join(format!("loom-plan-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut session = planted_session(&graph, &workload)
        .with_durability(&root)
        .build()
        .unwrap();
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 3 });
    session.ingest_stream(&stream).unwrap();
    session.checkpoint().unwrap();
    drop(session);
    let recovered = planted_session(&graph, &workload)
        .with_durability(&root)
        .recover()
        .unwrap();
    pinned("recovered", recovered.store());

    let fresh = ShardedStore::from_parts(&graph, recovered.partitioning());
    pinned("fresh", &fresh);

    let vs = graph.vertices_sorted();
    let mut batch = Vec::new();
    for (i, &v) in vs.iter().enumerate() {
        match i % 11 {
            0 => batch.push(StreamElement::RemoveVertex { id: v }),
            3 => batch.push(StreamElement::Relabel { id: v, label: l(9) }),
            5 => {
                if let Some(&u) = graph.neighbors(v).first() {
                    batch.push(StreamElement::RemoveEdge {
                        source: v,
                        target: u,
                    });
                }
            }
            _ => {}
        }
    }
    let mutated = fresh.apply_mutations(&batch);
    assert!(mutated.removed_vertices > 0 && mutated.removed_edges > 0 && mutated.relabelled > 0);
    let tombstoned = mutated.store;
    pinned("tombstoned", &tombstoned);
    let compacted = tombstoned.compact(0.0);
    assert!(compacted.purged_vertices > 0);
    pinned("compacted", &compacted.store);

    let moves: Vec<_> = vs
        .iter()
        .step_by(5)
        .filter_map(|&v| {
            let home = tombstoned.home_shard(v)?;
            Some((v, PartitionId::new((home.index() as u32 + 1) % 3)))
        })
        .collect();
    let migrated = tombstoned.apply_migration(&moves);
    assert!(migrated.moved > 0);
    pinned("migrated", &migrated.store);
    drop(recovered);
    std::fs::remove_dir_all(&root).unwrap();
}

/// `Session::serve` compiles its plans from the frozen store: the same
/// plans, query by query, as a compile from the graph it froze.
#[test]
fn serve_compiles_from_the_store_the_plans_the_graph_compiles() {
    let (graph, workload) = planted();
    let mut session = planted_session(&graph, &workload).build().unwrap();
    session
        .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
        .unwrap();
    let serving = session.serve(graph.clone()).unwrap();
    let served = serving.plan_cache().expect("a workload compiles plans");
    let planner = QueryPlanner::new(PlanStrategy::default());
    let from_graph = PlanCache::compile(&planner, &workload, &GraphStatistics::from_graph(&graph));
    assert_eq!(served.len(), from_graph.len());
    for query in workload.queries() {
        let (a, b) = (served.get(query.id()), from_graph.get(query.id()));
        let (a, b) = (a.expect("served plan"), b.expect("graph plan"));
        assert_eq!(a.id(), b.id(), "plan of {:?}", query.id());
        assert_eq!(a.est_cost().to_bits(), b.est_cost().to_bits());
    }
}

fn graph_and_query_strategy() -> impl Strategy<Value = (LabelledGraph, PatternQuery)> {
    (
        proptest::collection::vec(0u32..3, 4..12),
        proptest::collection::vec((0usize..12, 0usize..12), 0..6),
        proptest::collection::vec(0u32..3, 2..4),
    )
        .prop_map(|(labels, extra_edges, query_labels)| {
            let mut g = LabelledGraph::new();
            let vertices: Vec<VertexId> = labels.iter().map(|&x| g.add_vertex(l(x))).collect();
            for w in vertices.windows(2) {
                let _ = g.add_edge_idempotent(w[0], w[1]);
            }
            for (a, b) in extra_edges {
                if a < vertices.len() && b < vertices.len() && a != b {
                    let _ = g.add_edge_idempotent(vertices[a], vertices[b]);
                }
            }
            let query_labels: Vec<Label> = query_labels.into_iter().map(l).collect();
            let query = PatternQuery::path(QueryId::new(0), &query_labels).unwrap();
            (g, query)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `MatchCursor` with an unbounded limit yields exactly `matches_found`
    /// embeddings — every enumerated match is materialised, none invented.
    #[test]
    fn cursor_with_unbounded_limit_yields_exactly_match_count(
        (graph, query) in graph_and_query_strategy(),
        split in 2u32..4,
    ) {
        let n = graph.vertex_count();
        let mut part = Partitioning::new(split, n).unwrap();
        for (i, v) in graph.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new(i as u32 % split)).unwrap();
        }
        let workload = Workload::uniform(vec![query]).unwrap();
        let engine = ServeEngine::new(ServeConfig::new(1).with_mode(QueryMode::FullEnumeration));
        let response = engine.run_sequential(
            &PartitionedStore::new(graph, part),
            &workload,
            QueryRequest::query(QueryId::new(0))
                .with_match_limit(usize::MAX)
                .collect_matches(true),
            &RequestContext::unbounded(),
        );
        let found = response.metrics.matches_found;
        prop_assert!(!response.metrics.matches_limited);
        let embeddings: Vec<Embedding> = response.into_cursor().collect();
        prop_assert_eq!(embeddings.len(), found);
        // Embeddings are pairwise distinct assignments.
        for (i, a) in embeddings.iter().enumerate() {
            for b in &embeddings[i + 1..] {
                prop_assert_ne!(a, b);
            }
        }
    }
}
