//! The matcher against an independent oracle, and its root edge cases.
//!
//! Every parity test elsewhere compares the matcher with *itself* — one
//! kernel run over two stores. Here the embedding count of an unlimited
//! full enumeration is held against `loom_motif::isomorphism::count_matches`,
//! a separate VF2 implementation that shares no code with
//! `loom_sim::matcher`, on seeded random labelled graphs × path / cycle /
//! star patterns:
//!
//! * for the hash-map [`PartitionedStore`] (identity handles) and the CSR
//!   [`ShardedStore`] (position handles), under both plan strategies;
//! * again on the `ShardedStore` after a seeded `apply_mutations` batch
//!   (tombstones, not a rebuild) against the oracle on the mutated graph,
//!   and once more after compaction.
//!
//! The second part pins what an explicit root the store cannot resolve
//! does: an unknown id or a tombstoned vertex anchors nothing — zero
//! traversals, identical metrics from both stores.
//!
//! The third is the proof-by-test that metering a neighbour from its arc's
//! tag moved no count: over an alphabet whose labels collide in the tag's
//! seven bits, with a tombstoned and two relabelled vertices among the
//! roots, every `ExecutionMetrics` field of the tagged arena equals the
//! hash-map store's under match limits and under **every** traversal
//! budget, so each adjacency slice is cut once at each of its neighbours.

use loom::prelude::*;
use loom_graph::{StreamElement, VertexId};
use loom_motif::isomorphism::count_matches;
use loom_sim::matcher::{execute_plan, execute_plan_with_roots, ExecOptions, PatternStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The labels the first two parts draw graphs and patterns from.
const LABELS: [u32; 3] = [0, 1, 2];

fn l(x: u32) -> Label {
    Label::new(x)
}

/// A seeded random labelled graph: `n` vertices labelled from `alphabet`,
/// each unordered pair an edge with probability `density`.
fn random_graph(rng: &mut StdRng, n: usize, density: f64, alphabet: &[u32]) -> LabelledGraph {
    let mut g = LabelledGraph::new();
    let vs: Vec<VertexId> = (0..n)
        .map(|_| g.add_vertex(l(alphabet[rng.random_range(0..alphabet.len())])))
        .collect();
    for i in 0..n {
        for j in i + 1..n {
            if rng.random_range(0.0..1.0) < density {
                g.add_edge(vs[i], vs[j]).unwrap();
            }
        }
    }
    g
}

/// A seeded placement over `k` partitions that leaves about one vertex in
/// eight unassigned (remote to everyone — the count must not care).
fn random_partitioning(rng: &mut StdRng, graph: &LabelledGraph, k: u32) -> Partitioning {
    let mut part = Partitioning::new(k, graph.vertex_count().max(1)).unwrap();
    for v in graph.vertices_sorted() {
        if rng.random_range(0..8u32) != 0 {
            part.assign(v, PartitionId::new(rng.random_range(0..k)))
                .unwrap();
        }
    }
    part
}

/// Paths of 2–4 vertices, cycles of 3–4, stars with 2–3 leaves, over every
/// one of three labels.
fn patterns_over(labels: [u32; 3]) -> Vec<PatternQuery> {
    let mut shapes: Vec<PatternQuery> = Vec::new();
    let mut id = 0u32;
    let mut next = || {
        id += 1;
        QueryId::new(id)
    };
    let [x, y, z] = labels.map(l);
    for (i, &a) in labels.iter().enumerate() {
        let (a, after_a) = (l(a), l(labels[(i + 1) % 3]));
        for b in labels.map(l) {
            shapes.push(PatternQuery::path(next(), &[a, b]).unwrap());
            shapes.push(PatternQuery::path(next(), &[a, b, a]).unwrap());
            shapes.push(PatternQuery::cycle(next(), &[a, b, after_a]).unwrap());
            shapes.push(PatternQuery::branch(next(), a, &[b, b]).unwrap());
        }
    }
    shapes.push(PatternQuery::path(next(), &[x, y, z, x]).unwrap());
    shapes.push(PatternQuery::cycle(next(), &[x, y, x, y]).unwrap());
    shapes.push(PatternQuery::cycle(next(), &[x, y, z, y]).unwrap());
    shapes.push(PatternQuery::branch(next(), y, &[x, y, z]).unwrap());
    shapes
}

fn patterns() -> Vec<PatternQuery> {
    patterns_over(LABELS)
}

fn unlimited() -> ExecOptions {
    ExecOptions {
        match_limit: usize::MAX,
        ..ExecOptions::default()
    }
}

/// Assert that every pattern's unlimited full enumeration over `store`
/// finds exactly the oracle's embedding count on `graph`, under both plan
/// strategies.
fn assert_counts_match_the_oracle<S: PatternStore>(store: &S, graph: &LabelledGraph, what: &str) {
    let stats = GraphStatistics::from_graph(graph);
    let ranked = QueryPlanner::new(PlanStrategy::CostRanked);
    for query in patterns() {
        let expected = count_matches(query.graph(), graph);
        for plan in [QueryPlan::legacy(&query), ranked.plan(&query, &stats)] {
            let run = execute_plan(store, &plan, &unlimited());
            assert!(!run.metrics.matches_limited);
            assert_eq!(
                run.metrics.matches_found,
                expected,
                "{what}: query {} ({:?} plan) disagrees with the oracle",
                query.id(),
                plan.strategy()
            );
        }
    }
}

/// A seeded destructive batch over `graph`'s vertices, applied to the graph
/// itself (the oracle's view) and returned for the store to tombstone.
fn mutate(rng: &mut StdRng, graph: &mut LabelledGraph) -> Vec<StreamElement> {
    let vs = graph.vertices_sorted();
    let mut batch = Vec::new();
    for _ in 0..rng.random_range(2..8usize) {
        let a = vs[rng.random_range(0..vs.len())];
        let b = vs[rng.random_range(0..vs.len())];
        let element = match rng.random_range(0..3u32) {
            0 => StreamElement::RemoveVertex { id: a },
            1 => StreamElement::RemoveEdge {
                source: a,
                target: b,
            },
            _ => StreamElement::Relabel {
                id: a,
                label: l(LABELS[rng.random_range(0..LABELS.len())]),
            },
        };
        // Elements naming already-removed vertices stay in the batch: both
        // sides must ignore them.
        match element {
            StreamElement::RemoveVertex { id } => {
                graph.remove_vertex(id);
            }
            StreamElement::RemoveEdge { source, target } => {
                graph.remove_edge(source, target);
            }
            StreamElement::Relabel { id, label } => {
                let _ = graph.set_label(id, label);
            }
            _ => unreachable!("only destructive elements are generated"),
        }
        batch.push(element);
    }
    batch
}

#[test]
fn match_counts_agree_with_the_isomorphism_oracle() {
    let mut total = 0usize;
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x0A11_CE00 + seed);
        let n = rng.random_range(4..13usize);
        let density = [0.2, 0.35, 0.6][seed as usize % 3];
        let mut graph = random_graph(&mut rng, n, density, &LABELS);
        let part = random_partitioning(&mut rng, &graph, 3);

        let sequential = PartitionedStore::new(graph.clone(), part.clone());
        assert_counts_match_the_oracle(&sequential, &graph, &format!("seed {seed} sequential"));
        let sharded = ShardedStore::from_parts(&graph, &part);
        sharded.check_arena().unwrap();
        assert_counts_match_the_oracle(&sharded, &graph, &format!("seed {seed} sharded"));

        let batch = mutate(&mut rng, &mut graph);
        let tombstoned = sharded.apply_mutations(&batch).store;
        tombstoned.check_arena().unwrap();
        assert_counts_match_the_oracle(&tombstoned, &graph, &format!("seed {seed} tombstoned"));
        let compacted = tombstoned.compact(0.0).store;
        compacted.check_arena().unwrap();
        assert_eq!(compacted.tombstoned_vertices(), 0);
        assert_counts_match_the_oracle(&compacted, &graph, &format!("seed {seed} compacted"));

        total += patterns()
            .iter()
            .map(|q| count_matches(q.graph(), &graph))
            .sum::<usize>();
    }
    // The seeds are not all-empty answers: the agreement above is about
    // real embeddings.
    assert!(total > 100, "only {total} embeddings across all seeds");
}

#[test]
fn unresolvable_roots_cost_nothing_on_either_store() {
    // a - b - c - a path with the middle b tombstoned on the sharded side
    // and physically removed on the sequential side.
    let graph = loom_graph::generators::regular::path_graph(4, &[l(0), l(1), l(2), l(0)]);
    let vs = graph.vertices_sorted();
    let mut part = Partitioning::new(2, 4).unwrap();
    for (i, &v) in vs.iter().enumerate() {
        part.assign(v, PartitionId::new((i % 2) as u32)).unwrap();
    }
    let dead = vs[1];
    let sharded = ShardedStore::from_parts(&graph, &part)
        .apply_mutations(&[StreamElement::RemoveVertex { id: dead }])
        .store;
    sharded.check_arena().unwrap();
    let mut survivor_graph = graph.clone();
    survivor_graph.remove_vertex(dead);
    let mut survivor_part = part.clone();
    survivor_part.unassign(dead);
    let sequential = PartitionedStore::new(survivor_graph, survivor_part);

    let ctx = RequestContext::unbounded();
    let ghost = VertexId::new(10_000);
    let queries = [
        PatternQuery::path(QueryId::new(0), &[l(1), l(2)]).unwrap(),
        PatternQuery::path(QueryId::new(1), &[l(0), l(1), l(2)]).unwrap(),
        PatternQuery::path(QueryId::new(2), &[l(1)]).unwrap(),
    ];
    for query in &queries {
        let plan = QueryPlan::legacy(query);
        for roots in [&[ghost][..], &[dead][..], &[ghost, dead][..], &[][..]] {
            let a = execute_plan_with_roots(&sequential, &plan, &unlimited(), &ctx, roots);
            let b = execute_plan_with_roots(&sharded, &plan, &unlimited(), &ctx, roots);
            assert_eq!(a.metrics, b.metrics, "query {} roots {roots:?}", query.id());
            assert_eq!(a.metrics.total_traversals, 0);
            assert_eq!(a.metrics.matches_found, 0);
            assert_eq!(a.metrics.queries_executed, 1);
            assert_eq!(a.metrics.local_only_queries, 1);
            assert!(!a.metrics.matches_limited);
        }
        // A live root next to the unresolvable ones still runs, identically.
        let live = [ghost, vs[2], dead];
        let a = execute_plan_with_roots(&sequential, &plan, &unlimited(), &ctx, &live);
        let b = execute_plan_with_roots(&sharded, &plan, &unlimited(), &ctx, &live);
        assert_eq!(a.metrics, b.metrics, "query {} mixed roots", query.id());
    }
}

#[test]
fn tagged_metering_moves_no_count_under_limits_budgets_and_colliding_labels() {
    // 3, 131 and 259 share their low seven bits, and so do 1 and 129: an
    // arc's tag cannot tell them apart, the exact label check must.
    const ALPHABET: [u32; 5] = [3, 131, 259, 1, 129];
    let shapes = patterns_over([3, 131, 1]);
    let ranked = QueryPlanner::new(PlanStrategy::CostRanked);
    let (mut swept, mut mutated) = (0usize, 0usize);
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x7A66_ED00 + seed);
        let n = rng.random_range(8..16usize);
        let density = [0.3, 0.45, 0.6][seed as usize % 3];
        let mut graph = random_graph(&mut rng, n, density, &ALPHABET);
        let mut part = random_partitioning(&mut rng, &graph, 3);
        let frozen = ShardedStore::from_parts(&graph, &part);

        // One root leaves the index of label 3 and two join it: a 131 whose
        // tag bits stay as they are, and a 1 whose tag bits change.
        let first = |graph: &LabelledGraph, label: u32| {
            let mut vs = graph.vertices_sorted().into_iter();
            vs.find(|&v| graph.label(v) == Some(l(label)))
        };
        let mut batch = Vec::new();
        if let Some(id) = first(&graph, 3) {
            batch.push(StreamElement::RemoveVertex { id });
            graph.remove_vertex(id);
            part.unassign(id);
        }
        for from in [131, 1] {
            if let Some(id) = first(&graph, from) {
                batch.push(StreamElement::Relabel { id, label: l(3) });
                graph.set_label(id, l(3)).unwrap();
            }
        }
        mutated += batch.len();
        let sharded = frozen.apply_mutations(&batch).store;
        sharded.check_arena().unwrap();
        // The tags also survive being carried: through a migration that
        // sends every other survivor somewhere, and through compaction.
        let survivors = graph.vertices_sorted().into_iter().step_by(2);
        let moves: Vec<_> = survivors
            .map(|v| (v, PartitionId::new(rng.random_range(0..3))))
            .collect();
        sharded.apply_migration(&moves).store.check_arena().unwrap();
        sharded.compact(0.0).store.check_arena().unwrap();
        let sequential = PartitionedStore::new(graph.clone(), part);
        let stats = GraphStatistics::from_graph(&graph);

        for query in &shapes {
            let expected = count_matches(query.graph(), &graph);
            for plan in [QueryPlan::legacy(query), ranked.plan(query, &stats)] {
                for mode in [
                    QueryMode::FullEnumeration,
                    QueryMode::Rooted { seed_count: 2 },
                ] {
                    let both = |match_limit: usize, traversal_budget: Option<usize>| {
                        let opts = ExecOptions {
                            mode,
                            match_limit,
                            traversal_budget,
                            root_seed: seed,
                            ..ExecOptions::default()
                        };
                        let arena = execute_plan(&sharded, &plan, &opts).metrics;
                        let hashed = execute_plan(&sequential, &plan, &opts).metrics;
                        assert_eq!(
                            arena,
                            hashed,
                            "seed {seed} query {} {mode:?} limit {match_limit} budget {traversal_budget:?}",
                            query.id()
                        );
                        arena
                    };
                    let full = both(usize::MAX, None);
                    assert!(!full.matches_limited);
                    if mode == QueryMode::FullEnumeration {
                        assert_eq!(full.matches_found, expected, "the oracle disagrees");
                    }
                    for limit in [1, 2, 7] {
                        let cut = both(limit, None);
                        assert_eq!(cut.matches_found, limit.min(full.matches_found));
                    }
                    for budget in 0..=full.total_traversals {
                        // The search stops on the very neighbour that spends
                        // the budget, on-label or not.
                        assert_eq!(both(usize::MAX, Some(budget)).total_traversals, budget);
                    }
                    swept += full.total_traversals;
                }
            }
        }
    }
    assert!(
        mutated >= 24,
        "only {mutated} roots were removed or relabelled"
    );
    assert!(swept > 20_000, "only {swept} budgets swept");
}
