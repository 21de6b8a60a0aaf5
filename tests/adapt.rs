//! End-to-end workload-drift adaptation: the ISSUE 4 acceptance tests.
//!
//! A graph carries two disjoint planted motif families ([`DriftScenario`]).
//! The partitioning is mined and built for phase A (`abc` hot); the live
//! traffic then flips to phase B (`def` hot). The tests prove:
//!
//! * **parity** — the incrementally migrated store answers queries exactly
//!   like a from-scratch rebuild at the same placement;
//! * **recovery** — adaptive serving claws the remote-hop fraction back to
//!   near a freshly phase-B-mined partitioning, while the static placement
//!   stays degraded.

use loom::prelude::*;
use loom::session::Session;
use std::sync::Arc;

const K: u32 = 4;
const SAMPLES: usize = 400;
const MEASURE_SEED: u64 = 99;

fn scenario() -> DriftScenario {
    DriftScenario::small(17)
}

fn serve_config() -> ServeConfig {
    ServeConfig::new(K as usize).with_mode(QueryMode::Rooted { seed_count: 3 })
}

fn adapt_config(vertices: usize) -> AdaptConfig {
    AdaptConfig {
        migration: MigrationConfig::new(vertices / 8),
        max_rounds: 6,
    }
}

/// Mine `workload` and stream-partition the graph with LOOM.
fn mine(graph: &LabelledGraph, stream: &GraphStream, workload: &Workload) -> Partitioning {
    let spec = PartitionerSpec::Loom(
        LoomConfig::new(K, graph.vertex_count())
            .with_window_size(128)
            .with_motif_threshold(0.3),
    );
    let mut session = Session::builder(spec)
        .workload(workload.clone())
        .build()
        .expect("LOOM session builds");
    session.ingest_stream(stream).expect("stream ingests");
    session.into_partitioning().expect("partitioning finishes")
}

/// Serve one measurement batch against a fixed placement.
fn measure(graph: &LabelledGraph, partitioning: &Partitioning, workload: &Workload) -> ServeReport {
    let store = Arc::new(ShardedStore::from_parts(graph, partitioning));
    ServeEngine::new(serve_config())
        .run(
            &store,
            workload,
            QueryRequest::workload(SAMPLES).with_seed(MEASURE_SEED),
            &RequestContext::unbounded(),
        )
        .0
}

/// Drive adaptive serving through the phase change and return it after it
/// has adapted (plus how many serve batches it took).
fn adapt_through_phase_change(
    graph: &LabelledGraph,
    phase_a_partitioning: Partitioning,
    phase_a: &Workload,
    phase_b: &Workload,
) -> (AdaptiveServing, usize) {
    let mut adaptive = AdaptiveServing::new(
        graph.clone(),
        phase_a_partitioning,
        phase_a.clone(),
        serve_config(),
        adapt_config(graph.vertex_count()),
    );
    // A couple of in-distribution batches first: no adaptation may fire.
    for seed in 0..2 {
        let (_, outcome) = adaptive.serve(phase_a, 100, seed).expect("serves");
        assert!(outcome.is_none(), "phase-A traffic must not trigger drift");
    }
    // Phase change: keep serving until the tracker flags drift and adapts.
    let mut batches = 0;
    for seed in 10..20 {
        batches += 1;
        let (_, outcome) = adaptive.serve(phase_b, 200, seed).expect("serves");
        if outcome.is_some() {
            return (adaptive, batches);
        }
    }
    panic!("drift was never flagged across {batches} phase-B batches");
}

#[test]
fn migrated_store_matches_a_from_scratch_rebuild() {
    let scenario = scenario();
    let (graph, _) = scenario.build_graph().expect("scenario builds");
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 1 });
    let partitioning = mine(&graph, &stream, &scenario.phase_a());
    let (adaptive, _) = adapt_through_phase_change(
        &graph,
        partitioning,
        &scenario.phase_a(),
        &scenario.phase_b(),
    );
    assert!(adaptive.total_moved() > 0, "adaptation must move vertices");
    assert!(
        adaptive.current_epoch() > 1,
        "adaptation must publish epochs"
    );

    // (a) Parity: the incrementally migrated snapshot answers the same load
    // identically to ShardedStore::from_parts at the same placement.
    let migrated = adaptive.epochs().load();
    let rebuilt = Arc::new(ShardedStore::from_parts(&graph, adaptive.partitioning()));
    let engine = ServeEngine::new(serve_config());
    for (samples, seed) in [(200usize, 3u64), (SAMPLES, MEASURE_SEED)] {
        let a = engine
            .run(
                &migrated,
                &scenario.phase_b(),
                QueryRequest::workload(samples).with_seed(seed),
                &RequestContext::unbounded(),
            )
            .0;
        let b = engine
            .run(
                &rebuilt,
                &scenario.phase_b(),
                QueryRequest::workload(samples).with_seed(seed),
                &RequestContext::unbounded(),
            )
            .0;
        assert_eq!(a.aggregate, b.aggregate, "aggregate metrics diverge");
        assert_eq!(a.query_counts, b.query_counts);
        let a_shards: Vec<usize> = a.shards.iter().map(|s| s.queries).collect();
        let b_shards: Vec<usize> = b.shards.iter().map(|s| s.queries).collect();
        assert_eq!(a_shards, b_shards, "per-shard routing diverges");
    }
}

#[test]
fn adaptive_serving_recovers_after_the_phase_change_while_static_degrades() {
    let scenario = scenario();
    let (graph, _) = scenario.build_graph().expect("scenario builds");
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 1 });
    let phase_a = scenario.phase_a();
    let phase_b = scenario.phase_b();

    let static_partitioning = mine(&graph, &stream, &phase_a);
    let fresh_partitioning = mine(&graph, &stream, &phase_b);

    // Phase-B load on the stale phase-A placement vs a fresh phase-B mine.
    let static_report = measure(&graph, &static_partitioning, &phase_b);
    let fresh_report = measure(&graph, &fresh_partitioning, &phase_b);
    let static_rhf = static_report.remote_hop_fraction();
    let fresh_rhf = fresh_report.remote_hop_fraction();
    let gap = static_rhf - fresh_rhf;
    assert!(
        gap > 0.02,
        "scenario must open a real gap: static {static_rhf:.4} vs fresh {fresh_rhf:.4}"
    );

    let (adaptive, batches) =
        adapt_through_phase_change(&graph, static_partitioning.clone(), &phase_a, &phase_b);
    let adaptive_report = measure(&graph, adaptive.partitioning(), &phase_b);
    let adaptive_rhf = adaptive_report.remote_hop_fraction();

    println!(
        "remote-hop fraction: static {static_rhf:.4}, fresh {fresh_rhf:.4}, \
         adaptive {adaptive_rhf:.4} (gap {gap:.4}, recovered {:.0}%, \
         {} moved over {} epochs, flagged after {batches} phase-B batches)",
        (static_rhf - adaptive_rhf) / gap * 100.0,
        adaptive.total_moved(),
        adaptive.current_epoch() - 1,
    );

    // (b) Recovery: within 20% of the freshly-mined placement's remote-hop
    // fraction (measured as recovering at least 80% of the drift-opened
    // gap), while the static placement by definition recovers none of it.
    assert!(
        adaptive_rhf <= fresh_rhf + 0.2 * gap,
        "adaptive {adaptive_rhf:.4} did not recover to within 20% of fresh \
         {fresh_rhf:.4} (static {static_rhf:.4})"
    );
    // And adaptation must not have wrecked balance on the way.
    assert!(
        adaptive.partitioning().imbalance() < 1.6,
        "imbalance {:.3}",
        adaptive.partitioning().imbalance()
    );
}

#[test]
fn static_partitioning_stays_degraded_without_adaptation() {
    // The control arm: serving phase B on the phase-A placement repeatedly
    // (no adaptation) leaves the remote-hop fraction where it started.
    let scenario = scenario();
    let (graph, _) = scenario.build_graph().expect("scenario builds");
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 1 });
    let phase_b = scenario.phase_b();
    let partitioning = mine(&graph, &stream, &scenario.phase_a());
    let first = measure(&graph, &partitioning, &phase_b);
    let again = measure(&graph, &partitioning, &phase_b);
    assert_eq!(
        first.aggregate, again.aggregate,
        "static serving is deterministic and never improves"
    );
}
