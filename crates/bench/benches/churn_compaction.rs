//! Deletion churn: serving cost before, during, and after a dissolve phase.
//!
//! The [`DeletionChurnScenario`] grows a motif-rich graph and then tears a
//! fraction of the planted instances back down. Two strategies answer the
//! resulting mutation stream:
//!
//! * **adaptive** — the tombstone/compaction stack: deletes mark slots in
//!   the published store (queries skip them, no rebuild), and an epoch
//!   compaction rewrites only the shards whose tombstone fraction crossed
//!   the threshold;
//! * **static** — the rebuild-to-delete baseline: the stale pre-dissolve
//!   store keeps serving (wrong answers during the churn) until a full
//!   from-scratch repartition + store rebuild lands the deletes.
//!
//! Besides Criterion-style timings, the bench emits `BENCH_churn.json` at
//! the workspace root: per `(strategy, phase)` cell the QPS, p50/p99 and
//! match count, plus the one-off compaction vs rebuild costs. Setting
//! `LOOM_BENCH_FAST=1` (the CI smoke mode) shrinks the scenario and writes
//! to `target/bench-fast/` instead.

use criterion::{criterion_group, criterion_main, Criterion};
use loom_bench::fast_mode;
use loom_core::workload_registry;
use loom_graph::{GraphStream, LabelledGraph};
use loom_motif::mining::MotifMiner;
use loom_motif::workload::Workload;
use loom_partition::partition::Partitioning;
use loom_partition::spec::{LoomConfig, PartitionerSpec};
use loom_partition::traits::partition_stream;
use loom_serve::engine::{ServeConfig, ServeEngine};
use loom_serve::metrics::ServeReport;
use loom_serve::shard::ShardedStore;
use loom_sim::churn::DeletionChurnScenario;
use loom_sim::context::RequestContext;
use loom_sim::engine::QueryRequest;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const K: u32 = 4;
const SEED: u64 = 42;
/// Compaction threshold: rewrite a shard once 5% of its slots are dead.
const THRESHOLD: f64 = 0.05;

fn samples() -> usize {
    if fast_mode() {
        150
    } else {
        400
    }
}

fn scenario() -> DeletionChurnScenario {
    let (background_vertices, instances) = if fast_mode() { (300, 30) } else { (1_500, 150) };
    DeletionChurnScenario {
        background_vertices,
        instances,
        dissolve_fraction: 0.5,
        relabel_fraction: 0.1,
        seed: 17,
    }
}

fn mine(graph: &LabelledGraph, stream: &GraphStream, workload: &Workload) -> Partitioning {
    let tpstry = MotifMiner::default()
        .mine(workload)
        .expect("mining succeeds");
    let registry = workload_registry(&tpstry);
    let spec = PartitionerSpec::Loom(
        LoomConfig::new(K, graph.vertex_count())
            .with_window_size(128)
            .with_motif_threshold(0.3),
    );
    let mut partitioner = registry.build(&spec).expect("buildable spec");
    partition_stream(partitioner.as_mut(), stream).expect("stream partitions")
}

fn measure(store: &Arc<ShardedStore>, workload: &Workload) -> ServeReport {
    let request = QueryRequest::workload(samples()).with_seed(SEED);
    let engine = ServeEngine::new(ServeConfig::new(K as usize));
    engine
        .run(store, workload, request, &RequestContext::unbounded())
        .0
}

struct Setup {
    workload: Workload,
    /// Fully grown store — both arms' "before" phase.
    before: Arc<ShardedStore>,
    /// Adaptive "during": deletes landed as tombstones, no rebuild.
    tombstoned: Arc<ShardedStore>,
    /// Adaptive "after": over-threshold shards rewritten.
    compacted: Arc<ShardedStore>,
    /// Static "after": full repartition + rebuild of the dissolved graph.
    rebuilt: Arc<ShardedStore>,
    purged_vertices: usize,
    compacted_shards: usize,
    compaction_ms: f64,
    rebuild_ms: f64,
    dissolved_instances: usize,
    relabelled_instances: usize,
}

fn setup() -> Setup {
    let scenario = scenario();
    let run = scenario.build().expect("scenario builds");
    let workload = DeletionChurnScenario::workload();
    let partitioning = mine(&run.graph, &run.build_stream, &workload);
    let before = ShardedStore::from_parts(&run.graph, &partitioning);

    // Adaptive arm: tombstone the dissolve stream, then compact.
    let tombstoned = before.apply_mutations(&run.dissolve).store;
    let started = Instant::now();
    let compacted = tombstoned.compact(THRESHOLD);
    let compaction_ms = started.elapsed().as_secs_f64() * 1e3;

    // Static arm: repartition and rebuild from scratch to land the deletes.
    let started = Instant::now();
    let tpstry = MotifMiner::default()
        .mine(&workload)
        .expect("mining succeeds");
    let registry = workload_registry(&tpstry);
    let spec = PartitionerSpec::Loom(
        LoomConfig::new(K, run.graph.vertex_count())
            .with_window_size(128)
            .with_motif_threshold(0.3),
    );
    let mut partitioner = registry.build(&spec).expect("buildable spec");
    partitioner
        .ingest_batch(run.build_stream.elements())
        .expect("build phase ingests");
    partitioner
        .ingest_batch(&run.dissolve)
        .expect("dissolve phase ingests");
    let rebuilt_partitioning = partitioner.finish().expect("finishes");
    let rebuilt = ShardedStore::from_parts(&run.final_graph, &rebuilt_partitioning);
    let rebuild_ms = started.elapsed().as_secs_f64() * 1e3;

    Setup {
        workload,
        before: Arc::new(before),
        tombstoned: Arc::new(tombstoned),
        compacted: Arc::new(compacted.store),
        rebuilt: Arc::new(rebuilt),
        purged_vertices: compacted.purged_vertices,
        compacted_shards: compacted.compacted_shards.len(),
        compaction_ms,
        rebuild_ms,
        dissolved_instances: run.dissolved_instances,
        relabelled_instances: run.relabelled_instances,
    }
}

fn cell(strategy: &str, phase: &str, report: &ServeReport) -> String {
    format!(
        concat!(
            "    {{\"strategy\": \"{}\", \"phase\": \"{}\", ",
            "\"qps\": {:.2}, \"p99_us\": {:.2}, \"p50_us\": {:.2}, ",
            "\"matches\": {}}}"
        ),
        strategy,
        phase,
        report.aggregate_qps(),
        report.p99_latency_us,
        report.p50_latency_us,
        report.aggregate.matches_found,
    )
}

/// Serve every `(strategy, phase)` cell, print the table, persist the JSON.
fn sweep_and_persist(setup: &Setup) {
    let arms: [(&str, &str, &Arc<ShardedStore>); 6] = [
        ("adaptive", "before", &setup.before),
        ("adaptive", "during", &setup.tombstoned),
        ("adaptive", "after", &setup.compacted),
        ("static", "before", &setup.before),
        // Static serving cannot apply deletes without a rebuild: during the
        // churn it keeps answering from the stale store.
        ("static", "during", &setup.before),
        ("static", "after", &setup.rebuilt),
    ];
    let mut cells = Vec::new();
    for (strategy, phase, store) in arms {
        let report = measure(store, &setup.workload);
        println!(
            "churn_compaction {strategy}/{phase}: {:.0} qps, p99 {:.0} us, {} matches",
            report.aggregate_qps(),
            report.p99_latency_us,
            report.aggregate.matches_found,
        );
        cells.push(cell(strategy, phase, &report));
    }
    let json = format!(
        "{{\n  \"bench\": \"churn_compaction\",\n  \"samples\": {},\n  \
         \"seed\": {SEED},\n  \"partitions\": {K},\n  \
         \"dissolved_instances\": {},\n  \"relabelled_instances\": {},\n  \
         \"compaction_threshold\": {THRESHOLD},\n  \
         \"compacted_shards\": {},\n  \"purged_vertices\": {},\n  \
         \"compaction_ms\": {:.3},\n  \"rebuild_ms\": {:.3},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        samples(),
        setup.dissolved_instances,
        setup.relabelled_instances,
        setup.compacted_shards,
        setup.purged_vertices,
        setup.compaction_ms,
        setup.rebuild_ms,
        cells.join(",\n")
    );
    loom_bench::persist("BENCH_churn.json", &json);
}

fn bench_churn(c: &mut Criterion) {
    let setup = setup();
    sweep_and_persist(&setup);

    // The tombstoned and compacted stores answer identically to the
    // from-scratch rebuild — the bench is meaningless otherwise.
    let tomb = measure(&setup.tombstoned, &setup.workload);
    let compacted = measure(&setup.compacted, &setup.workload);
    let rebuilt = measure(&setup.rebuilt, &setup.workload);
    assert_eq!(
        tomb.aggregate.matches_found,
        rebuilt.aggregate.matches_found
    );
    assert_eq!(
        compacted.aggregate.matches_found,
        rebuilt.aggregate.matches_found
    );

    let mut group = c.benchmark_group("churn_compaction");
    group.sample_size(3);
    for (name, store) in [
        ("serve_tombstoned", &setup.tombstoned),
        ("serve_compacted", &setup.compacted),
        ("serve_rebuilt", &setup.rebuilt),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(measure(store, &setup.workload)))
        });
    }
    // The maintenance operation itself: compaction rewrites only the dirty
    // shards, the static alternative repartitions the world (timed once in
    // setup, reported in the JSON).
    group.bench_function("compaction_pass", |b| {
        b.iter(|| black_box(setup.tombstoned.compact(THRESHOLD)))
    });
    group.finish();
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
