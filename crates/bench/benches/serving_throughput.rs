//! Serving-engine throughput: shard-count sweep, Hash vs LOOM, and the
//! message-passing transport's overhead against a direct-call baseline.
//!
//! The paper's claim — a workload-aware partitioning lets an online store
//! serve pattern queries faster — measured as throughput: the same rooted
//! query load is served on 1/2/4/8 worker shards over both a Hash and a LOOM
//! partitioning of the same stream, and the aggregate QPS (queries ÷ the
//! modelled makespan of the busiest shard, with the `loom-sim` latency model
//! charging every remote hop) is recorded per cell.
//!
//! Since the serving engine moved to message-passing shard workers behind
//! `ShardTransport`, the bench also records the transport's cost at 4 shards
//! against the direct-call sequential executor on the same partitioning:
//! the modelled-QPS regression (which parity pins at zero — both paths
//! execute identical metrics) and the wall-clock cost of the two paths.
//!
//! Besides the Criterion-style wall-clock timings, the bench emits
//! `BENCH_serving.json` at the workspace root: a machine-readable
//! `shards × partitioner → {qps, p99}` table plus the transport-overhead
//! records, so the perf trajectory of the serving layer has data points
//! across PRs. Setting `LOOM_BENCH_FAST=1` (the CI smoke mode) shrinks the
//! graph and sample counts and writes to `target/bench-fast/` instead.
//!
//! Every serve run routes through a **shared pre-compiled plan cache** (one
//! plan per workload query, compiled once in setup), so the numbers reflect
//! the amortized compile-once path the engine runs in production — not
//! per-query order derivation.
//!
//! The QPS recorded here is **modelled** (deterministic latency-model cost
//! of the executed work) — the *measured* wall-clock capacity of the same
//! stack, driven open-loop to its saturation knee, lives in
//! `BENCH_capacity.json`, emitted by the `capacity` bench.
//!
//! Since `loom-obs` landed, every engine here runs **with telemetry
//! attached** — the numbers include the instrumented hot path. In full mode
//! the sweep asserts the modelled QPS of every cell stays within 2% of the
//! pre-instrumentation reference recorded by the previous two PRs, so
//! telemetry cannot silently tax the serving layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use loom_bench::{fast_mode, scenarios};
use loom_core::workload_registry;
use loom_graph::ordering::StreamOrder;
use loom_graph::GraphStream;
use loom_motif::mining::MotifMiner;
use loom_motif::workload::Workload;
use loom_obs::Telemetry;
use loom_partition::hash::HashConfig;
use loom_partition::spec::{LoomConfig, PartitionerSpec};
use loom_partition::traits::partition_stream;
use loom_serve::engine::{ServeConfig, ServeEngine};
use loom_serve::metrics::ServeReport;
use loom_serve::shard::ShardedStore;
use loom_sim::context::RequestContext;
use loom_sim::engine::QueryRequest;
use loom_sim::executor::{QueryExecutor, QueryMode};
use loom_sim::plan::{GraphStatistics, PlanCache, QueryPlanner};
use loom_sim::store::PartitionedStore;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const PARTITIONS: u32 = 8;
const SEED: u64 = 42;
/// The shard count the transport-overhead record is taken at.
const OVERHEAD_SHARDS: usize = 4;

/// Modelled aggregate QPS per `(partitioner, shards)` cell as recorded by
/// the last two pre-instrumentation runs of this bench (full mode, same
/// graph, seed, and plan cache). The modelled numbers are deterministic, so
/// instrumentation may not move them by more than the 2% budget the issue
/// allots to telemetry.
const REFERENCE_QPS: [(&str, usize, f64); 8] = [
    ("hash", 1, 24.04),
    ("hash", 2, 46.87),
    ("hash", 4, 85.28),
    ("hash", 8, 123.69),
    ("loom", 1, 32.24),
    ("loom", 2, 61.76),
    ("loom", 4, 104.02),
    ("loom", 8, 193.22),
];

/// Maximum relative modelled-QPS drift any cell may show against
/// [`REFERENCE_QPS`] with telemetry attached.
const QPS_DRIFT_BUDGET: f64 = 0.02;

/// Assert a full-mode cell's modelled QPS sits within the drift budget of
/// the pre-instrumentation reference. Fast mode serves a different graph,
/// so the reference does not apply there.
fn assert_reference_qps(partitioner: &str, shards: usize, qps: f64) {
    if fast_mode() {
        return;
    }
    let (_, _, reference) = REFERENCE_QPS
        .iter()
        .find(|(name, n, _)| *name == partitioner && *n == shards)
        .expect("every swept cell has a reference");
    let drift = (qps / reference - 1.0).abs();
    assert!(
        drift <= QPS_DRIFT_BUDGET,
        "{partitioner}/{shards}: modelled {qps:.2} qps drifts {:.2}% from the \
         pre-instrumentation reference {reference:.2} (budget {:.0}%)",
        drift * 100.0,
        QPS_DRIFT_BUDGET * 100.0,
    );
}

fn sizes() -> (usize, usize) {
    if fast_mode() {
        (600, 80)
    } else {
        (3_000, 400)
    }
}

fn mode() -> QueryMode {
    QueryMode::Rooted { seed_count: 3 }
}

/// One partitioning under test: the frozen sharded snapshot for the serving
/// engine plus the equivalent `PartitionedStore` for the direct-call
/// sequential baseline.
struct StoreUnderTest {
    name: &'static str,
    sharded: Arc<ShardedStore>,
    direct: PartitionedStore,
}

/// Build the two stores under test: the same graph stream partitioned by
/// Hash and by LOOM, plus the workload's plans compiled once.
fn setup() -> (Workload, Arc<PlanCache>, Vec<StoreUnderTest>) {
    let (vertices, _) = sizes();
    let graph = scenarios::social_graph(vertices, 7);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 1 });
    let workload = scenarios::motif_workload();
    let plans = Arc::new(PlanCache::compile(
        &QueryPlanner::default(),
        &workload,
        &GraphStatistics::from_graph(&graph),
    ));
    let tpstry = MotifMiner::default()
        .mine(&workload)
        .expect("mining succeeds");
    let registry = workload_registry(&tpstry);
    let n = graph.vertex_count();
    let specs = [
        (
            "hash",
            PartitionerSpec::Hash(HashConfig::new(PARTITIONS, n)),
        ),
        (
            "loom",
            PartitionerSpec::Loom(
                LoomConfig::new(PARTITIONS, n)
                    .with_window_size(128)
                    .with_motif_threshold(0.3),
            ),
        ),
    ];
    let stores = specs
        .into_iter()
        .map(|(name, spec)| {
            let mut partitioner = registry.build(&spec).expect("buildable spec");
            let partitioning =
                partition_stream(partitioner.as_mut(), &stream).expect("stream partitions");
            StoreUnderTest {
                name,
                sharded: Arc::new(ShardedStore::from_parts(&graph, &partitioning)),
                direct: PartitionedStore::new(graph.clone(), partitioning),
            }
        })
        .collect();
    (workload, plans, stores)
}

fn serve(
    store: &Arc<ShardedStore>,
    workload: &Workload,
    plans: &Arc<PlanCache>,
    telemetry: &Arc<Telemetry>,
    shards: usize,
    samples: usize,
) -> ServeReport {
    let request = QueryRequest::workload(samples).with_seed(SEED);
    let engine = ServeEngine::new(ServeConfig::new(shards).with_mode(mode()))
        .with_plan_cache(Arc::clone(plans))
        .with_telemetry(Arc::clone(telemetry));
    engine
        .run(store, workload, request, &RequestContext::unbounded())
        .0
}

/// One JSON result cell.
fn cell(partitioner: &str, shards: usize, report: &ServeReport) -> String {
    format!(
        concat!(
            "    {{\"partitioner\": \"{}\", \"shards\": {}, \"qps\": {:.2}, ",
            "\"p99_us\": {:.2}, \"p50_us\": {:.2}, \"wall_clock_qps\": {:.2}, ",
            "\"remote_hop_fraction\": {:.4}, \"makespan_us\": {:.2}}}"
        ),
        partitioner,
        shards,
        report.aggregate_qps(),
        report.p99_latency_us,
        report.p50_latency_us,
        report.wall_clock_qps(),
        report.remote_hop_fraction(),
        report.makespan_us,
    )
}

/// Measure the transport engine at [`OVERHEAD_SHARDS`] against the
/// direct-call sequential executor on the same partitioning and request
/// schedule, and return the JSON record.
///
/// The modelled-QPS comparison uses the serial modelled latency on both
/// sides (total latency-model cost of the executed work), so it isolates
/// what the message-passing refactor could have changed: the *answers*. The
/// two paths share the matcher and the schedule, so parity pins the
/// regression at zero; the record exists so any future divergence shows up
/// in the JSON trail. Wall-clock times capture the physical cost of the
/// transport hop.
fn transport_overhead(
    store: &StoreUnderTest,
    workload: &Workload,
    plans: &Arc<PlanCache>,
    telemetry: &Arc<Telemetry>,
    samples: usize,
) -> String {
    let executor = QueryExecutor::default()
        .with_mode(mode())
        .with_plan_cache(Arc::clone(plans));
    let direct_started = Instant::now();
    let direct = executor.execute_workload(&store.direct, workload, samples, SEED);
    let direct_wall_ms = direct_started.elapsed().as_secs_f64() * 1e3;

    let transport_started = Instant::now();
    let report = serve(
        &store.sharded,
        workload,
        plans,
        telemetry,
        OVERHEAD_SHARDS,
        samples,
    );
    let transport_wall_ms = transport_started.elapsed().as_secs_f64() * 1e3;

    let serial_qps = |latency_us: f64| {
        if latency_us > 0.0 {
            samples as f64 / (latency_us / 1e6)
        } else {
            0.0
        }
    };
    let direct_qps = serial_qps(direct.estimated_latency_us);
    let transport_qps = serial_qps(report.aggregate.estimated_latency_us);
    let regression = if direct_qps > 0.0 {
        1.0 - transport_qps / direct_qps
    } else {
        0.0
    };
    assert_eq!(
        report.aggregate, direct,
        "{}: transport aggregate diverged from the direct-call baseline",
        store.name
    );
    assert!(
        regression.abs() <= 0.05,
        "{}: modelled-QPS regression {regression:.4} exceeds the 5% budget",
        store.name
    );
    println!(
        "serving_throughput transport-overhead {}/{OVERHEAD_SHARDS}: modelled regression \
         {:.2}%, direct {direct_wall_ms:.1} ms vs transport {transport_wall_ms:.1} ms wall",
        store.name,
        regression * 100.0,
    );
    format!(
        concat!(
            "    {{\"partitioner\": \"{}\", \"shards\": {}, ",
            "\"direct_modelled_qps\": {:.2}, \"transport_modelled_qps\": {:.2}, ",
            "\"modelled_qps_regression\": {:.4}, \"direct_wall_ms\": {:.2}, ",
            "\"transport_wall_ms\": {:.2}}}"
        ),
        store.name,
        OVERHEAD_SHARDS,
        direct_qps,
        transport_qps,
        regression,
        direct_wall_ms,
        transport_wall_ms,
    )
}

/// Sweep the grid once, print the table, persist `BENCH_serving.json`.
fn sweep_and_persist(
    workload: &Workload,
    plans: &Arc<PlanCache>,
    stores: &[StoreUnderTest],
    telemetry: &Arc<Telemetry>,
    samples: usize,
) {
    let mut cells = Vec::new();
    let mut overhead = Vec::new();
    for store in stores {
        let mut baseline = 0.0f64;
        for &shards in &SHARD_COUNTS {
            let report = serve(&store.sharded, workload, plans, telemetry, shards, samples);
            if shards == 1 {
                baseline = report.aggregate_qps();
            }
            assert_reference_qps(store.name, shards, report.aggregate_qps());
            println!(
                "serving_throughput {}/{shards}: {:.0} qps (x{:.2} vs 1 shard), \
                 p99 {:.0} us, remote hops {:.1}%",
                store.name,
                report.aggregate_qps(),
                report.aggregate_qps() / baseline.max(f64::MIN_POSITIVE),
                report.p99_latency_us,
                report.remote_hop_fraction() * 100.0,
            );
            cells.push(cell(store.name, shards, &report));
        }
        overhead.push(transport_overhead(
            store, workload, plans, telemetry, samples,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"serving_throughput\",\n  \"samples\": {samples},\n  \
         \"seed\": {SEED},\n  \"partitions\": {PARTITIONS},\n  \"mode\": \
         \"rooted(seed_count=3)\",\n  \"plan_cache\": true,\n  \"instrumented\": true,\n  \
         \"fast\": {},\n  \
         \"results\": [\n{}\n  ],\n  \"transport_overhead\": [\n{}\n  ]\n}}\n",
        fast_mode(),
        cells.join(",\n"),
        overhead.join(",\n")
    );
    loom_bench::persist("BENCH_serving.json", &json);
}

fn bench_serving(c: &mut Criterion) {
    let (workload, plans, stores) = setup();
    let (_, samples) = sizes();
    let telemetry = Telemetry::new();
    sweep_and_persist(&workload, &plans, &stores, &telemetry, samples);

    let mut group = c.benchmark_group("serving_throughput");
    group.sample_size(3);
    for store in &stores {
        for &shards in &SHARD_COUNTS {
            group.bench_with_input(
                BenchmarkId::new(store.name, shards),
                &shards,
                |b, &shards| {
                    b.iter(|| {
                        black_box(serve(
                            &store.sharded,
                            &workload,
                            &plans,
                            &telemetry,
                            shards,
                            samples,
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
