//! Telemetry overhead: the same serve load with and without `loom-obs`.
//!
//! The observability issue allots telemetry a hard budget — attaching the
//! metric registry, spans, and flight recorder may cost the serving layer at
//! most 2% per query at 4 shards. This bench measures that budget directly:
//! the same rooted query load is served over the same LOOM-partitioned
//! store by a plain engine and by an engine with [`Telemetry`] attached,
//! interleaved so thermal drift hits both sides equally.
//!
//! Two numbers come out of the pairing:
//!
//! - the **modelled** overhead — both paths execute identical work under the
//!   `loom-sim` latency model, so parity pins this at zero; the bench
//!   asserts it stays within the 2% budget (in practice: bit-identical);
//! - the **wall-clock** per-query overhead — the physical cost of the extra
//!   atomics and clock reads, recorded (not asserted: wall time on shared CI
//!   hardware is too noisy for a 2% gate) alongside micro-benchmarks of the
//!   primitives themselves: one `Histogram::record`, one armed
//!   [`SpanTimer`], one disarmed (`None`) span.
//!
//! Results land in `BENCH_obs.json` at the workspace root. `LOOM_BENCH_FAST=1`
//! shrinks the graph and sample counts for the CI smoke run and writes to
//! `target/bench-fast/` instead.

use criterion::{criterion_group, criterion_main, Criterion};
use loom_bench::{fast_mode, scenarios};
use loom_core::workload_registry;
use loom_graph::ordering::StreamOrder;
use loom_graph::GraphStream;
use loom_motif::mining::MotifMiner;
use loom_motif::workload::Workload;
use loom_obs::{validate_prometheus, Histogram, SpanTimer, Telemetry};
use loom_partition::spec::{LoomConfig, PartitionerSpec};
use loom_partition::traits::partition_stream;
use loom_serve::engine::{ServeConfig, ServeEngine};
use loom_serve::metrics::ServeReport;
use loom_serve::shard::ShardedStore;
use loom_sim::context::RequestContext;
use loom_sim::engine::QueryRequest;
use loom_sim::executor::QueryMode;
use loom_sim::plan::{GraphStatistics, PlanCache, QueryPlanner};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The acceptance point: overhead is measured at 4 worker shards.
const SHARDS: usize = 4;
const PARTITIONS: u32 = 8;
const SEED: u64 = 42;
/// Maximum modelled per-query overhead telemetry may introduce.
const OVERHEAD_BUDGET: f64 = 0.02;

fn sizes() -> (usize, usize) {
    if fast_mode() {
        (600, 80)
    } else {
        (3_000, 400)
    }
}

/// Paired serve repetitions per side; the median damps scheduler noise.
fn repeats() -> usize {
    if fast_mode() {
        3
    } else {
        11
    }
}

fn micro_iters() -> u64 {
    if fast_mode() {
        200_000
    } else {
        1_000_000
    }
}

fn mode() -> QueryMode {
    QueryMode::Rooted { seed_count: 3 }
}

/// Build the LOOM-partitioned store and compile the workload's plans once.
fn setup() -> (Workload, Arc<PlanCache>, Arc<ShardedStore>) {
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
    let spec = PartitionerSpec::Loom(
        LoomConfig::new(PARTITIONS, graph.vertex_count())
            .with_window_size(128)
            .with_motif_threshold(0.3),
    );
    let mut partitioner = registry.build(&spec).expect("buildable spec");
    let partitioning = partition_stream(partitioner.as_mut(), &stream).expect("stream partitions");
    let sharded = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
    (workload, plans, sharded)
}

/// One serve run; `telemetry: None` is the uninstrumented baseline.
fn serve(
    store: &Arc<ShardedStore>,
    workload: &Workload,
    plans: &Arc<PlanCache>,
    telemetry: Option<&Arc<Telemetry>>,
    samples: usize,
) -> ServeReport {
    let mut engine = ServeEngine::new(ServeConfig::new(SHARDS).with_mode(mode()))
        .with_plan_cache(Arc::clone(plans));
    if let Some(telemetry) = telemetry {
        engine = engine.with_telemetry(Arc::clone(telemetry));
    }
    let request = QueryRequest::workload(samples).with_seed(SEED);
    engine
        .run(store, workload, request, &RequestContext::unbounded())
        .0
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Average nanoseconds of one call to `f` over `iters` iterations.
fn micro_ns<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// Measure the plain/observed pair, assert the modelled budget, and return
/// the `BENCH_obs.json` body.
fn measure_and_persist(
    workload: &Workload,
    plans: &Arc<PlanCache>,
    store: &Arc<ShardedStore>,
    telemetry: &Arc<Telemetry>,
    samples: usize,
) {
    let mut plain_wall = Vec::new();
    let mut observed_wall = Vec::new();
    let mut plain_report = None;
    let mut observed_report = None;
    for _ in 0..repeats() {
        let started = Instant::now();
        plain_report = Some(serve(store, workload, plans, None, samples));
        plain_wall.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        observed_report = Some(serve(store, workload, plans, Some(telemetry), samples));
        observed_wall.push(started.elapsed().as_secs_f64());
    }
    let plain = plain_report.expect("at least one repeat");
    let observed = observed_report.expect("at least one repeat");

    // Parity first: the observed engine must execute *identical* work. The
    // latency model makes the aggregates deterministic, so any drift here is
    // telemetry leaking into the serving path, not noise.
    assert_eq!(
        observed.aggregate, plain.aggregate,
        "telemetry changed the executed work"
    );
    let modelled_overhead = 1.0 - observed.aggregate_qps() / plain.aggregate_qps();
    assert!(
        modelled_overhead.abs() <= OVERHEAD_BUDGET,
        "modelled per-query overhead {:.4} exceeds the {:.0}% budget",
        modelled_overhead,
        OVERHEAD_BUDGET * 100.0,
    );

    let per_query_us = |wall: f64| wall * 1e6 / samples as f64;
    let plain_us = per_query_us(median(&mut plain_wall));
    let observed_us = per_query_us(median(&mut observed_wall));
    let wall_overhead = observed_us / plain_us - 1.0;

    let hist = Histogram::new();
    let record_ns = micro_ns(micro_iters(), || hist.record(black_box(1_234)));
    let armed = telemetry.stage_histogram(loom_obs::stage::SERVE_EXECUTE);
    let span_some_ns = micro_ns(micro_iters(), || {
        drop(SpanTimer::start(Some(black_box(&armed))));
    });
    let span_none_ns = micro_ns(micro_iters(), || {
        drop(SpanTimer::start(black_box(None::<&Histogram>)));
    });

    let prometheus = telemetry.snapshot().prometheus();
    let series = validate_prometheus(&prometheus).expect("observed run exports valid Prometheus");

    println!(
        "obs_overhead loom/{SHARDS}: modelled {:.2}% (budget {:.0}%), wall {plain_us:.1} -> \
         {observed_us:.1} us/query ({:+.2}%), record {record_ns:.0} ns, span armed \
         {span_some_ns:.0} ns / disarmed {span_none_ns:.1} ns, {} prom series",
        modelled_overhead * 100.0,
        OVERHEAD_BUDGET * 100.0,
        wall_overhead * 100.0,
        series.len(),
    );
    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"samples\": {samples},\n  \"seed\": {SEED},\n  \
         \"shards\": {SHARDS},\n  \"partitions\": {PARTITIONS},\n  \"repeats\": {},\n  \
         \"fast\": {},\n  \"modelled\": {{\"plain_qps\": {:.2}, \"observed_qps\": {:.2}, \
         \"overhead_frac\": {:.6}, \"budget_frac\": {OVERHEAD_BUDGET}}},\n  \
         \"wall\": {{\"plain_per_query_us\": {plain_us:.2}, \"observed_per_query_us\": \
         {observed_us:.2}, \"overhead_frac\": {wall_overhead:.4}}},\n  \
         \"micro_ns\": {{\"histogram_record\": {record_ns:.1}, \"span_armed\": \
         {span_some_ns:.1}, \"span_disarmed\": {span_none_ns:.2}}},\n  \
         \"prometheus_series\": {}\n}}\n",
        repeats(),
        fast_mode(),
        plain.aggregate_qps(),
        observed.aggregate_qps(),
        modelled_overhead,
        series.len(),
    );
    loom_bench::persist("BENCH_obs.json", &json);
}

fn bench_obs(c: &mut Criterion) {
    let (workload, plans, store) = setup();
    let (_, samples) = sizes();
    let telemetry = Telemetry::new();
    measure_and_persist(&workload, &plans, &store, &telemetry, samples);

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(3);
    group.bench_function("serve/plain", |b| {
        b.iter(|| black_box(serve(&store, &workload, &plans, None, samples)))
    });
    group.bench_function("serve/observed", |b| {
        b.iter(|| black_box(serve(&store, &workload, &plans, Some(&telemetry), samples)))
    });
    let hist = Histogram::new();
    group.bench_function("histogram_record", |b| {
        b.iter(|| hist.record(black_box(1_234)))
    });
    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
