//! Compile-once query planning: what the amortization buys.
//!
//! Four measurements:
//!
//! * **planned vs unplanned throughput** — the same sampled workload, in
//!   the online transactional mode the paper targets (single-seed rooted
//!   queries), executed through a pre-compiled shared [`PlanCache`] versus
//!   the legacy path that re-derives a matching order on every execution.
//!   The cache is compiled with [`PlanStrategy::Legacy`], so both sides run
//!   *identical* searches (the parity suite pins this) and the difference
//!   is pure amortization;
//! * **cost-ranked throughput** — the same load under the default
//!   [`PlanStrategy::CostRanked`] plans (a different ordering, hence a
//!   different — statistically cheaper — search; reported separately, not
//!   as a speedup);
//! * **compile cost** — one full workload compilation (the price paid once
//!   per workload, amortized over every execution after);
//! * **plan-cache hit path** — the per-lookup cost of `PlanCache::get`.
//!
//! Besides the Criterion-style timings, the bench emits
//! `BENCH_query_plan.json` at the workspace root so the plan-path numbers
//! have machine-readable data points across PRs. Setting `LOOM_BENCH_FAST=1`
//! (the CI smoke mode) shrinks the graph and sample counts and writes to
//! `target/bench-fast/` instead.

use criterion::{criterion_group, criterion_main, Criterion};
use loom_bench::{fast_mode, scenarios};
use loom_graph::ordering::StreamOrder;
use loom_graph::GraphStream;
use loom_motif::workload::Workload;
use loom_partition::ldg::{LdgConfig, LdgPartitioner};
use loom_partition::traits::partition_stream;
use loom_sim::executor::{QueryExecutor, QueryMode};
use loom_sim::plan::{GraphStatistics, PlanCache, PlanStrategy, QueryPlanner};
use loom_sim::store::PartitionedStore;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 42;
const K: u32 = 8;

fn setup() -> (PartitionedStore, Workload, GraphStatistics, usize) {
    let (vertices, samples) = if fast_mode() { (600, 60) } else { (3_000, 300) };
    let graph = scenarios::social_graph(vertices, 7);
    let workload = scenarios::generated_workload(12, 1.0, 3);
    let stats = GraphStatistics::from_graph(&graph);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 1 });
    let mut partitioner =
        LdgPartitioner::new(LdgConfig::new(K, graph.vertex_count())).expect("valid config");
    let partitioning = partition_stream(&mut partitioner, &stream).expect("stream partitions");
    (
        PartitionedStore::new(graph, partitioning),
        workload,
        stats,
        samples,
    )
}

fn executor() -> QueryExecutor {
    // The online transactional regime: one index-lookup root per execution,
    // a tight match limit — short searches, where per-call planning is a
    // measurable fraction of the work.
    QueryExecutor::default()
        .with_mode(QueryMode::Rooted { seed_count: 1 })
        .with_match_limit(100)
}

/// Time `rounds` workload runs and return executions/sec.
fn throughput(
    executor: &QueryExecutor,
    store: &PartitionedStore,
    workload: &Workload,
    samples: usize,
    rounds: usize,
) -> f64 {
    let start = Instant::now();
    for round in 0..rounds {
        black_box(executor.execute_workload(store, workload, samples, SEED + round as u64));
    }
    (samples * rounds) as f64 / start.elapsed().as_secs_f64().max(1e-12)
}

/// One measured sweep: compile cost, planned vs unplanned throughput,
/// cache-hit latency; persisted as `BENCH_query_plan.json`.
fn sweep_and_persist(
    store: &PartitionedStore,
    workload: &Workload,
    stats: &GraphStatistics,
    samples: usize,
) -> Arc<PlanCache> {
    let rounds = if fast_mode() { 4 } else { 20 };

    // Compile cost: the once-per-workload price.
    let start = Instant::now();
    let plans = Arc::new(PlanCache::compile(
        &QueryPlanner::new(PlanStrategy::Legacy),
        workload,
        stats,
    ));
    let compile_us = start.elapsed().as_secs_f64() * 1e6;
    let ranked = Arc::new(PlanCache::compile(
        &QueryPlanner::new(PlanStrategy::CostRanked),
        workload,
        stats,
    ));

    // Warm both paths once, then time. Legacy-strategy plans make the
    // planned and unplanned searches identical, so the ratio is pure
    // amortization.
    throughput(&executor(), store, workload, samples, 1);
    let unplanned_qps = throughput(&executor(), store, workload, samples, rounds);
    let planned_exec = executor().with_plan_cache(Arc::clone(&plans));
    throughput(&planned_exec, store, workload, samples, 1);
    let planned_qps = throughput(&planned_exec, store, workload, samples, rounds);
    let ranked_exec = executor().with_plan_cache(Arc::clone(&ranked));
    throughput(&ranked_exec, store, workload, samples, 1);
    let ranked_qps = throughput(&ranked_exec, store, workload, samples, rounds);

    // The hit path: repeated lookups of every compiled plan.
    let lookups = if fast_mode() { 20_000 } else { 200_000 };
    let ids: Vec<_> = workload.queries().iter().map(|q| q.id()).collect();
    let start = Instant::now();
    for i in 0..lookups {
        black_box(plans.get(ids[i % ids.len()]));
    }
    let hit_ns = start.elapsed().as_secs_f64() * 1e9 / lookups as f64;

    let speedup = planned_qps / unplanned_qps.max(f64::MIN_POSITIVE);
    println!(
        "query_planning: planned {planned_qps:.0} exec/s vs unplanned {unplanned_qps:.0} exec/s \
         (x{speedup:.2}), cost-ranked {ranked_qps:.0} exec/s, compile {compile_us:.0} us for {} \
         plans, cache hit {hit_ns:.0} ns",
        plans.len(),
    );
    let json = format!(
        "{{\n  \"bench\": \"query_planning\",\n  \"fast_mode\": {},\n  \"samples\": {samples},\n  \
         \"queries\": {},\n  \"mode\": \"rooted(seed_count=1)\",\n  \
         \"planned_execs_per_sec\": {planned_qps:.2},\n  \
         \"unplanned_execs_per_sec\": {unplanned_qps:.2},\n  \"speedup\": {speedup:.4},\n  \
         \"cost_ranked_execs_per_sec\": {ranked_qps:.2},\n  \
         \"compile_us\": {compile_us:.2},\n  \"cache_hit_ns\": {hit_ns:.2},\n  \
         \"cache_hits\": {},\n  \"cache_misses\": {}\n}}\n",
        fast_mode(),
        workload.len(),
        plans.hits(),
        plans.misses(),
    );
    loom_bench::persist("BENCH_query_plan.json", &json);
    plans
}

fn bench_query_planning(c: &mut Criterion) {
    let (store, workload, stats, samples) = setup();
    let plans = sweep_and_persist(&store, &workload, &stats, samples);

    let mut group = c.benchmark_group("query_planning");
    group.sample_size(5);
    let unplanned = executor();
    group.bench_function("unplanned", |b| {
        b.iter(|| black_box(unplanned.execute_workload(&store, &workload, samples, SEED)))
    });
    let planned = executor().with_plan_cache(Arc::clone(&plans));
    group.bench_function("planned", |b| {
        b.iter(|| black_box(planned.execute_workload(&store, &workload, samples, SEED)))
    });
    group.bench_function("compile", |b| {
        b.iter(|| {
            black_box(PlanCache::compile(
                &QueryPlanner::default(),
                &workload,
                &stats,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_query_planning);
criterion_main!(benches);
