//! Open-loop capacity: RPS ramps to the saturation knee, per
//! (partitioner × shards × plan strategy) cell.
//!
//! This bench measures what the serving stack sustains in **wall-clock**
//! time: a pre-computed arrival schedule is paced open-loop through
//! `loom-load` — injection never blocks on backpressure, late arrivals are
//! shed, rejected ones count against the error budget — and the offered
//! rate ramps until goodput flattens below the offered rate. The knee (the
//! last offered rate each cell kept up with) is the capacity number.
//!
//! The committed artifact uses **constant-interval** arrivals: the offered
//! count of every step is then exact (`rate × duration`), so the knee is a
//! property of service capacity alone, not of arrival-count variance —
//! Poisson steps this short would carry ±6–16% count noise straight into
//! the achieved/offered ratio. The Poisson process (and the p99-SLO knee
//! signal) are exercised by `tests/capacity.rs` and the `capacity` example.
//!
//! Real service time on these small graphs is microseconds, so the knee of
//! the raw engine would measure channel overhead, not the serving economics
//! the paper cares about. Instead the engine runs with **service-time
//! emulation** ([`loom_serve::engine::ServeConfig::with_service_hold`]):
//! each worker holds its shard for the query's *modelled* latency × a
//! calibrated scale, so a query that the latency model says is twice as
//! expensive occupies its shard twice as long. The scale is calibrated so
//! the hash/1-shard cell's capacity lands near a fixed target, which makes
//! the sweep portable across host speeds — and makes the knee ordering
//! (LOOM above Hash, more shards above fewer) a property of the
//! partitioning quality, exactly the claim under test.
//!
//! Emits `BENCH_capacity.json` at the workspace root: per-cell knee RPS and
//! the full per-step offered/achieved/latency table. `LOOM_BENCH_FAST=1`
//! (the CI smoke mode) shrinks the graph and runs a two-step ramp whose
//! second step is far past every cell's knee, so the smoke asserts the knee
//! machinery end to end, and writes to `target/bench-fast/` instead.

use loom_bench::{fast_mode, scenarios};
use loom_core::workload_registry;
use loom_graph::ordering::StreamOrder;
use loom_graph::GraphStream;
use loom_load::{
    ArrivalProcess, CapacityCell, CapacityReport, CellSpec, LoadConfig, RampSchedule,
    SaturationDetector,
};
use loom_motif::mining::MotifMiner;
use loom_motif::workload::Workload;
use loom_obs::Telemetry;
use loom_partition::hash::HashConfig;
use loom_partition::spec::{LoomConfig, PartitionerSpec};
use loom_partition::traits::partition_stream;
use loom_serve::engine::{ServeConfig, ServeEngine};
use loom_serve::shard::ShardedStore;
use loom_sim::context::RequestContext;
use loom_sim::executor::QueryMode;
use loom_sim::plan::{GraphStatistics, PlanCache, PlanStrategy, QueryPlanner};
use std::sync::Arc;
use std::time::Duration;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const PARTITIONS: u32 = 8;
const SEED: u64 = 42;
/// Per-request deadline from arrival; queued requests past it are cut short
/// and counted `deadline_expired`, which keeps saturated-step backlogs from
/// dragging the drain out.
const REQUEST_TIMEOUT: Duration = Duration::from_millis(100);
/// Queries served to calibrate the service-hold scale.
const PROBE_SAMPLES: usize = 200;
/// Per-query match cap for every engine in the sweep, paired with
/// [`TRAVERSAL_BUDGET`]. Unbounded rooted queries on hub vertices have
/// modelled latencies thousands of times the median; held that long, a
/// single monster query dominates whole ramp steps and the knee becomes a
/// property of the tail draw, not the configuration.
const MATCH_LIMIT: usize = 64;
/// Per-query traversal budget. Modelled latency is proportional to
/// traversals, so this is the knob that actually bounds the held
/// service-time tail — while the per-query cost stays workload-dependent
/// (within the same budget, LOOM's placement turns remote hops into local
/// ones, so its queries still hold their shards for less time).
const TRAVERSAL_BUDGET: usize = 512;

fn vertices() -> usize {
    if fast_mode() {
        600
    } else {
        3_000
    }
}

/// Capacity the hash/1-shard cell is calibrated to.
fn target_rps() -> f64 {
    if fast_mode() {
        300.0
    } else {
        400.0
    }
}

/// Full mode ramps through every cell's knee in 200 rps steps; fast mode
/// runs one in-capacity step and one far-past-capacity step so a knee is
/// always found.
fn ramp() -> RampSchedule {
    if fast_mode() {
        RampSchedule::new(100.0, 2_900.0, Duration::from_millis(200), 3_000.0)
    } else {
        RampSchedule::new(200.0, 200.0, Duration::from_millis(300), 4_000.0)
    }
}

fn mode() -> QueryMode {
    QueryMode::Rooted { seed_count: 3 }
}

/// One partitioning under test.
struct StoreUnderTest {
    name: &'static str,
    sharded: Arc<ShardedStore>,
}

/// The two partitionings, the workload, and one compiled plan cache per
/// strategy.
struct BenchSetup {
    workload: Workload,
    plans: Vec<(&'static str, Arc<PlanCache>)>,
    stores: Vec<StoreUnderTest>,
}

fn setup() -> BenchSetup {
    let graph = scenarios::social_graph(vertices(), 7);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 1 });
    let workload = scenarios::motif_workload();
    let stats = GraphStatistics::from_graph(&graph);
    let plans = [
        ("legacy", PlanStrategy::Legacy),
        ("cost_ranked", PlanStrategy::CostRanked),
    ]
    .into_iter()
    .map(|(name, strategy)| {
        let planner = QueryPlanner::new(strategy);
        (
            name,
            Arc::new(PlanCache::compile(&planner, &workload, &stats)),
        )
    })
    .collect();
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
            }
        })
        .collect();
    BenchSetup {
        workload,
        plans,
        stores,
    }
}

/// Calibrate the service-hold scale so one worker over the hash store
/// sustains roughly [`target_rps`]: probe the mean *modelled* latency per
/// query, then pick the scale whose per-query hold equals the target's
/// inter-completion gap. LOOM's cheaper queries then hold their shards
/// for less time — capacity ordering follows partitioning quality.
fn calibrate_hold(hash: &StoreUnderTest, workload: &Workload, plans: &Arc<PlanCache>) -> f64 {
    let engine = ServeEngine::new(
        ServeConfig::new(1)
            .with_mode(mode())
            .with_match_limit(MATCH_LIMIT),
    )
    .with_plan_cache(Arc::clone(plans));
    let request = loom_sim::engine::QueryRequest::workload(PROBE_SAMPLES)
        .with_seed(SEED)
        .with_traversal_budget(TRAVERSAL_BUDGET);
    let (probe, _) = engine.run(
        &hash.sharded,
        workload,
        request,
        &RequestContext::unbounded(),
    );
    let mean_us = probe.aggregate.estimated_latency_us / PROBE_SAMPLES as f64;
    assert!(mean_us > 0.0, "probe must execute modelled work");
    let scale = 1e6 / (target_rps() * mean_us);
    println!(
        "capacity calibration: mean modelled latency {mean_us:.1} us/query, \
         hold scale {scale:.3} targets {:.0} rps on hash/1x",
        target_rps()
    );
    scale
}

/// Drive every (partitioner × shards × strategy) cell with the same ramp,
/// seed, and calibrated hold.
fn sweep(
    workload: &Workload,
    plans: &[(&'static str, Arc<PlanCache>)],
    stores: &[StoreUnderTest],
    hold_scale: f64,
) -> CapacityReport {
    // Goodput flattening is the sole knee signal here: held service times
    // are heavy-tailed (the latency model's tail × the hold scale), so any
    // fixed p99 SLO either sits below the *unloaded* tail or never trips
    // before goodput collapses. The request timeout keeps saturated-step
    // backlogs from smearing into later steps.
    let config = LoadConfig::new(ramp())
        .with_process(ArrivalProcess::Constant)
        .with_seed(SEED)
        .with_detector(SaturationDetector::default())
        .with_request_timeout(REQUEST_TIMEOUT)
        .with_traversal_budget(TRAVERSAL_BUDGET)
        .with_service_hold(hold_scale);
    let mut cells = Vec::new();
    for store in stores {
        for (strategy, cache) in plans {
            for &shards in &SHARD_COUNTS {
                let engine = ServeEngine::new(
                    ServeConfig::new(shards)
                        .with_mode(mode())
                        .with_match_limit(MATCH_LIMIT)
                        .with_service_hold(hold_scale),
                )
                .with_plan_cache(Arc::clone(cache))
                .with_telemetry(Telemetry::new());
                let run = loom_load::run_capacity(&engine, &store.sharded, workload, &config);
                let spec = CellSpec::new(store.name, shards, strategy);
                println!(
                    "capacity {}: knee {:.0} rps ({}), dropped {}/{}",
                    spec.id(),
                    run.knee.knee_rps,
                    run.knee.reason.name(),
                    run.report.error_budget.dropped(),
                    run.report.error_budget.requests,
                );
                cells.push(CapacityCell { spec, run });
            }
        }
    }
    CapacityReport {
        process: ArrivalProcess::Constant.name().to_string(),
        seed: SEED,
        ramp: ramp(),
        fast: fast_mode(),
        cells,
    }
}

/// The sweep's invariants. Fast mode's second ramp step is far past every
/// cell's calibrated capacity, so every cell must find its knee; full mode
/// additionally checks the headline ordering — at 4 shards the LOOM
/// partitioning sustains at least the Hash knee under both plan strategies
/// (LOOM's knee is a lower bound when its ramp never saturated).
fn assert_sweep(report: &CapacityReport) {
    if fast_mode() {
        for cell in &report.cells {
            assert!(
                cell.run.knee.found(),
                "{}: fast-mode ramp must saturate, got {:?}",
                cell.spec.id(),
                cell.run.knee
            );
        }
        return;
    }
    for strategy in ["legacy", "cost_ranked"] {
        let hash = report.knee("hash", 4, strategy).expect("hash/4x swept");
        let loom = report.knee("loom", 4, strategy).expect("loom/4x swept");
        assert!(
            loom.knee_rps >= hash.knee_rps,
            "{strategy}: loom knee {:.0} rps fell below hash {:.0} rps at 4 shards",
            loom.knee_rps,
            hash.knee_rps
        );
    }
}

fn persist(report: &CapacityReport) {
    let json = report.to_json();
    loom_bench::persist("BENCH_capacity.json", &json);
    println!("{}", report.text_report());
}

fn main() {
    let BenchSetup {
        workload,
        plans,
        stores,
    } = setup();
    let hold_scale = calibrate_hold(&stores[0], &workload, &plans[0].1);
    let report = sweep(&workload, &plans, &stores, hold_scale);
    assert_sweep(&report);
    persist(&report);
}
