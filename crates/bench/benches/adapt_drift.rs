//! Workload drift: static vs adaptive serving across a phase change.
//!
//! The `loom-adapt` claim, measured: one graph, two workload phases with
//! disjoint hot motif families ([`DriftScenario`]). Both arms start from the
//! same phase-A LOOM placement; when the traffic flips to phase B the static
//! arm keeps serving the stale placement while the adaptive arm tracks the
//! drift, migrates a bounded batch of vertices and publishes a new epoch.
//! A freshly phase-B-mined placement provides the reference line.
//!
//! The bench emits `BENCH_adapt.json` at the workspace root: per
//! `(strategy, phase)` cell the remote-hop fraction and the `LatencyModel`'s
//! p50/p99/qps for the executed work — modelled quantities, deterministic
//! per seed, not wall-clock throughput — and prints the wall-clock time of
//! the adaptation pass (plan + incremental rebuild + publish).

use loom_adapt::adaptive::{AdaptConfig, AdaptiveServing};
use loom_core::workload_registry;
use loom_graph::ordering::StreamOrder;
use loom_graph::{GraphStream, LabelledGraph};
use loom_motif::mining::MotifMiner;
use loom_motif::workload::Workload;
use loom_partition::migrate::MigrationConfig;
use loom_partition::partition::Partitioning;
use loom_partition::spec::{LoomConfig, PartitionerSpec};
use loom_partition::traits::partition_stream;
use loom_serve::engine::{ServeConfig, ServeEngine};
use loom_serve::metrics::ServeReport;
use loom_serve::shard::ShardedStore;
use loom_sim::context::RequestContext;
use loom_sim::drift::DriftScenario;
use loom_sim::engine::QueryRequest;
use loom_sim::executor::QueryMode;
use std::sync::Arc;
use std::time::Instant;

const K: u32 = 4;
const SAMPLES: usize = 400;
const SEED: u64 = 42;

fn serve_config() -> ServeConfig {
    ServeConfig::new(K as usize).with_mode(QueryMode::Rooted { seed_count: 3 })
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

fn measure(graph: &LabelledGraph, partitioning: &Partitioning, workload: &Workload) -> ServeReport {
    let store = Arc::new(ShardedStore::from_parts(graph, partitioning));
    let request = QueryRequest::workload(SAMPLES).with_seed(SEED);
    let engine = ServeEngine::new(serve_config());
    engine
        .run(&store, workload, request, &RequestContext::unbounded())
        .0
}

/// Run the adaptive arm through the phase change and return its placement.
fn adapt(graph: &LabelledGraph, start: &Partitioning, scenario: &DriftScenario) -> Partitioning {
    let config = AdaptConfig {
        migration: MigrationConfig::new(graph.vertex_count() / 8),
        max_rounds: 6,
        ..AdaptConfig::default()
    };
    let mut adaptive = AdaptiveServing::new(
        graph.clone(),
        start.clone(),
        scenario.phase_a(),
        serve_config(),
        config,
    );
    let phase_b = scenario.phase_b();
    for seed in 10..16u64 {
        let (_, outcome) = adaptive.serve(&phase_b, 200, seed).expect("serves");
        if outcome.is_some() && !adaptive.tracker().is_drifted() && seed >= 12 {
            break;
        }
    }
    adaptive.partitioning().clone()
}

fn cell(strategy: &str, phase: &str, report: &ServeReport) -> String {
    format!(
        concat!(
            "    {{\"strategy\": \"{}\", \"phase\": \"{}\", ",
            "\"remote_hop_fraction\": {:.4}, \"p99_us\": {:.2}, ",
            "\"p50_us\": {:.2}, \"qps\": {:.2}}}"
        ),
        strategy,
        phase,
        report.remote_hop_fraction(),
        report.p99_latency_us,
        report.p50_latency_us,
        report.aggregate_qps(),
    )
}

struct Setup {
    graph: LabelledGraph,
    scenario: DriftScenario,
    static_part: Partitioning,
    adaptive_part: Partitioning,
    fresh_part: Partitioning,
}

fn setup() -> Setup {
    let scenario = DriftScenario::small(17);
    let (graph, _) = scenario.build_graph().expect("scenario builds");
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 1 });
    let static_part = mine(&graph, &stream, &scenario.phase_a());
    let fresh_part = mine(&graph, &stream, &scenario.phase_b());
    let started = Instant::now();
    let adaptive_part = adapt(&graph, &static_part, &scenario);
    println!(
        "adapt_drift adaptation pass: {:.1} ms wall",
        started.elapsed().as_secs_f64() * 1e3
    );
    Setup {
        graph,
        scenario,
        static_part,
        adaptive_part,
        fresh_part,
    }
}

/// Sweep both arms over both phases, print the table, persist the JSON.
fn sweep_and_persist(setup: &Setup) {
    let phase_a = setup.scenario.phase_a();
    let phase_b = setup.scenario.phase_b();
    let arms: [(&str, &Partitioning); 3] = [
        ("static", &setup.static_part),
        ("adaptive", &setup.adaptive_part),
        ("fresh_mine", &setup.fresh_part),
    ];
    let mut cells = Vec::new();
    for (name, partitioning) in arms {
        for (phase, workload) in [("A", &phase_a), ("B", &phase_b)] {
            let report = measure(&setup.graph, partitioning, workload);
            println!(
                "adapt_drift {name}/phase-{phase}: remote hops {:.1}%, \
                 modelled p99 {:.0} us, modelled {:.0} qps",
                report.remote_hop_fraction() * 100.0,
                report.p99_latency_us,
                report.aggregate_qps(),
            );
            cells.push(cell(name, phase, &report));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"adapt_drift\",\n  \"samples\": {SAMPLES},\n  \
         \"seed\": {SEED},\n  \"partitions\": {K},\n  \"mode\": \
         \"rooted(seed_count=3)\",\n  \"results\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    );
    loom_bench::persist("BENCH_adapt.json", &json);
}

fn main() {
    sweep_and_persist(&setup());
}
