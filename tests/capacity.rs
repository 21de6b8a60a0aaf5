//! Integration suite for the `loom-load` open-loop capacity harness.
//!
//! The properties that make the harness trustworthy:
//!
//! * **determinism** — arrival schedules are a pure function of
//!   `(process, rate, duration, seed)`, regenerable before, during, or
//!   after a run;
//! * **open-loop injection** — arrival timestamps follow the seeded
//!   schedule, not the engine: a saturated, rejecting engine sees exactly
//!   the same planned arrivals as an idle one;
//! * **error-budget conservation** — every scheduled arrival is accounted
//!   for (admitted, rejected, or shed), saturated or not.
//!
//! Saturation is always against work: the overloaded engine enumerates
//! every match on one worker, and the ramp offers a multiple of the
//! closed-loop rate that worker has just been measured at — never a fixed
//! rps figure.

use loom::prelude::*;
use loom_graph::generators::{barabasi_albert, GeneratorConfig};
use loom_partition::hash::HashConfig;
use std::sync::Arc;
use std::time::Duration;

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
    let q_edge = PatternQuery::path(QueryId::new(1), &[l(0), l(1)]).unwrap();
    Workload::new(vec![(q_path, 3.0), (q_edge, 1.0)]).unwrap()
}

/// Stream a graph through a partitioner and return the partitioning.
fn partitioned(graph: &LabelledGraph, spec: PartitionerSpec, workload: &Workload) -> Partitioning {
    let mut session = Session::builder(spec)
        .workload(workload.clone())
        .build()
        .unwrap();
    let stream = GraphStream::from_graph(graph, &StreamOrder::Bfs);
    session.ingest_stream(&stream).unwrap();
    session.into_partitioning().unwrap()
}

fn fixture() -> (Arc<ShardedStore>, Workload) {
    let graph = social_graph(2_000, 11);
    let workload = motif_workload();
    let partitioning = partitioned(
        &graph,
        PartitionerSpec::Hash(HashConfig::new(4, graph.vertex_count())),
        &workload,
    );
    (
        Arc::new(ShardedStore::from_parts(&graph, &partitioning)),
        workload,
    )
}

fn rooted() -> QueryMode {
    QueryMode::Rooted { seed_count: 3 }
}

/// One worker enumerating every match: queries that cost real time, so the
/// engine saturates long before the driver does.
fn one_slow_worker() -> ServeConfig {
    ServeConfig::new(1).with_mode(QueryMode::FullEnumeration)
}

/// A two-step ramp offering 4× then 8× the closed-loop rate
/// [`one_slow_worker`] sustains on this host, in this build, right now.
fn overload_ramp(store: &Arc<ShardedStore>, workload: &Workload) -> RampSchedule {
    let (probe, _) = ServeEngine::new(one_slow_worker()).run(
        store,
        workload,
        QueryRequest::workload(60).with_seed(3),
        &RequestContext::unbounded(),
    );
    let sustained = probe.wall_clock_qps();
    RampSchedule::new(
        4.0 * sustained,
        4.0 * sustained,
        Duration::from_millis(80),
        8.0 * sustained,
    )
}

#[test]
fn arrival_schedules_are_pure_functions_of_the_seed() {
    let step = Duration::from_millis(250);
    for process in [ArrivalProcess::Poisson, ArrivalProcess::Constant] {
        let a = process.offsets_us(500.0, step, 7);
        let b = process.offsets_us(500.0, step, 7);
        assert_eq!(a, b, "{}: same seed must reproduce", process.name());
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        assert!(a.iter().all(|&t| t < 250_000), "offsets stay in the step");
    }
    // Poisson gaps move with the seed; constant gaps ignore it.
    let poisson = ArrivalProcess::Poisson;
    assert_ne!(
        poisson.offsets_us(500.0, step, 7),
        poisson.offsets_us(500.0, step, 8)
    );
    let constant = ArrivalProcess::Constant;
    assert_eq!(
        constant.offsets_us(500.0, step, 7),
        constant.offsets_us(500.0, step, 8)
    );
    // The whole ramp's planned schedule regenerates from the config alone.
    let ramp = RampSchedule::new(200.0, 200.0, Duration::from_millis(100), 600.0);
    let config = LoadConfig::new(ramp).with_seed(17);
    assert_eq!(config.planned_offsets_us(), config.planned_offsets_us());
}

#[test]
fn knee_detection_flags_synthetic_saturation_curves() {
    let curve = |offered: f64, achieved: f64| StepMetrics {
        offered_rps: offered,
        achieved_rps: achieved,
        ..StepMetrics::default()
    };
    let steps = vec![
        curve(100.0, 99.0),
        curve(200.0, 197.0),
        curve(300.0, 240.0), // goodput flattens here
        curve(400.0, 238.0),
    ];
    let knee = detect_knee(&steps);
    assert!(knee.found());
    assert_eq!(knee.saturated_step, Some(2));
    assert_eq!(knee.knee_rps, 200.0);
    assert_eq!(knee.reason, KneeReason::AchievedFlattened);
}

#[test]
fn arrivals_follow_the_schedule_even_when_the_engine_saturates() {
    let (store, workload) = fixture();
    let config = LoadConfig::new(overload_ramp(&store, &workload)).with_seed(17);

    // Two workers answering rooted queries do a small fraction of the slow
    // worker's work per request, behind queues deep enough for the whole
    // schedule: the same arrivals leave them idle, and a scheduling hiccup
    // on the host cannot make them reject.
    let planned = config.planned_offsets_us();
    let idle = ServeEngine::new(
        ServeConfig::new(2)
            .with_mode(rooted())
            .with_queue_capacity(planned.iter().map(Vec::len).sum()),
    );
    let idle_run = run_capacity(&idle, &store, &workload, &config);

    // The slow worker behind a 2-deep queue is offered 4× what it
    // sustains, so this engine rejects hard.
    let saturated = ServeEngine::new(one_slow_worker().with_queue_capacity(2));
    let sat_run = run_capacity(&saturated, &store, &workload, &config);

    // The open-loop proof: injection is owned by the seeded schedule, so
    // the saturated (rejecting) run offered *exactly* the arrivals the idle
    // run did — every step as many as the config alone plans for it.
    for run in [&idle_run, &sat_run] {
        assert_eq!(run.steps.len(), planned.len());
        for (step, offsets) in run.steps.iter().zip(&planned) {
            assert_eq!(step.offered, offsets.len());
        }
    }

    assert_eq!(idle_run.report.error_budget.dropped(), 0);
    let sat_dropped: usize = sat_run.steps.iter().map(|s| s.rejected + s.shed).sum();
    assert!(sat_dropped > 0, "overload must reject open-loop arrivals");
    assert!(sat_run.knee.found(), "overload must find a knee");
    assert!(sat_run
        .steps
        .iter()
        .any(|s| s.achieved_rps < s.offered_rps * 0.9));
}

#[test]
fn error_budget_accounts_for_every_scheduled_arrival() {
    let (store, workload) = fixture();
    let engine = ServeEngine::new(one_slow_worker().with_queue_capacity(4));
    let config = LoadConfig::new(overload_ramp(&store, &workload))
        .with_seed(5)
        .with_request_timeout(Duration::from_millis(40));
    let run = run_capacity(&engine, &store, &workload, &config);

    let budget = run.report.error_budget;
    // Every scheduled arrival was issued (admitted or rejected) or shed —
    // and all three land in the engine's request count.
    assert_eq!(budget.requests, run.offered_total());
    let rejected: usize = run.steps.iter().map(|s| s.rejected + s.shed).sum();
    assert_eq!(budget.rejected, rejected);
    // Per-step expiry counts only cover completions observed inside step
    // windows; drained stragglers land in the report's budget too.
    let expired: usize = run.steps.iter().map(|s| s.deadline_expired).sum();
    assert!(budget.deadline_expired >= expired);
    assert_eq!(budget.dropped(), budget.rejected + budget.deadline_expired);
    assert!(budget.dropped() > 0, "overload must burn error budget");
    assert!(run.report.wall_clock_qps() > 0.0);
}

#[test]
fn session_capacity_facade_measures_and_requires_a_workload() {
    let graph = social_graph(300, 11);
    let workload = motif_workload();
    let spec = PartitionerSpec::Hash(HashConfig::new(4, graph.vertex_count()));
    let config = LoadConfig::new(RampSchedule::new(
        200.0,
        0.0,
        Duration::from_millis(60),
        200.0,
    ))
    .with_seed(9);

    let mut session = Session::builder(spec).workload(workload).build().unwrap();
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    session.ingest_stream(&stream).unwrap();
    let run = session
        .serve(graph.clone())
        .unwrap()
        .sharded(2)
        .capacity(&config)
        .unwrap();
    assert_eq!(run.steps.len(), 1);
    assert_eq!(run.report.error_budget.requests, run.offered_total());
    assert!(run.offered_total() > 0);

    // No workload → nothing to offer: the façade refuses.
    let mut bare = Session::builder(spec).build().unwrap();
    bare.ingest_stream(&stream).unwrap();
    let err = bare
        .serve(graph)
        .unwrap()
        .sharded(2)
        .capacity(&config)
        .unwrap_err();
    assert!(matches!(err, SessionError::MissingWorkload(_)));
}
