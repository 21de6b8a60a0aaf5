//! Integration suite for the message-passing transport layer and
//! per-request deadlines / cooperative cancellation.
//!
//! Four properties matter:
//!
//! * **parity** — the coordinator/worker message protocol is an
//!   implementation detail: for every request without a deadline or
//!   cancellation — match-limited and traversal-budgeted ones included — the
//!   transport-backed engine returns metrics (and match cursors) identical to
//!   the same engine's sequential run at every worker count;
//! * **deadlines** — an already-expired deadline short-circuits every
//!   execution at zero traversal cost, and a mid-run deadline measurably
//!   cuts traversals while flagging the partial result;
//! * **cancellation** — firing a request's cancel token unwinds in-flight
//!   searches without ever tearing an epoch pin, even while new epochs are
//!   being published concurrently;
//! * **monotonicity** — a cancelled execution never finds *more* matches
//!   than the same execution left to run (property-based).

use loom::prelude::*;
use loom_graph::generators::{barabasi_albert, GeneratorConfig};
use loom_partition::hash::HashConfig;
use loom_partition::spec::LoomConfig;
use loom_sim::matcher::{execute_plan_ctx, ExecOptions, MatchScratch};
use loom_sim::plan::GraphStatistics;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    let q_cycle = PatternQuery::cycle(QueryId::new(1), &[l(0), l(1), l(0), l(1)]).unwrap();
    let q_edge = PatternQuery::path(QueryId::new(2), &[l(0), l(1)]).unwrap();
    Workload::new(vec![(q_path, 4.0), (q_cycle, 2.0), (q_edge, 1.0)]).unwrap()
}

fn partitioned(graph: &LabelledGraph, spec: PartitionerSpec, workload: &Workload) -> Partitioning {
    let mut session = Session::builder(spec)
        .workload(workload.clone())
        .build()
        .unwrap();
    session
        .ingest_stream(&GraphStream::from_graph(graph, &StreamOrder::Bfs))
        .unwrap();
    session.into_partitioning().unwrap()
}

/// (a) Message-passing execution is metric- and cursor-identical to the
/// same engine's sequential run for every request without a deadline or cancellation
/// — unbounded, match-limited (1 and 2) and traversal-budgeted — at every
/// worker count.
#[test]
fn transport_engine_matches_sequential_for_every_request_without_a_deadline() {
    let graph = social_graph(500, 11);
    let workload = motif_workload();
    let partitioning = partitioned(
        &graph,
        PartitionerSpec::Loom(LoomConfig::new(8, graph.vertex_count()).with_window_size(64)),
        &workload,
    );
    let mode = QueryMode::Rooted { seed_count: 3 };
    let sequential_store = PartitionedStore::new(graph.clone(), partitioning.clone());
    let engine = ServeEngine::new(ServeConfig::new(1).with_mode(mode));

    let unbounded = QueryRequest::workload(150).with_seed(42);
    let requests = [
        unbounded,
        unbounded.with_match_limit(1),
        unbounded.with_match_limit(2),
        unbounded.with_traversal_budget(8),
    ];
    let sequential = requests.map(|request| {
        let ctx = RequestContext::unbounded();
        let response = engine.run_sequential(&sequential_store, &workload, request, &ctx);
        response.metrics
    });
    assert!(!sequential[0].matches_limited);
    assert!(sequential[1..].iter().all(|m| m.matches_limited));

    let sharded = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
    for workers in [1usize, 2, 3, 4, 8] {
        let engine = engine.clone().with_workers(workers);
        for (request, expected) in requests.iter().zip(&sequential) {
            let (report, response) =
                engine.run(&sharded, &workload, *request, &RequestContext::unbounded());
            assert_eq!(
                report.aggregate, *expected,
                "workers={workers}: transport aggregate diverged from sequential on {request:?}"
            );
            assert_eq!(response.metrics, *expected);
            assert!(!response.metrics.deadline_exceeded);
            assert!(!response.metrics.cancelled);
            assert_eq!(report.shards.iter().map(|s| s.rejected).sum::<usize>(), 0);
        }
    }
}

/// The match cursor is worker-count invariant too: collected embeddings come
/// back in the same global order regardless of how shards interleave — a
/// match-limited request's first embeddings as much as an unbounded one's.
#[test]
fn collected_matches_are_worker_count_invariant() {
    let graph = social_graph(300, 7);
    let workload = motif_workload();
    let partitioning = partitioned(
        &graph,
        PartitionerSpec::Hash(HashConfig::new(4, graph.vertex_count())),
        &workload,
    );
    let sharded = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
    let request = QueryRequest::workload(40)
        .with_seed(5)
        .collect_matches(true);
    let collect = |request: QueryRequest, workers: usize| {
        ServeEngine::new(ServeConfig::new(workers).with_mode(QueryMode::Rooted { seed_count: 2 }))
            .run(&sharded, &workload, request, &RequestContext::unbounded())
            .1
            .into_cursor()
            .map(|e| e.iter().collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };
    for request in [request, request.with_match_limit(1)] {
        let one = collect(request, 1);
        assert!(!one.is_empty());
        assert_eq!(one, collect(request, 3));
        assert_eq!(one, collect(request, 8));
    }
}

/// (b) An already-expired deadline returns zero traversals on every query,
/// flagged `deadline_exceeded` — whether it arrives on the request or on the
/// caller's context.
#[test]
fn expired_deadline_short_circuits_at_zero_traversals() {
    let graph = social_graph(300, 13);
    let workload = motif_workload();
    let partitioning = partitioned(
        &graph,
        PartitionerSpec::Hash(HashConfig::new(4, graph.vertex_count())),
        &workload,
    );
    let sharded = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
    let engine = ServeEngine::new(ServeConfig::new(4).with_mode(QueryMode::FullEnumeration));
    let expired = Instant::now() - Duration::from_secs(1);

    // Deadline on the request.
    let request = QueryRequest::workload(30)
        .with_seed(3)
        .with_deadline(expired);
    let (report, response) = engine.run(&sharded, &workload, request, &RequestContext::unbounded());
    assert_eq!(response.metrics.queries_executed, 30);
    assert_eq!(response.metrics.total_traversals, 0);
    assert_eq!(response.metrics.matches_found, 0);
    assert!(response.metrics.deadline_exceeded);
    assert!(!response.metrics.cancelled);
    assert_eq!(report.aggregate, response.metrics);

    // Same deadline on the context instead: identical outcome.
    let ctx = RequestContext::unbounded().with_deadline(expired);
    let (_, via_ctx) = engine.run(
        &sharded,
        &workload,
        QueryRequest::workload(30).with_seed(3),
        &ctx,
    );
    assert_eq!(via_ctx.metrics, response.metrics);
}

/// A mid-run deadline measurably cuts traversals relative to the unbounded
/// run while still accounting for every scheduled query.
#[test]
fn mid_run_deadline_cuts_traversals() {
    let graph = social_graph(700, 19);
    let workload = motif_workload();
    let partitioning = partitioned(
        &graph,
        PartitionerSpec::Hash(HashConfig::new(4, graph.vertex_count())),
        &workload,
    );
    let sharded = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
    let engine = ServeEngine::new(ServeConfig::new(2).with_mode(QueryMode::FullEnumeration));
    let samples = 300;

    let unbounded = engine
        .run(
            &sharded,
            &workload,
            QueryRequest::workload(samples).with_seed(17),
            &RequestContext::unbounded(),
        )
        .1;
    assert!(unbounded.metrics.total_traversals > 0);

    // The invariant under test is that an expiring deadline cuts traversals
    // while still accounting for every scheduled query — not that any one
    // fixed timeout expires mid-run on this particular host. Tighten the
    // timeout until the cut is observed; `Duration::ZERO` is pre-expired, so
    // the final rung is deterministic (zero traversals vs a positive
    // unbounded count).
    let mut bounded = None;
    for timeout in [
        Duration::from_millis(1),
        Duration::from_micros(250),
        Duration::ZERO,
    ] {
        let attempt = engine
            .run(
                &sharded,
                &workload,
                QueryRequest::workload(samples)
                    .with_seed(17)
                    .with_timeout(timeout),
                &RequestContext::unbounded(),
            )
            .1;
        assert_eq!(attempt.metrics.queries_executed, samples);
        assert!(attempt.metrics.deadline_exceeded);
        if attempt.metrics.total_traversals < unbounded.metrics.total_traversals {
            bounded = Some(attempt);
            break;
        }
    }
    let bounded = bounded.expect("even a pre-expired deadline must cut traversals");
    assert!(
        bounded.metrics.total_traversals < unbounded.metrics.total_traversals,
        "deadline did not cut traversals: {} vs {}",
        bounded.metrics.total_traversals,
        unbounded.metrics.total_traversals
    );
    assert!(bounded.metrics.matches_found <= unbounded.metrics.matches_found);
}

/// (c) Cancelling mid-run never tears an epoch pin: with a publisher
/// swapping epochs concurrently and the cancel token firing mid-run, every
/// query still pins exactly one *published* epoch and the run unwinds
/// cooperatively instead of wedging.
#[test]
fn cancelling_mid_run_never_tears_an_epoch_pin() {
    let graph = social_graph(600, 23);
    let workload = motif_workload();
    let partitioning = partitioned(
        &graph,
        PartitionerSpec::Hash(HashConfig::new(4, graph.vertex_count())),
        &workload,
    );
    let epochs = EpochStore::new(ShardedStore::from_parts(&graph, &partitioning));
    let engine = ServeEngine::new(ServeConfig::new(4).with_mode(QueryMode::FullEnumeration));
    let cancel = CancelToken::new();
    let ctx = RequestContext::unbounded().with_cancel(cancel.clone());

    let (report, response) = std::thread::scope(|scope| {
        let epochs_ref = &epochs;
        let publisher = scope.spawn({
            let graph = graph.clone();
            let partitioning = partitioning.clone();
            move || {
                for _ in 0..5 {
                    epochs_ref.publish(ShardedStore::from_parts(&graph, &partitioning));
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        });
        let canceller = scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            cancel.cancel();
        });
        let out = engine.run(
            &epochs,
            &workload,
            QueryRequest::workload(500).with_seed(29),
            &ctx,
        );
        publisher.join().expect("publisher panicked");
        canceller.join().expect("canceller panicked");
        out
    });

    // Every scheduled query was accounted for and pinned a published epoch.
    assert_eq!(response.metrics.queries_executed, 500);
    let last = epochs.current_epoch();
    assert!(!report.epochs_observed.is_empty());
    assert!(report.epochs_observed.iter().all(|&e| e >= 1 && e <= last));
    // The cancel landed mid-run (a full 500-sample enumeration takes far
    // longer than 2ms) and unwound cooperatively.
    assert!(response.metrics.cancelled);
    // The store still serves correctly after the cancelled run.
    let after = engine
        .run(
            &epochs,
            &workload,
            QueryRequest::workload(50).with_seed(31),
            &RequestContext::unbounded(),
        )
        .0;
    assert_eq!(after.aggregate.queries_executed, 50);
    assert!(!after.aggregate.cancelled);
}

/// The per-shard report carries the transport's queue instrumentation:
/// queue-wait percentiles are finite and ordered, and unbounded runs are
/// never rejected at admission.
#[test]
fn shard_reports_carry_queue_wait_instrumentation() {
    let graph = social_graph(400, 37);
    let workload = motif_workload();
    let partitioning = partitioned(
        &graph,
        PartitionerSpec::Hash(HashConfig::new(4, graph.vertex_count())),
        &workload,
    );
    let sharded = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
    let engine = ServeEngine::new(
        ServeConfig::new(4)
            .with_mode(QueryMode::Rooted { seed_count: 2 })
            .with_queue_capacity(2),
    );
    let report = engine
        .run(
            &sharded,
            &workload,
            QueryRequest::workload(200).with_seed(41),
            &RequestContext::unbounded(),
        )
        .0;
    assert_eq!(report.aggregate.queries_executed, 200);
    for shard in &report.shards {
        assert!(shard.queue_wait_p99_us.is_finite());
        assert!(shard.queue_wait_p99_us >= 0.0);
        assert_eq!(shard.rejected, 0, "unbounded run rejected requests");
    }
}

/// Backpressure waits where the credit arrives. Behind a 2-deep queue the
/// coordinator is refused on almost every admission; it waits on its own
/// inbox, and the completion that frees the slot is what wakes it. A wait
/// that runs its whole slice with nothing arriving is a stall, a millisecond
/// in which nothing is admitted — when the coordinator waited on the
/// *worker's* inbox instead, every fourth admission of this run ended that
/// way (its own inbox, 4 slots here, had filled with completions nobody was
/// reading: ≈ 500 stalls). Counted, not timed: a scheduler hiccup may add a
/// stall or two, a protocol that stalls adds hundreds. Two workers, because
/// one worker runs on the calling thread behind no queue at all.
#[test]
fn a_full_inbox_is_waited_out_on_completions_not_on_the_clock() {
    const REQUESTS: usize = 2_000;
    let graph = social_graph(500, 11);
    let workload = motif_workload();
    let partitioning = partitioned(
        &graph,
        PartitionerSpec::Loom(LoomConfig::new(8, graph.vertex_count()).with_window_size(64)),
        &workload,
    );
    let mode = QueryMode::Rooted { seed_count: 3 };
    let sequential_store = PartitionedStore::new(graph.clone(), partitioning.clone());
    let engine = ServeEngine::new(ServeConfig::new(2).with_mode(mode).with_queue_capacity(2));
    let request = QueryRequest::workload(REQUESTS).with_seed(42);
    let ctx = RequestContext::unbounded();
    let expected = engine
        .run_sequential(&sequential_store, &workload, request, &ctx)
        .metrics;

    let sharded = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
    let (report, response) = engine.run(&sharded, &workload, request, &ctx);
    assert_eq!(report.aggregate, expected);
    assert_eq!(response.metrics, expected);
    assert_eq!(report.error_budget.dropped(), 0);
    let queries: usize = report.shards.iter().map(|s| s.queries).sum();
    assert_eq!(queries, REQUESTS);
    for shard in &report.shards {
        assert!(
            shard.max_queue_depth <= 2,
            "depth {}",
            shard.max_queue_depth
        );
        assert!(
            shard.admit_stalls * 100 <= REQUESTS,
            "{} admission stalls over {REQUESTS} requests",
            shard.admit_stalls
        );
    }
}

/// Hand-offs move in runs. The coordinator stages each worker's queries and
/// admits them an inbox's worth at a time, a worker takes its whole inbox in
/// one receive, and its completions go back as one group. So over 2 000
/// cheap queries the mean run is many queries long and a worker is woken
/// from a park far less than once a query. When every message was a
/// hand-off of its own, a worker's receives equalled its queries (plus its
/// `Finish`). From two workers up: one worker runs on the calling thread,
/// and nothing is handed off to it.
#[test]
fn hand_offs_move_in_runs() {
    const REQUESTS: usize = 2_000;
    let graph = social_graph(500, 11);
    let workload = motif_workload();
    let partitioning = partitioned(
        &graph,
        PartitionerSpec::Loom(LoomConfig::new(8, graph.vertex_count()).with_window_size(64)),
        &workload,
    );
    let mode = QueryMode::Rooted { seed_count: 3 };
    let sequential_store = PartitionedStore::new(graph.clone(), partitioning.clone());
    let engine = ServeEngine::new(ServeConfig::new(1).with_mode(mode));
    let request = QueryRequest::workload(REQUESTS).with_seed(42);
    let ctx = RequestContext::unbounded();
    let expected = engine
        .run_sequential(&sequential_store, &workload, request, &ctx)
        .metrics;
    let sharded = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
    for workers in [2usize, 3] {
        let engine = engine.clone().with_workers(workers);
        let (report, _) = engine.run(&sharded, &workload, request, &ctx);
        assert_eq!(report.aggregate, expected, "{workers} workers");
        let sum = |field: fn(&ShardServeMetrics) -> usize| -> usize {
            report.shards.iter().map(field).sum()
        };
        let (queries, runs, wake_ups) = (sum(|s| s.queries), sum(|s| s.runs), sum(|s| s.wake_ups));
        assert_eq!(queries, REQUESTS);
        println!("{workers} workers: {queries} queries in {runs} runs, {wake_ups} wake-ups");
        assert!(
            runs * 4 <= queries,
            "{workers} workers: {queries} queries took {runs} receives"
        );
        assert!(
            wake_ups * 4 <= queries,
            "{workers} workers: {queries} queries cost {wake_ups} wake-ups"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (d) Cooperative cancellation is monotone: a cancelled execution never
    /// finds more matches than the identical uncancelled execution.
    #[test]
    fn cancelled_never_finds_more_matches(seed in 0u64..500, samples in 1usize..6) {
        let graph = social_graph(120, seed);
        let workload = motif_workload();
        let stats = GraphStatistics::from_graph(&graph);
        let planner = QueryPlanner::new(PlanStrategy::CostRanked);
        let partitioning = partitioned(
            &graph,
            PartitionerSpec::Hash(HashConfig::new(2, graph.vertex_count())),
            &workload,
        );
        let store = PartitionedStore::new(graph, partitioning);
        let fired = CancelToken::new();
        fired.cancel();
        let cancelled_ctx = RequestContext::unbounded().with_cancel(fired);
        let mut scratch = MatchScratch::default();
        for (i, query) in workload.queries().iter().take(samples).enumerate() {
            let plan = planner.plan(query, &stats);
            let opts = ExecOptions {
                mode: QueryMode::Rooted { seed_count: 2 },
                root_seed: seed.wrapping_add(i as u64),
                ..ExecOptions::default()
            };
            let free = execute_plan_ctx(
                &store,
                &plan,
                &opts,
                &RequestContext::unbounded(),
                &mut scratch,
            );
            let cut = execute_plan_ctx(&store, &plan, &opts, &cancelled_ctx, &mut scratch);
            prop_assert!(cut.metrics.matches_found <= free.metrics.matches_found);
            prop_assert!(cut.metrics.total_traversals <= free.metrics.total_traversals);
            prop_assert!(cut.metrics.cancelled);
            prop_assert!(!free.metrics.cancelled);
        }
    }
}
