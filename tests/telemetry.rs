//! Integration suite for the `loom-obs` telemetry subsystem, end to end
//! through the `Session` façade.
//!
//! Three properties matter:
//!
//! * **parity** — telemetry is strictly additive: a session built without
//!   it produces bit-identical `ServeReport`s run after run, and an
//!   observed session's report equals the unobserved one on every field
//!   that is not this process's wall clock;
//! * **coverage** — one observed pipeline (ingest → checkpoint → serve →
//!   adapt) populates the stage histograms, shard counters and flight
//!   events each layer is responsible for, and the Prometheus export of
//!   the result parses;
//! * **diagnosis** — a request rejected at admission (queue full past its
//!   deadline) automatically latches a flight dump carrying that request's
//!   admission, queue wait, and rejection, pinned to the serving epoch.

use loom::prelude::*;
use loom_obs::FlightDump;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn l(x: u32) -> Label {
    Label::new(x)
}

/// A 30-vertex abc-path graph plus a 2-query workload — small enough to be
/// fast, structured enough that every query finds matches.
fn fixture() -> (LabelledGraph, Workload) {
    let graph = loom_graph::generators::regular::path_graph(30, &[l(0), l(1), l(2)]);
    let workload = Workload::new(vec![
        (
            PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap(),
            3.0,
        ),
        (
            PatternQuery::path(QueryId::new(1), &[l(2), l(1)]).unwrap(),
            1.0,
        ),
    ])
    .unwrap();
    (graph, workload)
}

fn session(graph: &LabelledGraph, workload: &Workload) -> SessionBuilder {
    let spec = PartitionerSpec::Loom(LoomConfig::new(2, graph.vertex_count()).with_window_size(4));
    Session::builder(spec).workload(workload.clone())
}

fn serve_through(builder: SessionBuilder, graph: &LabelledGraph) -> Serving {
    let mut session = builder.build().unwrap();
    session
        .ingest_stream(&GraphStream::from_graph(graph, &StreamOrder::Bfs))
        .unwrap();
    session.serve(graph.clone()).unwrap()
}

/// Zero the report fields that measure *this process's* wall clock
/// (`wall_clock_us`, queue waits, admission stalls, queue high-water, runs and
/// wake-ups) — those are scheduler-dependent with or without telemetry. Everything left is
/// counted and must reproduce exactly.
fn untimed(report: &ServeReport) -> ServeReport {
    let mut r = report.clone();
    r.wall_clock_us = 0.0;
    for shard in &mut r.shards {
        shard.queue_wait_p99_us = 0.0;
        shard.admit_stalls = 0;
        shard.max_queue_depth = 0;
        shard.runs = 0;
        shard.wake_ups = 0;
    }
    r
}

#[test]
fn unobserved_sessions_stay_bit_identical() {
    let (graph, workload) = fixture();
    let request = QueryRequest::workload(60).with_seed(11);
    let (report_a, response_a) = serve_through(session(&graph, &workload), &graph)
        .sharded(2)
        .serve_request(request);
    let (report_b, response_b) = serve_through(session(&graph, &workload), &graph)
        .sharded(2)
        .serve_request(request);
    // The whole report — per-shard metrics, query mix, epochs — not just
    // the aggregate: the no-telemetry path must stay exactly reproducible
    // run after run.
    assert_eq!(untimed(&report_a), untimed(&report_b));
    assert_eq!(response_a.metrics, response_b.metrics);
    assert!(report_a.shards.iter().any(|s| s.epoch_seq.is_some()));
}

#[test]
fn observed_sessions_match_unobserved_aggregates() {
    let (graph, workload) = fixture();
    let request = QueryRequest::workload(60).with_seed(11);
    let (plain, _) = serve_through(session(&graph, &workload), &graph)
        .sharded(2)
        .serve_request(request);

    let telemetry = Telemetry::new();
    let observed_serving = serve_through(
        session(&graph, &workload).telemetry(Arc::clone(&telemetry)),
        &graph,
    );
    let (observed, _) = observed_serving.sharded(2).serve_request(request);

    // Instrumentation changes nothing but this process's timings.
    assert_eq!(untimed(&observed), untimed(&plain));

    // Both the ingest spans and the serve histograms were populated.
    let snap = telemetry.snapshot();
    let count = |name: &str| {
        snap.registry
            .histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, h)| h.count)
            .sum::<u64>()
    };
    assert!(count(stage::INGEST_PARTITION) > 0, "ingest spans recorded");
    assert_eq!(count(stage::SERVE_EXECUTE), 60);
    // The export is valid Prometheus text exposition.
    let series = loom_obs::validate_prometheus(&snap.prometheus()).expect("export parses");
    assert!(series.iter().any(|s| s.starts_with("loom_serve_execute")));
}

#[test]
fn durable_observed_pipeline_records_store_stages_and_checkpoint_seals() {
    let (graph, workload) = fixture();
    let root = std::env::temp_dir().join(format!("loom-obs-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let telemetry = Telemetry::new();
    let mut session = session(&graph, &workload)
        .telemetry(Arc::clone(&telemetry))
        .with_durability(&root)
        .build()
        .unwrap();
    session
        .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
        .unwrap();
    let epoch = session.checkpoint().unwrap();

    let snap = telemetry.snapshot();
    let count = |name: &str| {
        snap.registry
            .histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, h)| h.count)
            .sum::<u64>()
    };
    // Every WAL-appended batch charged both the session-level span and the
    // store-level fsync span.
    let wal_records = session.wal_records().unwrap();
    assert_eq!(count(stage::INGEST_WAL_APPEND), wal_records);
    assert_eq!(count(stage::STORE_FSYNC), wal_records);
    assert_eq!(count(stage::STORE_CHECKPOINT_WRITE), 1);
    // The sealed checkpoint left a flight event carrying its epoch.
    let dump = telemetry.flight().dump("test probe");
    assert!(dump.events.iter().any(|e| matches!(
        e.kind,
        FlightKind::CheckpointSealed { epoch: seq, wal_records: w }
            if seq == epoch && w == wal_records
    )));
    // The first checkpoint folded in all of `wal.log`: it was retired,
    // and the log now starts at the checkpoint's record.
    assert!(dump.events.iter().any(|e| matches!(
        e.kind,
        FlightKind::WalRetired { below, segments: 1, bytes }
            if below == wal_records && bytes > 8
    )));
    drop(session);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn observed_recovery_charges_each_stage_once_and_they_overlap() {
    let (graph, workload) = fixture();
    let root = std::env::temp_dir().join(format!("loom-obs-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut durable = session(&graph, &workload)
        .with_durability(&root)
        .build()
        .unwrap();
    durable
        .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
        .unwrap();
    durable.checkpoint().unwrap();
    drop(durable);

    // One observed recovery charges each of its stages exactly once, and
    // builds no graph mirror: the session keeps the proven arena until it
    // first writes.
    let telemetry = Telemetry::new();
    let started = Instant::now();
    let recovered = session(&graph, &workload)
        .telemetry(Arc::clone(&telemetry))
        .with_durability(&root)
        .recover()
        .unwrap();
    let wall_us = started.elapsed().as_micros() as u64;
    assert!(recovered.report().checkpoint_found);
    let charged = |name: &str| {
        let snap = telemetry.snapshot();
        let series: Vec<_> = snap
            .registry
            .histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, h)| (h.count, h.sum))
            .collect();
        assert!(series.len() <= 1, "{name} is one unlabelled series");
        series.first().copied().unwrap_or((0, 0))
    };
    let stage_sum = |name: &str| {
        let (count, sum) = charged(name);
        assert_eq!(count, 1, "{name} charged once");
        sum
    };
    let load = stage_sum(stage::RECOVER_CHECKPOINT_LOAD);
    let decode = stage_sum(stage::RECOVER_WAL_DECODE);
    let replay = stage_sum(stage::RECOVER_REPLAY);
    assert_eq!(
        charged(stage::RECOVER_MIRROR).0,
        0,
        "recovery builds no mirror"
    );
    // The overlap as a checkable fact: the load runs beside the decode and
    // the replay (the restore from the checkpoint as read and the log past
    // it), so the longer branch — not their sum — bounds the wall clock
    // below.
    assert!(
        load.max(decode + replay) <= wall_us,
        "load {load} us beside decode {decode} us and replay {replay} us, wall {wall_us} us"
    );

    // The first write builds the mirror, once; later writes find it built.
    let mut session = recovered.into_session();
    for id in [1_000, 1_001] {
        let element = StreamElement::AddVertex {
            id: VertexId::new(id),
            label: l(0),
        };
        session.ingest_batch(&[element]).unwrap();
        assert_eq!(
            charged(stage::RECOVER_MIRROR).0,
            1,
            "the first write builds the mirror"
        );
    }
    drop(session);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mutating_batches_charge_apply_delete_and_compaction_observes() {
    let (graph, workload) = fixture();

    // Durable session: only batches carrying deletes/relabels charge the
    // `ingest.apply_delete` span (its count is the number of mutating
    // batches, not elements).
    let root = std::env::temp_dir().join(format!("loom-obs-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let telemetry = Telemetry::new();
    let mut durable = session(&graph, &workload)
        .telemetry(Arc::clone(&telemetry))
        .with_durability(&root)
        .build()
        .unwrap();
    durable
        .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
        .unwrap();
    let count = |telemetry: &Telemetry, name: &str| {
        telemetry
            .snapshot()
            .registry
            .histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, h)| h.count)
            .sum::<u64>()
    };
    assert_eq!(
        count(&telemetry, stage::INGEST_APPLY_DELETE),
        0,
        "insert-only ingest stays off the delete span"
    );
    let victims = graph.vertices_sorted();
    durable
        .ingest_batch(&[StreamElement::RemoveVertex { id: victims[0] }])
        .unwrap();
    durable
        .ingest_batch(&[
            StreamElement::AddVertex {
                id: VertexId::new(900_000),
                label: l(0),
            },
            StreamElement::Relabel {
                id: victims[1],
                label: l(2),
            },
        ])
        .unwrap();
    assert_eq!(count(&telemetry, stage::INGEST_APPLY_DELETE), 2);
    drop(durable);
    let _ = std::fs::remove_dir_all(&root);

    // Adapt layer: a mutation tombstones the published store (the gauge
    // rises), compaction reclaims it (gauge back to zero, `Compacted` in
    // the flight recorder, `serve.compaction` charged).
    let telemetry = Telemetry::new();
    let serving = serve_through(
        session(&graph, &workload).telemetry(Arc::clone(&telemetry)),
        &graph,
    );
    let mut adaptive = serving.adaptive(2, AdaptConfig::default()).unwrap();
    let tombstone_level = |telemetry: &Telemetry| {
        telemetry
            .snapshot()
            .registry
            .gauges
            .iter()
            .filter(|(k, _)| k.name == "store.tombstone_fraction")
            .map(|(_, v)| *v)
            .sum::<i64>()
    };
    adaptive.apply_mutations(&[StreamElement::RemoveVertex { id: victims[3] }]);
    assert!(
        tombstone_level(&telemetry) > 0,
        "a tombstoned shard must raise its gauge"
    );
    let outcome = adaptive.compact_now(0.0);
    assert_eq!(outcome.purged_vertices, 1);
    assert_eq!(tombstone_level(&telemetry), 0);
    assert!(count(&telemetry, stage::SERVE_COMPACTION) >= 1);
    let dump = telemetry.flight().dump("test probe");
    assert!(dump.events.iter().any(|e| matches!(
        e.kind,
        FlightKind::Compacted { purged: 1, epoch, .. } if epoch == outcome.epoch
    )));
}

#[test]
fn adaptation_charges_plan_and_migrate_spans_and_flight_events() {
    let (graph, workload) = fixture();
    let telemetry = Telemetry::new();
    let serving = serve_through(
        session(&graph, &workload).telemetry(Arc::clone(&telemetry)),
        &graph,
    );
    let mut adaptive = serving.adaptive(2, AdaptConfig::default()).unwrap();
    // Drifted traffic: everything hits query 1. The adaptation pass plans,
    // migrates, and publishes — all observed.
    let drifted = Workload::new(vec![
        (
            PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap(),
            1.0,
        ),
        (
            PatternQuery::path(QueryId::new(1), &[l(2), l(1)]).unwrap(),
            50.0,
        ),
    ])
    .unwrap();
    let mut adapted = None;
    for round in 0..12 {
        let (_, outcome) = adaptive.serve(&drifted, 100, 20 + round).unwrap();
        if outcome.is_some() {
            adapted = outcome;
            break;
        }
    }
    let outcome = adapted.expect("sustained drift triggers an adaptation");

    let snap = telemetry.snapshot();
    let count = |name: &str| {
        snap.registry
            .histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, h)| h.count)
            .sum::<u64>()
    };
    assert!(count(stage::ADAPT_PLAN) >= 1);
    let dump = telemetry.flight().dump("test probe");
    if outcome.moved > 0 {
        assert!(count(stage::ADAPT_MIGRATE) >= 1);
        assert!(dump.events.iter().any(|e| matches!(
            e.kind,
            FlightKind::Migrated { moved, epoch } if moved == outcome.moved as u64 && epoch == outcome.epoch
        )));
        assert!(dump.events.iter().any(
            |e| matches!(e.kind, FlightKind::EpochPublished { epoch } if epoch == outcome.epoch)
        ));
    }
}

/// The acceptance scenario: drive a tiny queue past a request deadline so
/// admission rejects, then diagnose the rejection purely from the flight
/// dump the engine latched automatically.
#[test]
fn rejected_admission_latches_a_flight_dump_with_the_request_timeline() {
    let (graph, workload) = fixture();
    let serving = serve_through(session(&graph, &workload), &graph);
    let store = Arc::clone(serving.store());
    let expected_epoch = store.epoch();

    // Capacity-1 queues and an already-expired deadline: any admission push
    // that finds its worker still busy rejects immediately. A couple of
    // hundred samples through two workers makes that collision essentially
    // certain on worker 1 (worker 0 runs on the calling thread, behind no
    // queue); retry a few seeds to make the test timing-proof.
    let mut latched: Option<(FlightDump, Vec<ShardServeMetrics>)> = None;
    for seed in 0..25 {
        let telemetry = Telemetry::new();
        let engine = ServeEngine::new(
            ServeConfig::new(2)
                .with_mode(QueryMode::Rooted { seed_count: 4 })
                .with_queue_capacity(1),
        )
        .with_telemetry(Arc::clone(&telemetry));
        let request = QueryRequest::workload(200)
            .with_seed(seed)
            .with_deadline(Instant::now() - Duration::from_secs(1));
        let (report, response) =
            engine.run(&store, &workload, request, &RequestContext::unbounded());
        assert_eq!(report.queries, 200);
        assert!(response.metrics.deadline_exceeded);
        if report.shards.iter().any(|s| s.rejected > 0) {
            let dump = telemetry
                .flight()
                .last_dump()
                .expect("rejection must latch a dump automatically");
            latched = Some((dump, report.shards));
            break;
        }
    }
    let (dump, shards) = latched.expect("a capacity-1 queue must reject at least once");

    // The dump carries the rejected request's full timeline: admission,
    // measured queue wait, rejection — all pinned to the serving epoch.
    let rejected_request = dump
        .events
        .iter()
        .rev()
        .find_map(|e| match e.kind {
            FlightKind::Rejected { request, .. } => Some(request),
            _ => None,
        })
        .expect("dump contains the rejection");
    let timeline = dump.events_for_request(rejected_request);
    assert!(timeline.iter().any(|e| matches!(
        e.kind,
        FlightKind::Admitted { epoch, .. } if epoch == expected_epoch
    )));
    assert!(timeline
        .iter()
        .any(|e| matches!(e.kind, FlightKind::QueueWait { .. })));
    assert!(timeline.iter().any(|e| matches!(
        e.kind,
        FlightKind::Rejected { epoch, .. } if epoch == expected_epoch
    )));
    // Timeline order: admitted before rejected.
    let admitted_at = timeline
        .iter()
        .position(|e| matches!(e.kind, FlightKind::Admitted { .. }))
        .unwrap();
    let rejected_at = timeline
        .iter()
        .position(|e| matches!(e.kind, FlightKind::Rejected { .. }))
        .unwrap();
    assert!(admitted_at < rejected_at);
    // And the report agrees: the shard stayed pinned at the store's epoch.
    let rejecting = &shards[1];
    assert_eq!(rejecting.epoch_seq, Some(expected_epoch));
    assert!(rejecting.rejected > 0);
    assert_eq!(
        shards[0].rejected, 0,
        "the calling thread's shard has no queue"
    );
    // The latch came from one of the two automatic triggers (whichever
    // fired last), and the dump renders human-readably for logs.
    assert!(matches!(
        dump.reason,
        "admission rejected" | "deadline exceeded"
    ));
    let text = dump.to_string();
    assert!(text.contains(&format!("rejected request={rejected_request}")));
}
