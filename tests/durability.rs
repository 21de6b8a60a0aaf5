//! Crash-matrix integration suite for the `loom-store` durability
//! subsystem, driven through the `Session` façade:
//!
//! * **bit identity** — checkpoint → recover → re-encode reproduces every
//!   shard blob byte-for-byte (property-based over random graphs);
//! * **torn WAL tail** — a crash mid-append loses at most the unacknowledged
//!   record: the tail is truncated, never papered over, and no records are
//!   invented;
//! * **torn checkpoint** — a crash mid-checkpoint (manifest never written)
//!   leaves the previous checkpoint authoritative;
//! * **restart-and-serve parity** — kill mid-ingest, `Session::recover`,
//!   serve the same workload: identical match counts and aggregate metrics
//!   to an uninterrupted session at the same checkpoint boundary, with the
//!   pre-crash `epoch_seq` flowing into the serve report;
//! * **mutation durability** — kill mid-churn (deletes and relabels in
//!   flight): the recovered state is bit-identical to an uncrashed run,
//!   deletes included, a compacted store's checkpoint round-trips with
//!   every tombstone physically removed, and a tombstoned, uncompacted
//!   epoch checkpoints to exactly what its compaction would;
//! * **load parity** — a loaded checkpoint is bit-identical to the store
//!   that was written, and the graph and partitioning read off it equal the
//!   originals down to every adjacency list's order;
//! * **log behind its checkpoint** — a WAL holding fewer records than the
//!   checkpoint folded in is refused, and the root is left untouched;
//! * **mirror never behind a reader** — every checkpoint, `serve_ingested`
//!   and recovery sees every acknowledged batch in the graph mirror,
//!   whatever the batch sizes;
//! * **recovered mirror ≡ replayed mirror** — a session recovered from
//!   checkpoint + log tail (or from the log alone), fed the rest of the
//!   stream and checkpointed, leaves a root byte-identical to one that never
//!   crashed — whether its deferred mirror is first built by a write, by a
//!   checkpoint or by `serve_ingested`, and across two recoveries in a row;
//! * **pruning** — a root holds its newest checkpoint and one fallback;
//! * **an older blob format** — a root holding a v1 or v2 blob is refused by
//!   name (`unsupported blob version N`), by the loader and by recovery
//!   alike, and left untouched;
//! * **on disk when it returns** — `checkpoint()` writes on the calling
//!   thread: when it returns an epoch, that checkpoint is sealed and proven
//!   loadable, with no wait behind it;
//! * **a write that fails** — is returned by the `checkpoint()` that failed
//!   as the IO error it was, not as corruption, and the next checkpoint goes
//!   through;
//! * **a failed proof leaks nothing** — a broken arena that gets past the
//!   loader is refused with exactly `load_checkpoint`'s error, whatever was
//!   restored, replayed and mirrored beside its proof, and wins over a log
//!   torn in a middle segment; a root of another `k` is refused by both
//!   counts, untouched.

use loom::loom_store::checkpoint::{
    latest_checkpoint, load_checkpoint, write_checkpoint, CHECKPOINT_DIR, MANIFEST_FILE,
    PARTITIONER_BLOB,
};
use loom::loom_store::codec::{
    decode_rows, encode_rows, encode_shard, encode_tail, BlobHeader, BlobRow,
};
use loom::loom_store::{segment_path, segments, StoreError, Wal, WAL_FILE};
use loom::prelude::*;
use loom_graph::generators::motif_planted::MotifPlantConfig;
use loom_graph::generators::regular::path_graph;
use loom_graph::generators::{barabasi_albert, GeneratorConfig};
use loom_graph::io::crc32;
use loom_partition::partition::PartitionId;
use loom_partition::spec::LoomConfig;
use loom_serve::engine::{ServeConfig, ServeEngine};
use loom_sim::matcher::PatternStore;
use loom_sim::plan::{GraphStatistics, PlanCache, PlanStrategy, QueryPlanner};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
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

fn tmproot(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loom-dur-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The newest segment of `root`'s log: the file a crash mid-append tears.
fn newest_segment(root: &Path) -> PathBuf {
    let newest = segments(root).unwrap().pop();
    newest.expect("the root holds a log segment").path
}

fn loom_builder(graph: &LabelledGraph) -> SessionBuilder {
    Session::builder(PartitionerSpec::Loom(
        LoomConfig::new(3, graph.vertex_count()).with_window_size(8),
    ))
    .workload(motif_workload())
    .chunk_size(40)
}

fn assignment_vec(partitioning: &Partitioning) -> Vec<(VertexId, PartitionId)> {
    let mut pairs: Vec<_> = partitioning.assignments().collect();
    pairs.sort_unstable();
    pairs
}

/// Every shard blob (and the tail) of `a` re-encodes byte-identically to
/// `b` — the strongest equality the checkpoint format defines.
fn assert_bit_identical(a: &ShardedStore, b: &ShardedStore) {
    assert_eq!(a.shard_count(), b.shard_count());
    for p in 0..a.shard_count() {
        let p = PartitionId::new(p);
        assert_eq!(
            encode_shard(a, p).unwrap(),
            encode_shard(b, p).unwrap(),
            "shard {p} blob differs"
        );
    }
    assert_eq!(encode_tail(a), encode_tail(b), "tail blob differs");
}

/// `graph`/`partitioning` (derived from a loaded store) equal the originals
/// in everything a traversal can observe: the edge set, every label, every
/// adjacency list *in order*, and every vertex's partition.
fn assert_same_parts(
    graph: &LabelledGraph,
    partitioning: &Partitioning,
    original_graph: &LabelledGraph,
    original_partitioning: &Partitioning,
) {
    assert_eq!(graph.vertices_sorted(), original_graph.vertices_sorted());
    assert_eq!(graph.edges_sorted(), original_graph.edges_sorted());
    assert_eq!(partitioning.k(), original_partitioning.k());
    for v in original_graph.vertices_sorted() {
        assert_eq!(graph.label(v), original_graph.label(v), "label of {v}");
        assert_eq!(
            graph.neighbors(v),
            original_graph.neighbors(v),
            "adjacency order of {v}"
        );
        assert_eq!(
            partitioning.partition_of(v),
            original_partitioning.partition_of(v),
            "partition of {v}"
        );
    }
    assert_eq!(
        partitioning.assigned_count(),
        original_partitioning.assigned_count()
    );
}

#[test]
fn kill_mid_ingest_recover_and_serve_identically() {
    let root = tmproot("e2e");
    let graph = social_graph(300, 11);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let elements = stream.elements();
    let cut = elements.len() * 2 / 3;

    // Durable run: ingest two thirds, checkpoint, keep ingesting, then
    // "crash" (drop without another checkpoint) with a torn WAL tail.
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    session.ingest_batch(&elements[..cut]).unwrap();
    let seq = session.checkpoint().unwrap();
    assert_eq!(seq, 1);
    session.ingest_batch(&elements[cut..]).unwrap();
    let acknowledged = session.wal_records().unwrap();
    drop(session);
    let wal_path = newest_segment(&root);
    let mut raw = std::fs::read(&wal_path).unwrap();
    raw.extend_from_slice(&[0xBE, 0xEF, 0x00]); // crash mid-append
    std::fs::write(&wal_path, &raw).unwrap();

    // Uninterrupted control at the same checkpoint boundary.
    let mut control = loom_builder(&graph).build().unwrap();
    control.ingest_batch(&elements[..cut]).unwrap();
    let control_snapshot = control.snapshot();
    let control_graph = GraphStream::from_elements(elements[..cut].to_vec()).materialise();
    let control_store = ShardedStore::from_parts(&control_graph, &control_snapshot);

    // Recover and compare.
    let recovered = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    let report = recovered.report();
    assert_eq!(report.epoch_seq, 1);
    assert!(report.checkpoint_found);
    assert_eq!(report.wal_records, acknowledged);
    assert_eq!(report.wal_records_in_checkpoint, 1);
    assert_eq!(report.wal_truncated_bytes, 3);
    assert_eq!(recovered.store().epoch(), 1);
    assert_bit_identical(recovered.store(), &control_store);

    // Restart-and-serve: identical reports — same match counts, same
    // traversals, and the pre-crash epoch_seq on every serving shard. The
    // control serves the *snapshot* store (buffered window vertices still
    // unassigned, exactly as checkpointed) — `Serving::serve` would flush
    // them, which is post-crash work the checkpoint never saw.
    let samples = 200;
    let recovered_sharded = recovered.sharded(2);
    let recovered_report = recovered_sharded
        .serve_request(QueryRequest::workload(samples).with_seed(7))
        .0;
    // Compile-once: the recovered plans are built on first use and every
    // engine the handle stands up — sharded or sequential, however many
    // times — shares that one cache.
    let recovered_plans = recovered_sharded.plan_cache().expect("workload session");
    for other in [
        recovered.serving().plan_cache().cloned(),
        recovered.sharded(4).plan_cache().cloned(),
    ] {
        assert!(Arc::ptr_eq(
            recovered_plans,
            &other.expect("workload session")
        ));
    }
    let stats = GraphStatistics::from_graph(&control_graph);
    let plans = Arc::new(PlanCache::compile(
        &QueryPlanner::new(PlanStrategy::default()),
        &motif_workload(),
        &stats,
    ));
    // Mirror the engine `Recovered::sharded` clones from the session's
    // (default-configured) one.
    let control_engine = ServeEngine::new(ServeConfig::new(2)).with_plan_cache(plans);
    let control_report = control_engine
        .run(
            &Arc::new(control_store),
            &motif_workload(),
            QueryRequest::workload(samples).with_seed(7),
            &RequestContext::unbounded(),
        )
        .0;
    assert_eq!(recovered_report.aggregate, control_report.aggregate);
    assert!(recovered_report.aggregate.matches_found > 0);
    assert_eq!(recovered_report.queries, samples);
    // Every engine the handle stands up runs on the recovered store itself:
    // nothing is refrozen or reindexed for the sequential path or another
    // worker count.
    let serving = recovered.serving();
    assert!(Arc::ptr_eq(serving.store(), recovered.store()));
    assert!(Arc::ptr_eq(recovered.sharded(4).store(), recovered.store()));
    // So sequential serving answers exactly as the sharded engine, and the
    // graph and assignment derived from the store are what the
    // uninterrupted session held.
    let request = QueryRequest::workload(samples).with_seed(7);
    let sequential = serving.run(request).metrics;
    assert_eq!(sequential, recovered_sharded.run(request).metrics);
    assert_eq!(
        sequential.matches_found,
        control_report.aggregate.matches_found
    );
    assert_same_parts(
        &recovered.store().to_graph(),
        recovered.partitioning(),
        &control_graph,
        &control_snapshot,
    );
    for shard in recovered_report
        .shards
        .iter()
        .filter(|shard| shard.queries > 0)
    {
        assert_eq!(
            shard.epoch_seq,
            Some(1),
            "serving must stay pinned at recovery epoch"
        );
    }

    // The recovered session keeps going: the next checkpoint continues the
    // epoch sequence instead of restarting it.
    let mut session = recovered.into_session();
    let extra = StreamElement::AddVertex {
        id: VertexId::new(1_000_000),
        label: l(0),
    };
    session.ingest(&extra).unwrap();
    assert_eq!(session.checkpoint().unwrap(), 2);

    // `serve_ingested` serves the mirror the durable layer kept: the same
    // answers as `serve(graph)` over the same stream, and a typed error on
    // a session that kept no mirror.
    control.ingest_batch(&elements[cut..]).unwrap();
    control.ingest(&extra).unwrap();
    let mut history = elements.to_vec();
    history.push(extra);
    let served_graph = GraphStream::from_elements(history).materialise();
    let control_serving = control.serve(served_graph).unwrap();
    let ingested_serving = session.serve_ingested().unwrap();
    assert_same_parts(
        &ingested_serving.store().to_graph(),
        ingested_serving.partitioning(),
        &control_serving.store().to_graph(),
        control_serving.partitioning(),
    );
    let ingested_metrics = ingested_serving.run(request).metrics;
    assert_eq!(ingested_metrics, control_serving.run(request).metrics);
    assert!(ingested_metrics.matches_found > 0);
    assert!(matches!(
        loom_builder(&graph).build().unwrap().serve_ingested(),
        Err(SessionError::Durability(_))
    ));
    std::fs::remove_dir_all(&root).unwrap();
}

/// A session for the deletion-churn scenario: LOOM partitioning the grown
/// graph, serving the scenario's `abc` workload.
fn churn_builder(graph: &LabelledGraph) -> SessionBuilder {
    Session::builder(PartitionerSpec::Loom(
        LoomConfig::new(3, graph.vertex_count()).with_window_size(8),
    ))
    .workload(DeletionChurnScenario::workload())
    .chunk_size(40)
}

#[test]
fn kill_mid_churn_recovers_deletes_bit_identically() {
    let root = tmproot("churn");
    let scenario = DeletionChurnScenario {
        background_vertices: 150,
        instances: 12,
        dissolve_fraction: 0.5,
        relabel_fraction: 0.2,
        seed: 17,
    };
    let run = scenario.build().unwrap();
    let build = run.build_stream.elements();
    let mid = run.dissolve.len() / 2;
    assert!(mid > 0, "scenario must produce a two-batch dissolve stream");

    // Durable run: grow, start dissolving, checkpoint mid-churn, finish the
    // dissolve, then "crash" with a torn WAL tail.
    let mut session = churn_builder(&run.graph)
        .with_durability(&root)
        .build()
        .unwrap();
    session.ingest_batch(build).unwrap();
    session.ingest_batch(&run.dissolve[..mid]).unwrap();
    assert_eq!(session.checkpoint().unwrap(), 1);
    session.ingest_batch(&run.dissolve[mid..]).unwrap();
    let acknowledged = session.wal_records().unwrap();
    drop(session);
    let wal_path = newest_segment(&root);
    let mut raw = std::fs::read(&wal_path).unwrap();
    raw.extend_from_slice(&[0xBE, 0xEF, 0x00]);
    std::fs::write(&wal_path, &raw).unwrap();

    // Uncrashed control at the same mid-churn checkpoint boundary.
    let mut control = churn_builder(&run.graph).build().unwrap();
    control.ingest_batch(build).unwrap();
    control.ingest_batch(&run.dissolve[..mid]).unwrap();
    let mut mid_elements = build.to_vec();
    mid_elements.extend(run.dissolve[..mid].iter().cloned());
    let mid_graph = GraphStream::from_elements(mid_elements).materialise();
    assert!(
        mid_graph.vertex_count() < run.graph.vertex_count(),
        "the checkpoint boundary must already contain deletes"
    );
    let control_store = ShardedStore::from_parts(&mid_graph, &control.snapshot());

    // The mid-churn checkpoint is bit-identical to the uncrashed control —
    // deletes applied physically, never as tombstones.
    let recovered = churn_builder(&run.graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    let report = recovered.report();
    assert_eq!(report.epoch_seq, 1);
    assert_eq!(report.wal_records, acknowledged);
    assert_eq!(report.wal_records_in_checkpoint, 2);
    assert_eq!(report.wal_truncated_bytes, 3);
    assert_bit_identical(recovered.store(), &control_store);

    // Restart-and-serve parity on the scenario workload.
    let samples = 150;
    let workload = DeletionChurnScenario::workload();
    let recovered_report = recovered
        .sharded(2)
        .serve_request(QueryRequest::workload(samples).with_seed(7))
        .0;
    let stats = GraphStatistics::from_graph(&mid_graph);
    let plans = Arc::new(PlanCache::compile(
        &QueryPlanner::new(PlanStrategy::default()),
        &workload,
        &stats,
    ));
    let control_engine = ServeEngine::new(ServeConfig::new(2)).with_plan_cache(plans);
    let control_report = control_engine
        .run(
            &Arc::new(control_store),
            &workload,
            QueryRequest::workload(samples).with_seed(7),
            &RequestContext::unbounded(),
        )
        .0;
    assert_eq!(recovered_report.aggregate, control_report.aggregate);
    assert!(recovered_report.aggregate.matches_found > 0);
    let request = QueryRequest::workload(samples).with_seed(7);
    assert_eq!(
        recovered.serving().run(request).metrics,
        recovered.sharded(2).run(request).metrics
    );
    assert_same_parts(
        &recovered.store().to_graph(),
        recovered.partitioning(),
        &mid_graph,
        &control.snapshot(),
    );

    // Recovery replayed the *entire* acknowledged history — including the
    // post-checkpoint dissolve batch — so the next checkpoint equals an
    // uncrashed session's view of the fully dissolved graph.
    let mut session = recovered.into_session();
    assert_eq!(session.checkpoint().unwrap(), 2);
    drop(session);
    control.ingest_batch(&run.dissolve[mid..]).unwrap();
    // Materialise the control graph from the stream itself so its adjacency
    // order matches what both sessions ingested (`run.final_graph` is the
    // same graph but in generator order).
    let mut all_elements = build.to_vec();
    all_elements.extend(run.dissolve.iter().cloned());
    let final_graph = GraphStream::from_elements(all_elements).materialise();
    let final_store = ShardedStore::from_parts(&final_graph, &control.snapshot());
    let healed = churn_builder(&run.graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_eq!(healed.epoch_seq(), 2);
    assert_bit_identical(healed.store(), &final_store);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn compacted_store_checkpoints_with_tombstones_physically_removed() {
    let root = tmproot("compact-ckpt");
    std::fs::create_dir_all(&root).unwrap();
    let run = DeletionChurnScenario {
        background_vertices: 150,
        instances: 12,
        dissolve_fraction: 0.5,
        relabel_fraction: 0.2,
        seed: 23,
    }
    .build()
    .unwrap();
    let mut ldg = LdgPartitioner::new(LdgConfig::new(3, run.graph.vertex_count())).unwrap();
    let partitioning = partition_stream(&mut ldg, &run.build_stream).unwrap();
    let store = ShardedStore::from_parts(&run.graph, &partitioning);
    let tombstoned = store.apply_mutations(&run.dissolve).store;
    assert!(tombstoned.tombstoned_vertices() > 0);
    let compacted = tombstoned.compact(0.0).store.with_epoch(5);
    assert_eq!(compacted.tombstoned_vertices(), 0);
    assert_eq!(compacted.vertex_count(), run.final_graph.vertex_count());

    // Round-trip through the checkpoint codec: the image loads, verifies,
    // and re-encodes bit-identically — the dead slots are physically gone,
    // and what comes back is exactly the from-scratch final graph.
    let meta = write_checkpoint(&root, &compacted, 3, "test-spec").unwrap();
    assert_eq!(meta.vertices, run.final_graph.vertex_count() as u64);
    let dir = root.join(CHECKPOINT_DIR).join(format!("{:010}", 5));
    let loaded = load_checkpoint(&dir).unwrap();
    assert_bit_identical(&loaded.store, &compacted);
    let graph = loaded.store.to_graph();
    assert_eq!(graph.vertex_count(), run.final_graph.vertex_count());
    assert_eq!(graph.edges_sorted(), run.final_graph.edges_sorted());
    // Relabels survive the round trip too.
    for v in run.final_graph.vertices_sorted() {
        assert_eq!(graph.label(v), run.final_graph.label(v));
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn tombstoned_epoch_checkpoints_to_its_compaction() {
    let root = tmproot("tombstoned-ckpt");
    std::fs::create_dir_all(&root).unwrap();
    let run = DeletionChurnScenario {
        background_vertices: 150,
        instances: 12,
        dissolve_fraction: 0.5,
        relabel_fraction: 0.2,
        seed: 29,
    }
    .build()
    .unwrap();
    let mut ldg = LdgPartitioner::new(LdgConfig::new(3, run.graph.vertex_count())).unwrap();
    let partitioning = partition_stream(&mut ldg, &run.build_stream).unwrap();
    let store = ShardedStore::from_parts(&run.graph, &partitioning);
    let tombstoned = store.apply_mutations(&run.dissolve).store.with_epoch(6);
    assert!(tombstoned.tombstoned_vertices() > 0);

    // The epoch is checkpointed as it stands, tombstones and all: the blobs
    // carry the live slice only, so what loads is what a compaction leaves.
    let meta = write_checkpoint(&root, &tombstoned, 3, "test-spec").unwrap();
    assert_eq!(meta.vertices, run.final_graph.vertex_count() as u64);
    assert_eq!(meta.edges, run.final_graph.edge_count() as u64);
    let dir = root.join(CHECKPOINT_DIR).join(format!("{:010}", 6));
    let loaded = load_checkpoint(&dir).unwrap();
    assert_bit_identical(&loaded.store, &tombstoned.compact(0.0).store);
    assert_eq!(loaded.store.tombstoned_vertices(), 0);
    assert_eq!(loaded.store.check_arena(), Ok(()));
    let removed = run.dissolve.iter().filter_map(|element| match element {
        StreamElement::RemoveVertex { id } => Some(*id),
        _ => None,
    });
    let graph = loaded.store.to_graph();
    for id in removed {
        assert!(!graph.contains_vertex(id), "{id} came back");
    }
    assert_eq!(graph.vertices_sorted(), run.final_graph.vertices_sorted());
    assert_eq!(graph.edges_sorted(), run.final_graph.edges_sorted());
    for v in run.final_graph.vertices_sorted() {
        assert_eq!(graph.label(v), run.final_graph.label(v));
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// The churn scenario's whole stream, cut into batches of 1, 1 024, 1, 1 and
/// 97 elements over and over: single elements follow a long batch into the
/// mirror, and the deletes land in batches of every size.
fn churn_batches(run: &ChurnRun) -> Vec<Vec<StreamElement>> {
    let mut elements = run.build_stream.elements().to_vec();
    elements.extend(run.dissolve.iter().cloned());
    let mut rest = elements.as_slice();
    let mut batches = Vec::new();
    for size in [1usize, 1024, 1, 1, 97].into_iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at(size.min(rest.len()));
        batches.push(batch.to_vec());
        rest = tail;
    }
    batches
}

#[test]
fn checkpoint_folds_in_every_acknowledged_batch() {
    let run = DeletionChurnScenario::small(23).build().unwrap();
    let batches = churn_batches(&run);
    assert!(batches.len() >= 10 && batches.iter().any(|b| b.len() == 1024));
    let whole = GraphStream::from_elements(batches.concat()).materialise();
    assert_eq!(whole.vertices_sorted(), run.final_graph.vertices_sorted());

    // A checkpoint straight after every batch: the published epoch holds
    // exactly the prefix acknowledged so far, never one batch less.
    let root = tmproot("mirror-steps");
    let mut session = churn_builder(&run.graph)
        .with_durability(&root)
        .build()
        .unwrap();
    let mut prefix = Vec::new();
    for (step, batch) in batches.iter().enumerate() {
        session.ingest_batch(batch).unwrap();
        prefix.extend(batch.iter().cloned());
        let epoch = session.checkpoint().unwrap();
        assert_eq!(epoch, step as u64 + 1);
        let dir = root.join(CHECKPOINT_DIR).join(format!("{epoch:010}"));
        // However many epochs are sealed, the root keeps this one and the
        // one before it.
        let kept = std::fs::read_dir(root.join(CHECKPOINT_DIR))
            .unwrap()
            .count();
        assert_eq!(kept, 2.min(step + 1), "step {step}");
        let published = load_checkpoint(&dir).unwrap().store;
        let graph = GraphStream::from_elements(prefix.clone()).materialise();
        let expected = ShardedStore::from_parts(&graph, &session.snapshot());
        assert_eq!(
            published.vertex_count(),
            graph.vertex_count(),
            "step {step}"
        );
        assert_eq!(published.edge_count(), graph.edge_count(), "step {step}");
        assert_eq!(published.check_arena(), Ok(()), "step {step}");
        assert_bit_identical(&published, &expected);
    }
    drop(session);
    std::fs::remove_dir_all(&root).unwrap();

    // No checkpoint at all: `serve_ingested` straight after the last batch
    // still serves the whole stream, adjacency order included.
    let root = tmproot("mirror-serve");
    let mut session = churn_builder(&run.graph)
        .with_durability(&root)
        .build()
        .unwrap();
    for batch in &batches {
        session.ingest_batch(batch).unwrap();
    }
    let serving = session.serve_ingested().unwrap();
    let served = serving.store().to_graph();
    assert_eq!(served.vertices_sorted(), whole.vertices_sorted());
    assert_eq!(served.edges_sorted(), whole.edges_sorted());
    for v in whole.vertices_sorted() {
        assert_eq!(served.label(v), whole.label(v), "label of {v}");
        assert_eq!(served.neighbors(v), whole.neighbors(v), "list of {v}");
    }
    drop(serving);
    std::fs::remove_dir_all(&root).unwrap();

    // Dropped straight after a run of single-element batches, no checkpoint
    // taken: the drop returns, and the root recovers to the full history.
    let root = tmproot("mirror-drop");
    let mut session = churn_builder(&run.graph)
        .with_durability(&root)
        .build()
        .unwrap();
    let mut control = churn_builder(&run.graph).build().unwrap();
    for element in batches.iter().flatten() {
        session.ingest(element).unwrap();
        control.ingest(element).unwrap();
    }
    let acknowledged = session.wal_records().unwrap();
    drop(session);
    let recovered = churn_builder(&run.graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_eq!(recovered.report().wal_records, acknowledged);
    assert!(!recovered.report().checkpoint_found);
    // Without a checkpoint the pinned store is frozen from the replayed
    // mirror: it must already hold everything.
    let expected = ShardedStore::from_parts(&whole, &control.snapshot());
    assert_bit_identical(recovered.store(), &expected);
    let mut session = recovered.into_session();
    assert_eq!(session.checkpoint().unwrap(), 1);
    drop(session);
    let healed = churn_builder(&run.graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_bit_identical(healed.store(), &expected);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Write `store` as a checkpoint, load it back, and hold the loaded store
/// and everything derived from it against what went in.
fn assert_checkpoint_load_parity(
    name: &str,
    graph: &LabelledGraph,
    partitioning: &Partitioning,
    epoch: u64,
) {
    let root = tmproot(name);
    std::fs::create_dir_all(&root).unwrap();
    let store = ShardedStore::from_parts(graph, partitioning).with_epoch(epoch);
    let meta = write_checkpoint(&root, &store, 0, "test-spec").unwrap();
    let dir = root.join(CHECKPOINT_DIR).join(format!("{epoch:010}"));
    let loaded = load_checkpoint(&dir).unwrap();
    assert_eq!(loaded.meta, meta);
    assert_eq!(loaded.store.epoch(), epoch);
    assert_eq!(loaded.store.check_arena(), Ok(()));
    assert_bit_identical(&loaded.store, &store);
    assert_same_parts(
        &loaded.store.to_graph(),
        &loaded.store.to_partitioning(),
        graph,
        partitioning,
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn loaded_checkpoint_equals_what_was_written() {
    // Sixteen seeded graphs, every seventh vertex left unassigned (the tail
    // blob), one shard sometimes empty.
    for seed in 0..16u64 {
        let graph = social_graph(60 + 7 * seed as usize, seed);
        let k = 2 + (seed % 3) as u32;
        let mut partitioning = Partitioning::new(k + 1, graph.vertex_count()).unwrap();
        for (i, v) in graph.vertices_sorted().into_iter().enumerate() {
            if i % 7 != 6 {
                partitioning
                    .assign(v, PartitionId::new(i as u32 % k))
                    .unwrap();
            }
        }
        assert_checkpoint_load_parity(&format!("parity-{seed}"), &graph, &partitioning, seed + 1);
    }
    // A graph that deletes and relabels shaped: adjacency lists whose order
    // no generator would produce, vertex ids with holes.
    let run = DeletionChurnScenario::small(5).build().unwrap();
    let mut elements = run.build_stream.elements().to_vec();
    elements.extend(run.dissolve.iter().cloned());
    let stream = GraphStream::from_elements(elements);
    let graph = stream.materialise();
    let mut ldg = LdgPartitioner::new(LdgConfig::new(3, run.graph.vertex_count())).unwrap();
    ldg.ingest_batch(stream.elements()).unwrap();
    assert_checkpoint_load_parity("parity-churn", &graph, &ldg.snapshot(), 9);
}

/// Every file under `root` with its bytes, sorted by path.
fn root_image(root: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push((path.clone(), std::fs::read(&path).unwrap()));
            }
        }
    }
    files.sort();
    files
}

/// [`root_image`] with every path relative to `root`.
fn relative_image(root: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let relative =
        |(path, bytes): (PathBuf, Vec<u8>)| (path.strip_prefix(root).unwrap().to_path_buf(), bytes);
    root_image(root).into_iter().map(relative).collect()
}

/// One step in the life of a durable session, for [`live_through`].
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Ingest the batches from where the session stands up to this index,
    /// one `ingest_batch` each.
    FeedTo(usize),
    Checkpoint,
    /// Kill the session mid-append — a torn WAL tail — and recover it.
    Crash,
}

/// Stand up a durable session at `root` and take it through `steps` over
/// `batches`. With `crashes`, every [`Step::Crash`] drops the session, tears
/// the newest log segment and recovers it, and the report must count every
/// acknowledged batch and the ones the last checkpoint folded in; without,
/// the crashes are skipped: the twin that never crashed.
fn live_through(
    root: &Path,
    builder: &dyn Fn() -> SessionBuilder,
    batches: &[Vec<StreamElement>],
    steps: &[Step],
    crashes: bool,
) -> Session {
    let mut session = builder().with_durability(root).build().unwrap();
    let (mut fed, mut folded) = (0, 0);
    for &step in steps {
        match step {
            Step::FeedTo(end) => {
                for batch in &batches[fed..end] {
                    session.ingest_batch(batch).unwrap();
                }
                fed = end;
            }
            Step::Checkpoint => {
                session.checkpoint().unwrap();
                folded = fed;
            }
            Step::Crash if crashes => {
                drop(session);
                let wal_path = newest_segment(root);
                let mut raw = std::fs::read(&wal_path).unwrap();
                raw.extend_from_slice(&[0xBE, 0xEF, 0x00]);
                std::fs::write(&wal_path, &raw).unwrap();
                let recovered = builder().with_durability(root).recover().unwrap();
                assert_eq!(recovered.report().wal_records, fed as u64);
                assert_eq!(recovered.report().wal_records_in_checkpoint, folded as u64);
                session = recovered.into_session();
            }
            Step::Crash => {}
        }
    }
    session
}

/// Take a session through `steps`, then feed it the rest of `batches` and
/// checkpoint. The root must come out byte for byte — log, blobs,
/// manifests — as that of a twin that took the same steps and never
/// crashed: whatever each recovered mirror was built from (the checkpoint's
/// arena plus the log's tail, or the log alone), whichever write or
/// checkpoint built it, and however its slots and blocks came to be laid
/// out, nothing that is ever written can tell.
fn assert_crashes_are_unobservable(
    name: &str,
    builder: &dyn Fn() -> SessionBuilder,
    batches: &[Vec<StreamElement>],
    steps: &[Step],
) {
    let whole: Vec<Step> = steps
        .iter()
        .copied()
        .chain([Step::FeedTo(batches.len()), Step::Checkpoint])
        .collect();
    let crashed = tmproot(&format!("{name}-crashed"));
    drop(live_through(&crashed, builder, batches, &whole, true));
    let uncrashed = tmproot(&format!("{name}-uncrashed"));
    drop(live_through(&uncrashed, builder, batches, &whole, false));

    let (a, b) = (relative_image(&crashed), relative_image(&uncrashed));
    let paths = |image: &[(PathBuf, Vec<u8>)]| -> Vec<PathBuf> {
        image.iter().map(|(path, _)| path.clone()).collect()
    };
    assert_eq!(
        paths(&a),
        paths(&b),
        "{name}: the roots hold different files"
    );
    for ((path, crashed), (_, uncrashed)) in a.iter().zip(&b) {
        assert!(crashed == uncrashed, "{name}: {} differs", path.display());
    }
    std::fs::remove_dir_all(&crashed).unwrap();
    std::fs::remove_dir_all(&uncrashed).unwrap();
}

/// [`assert_crashes_are_unobservable`] for a session that checkpoints after
/// `checkpoint_after` batches (if at all), is killed after `crash_after`,
/// and is recovered into ingesting the rest.
fn assert_recovery_is_unobservable(
    name: &str,
    builder: &dyn Fn() -> SessionBuilder,
    batches: &[Vec<StreamElement>],
    checkpoint_after: Option<usize>,
    crash_after: usize,
) {
    let mut steps = Vec::new();
    if let Some(checkpoint_after) = checkpoint_after {
        steps.extend([Step::FeedTo(checkpoint_after), Step::Checkpoint]);
    }
    steps.extend([Step::FeedTo(crash_after), Step::Crash]);
    assert_crashes_are_unobservable(name, builder, batches, &steps);
}

#[test]
fn recovered_mirror_equals_the_replayed_one() {
    // Insert-only.
    let graph = social_graph(200, 21);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let inserts: Vec<Vec<StreamElement>> =
        stream.elements().chunks(37).map(<[_]>::to_vec).collect();
    let n = inserts.len();
    assert!(n > 8);
    let builder = || loom_builder(&graph);
    assert_recovery_is_unobservable("ins-none", &builder, &inserts, None, n / 2);
    assert_recovery_is_unobservable("ins-whole", &builder, &inserts, Some(n / 2), n / 2);
    assert_recovery_is_unobservable("ins-tail", &builder, &inserts, Some(n / 3), n - 2);

    // Churn: the dissolve — RemoveEdge, RemoveVertex, Relabel — and a removed
    // vertex coming back, all behind the checkpoint, in the log's tail.
    let run = DeletionChurnScenario::small(31).build().unwrap();
    let mut churn = churn_batches(&run);
    let back = run
        .dissolve
        .iter()
        .find_map(|element| match element {
            StreamElement::RemoveVertex { id } => Some(*id),
            _ => None,
        })
        .expect("the dissolve removes a vertex");
    let survivor = run.final_graph.vertices_sorted()[0];
    churn.push(vec![
        StreamElement::AddVertex {
            id: back,
            label: l(1),
        },
        StreamElement::AddEdge {
            source: back,
            target: survivor,
        },
    ]);
    churn.push(vec![StreamElement::Relabel {
        id: back,
        label: l(2),
    }]);
    let n = churn.len();
    let builds = run.build_stream.elements().len();
    let checkpoint_after = churn
        .iter()
        .scan(0, |fed, batch| {
            *fed += batch.len();
            Some(*fed)
        })
        .position(|fed| fed > builds / 2)
        .unwrap()
        + 1;
    let tail: Vec<&StreamElement> = churn[checkpoint_after..n - 1].iter().flatten().collect();
    let has = |kind: &dyn Fn(&StreamElement) -> bool| tail.iter().any(|e| kind(e));
    assert!(has(&|e| matches!(e, StreamElement::RemoveVertex { .. })));
    assert!(has(&|e| matches!(e, StreamElement::RemoveEdge { .. })));
    assert!(has(&|e| matches!(e, StreamElement::Relabel { .. })));
    assert!(has(
        &|e| matches!(e, StreamElement::AddVertex { id, .. } if *id == back)
    ));
    let builder = || churn_builder(&run.graph);
    assert_recovery_is_unobservable("churn-none", &builder, &churn, None, n - 1);
    assert_recovery_is_unobservable("churn-whole", &builder, &churn, Some(n - 1), n - 1);
    assert_recovery_is_unobservable(
        "churn-tail",
        &builder,
        &churn,
        Some(checkpoint_after),
        n - 1,
    );
}

/// The insert-only and the churn stream the deferred-mirror tests run on,
/// each with its session builder.
type MirrorStream = (
    &'static str,
    Box<dyn Fn() -> SessionBuilder>,
    Vec<Vec<StreamElement>>,
);

fn mirror_streams() -> [MirrorStream; 2] {
    let graph = social_graph(200, 21);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let inserts: Vec<Vec<StreamElement>> =
        stream.elements().chunks(37).map(<[_]>::to_vec).collect();
    let run = DeletionChurnScenario::small(31).build().unwrap();
    let churn = churn_batches(&run);
    let grown = run.graph;
    for batches in [&inserts, &churn] {
        assert!(batches.len() >= 10, "room for five cuts");
    }
    [
        ("ins", Box::new(move || loom_builder(&graph)), inserts),
        ("churn", Box::new(move || churn_builder(&grown)), churn),
    ]
}

/// A recovered session whose first act is a checkpoint: the checkpoint is
/// what builds its mirror (from the proven arena plus the log's tail, or
/// the arena alone), and nothing it writes then or later tells it from a
/// session that never crashed.
#[test]
fn a_recovered_session_that_checkpoints_first_builds_its_mirror_there() {
    use Step::{Checkpoint, Crash, FeedTo};
    for (name, builder, batches) in mirror_streams() {
        let n = batches.len();
        let tail = [FeedTo(n / 2), Checkpoint, FeedTo(n - 2), Crash, Checkpoint];
        assert_crashes_are_unobservable(&format!("{name}-first-tail"), &*builder, &batches, &tail);
        let whole = [FeedTo(n - 2), Checkpoint, Crash, Checkpoint];
        assert_crashes_are_unobservable(
            &format!("{name}-first-whole"),
            &*builder,
            &batches,
            &whole,
        );
    }
}

/// Recover, ingest, checkpoint, crash, recover again, ingest, checkpoint:
/// the second recovery starts from a checkpoint a recovered session wrote
/// out of a mirror it built on its first write.
#[test]
fn a_session_recovered_twice_writes_what_its_twin_does() {
    use Step::{Checkpoint, Crash, FeedTo};
    for (name, builder, batches) in mirror_streams() {
        let cut = |fifths: usize| batches.len() * fifths / 5;
        let tail = [
            FeedTo(cut(1)),
            Checkpoint,
            FeedTo(cut(2)),
            Crash,
            FeedTo(cut(3)),
            Checkpoint,
            FeedTo(cut(4)),
            Crash,
        ];
        assert_crashes_are_unobservable(&format!("{name}-twice-tail"), &*builder, &batches, &tail);
        let whole = [
            FeedTo(cut(1)),
            Checkpoint,
            Crash,
            FeedTo(cut(3)),
            Checkpoint,
            Crash,
        ];
        assert_crashes_are_unobservable(
            &format!("{name}-twice-whole"),
            &*builder,
            &batches,
            &whole,
        );
    }
}

/// `serve_ingested` on a recovered session that has not written builds the
/// mirror there and serves what the uncrashed twin serves: the same blobs,
/// homes, plans and answers.
#[test]
fn serve_ingested_on_a_recovered_session_serves_what_its_twin_does() {
    use Step::{Checkpoint, Crash, FeedTo};
    for (name, builder, batches) in mirror_streams() {
        let n = batches.len();
        let cases = [
            (
                "tail",
                vec![FeedTo(n / 2), Checkpoint, FeedTo(n - 2), Crash],
            ),
            ("whole", vec![FeedTo(n - 2), Checkpoint, Crash]),
        ];
        for (case, steps) in cases {
            let roots =
                [true, false].map(|crashed| tmproot(&format!("{name}-serve-{case}-{crashed}")));
            let [crashed, twin] = [0, 1].map(|at| {
                live_through(&roots[at], &*builder, &batches, &steps, at == 0)
                    .serve_ingested()
                    .unwrap()
            });
            assert_bit_identical(crashed.store(), twin.store());
            assert_eq!(crashed.store().epoch(), twin.store().epoch());
            assert_eq!(
                assignment_vec(crashed.partitioning()),
                assignment_vec(twin.partitioning()),
                "{name}-{case}: homes"
            );
            let plans = |serving: &Serving| -> Vec<_> {
                let cache = serving.plan_cache().expect("a workload compiles plans");
                let mut ids: Vec<_> = cache.plans().map(|plan| plan.id()).collect();
                ids.sort_unstable_by_key(|id| id.0);
                ids
            };
            assert_eq!(plans(&crashed), plans(&twin), "{name}-{case}: plans");
            let request = QueryRequest::workload(60).with_seed(4);
            assert_eq!(crashed.run(request).metrics, twin.run(request).metrics);
            for root in roots {
                std::fs::remove_dir_all(root).unwrap();
            }
        }
    }
}

#[test]
fn wal_behind_its_checkpoint_is_refused() {
    let root = tmproot("wal-behind");
    let graph = social_graph(150, 13);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    session.ingest_stream(&stream).unwrap();
    // The log's first segment, as it stood before the checkpoint retired it.
    let history = std::fs::read(newest_segment(&root)).unwrap();
    session.checkpoint().unwrap();
    let records = session.wal_records().unwrap();
    assert!(records > 2);
    drop(session);
    let wal_path = newest_segment(&root);
    let intact = std::fs::read(&wal_path).unwrap();

    let refused = |held: u64| {
        let before = root_image(&root);
        let err = loom_builder(&graph)
            .with_durability(&root)
            .recover()
            .expect_err("a log behind its checkpoint must not recover");
        assert!(
            matches!(err, SessionError::Store(StoreError::Corrupt { .. })),
            "{err}"
        );
        let text = err.to_string();
        assert!(
            text.contains(&format!("holds {held} records"))
                && text.contains(&format!("folded in {records}")),
            "{text}"
        );
        // Refusing is read-only: nothing created, truncated or rewritten.
        assert_eq!(root_image(&root), before);
    };

    // The log is gone: recovery must not quietly start a new one under a
    // store that already holds `records` batches.
    std::fs::remove_file(&wal_path).unwrap();
    refused(0);
    assert!(segments(&root).unwrap().is_empty());

    // The log ends before the checkpoint: only the first segment survives,
    // cut back to its first record (and a torn tail after it).
    let first_len = 8 + u32::from_le_bytes(history[8..12].try_into().unwrap()) as usize;
    let mut cut = history[..8 + first_len].to_vec();
    cut.extend_from_slice(&[0xBE, 0xEF]);
    let first_segment = loom::loom_store::segment_path(&root, 0);
    std::fs::write(&first_segment, &cut).unwrap();
    refused(1);

    // With the log restored the same root recovers.
    std::fs::remove_file(&first_segment).unwrap();
    std::fs::write(&wal_path, &intact).unwrap();
    let recovered = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_eq!(recovered.report().wal_records, records);
    assert_eq!(recovered.report().wal_records_in_checkpoint, records);
    drop(recovered);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn torn_wal_tail_loses_only_the_unacknowledged_batch() {
    let root = tmproot("torn-tail");
    let graph = social_graph(120, 3);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    session.ingest_stream(&stream).unwrap();
    let acknowledged = session.wal_records().unwrap();
    let ingested = session.stats().vertices_ingested;
    drop(session);

    // Crash mid-append: half a frame header, then half a "record" whose CRC
    // cannot match.
    let wal_path = root.join("wal.log");
    let mut raw = std::fs::read(&wal_path).unwrap();
    assert!(raw.starts_with(b"LOOMWAL2"));
    raw.extend_from_slice(&[0x40, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 0xAA, 0xBB]);
    std::fs::write(&wal_path, &raw).unwrap();

    let recovered = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_eq!(recovered.report().wal_records, acknowledged);
    assert_eq!(recovered.report().wal_truncated_bytes, 10);
    assert!(!recovered.report().checkpoint_found);
    // Nothing invented: the replayed session saw exactly the acknowledged
    // elements, and a second recovery is stable (truncation already done).
    let mut session = recovered.into_session();
    assert_eq!(session.stats().vertices_ingested, ingested);
    assert_eq!(session.wal_records(), Some(acknowledged));
    session.ingest_batch(&[]).unwrap();
    drop(session);
    let again = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_eq!(again.report().wal_records, acknowledged + 1);
    assert_eq!(again.report().wal_truncated_bytes, 0);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn missing_manifest_falls_back_to_the_previous_checkpoint() {
    let root = tmproot("torn-ckpt");
    let graph = social_graph(150, 5);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let elements = stream.elements();
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    session
        .ingest_batch(&elements[..elements.len() / 2])
        .unwrap();
    session.checkpoint().unwrap();
    session
        .ingest_batch(&elements[elements.len() / 2..])
        .unwrap();
    let seq = session.checkpoint().unwrap();
    assert_eq!(seq, 2);
    drop(session);

    // Crash mid-checkpoint of epoch 2: its manifest never hit the disk.
    let manifest = root
        .join(CHECKPOINT_DIR)
        .join(format!("{seq:010}"))
        .join(MANIFEST_FILE);
    std::fs::remove_file(&manifest).unwrap();

    let recovered = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_eq!(recovered.epoch_seq(), 1);
    assert_eq!(recovered.report().invalid_checkpoints_skipped, 1);
    // The full WAL still replays: the live session lost nothing.
    let mut session = recovered.into_session();
    assert_eq!(session.stats().vertices_ingested, graph.vertex_count());
    // And the next checkpoint seals a fresh epoch *after* the torn one.
    assert_eq!(session.checkpoint().unwrap(), 2);
    drop(session);
    let healed = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_eq!(healed.epoch_seq(), 2);
    assert_eq!(healed.report().invalid_checkpoints_skipped, 0);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn builder_refuses_to_clobber_existing_durable_state() {
    let root = tmproot("noclobber");
    let graph = social_graph(60, 2);
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    session
        .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
        .unwrap();
    drop(session);
    let err = loom_builder(&graph)
        .with_durability(&root)
        .build()
        .expect_err("existing WAL must not be clobbered");
    assert!(matches!(err, SessionError::Durability(_)));
    assert!(err.to_string().contains("recover"));
    // Spec mismatch at recovery is equally rejected once a checkpoint exists.
    let mut session = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap()
        .into_session();
    session.checkpoint().unwrap();
    drop(session);
    let before = root_image(&root);
    let mismatched = Session::builder(PartitionerSpec::Hash(
        loom_partition::hash::HashConfig::new(3, graph.vertex_count()),
    ))
    .with_durability(&root)
    .recover();
    match mismatched {
        Err(SessionError::Durability(detail)) => assert!(
            detail.contains("written by partitioner `loom`")
                && detail.contains("configured for `hash`"),
            "{detail}"
        ),
        other => panic!("expected a spec mismatch, got {:?}", other.map(|_| ())),
    }
    assert_eq!(root_image(&root), before);

    // The checkpoint retired `wal.log`: a healthy root holds a later segment
    // and its checkpoints. Neither half alone is a fresh root either.
    assert!(!root.join(WAL_FILE).exists());
    let refuses = |case: &str| {
        let before = root_image(&root);
        let err = loom_builder(&graph)
            .with_durability(&root)
            .build()
            .expect_err(case);
        assert!(matches!(err, SessionError::Durability(_)), "{case}: {err}");
        assert!(
            err.to_string().contains("Session::recover"),
            "{case}: {err}"
        );
        assert_eq!(root_image(&root), before, "{case}");
    };
    let segment = newest_segment(&root);
    let log = std::fs::read(&segment).unwrap();
    std::fs::remove_file(&segment).unwrap();
    refuses("checkpoints only");
    std::fs::write(&segment, &log).unwrap();
    let aside = tmproot("noclobber-aside");
    std::fs::rename(root.join(CHECKPOINT_DIR), &aside).unwrap();
    refuses("only a later segment");
    std::fs::rename(&aside, root.join(CHECKPOINT_DIR)).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_root_of_another_k_is_refused_by_both_counts_and_left_untouched() {
    let root = tmproot("k-mismatch");
    let graph = social_graph(60, 5);
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    session
        .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
        .unwrap();
    session.checkpoint().unwrap();
    drop(session);
    // The same partitioner, configuration and workload, one more shard.
    let four = || {
        Session::builder(PartitionerSpec::Loom(
            LoomConfig::new(4, graph.vertex_count()).with_window_size(8),
        ))
        .workload(motif_workload())
        .chunk_size(40)
    };
    let before = root_image(&root);
    match four().with_durability(&root).recover() {
        Err(SessionError::Durability(detail)) => assert!(
            detail.contains("has 3 shards") && detail.contains("k = 4"),
            "{detail}"
        ),
        other => panic!("expected a k mismatch, got {:?}", other.map(|_| ())),
    }
    assert_eq!(root_image(&root), before);
    // Refusing changed nothing: the builder it was written with recovers.
    let recovered = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_eq!(recovered.store().shard_count(), 3);
    drop(recovered);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn fresh_root_recovers_to_an_empty_session() {
    let root = tmproot("fresh");
    let graph = social_graph(80, 9);
    let recovered = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_eq!(recovered.epoch_seq(), 0);
    assert!(!recovered.report().checkpoint_found);
    assert_eq!(recovered.store().vertex_count(), 0);
    let mut session = recovered.into_session();
    session
        .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
        .unwrap();
    assert_eq!(session.checkpoint().unwrap(), 1);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_checkpoint_is_on_disk_when_checkpoint_returns() {
    let root = tmproot("on-disk");
    let graph = social_graph(200, 6);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let (first, rest) = stream.elements().split_at(stream.elements().len() / 2);
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    for (half, expected) in [(first, 1), (rest, 2)] {
        session.ingest_batch(half).unwrap();
        let epoch = session.checkpoint().unwrap();
        assert_eq!(epoch, expected);
        // No wait: the manifest names this epoch and the log position it
        // folds in, and the checkpoint proves.
        let (dir, meta, skipped) = latest_checkpoint(&root).unwrap().unwrap();
        assert_eq!((meta.epoch_seq, skipped), (epoch, 0));
        assert_eq!(meta.wal_records, session.wal_records().unwrap());
        let loaded = load_checkpoint(&dir).unwrap();
        assert_eq!(loaded.store.epoch(), epoch);
        let ingested = session.stats().vertices_ingested;
        assert_eq!(loaded.store.live_vertex_count(), ingested);
        assert!(loaded.partitioner.is_some());
    }
    assert_eq!(session.stats().vertices_ingested, graph.vertex_count());
    // Each epoch was written, none coalesced into the next.
    for epoch in [1, 2] {
        let dir = root.join(CHECKPOINT_DIR).join(format!("{epoch:010}"));
        assert!(dir.join(MANIFEST_FILE).is_file(), "epoch {epoch}");
    }
    drop(session);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_checkpoint_that_cannot_be_written_is_an_io_error_not_corruption() {
    let root = tmproot("unwritable");
    let graph = social_graph(60, 4);
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    session
        .ingest_stream(&GraphStream::from_graph(&graph, &StreamOrder::Bfs))
        .unwrap();
    // A file where the checkpoint directory goes: creating it fails.
    let checkpoints = root.join(CHECKPOINT_DIR);
    std::fs::write(&checkpoints, b"in the way").unwrap();
    match session.checkpoint() {
        Err(SessionError::Store(StoreError::Io { path, .. })) => assert_eq!(path, checkpoints),
        other => panic!("expected an Io error, got {other:?}"),
    }
    // The failed write used up epoch 1 (the log was already cut there) and
    // wrote nothing.
    assert_eq!(session.sync_durability(Duration::ZERO).unwrap(), 0);
    // Once the way is clear the next checkpoint is written, and recovers.
    std::fs::remove_file(&checkpoints).unwrap();
    assert_eq!(session.checkpoint().unwrap(), 2);
    assert_eq!(session.sync_durability(Duration::ZERO).unwrap(), 2);
    drop(session);
    let recovered = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_eq!(recovered.epoch_seq(), 2);
    assert_eq!(recovered.store().live_vertex_count(), graph.vertex_count());
    std::fs::remove_dir_all(&root).unwrap();
}

/// Rewrite the `MANIFEST` in `dir` through `edit` (its lines, trailer
/// dropped) and re-CRC it, so only what the manifest says can object.
fn reseal_manifest(dir: &Path, edit: impl FnOnce(Vec<String>) -> Vec<String>) {
    let path = dir.join(MANIFEST_FILE);
    let raw = std::fs::read_to_string(&path).unwrap();
    let (body, _) = raw.rsplit_once("crc ").unwrap();
    let lines = edit(body.lines().map(str::to_string).collect());
    let body: String = lines.iter().map(|line| format!("{line}\n")).collect();
    std::fs::write(&path, format!("{body}crc {}\n", crc32(body.as_bytes()))).unwrap();
}

/// Replace blob `name` of the checkpoint in `dir` by `bytes`, manifest
/// resealed.
fn replace_blob(dir: &Path, name: &str, bytes: &[u8]) {
    std::fs::write(dir.join(name), bytes).unwrap();
    let listed = format!("blob {name} {} {}", bytes.len(), crc32(bytes));
    reseal_manifest(dir, |lines| {
        let prefix = format!("blob {name} ");
        let swap = |line: String| match line.starts_with(&prefix) {
            true => listed.clone(),
            false => line,
        };
        lines.into_iter().map(swap).collect()
    });
}

/// Rewrite every arena blob of the checkpoint in `dir` through `edit`, which
/// sees each blob's file name and its header and rows as the codec decodes
/// them, then re-encode it, manifest resealed.
fn rewrite_blobs(dir: &Path, mut edit: impl FnMut(&str, &mut BlobHeader, &mut Vec<BlobRow>)) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if !name.ends_with(".blob") || name == PARTITIONER_BLOB {
            continue;
        }
        let (mut header, mut rows) = decode_rows(&std::fs::read(&path).unwrap(), &path).unwrap();
        edit(&name, &mut header, &mut rows);
        replace_blob(dir, &name, &encode_rows(header, &rows));
    }
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// Where things lie in a LOOM state blob (`loom_partition::state`).
struct LoomStateLayout {
    /// The first byte of every header field, by name, and whether it is a
    /// setting's value.
    header: Vec<(String, usize, bool)>,
    /// The window's vertex count.
    window_count: usize,
    /// The first window vertex's window-list length.
    first_list: usize,
    /// The re-entry index's entry count, and where its entries end.
    reentries: (usize, usize),
    /// An outside vertex that one window vertex lists once and no other
    /// lists, with that window vertex.
    listed_once: Option<(u64, u64)>,
}

fn loom_state_layout(bytes: &[u8]) -> LoomStateLayout {
    let mut header = vec![
        ("magic".to_string(), 0, false),
        ("version".to_string(), 4, false),
        ("name".to_string(), 8, false),
    ];
    let mut at = 12 + u32_at(bytes, 8);
    header.push(("setting count".into(), at, false));
    let settings = u32_at(bytes, at);
    at += 4;
    for _ in 0..settings {
        let len = u32_at(bytes, at);
        let name = String::from_utf8(bytes[at + 4..at + 4 + len].to_vec()).unwrap();
        header.push((format!("{name} name"), at, false));
        header.push((format!("{name} kind"), at + 4 + len, false));
        header.push((name, at + 5 + len, true));
        at += 4 + len + 1 + 8;
    }
    header.push(("load count".into(), at, false));
    let k = u32_at(bytes, at);
    at += 4;
    for p in 0..k {
        header.push((format!("load {p}"), at, false));
        at += 8;
    }
    // Twelve LOOM counters and the batch count.
    let window_count = at + 13 * 8;
    at = window_count + 8;
    let first_list = at + 12;
    let mut listings: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for _ in 0..u64_at(bytes, window_count) {
        let v = u64_at(bytes, at) as u64;
        at += 12;
        at += 4 + 8 * u32_at(bytes, at);
        let externals = u32_at(bytes, at);
        for i in 0..externals {
            let o = u64_at(bytes, at + 4 + 8 * i) as u64;
            listings.entry(o).or_default().push(v);
        }
        at += 4 + 8 * externals;
    }
    let count = at;
    at += 8;
    for _ in 0..u64_at(bytes, count) {
        at += 12 + 8 * u32_at(bytes, at + 8);
    }
    let listed_once = listings
        .into_iter()
        .find(|(_, members)| members.len() == 1)
        .map(|(o, members)| (o, members[0]));
    LoomStateLayout {
        header,
        window_count,
        first_list,
        reentries: (count, at),
        listed_once,
    }
}

/// A root checkpointed by a LOOM session two thirds of the way through
/// `graph`'s stream — with an isolated vertex buffered last — then fed the
/// rest and killed with a torn log tail. Returns the checkpoint's directory.
fn crashed_loom_root(root: &Path, graph: &LabelledGraph, isolated: VertexId) -> PathBuf {
    let stream = GraphStream::from_graph(graph, &StreamOrder::Bfs);
    let elements = stream.elements();
    let cut = elements.len() * 2 / 3;
    let mut session = loom_builder(graph).with_durability(root).build().unwrap();
    session.ingest_batch(&elements[..cut]).unwrap();
    session
        .ingest(&StreamElement::AddVertex {
            id: isolated,
            label: l(3),
        })
        .unwrap();
    let epoch = session.checkpoint().unwrap();
    session.ingest_batch(&elements[cut..]).unwrap();
    drop(session);
    let wal_path = newest_segment(root);
    let mut raw = std::fs::read(&wal_path).unwrap();
    raw.extend_from_slice(&[0xBE, 0xEF, 0x00]);
    std::fs::write(&wal_path, &raw).unwrap();
    root.join(CHECKPOINT_DIR).join(format!("{epoch:010}"))
}

#[test]
fn a_bad_partitioner_blob_is_a_typed_error_and_the_root_is_untouched() {
    let root = tmproot("bad-state");
    let graph = social_graph(60, 41);
    let isolated = VertexId::new(1_000_000);
    let dir = crashed_loom_root(&root, &graph, isolated);
    let intact = std::fs::read(dir.join(PARTITIONER_BLOB)).unwrap();
    let layout = loom_state_layout(&intact);

    // Recover with `state` as the partitioner blob, with the builder
    // `builder` makes, and hand back the error: recovery must refuse, and
    // must leave the root exactly as it found it.
    let refuse = |state: &[u8], builder: &dyn Fn() -> SessionBuilder| -> SessionError {
        replace_blob(&dir, PARTITIONER_BLOB, state);
        let before = root_image(&root);
        let err = builder()
            .with_durability(&root)
            .recover()
            .expect_err("a bad partitioner blob must not recover");
        assert_eq!(root_image(&root), before, "a refused recovery wrote: {err}");
        err
    };
    let ours = || loom_builder(&graph);
    let corrupt = |state: &[u8]| match refuse(state, &ours) {
        SessionError::Store(StoreError::Corrupt { detail, .. }) => detail,
        other => panic!("expected Corrupt, got {other}"),
    };

    for cut in 0..intact.len() {
        corrupt(&intact[..cut]);
    }
    // One flip in each header field: a mismatch (a setting's value is
    // refused by its name) or corruption, whichever the field makes it.
    for (field, at, value) in &layout.header {
        let mut flipped = intact.clone();
        flipped[*at] ^= 0x01;
        match refuse(&flipped, &ours) {
            SessionError::Store(StoreError::Corrupt { .. }) if !value => {}
            SessionError::Durability(detail)
                if !value || detail.contains(&format!("{field} = ")) => {}
            other => panic!("{field}: got {other}"),
        }
    }
    let with = |at: usize, raw: &[u8]| {
        let mut bytes = intact.clone();
        bytes[at..at + raw.len()].copy_from_slice(raw);
        bytes
    };
    let detail = corrupt(&with(layout.window_count, &(1u64 << 40).to_le_bytes()));
    assert!(detail.contains("implausible window vertices"), "{detail}");
    let detail = corrupt(&with(layout.first_list, &u32::MAX.to_le_bytes()));
    assert!(
        detail.contains("truncated while reading window list"),
        "{detail}"
    );
    let (load, at, _) = layout
        .header
        .iter()
        .find(|(f, _, _)| f == "load 0")
        .unwrap();
    let held = u64_at(&intact, *at) as u64;
    let detail = corrupt(&with(*at, &(held + 1).to_le_bytes()));
    assert!(detail.contains("the state says"), "{load}: {detail}");
    // Decodes, but is not what its own partitioner writes: a re-entry
    // entry spelled out although the external lists already give it.
    let (count, end) = layout.reentries;
    let (outside, member) = layout
        .listed_once
        .expect("the window holds an external edge");
    let mut spelled_out = with(count, &(u64_at(&intact, count) as u64 + 1).to_le_bytes());
    let entry = [
        &outside.to_le_bytes()[..],
        &1u32.to_le_bytes(),
        &member.to_le_bytes(),
    ];
    spelled_out.splice(end..end, entry.concat());
    let detail = corrupt(&spelled_out);
    assert!(detail.contains("does not re-encode"), "{detail}");

    // Another configuration or workload is refused by the setting's name.
    let window_16 = || {
        Session::builder(PartitionerSpec::Loom(
            LoomConfig::new(3, graph.vertex_count()).with_window_size(16),
        ))
        .workload(motif_workload())
        .chunk_size(40)
    };
    let other_workload = || {
        let edge_only = PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap();
        loom_builder(&graph).workload(Workload::uniform(vec![edge_only]).unwrap())
    };
    for (builder, field) in [
        (&window_16 as &dyn Fn() -> SessionBuilder, "window_size = 8"),
        (&other_workload, "workload"),
    ] {
        match refuse(&intact, builder) {
            SessionError::Durability(detail) => assert!(detail.contains(field), "{detail}"),
            other => panic!("expected Durability, got {other}"),
        }
    }

    // A buffered vertex the arena does not hold: the isolated vertex's row
    // taken out of the tail blob and the manifest's total, which leaves a
    // sound arena behind.
    replace_blob(&dir, PARTITIONER_BLOB, &intact);
    rewrite_blobs(&dir, |name, _, rows| {
        if name == "tail.blob" {
            let before = rows.len();
            rows.retain(|row| row.0 != isolated);
            assert_eq!(rows.len(), before - 1, "the tail holds {isolated}");
        }
    });
    reseal_manifest(&dir, |lines| {
        let fewer = |line: String| match line.strip_prefix("vertices ") {
            Some(n) => format!("vertices {}", n.parse::<u64>().unwrap() - 1),
            None => line,
        };
        lines.into_iter().map(fewer).collect()
    });
    let detail = corrupt(&intact);
    assert!(
        detail.contains(&format!(
            "buffered vertex {isolated} is neither placed nor in the tail"
        )),
        "{detail}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// The error `load_checkpoint` gives for `dir`, which must be `Corrupt`.
fn load_refusal(dir: &Path) -> (PathBuf, String) {
    match load_checkpoint(dir) {
        Err(StoreError::Corrupt { path, detail }) => (path, detail),
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
}

/// Recover `root`, which must be refused with exactly `expected` — the
/// `Corrupt` error `load_checkpoint` gives — and leave it byte for byte as
/// found.
fn assert_refused_as(root: &Path, graph: &LabelledGraph, expected: &(PathBuf, String)) {
    let before = root_image(root);
    match loom_builder(graph).with_durability(root).recover() {
        Err(SessionError::Store(StoreError::Corrupt { path, detail })) => {
            assert_eq!((&path, &detail), (&expected.0, &expected.1));
        }
        other => panic!("expected {expected:?}, got {:?}", other.map(|_| ())),
    }
    assert_eq!(root_image(root), before, "a refused recovery wrote");
}

/// One break per way a shard blob can be refused under checksums that all
/// hold: rewritten through the codec's rows and re-encoded.
type Break = fn(&mut BlobHeader, &mut [BlobRow]);

/// Index of the first row with at least two neighbours.
fn busy(rows: &[BlobRow]) -> usize {
    rows.iter().position(|r| r.2.len() >= 2).unwrap()
}

fn self_loop(_: &mut BlobHeader, rows: &mut [BlobRow]) {
    let i = busy(rows);
    let v = rows[i].0;
    rows[i].2.push(v);
}

fn repeated_neighbour(_: &mut BlobHeader, rows: &mut [BlobRow]) {
    let i = busy(rows);
    let again = rows[i].2[0];
    rows[i].2.push(again);
}

/// One arc redirected to a vertex that does not name this one back.
fn one_sided_edge(_: &mut BlobHeader, rows: &mut [BlobRow]) {
    let i = busy(rows);
    let (v, listed) = (rows[i].0, rows[i].2.clone());
    let stranger = rows
        .iter()
        .map(|r| r.0)
        .find(|u| *u != v && !listed.contains(u))
        .unwrap();
    rows[i].2[0] = stranger;
}

/// A slice out of id order: its gaps cannot spell it, so the decoder
/// refuses it before the arena is laid out.
fn out_of_id_order(_: &mut BlobHeader, rows: &mut [BlobRow]) {
    rows.swap(0, 1);
}

fn tamper_shard0(dir: &Path, edit: Break) {
    let name = "shard_0000.blob";
    let path = dir.join(name);
    let (mut header, mut rows) = decode_rows(&std::fs::read(&path).unwrap(), &path).unwrap();
    edit(&mut header, &mut rows);
    replace_blob(dir, name, &encode_rows(header, &rows));
}

/// Shard 0's first label spelled as a two-byte varint: the same arena, but
/// not the bytes the encoder writes.
fn pad_first_label(dir: &Path) {
    let name = "shard_0000.blob";
    let raw = std::fs::read(dir.join(name)).unwrap();
    // Header, then one-byte varints: the vertex count and the first gap.
    let label = 16 + 1 + 1;
    assert!(raw[16..=label].iter().all(|&b| b < 0x80));
    let mut padded = raw[..label].to_vec();
    padded.extend_from_slice(&[raw[label] | 0x80, 0x00]);
    padded.extend_from_slice(&raw[label + 1..]);
    replace_blob(dir, name, &padded);
}

#[test]
fn a_failed_proof_hands_back_nothing_built_beside_it() {
    // A LOOM root whose checkpoint carries the partitioner's state, with a
    // log tail past it: recovery restores, replays and builds the mirror
    // from each broken arena beside the proof that refuses it.
    let root = tmproot("leak");
    let graph = social_graph(60, 53);
    let dir = crashed_loom_root(&root, &graph, VertexId::new(1_000_000));
    assert!(dir.join(PARTITIONER_BLOB).exists());
    let written = root_image(&root);
    let restore = || {
        for (path, bytes) in &written {
            std::fs::write(path, bytes).unwrap();
        }
    };
    let breaks: [(&str, Break); 4] = [
        ("not a live neighbour", self_loop),
        ("a repeated neighbour", repeated_neighbour),
        ("no reverse arc", one_sided_edge),
        ("ids do not ascend", out_of_id_order),
    ];
    for (expected, edit) in breaks {
        restore();
        tamper_shard0(&dir, edit);
        let refusal = load_refusal(&dir);
        assert!(refusal.1.contains(expected), "{}", refusal.1);
        assert_refused_as(&root, &graph, &refusal);
    }
    restore();
    pad_first_label(&dir);
    let refusal = load_refusal(&dir);
    assert!(refusal.1.contains("does not round-trip"), "{}", refusal.1);
    assert_refused_as(&root, &graph, &refusal);
    restore();
    loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .expect("the untampered root recovers");
    std::fs::remove_dir_all(&root).unwrap();

    // A broken checkpoint over a log torn in a middle segment: the
    // checkpoint's error wins, as it would without the closure.
    let root = tmproot("leak-torn");
    let graph = social_graph(150, 61);
    let batches = batches_of(&graph, 40);
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    feed(&mut session, &batches[..2]);
    let fallback = session.checkpoint().unwrap();
    feed(&mut session, &batches[2..4]);
    let lost = session.checkpoint().unwrap();
    std::fs::remove_file(manifest_of(&root, lost)).unwrap();
    feed(&mut session, &batches[4..6]);
    let newest = session.checkpoint().unwrap();
    feed(&mut session, &batches[6..7]);
    drop(session);
    std::fs::remove_file(manifest_of(&root, newest)).unwrap();
    assert_eq!(segment_starts(&root), [2, 4, 6]);
    let middle = segments(&root).unwrap()[1].path.clone();
    let mut bytes = std::fs::read(&middle).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&middle, &bytes).unwrap();
    assert_refused(&root, &graph, "not the newest");
    let dir = root.join(CHECKPOINT_DIR).join(format!("{fallback:010}"));
    tamper_shard0(&dir, self_loop);
    let refusal = load_refusal(&dir);
    assert!(refusal.1.contains("not a live neighbour"), "{}", refusal.1);
    assert_refused_as(&root, &graph, &refusal);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_root_with_a_v1_or_v2_blob_is_refused_by_name_and_left_untouched() {
    let root = tmproot("old-blob");
    let graph = social_graph(60, 47);
    let dir = crashed_loom_root(&root, &graph, VertexId::new(1_000_000));
    let written = root_image(&root);
    let name = "shard_0000.blob";
    for version in [1u8, 2] {
        for (path, bytes) in &written {
            std::fs::write(path, bytes).unwrap();
        }
        // The header's version word, as a writer of that version stamped it.
        let mut blob = std::fs::read(dir.join(name)).unwrap();
        blob[4] = version;
        replace_blob(&dir, name, &blob);
        let refusal = load_refusal(&dir);
        let expected = format!("unsupported blob version {version}");
        assert_eq!(refusal, (dir.join(name), expected));
        assert_refused_as(&root, &graph, &refusal);
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_root_without_a_partitioner_blob_recovers_by_replaying_the_whole_log() {
    let root = tmproot("old-root");
    let graph = social_graph(80, 43);
    let isolated = VertexId::new(1_000_000);

    // The blob taken out of a checkpoint this binary wrote: the checkpoint
    // now needs the whole log, but the segments it folded in are retired.
    // Refused by the records it is missing, the root untouched.
    let dir = crashed_loom_root(&root, &graph, isolated);
    std::fs::remove_file(dir.join(PARTITIONER_BLOB)).unwrap();
    reseal_manifest(&dir, |lines| {
        let listed = |line: &String| !line.starts_with(&format!("blob {PARTITIONER_BLOB} "));
        lines.into_iter().filter(listed).collect()
    });
    let before = root_image(&root);
    let err = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .expect_err("a blob-less checkpoint needs the retired log");
    match err {
        SessionError::Store(StoreError::Corrupt { detail, .. }) => {
            assert!(detail.contains("log is missing records 0..2"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    assert_eq!(root_image(&root), before);
    std::fs::remove_dir_all(&root).unwrap();

    // The root a binary from before the blob leaves: the same checkpoint
    // written without it (`write_checkpoint`) beside one `wal.log` holding
    // every batch, torn tail and all.
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let elements = stream.elements();
    let cut = elements.len() * 2 / 3;
    let announce = StreamElement::AddVertex {
        id: isolated,
        label: l(3),
    };
    let batches = [
        elements[..cut].to_vec(),
        vec![announce],
        elements[cut..].to_vec(),
    ];
    std::fs::create_dir_all(&root).unwrap();
    let mut control = loom_builder(&graph).build().unwrap();
    let mut wal = Wal::create(&root.join(WAL_FILE)).unwrap();
    for (at, batch) in batches.iter().enumerate() {
        if at == 2 {
            let prefix = GraphStream::from_elements(batches[..2].concat()).materialise();
            let store = ShardedStore::from_parts(&prefix, &control.snapshot()).with_epoch(1);
            write_checkpoint(&root, &store, 2, "loom").unwrap();
        }
        wal.append(batch).unwrap();
        control.ingest_batch(batch).unwrap();
    }
    drop(wal);
    let mut raw = std::fs::read(root.join(WAL_FILE)).unwrap();
    raw.extend_from_slice(&[0xBE, 0xEF, 0x00]);
    std::fs::write(root.join(WAL_FILE), &raw).unwrap();

    let recovered = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    let report = recovered.report().clone();
    assert!(report.checkpoint_found);
    assert!(report.wal_records_in_checkpoint > 0);
    assert_eq!(
        (report.replayed_from, report.wal_first_record),
        (0, 0),
        "no state: the whole log is read and replayed"
    );
    // What the whole log replayed through a fresh partitioner holds.
    let mut session = recovered.into_session();
    assert_eq!(
        assignment_vec(&session.snapshot()),
        assignment_vec(&control.snapshot())
    );
    assert_eq!(session.stats(), control.stats());
    // The next checkpoint carries the blob, and the one after restores it;
    // the blob-less fallback still needs the whole log, so none is retired.
    let epoch = session.checkpoint().unwrap();
    drop(session);
    let next = root.join(CHECKPOINT_DIR).join(format!("{epoch:010}"));
    assert!(next.join(PARTITIONER_BLOB).exists());
    assert!(root.join(WAL_FILE).exists());
    let healed = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    assert_eq!(healed.report().replayed_from, batches.len() as u64);
    assert_eq!(healed.report().wal_first_record, batches.len() as u64);
    let session = healed.into_session();
    assert_eq!(
        assignment_vec(&session.snapshot()),
        assignment_vec(&control.snapshot())
    );
    assert_eq!(session.stats(), control.stats());
    std::fs::remove_dir_all(&root).unwrap();
}

fn feed(session: &mut Session, batches: &[Vec<StreamElement>]) {
    for batch in batches {
        session.ingest_batch(batch).unwrap();
    }
}

/// The first record of every segment of `root`'s log, in order.
fn segment_starts(root: &Path) -> Vec<u64> {
    segments(root).unwrap().iter().map(|s| s.first).collect()
}

fn manifest_of(root: &Path, epoch: u64) -> PathBuf {
    root.join(CHECKPOINT_DIR)
        .join(format!("{epoch:010}"))
        .join(MANIFEST_FILE)
}

/// `graph`'s stream in batches of `size` elements.
fn batches_of(graph: &LabelledGraph, size: usize) -> Vec<Vec<StreamElement>> {
    let stream = GraphStream::from_graph(graph, &StreamOrder::Bfs);
    stream.elements().chunks(size).map(<[_]>::to_vec).collect()
}

/// Recover `root` and hold it against a session that never crashed, fed
/// `batches` and checkpointed after the first `checkpointed` of them: the
/// pinned store is bit-identical to that checkpoint's, the partitioner has
/// the same assignment and counters, and the log holds every batch.
fn assert_recovers_as_uncrashed(
    root: &Path,
    graph: &LabelledGraph,
    batches: &[Vec<StreamElement>],
    checkpointed: usize,
) -> Recovered {
    let mut control = loom_builder(graph).build().unwrap();
    feed(&mut control, &batches[..checkpointed]);
    let prefix = GraphStream::from_elements(batches[..checkpointed].concat()).materialise();
    let store = ShardedStore::from_parts(&prefix, &control.snapshot());
    feed(&mut control, &batches[checkpointed..]);
    let mut recovered = loom_builder(graph).with_durability(root).recover().unwrap();
    let report = recovered.report().clone();
    assert_eq!(report.wal_records, batches.len() as u64);
    assert_eq!(report.wal_records_in_checkpoint, checkpointed as u64);
    assert_bit_identical(recovered.store(), &store);
    let session = recovered.session_mut();
    assert_eq!(
        assignment_vec(&session.snapshot()),
        assignment_vec(&control.snapshot())
    );
    assert_eq!(session.stats(), control.stats());
    recovered
}

/// Recover `root`, which must be refused as `Corrupt` with `expected` in
/// the detail, and leave the root byte for byte as found.
fn assert_refused(root: &Path, graph: &LabelledGraph, expected: &str) {
    let before = root_image(root);
    let err = loom_builder(graph)
        .with_durability(root)
        .recover()
        .expect_err(expected);
    match err {
        SessionError::Store(StoreError::Corrupt { detail, .. }) => {
            assert!(detail.contains(expected), "{detail}");
        }
        other => panic!("expected Corrupt ({expected}), got {other}"),
    }
    assert_eq!(root_image(root), before, "a refused recovery wrote");
}

#[test]
fn the_segment_crash_matrix_recovers_or_refuses_by_name() {
    let graph = social_graph(150, 61);
    let batches = batches_of(&graph, 40);
    assert!(batches.len() >= 9);

    // Killed after `checkpoint()` cut the log but before it sealed the
    // manifest: an empty segment sits behind the old ones, and the previous
    // checkpoint is the newest.
    let root = tmproot("seg-rotated");
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    feed(&mut session, &batches[..4]);
    session.checkpoint().unwrap();
    feed(&mut session, &batches[4..7]);
    let torn = session.checkpoint().unwrap();
    drop(session);
    std::fs::remove_file(manifest_of(&root, torn)).unwrap();
    assert_eq!(segment_starts(&root), [4, 7]);
    for segment in segments(&root).unwrap() {
        assert!(std::fs::read(&segment.path)
            .unwrap()
            .starts_with(b"LOOMWAL2"));
    }
    assert_eq!(std::fs::read(newest_segment(&root)).unwrap(), b"LOOMWAL2");
    assert_recovers_as_uncrashed(&root, &graph, &batches[..7], 4);
    std::fs::remove_dir_all(&root).unwrap();

    // Killed after the seal but before the retirement: `wal.log` is still
    // there. It is not read, and the next checkpoint retires it.
    let root = tmproot("seg-unretired");
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    feed(&mut session, &batches[..4]);
    let first = std::fs::read(root.join(WAL_FILE)).unwrap();
    session.checkpoint().unwrap();
    feed(&mut session, &batches[4..7]);
    drop(session);
    std::fs::write(root.join(WAL_FILE), &first).unwrap();
    assert_eq!(segment_starts(&root), [0, 4]);
    let mut recovered = assert_recovers_as_uncrashed(&root, &graph, &batches[..7], 4);
    assert_eq!(recovered.report().wal_first_record, 4);
    let session = recovered.session_mut();
    feed(session, &batches[7..9]);
    session.checkpoint().unwrap();
    assert_eq!(segment_starts(&root), [4, 9]);
    drop(recovered);
    std::fs::remove_dir_all(&root).unwrap();

    // A retirement that persisted out of order: `wal.log` survives the
    // deleted segment after it, all of it below the checkpoint. Ignored, not
    // refused, and retired by the next checkpoint.
    let root = tmproot("seg-out-of-order");
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    feed(&mut session, &batches[..2]);
    let first = std::fs::read(root.join(WAL_FILE)).unwrap();
    for upto in [4, 6] {
        session.checkpoint().unwrap();
        feed(&mut session, &batches[upto - 2..upto]);
    }
    session.checkpoint().unwrap();
    feed(&mut session, &batches[6..7]);
    drop(session);
    assert_eq!(segment_starts(&root), [4, 6]);
    std::fs::write(root.join(WAL_FILE), &first).unwrap();
    let mut recovered = assert_recovers_as_uncrashed(&root, &graph, &batches[..7], 6);
    let session = recovered.session_mut();
    feed(session, &batches[7..8]);
    session.checkpoint().unwrap();
    assert_eq!(segment_starts(&root), [6, 8]);
    drop(recovered);
    std::fs::remove_dir_all(&root).unwrap();

    // Recovering from the fallback (the newest manifest torn) needs every
    // segment from the fallback's record on: they all survived retirement,
    // and one taken away, or one with a corrupt frame before the newest, is
    // refused by name.
    let root = tmproot("seg-missing");
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    feed(&mut session, &batches[..2]);
    session.checkpoint().unwrap();
    feed(&mut session, &batches[2..4]);
    let lost = session.checkpoint().unwrap();
    // Its manifest lost, the next checkpoint prunes it and keeps the first
    // as the fallback.
    std::fs::remove_file(manifest_of(&root, lost)).unwrap();
    feed(&mut session, &batches[4..6]);
    let newest = session.checkpoint().unwrap();
    feed(&mut session, &batches[6..7]);
    drop(session);
    std::fs::remove_file(manifest_of(&root, newest)).unwrap();
    assert_eq!(segment_starts(&root), [2, 4, 6]);
    let recovered = assert_recovers_as_uncrashed(&root, &graph, &batches[..7], 2);
    assert_eq!(recovered.report().wal_first_record, 2);
    drop(recovered);
    for (gone, expected) in [(1, "missing records 4..6"), (0, "missing records 2..4")] {
        let path = segments(&root).unwrap()[gone].path.clone();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_refused(&root, &graph, expected);
        std::fs::write(&path, &bytes).unwrap();
    }
    let path = segments(&root).unwrap()[0].path.clone();
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert_refused(&root, &graph, "not the newest");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn back_to_back_checkpoints_leave_one_segment() {
    let root = tmproot("seg-back-to-back");
    let graph = social_graph(100, 63);
    let batches = batches_of(&graph, 40);
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    feed(&mut session, &batches[..3]);
    assert_eq!(session.checkpoint().unwrap(), 1);
    assert_eq!(session.checkpoint().unwrap(), 2);
    assert_eq!(segment_starts(&root), [3]);
    drop(session);
    assert_recovers_as_uncrashed(&root, &graph, &batches[..3], 3);
    std::fs::remove_dir_all(&root).unwrap();
}

/// A root whose log was written in v1 records (`LOOMWAL1`, fixed-width
/// ids) by an older binary: it recovers to the session those batches build,
/// the next batch starts a v2 segment at the log's end and leaves the v1
/// one byte for byte as it was, and the checkpoints that follow retire it.
#[test]
fn a_v1_log_recovers_and_continues_in_v2_segments() {
    let root = tmproot("v1-log");
    std::fs::create_dir_all(&root).unwrap();
    let v1 = include_bytes!("../crates/store/fixtures/loomwal1.log");
    std::fs::write(root.join(WAL_FILE), v1).unwrap();
    let mut batches = Wal::replay(&root.join(WAL_FILE)).unwrap().batches;
    assert_eq!(batches.len(), 4);
    let graph = GraphStream::from_elements(batches.concat()).materialise();
    // No checkpoint: the whole log is replayed into a fresh partitioner.
    let recover_as_fed = |batches: &[Vec<StreamElement>]| {
        let mut control = loom_builder(&graph).build().unwrap();
        feed(&mut control, batches);
        let mut recovered = loom_builder(&graph)
            .with_durability(&root)
            .recover()
            .unwrap();
        assert_eq!(recovered.report().wal_records, batches.len() as u64);
        let session = recovered.session_mut();
        assert_eq!(
            assignment_vec(&session.snapshot()),
            assignment_vec(&control.snapshot())
        );
        assert_eq!(session.stats(), control.stats());
        recovered
    };
    let mut recovered = recover_as_fed(&batches);
    // The resume opened an empty v2 segment at the log's end.
    assert_eq!(segment_starts(&root), [0, 4]);
    assert_eq!(std::fs::read(newest_segment(&root)).unwrap(), b"LOOMWAL2");
    let next = vec![
        StreamElement::AddVertex {
            id: VertexId::new(5),
            label: l(0),
        },
        StreamElement::AddEdge {
            source: VertexId::new(5),
            target: VertexId::new(4),
        },
    ];
    recovered.session_mut().ingest_batch(&next).unwrap();
    batches.push(next);
    drop(recovered);
    assert_eq!(segment_starts(&root), [0, 4]);
    assert_eq!(std::fs::read(root.join(WAL_FILE)).unwrap(), v1);
    assert!(std::fs::read(newest_segment(&root))
        .unwrap()
        .starts_with(b"LOOMWAL2"));
    let mut recovered = recover_as_fed(&batches);
    let session = recovered.session_mut();
    session.checkpoint().unwrap();
    session.checkpoint().unwrap();
    assert_eq!(segment_starts(&root), [5]);
    drop(recovered);
    assert_recovers_as_uncrashed(&root, &graph, &batches, 5);
    std::fs::remove_dir_all(&root).unwrap();
}

/// The log's bytes per element on a stream in `Random` order, the order
/// whose neighbouring elements share the least: v2 records spell it in
/// under five (the benchmark's `ingest` reads 4.4), v1 records took 15.65.
#[test]
fn the_log_costs_at_most_five_bytes_per_element_on_a_random_order_stream() {
    let abc = path_graph(3, &[l(0), l(1), l(2)]);
    let square = loom_graph::generators::regular::cycle_graph(4, &[l(0), l(1), l(0), l(1)]);
    let (graph, _) = motif_planted_graph(
        &MotifPlantConfig {
            background_vertices: 30_000,
            background_edges: 75_000,
            instances_per_motif: 3_000,
            attachment_edges: 1,
            label_count: 8,
            seed: 42,
        },
        &[abc, square],
    )
    .unwrap();
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 42 });
    let root = tmproot("wal-bytes");
    std::fs::create_dir_all(&root).unwrap();
    let path = root.join(WAL_FILE);
    let mut wal = Wal::create(&path).unwrap();
    for chunk in stream.elements().chunks(1024) {
        wal.append(chunk).unwrap();
    }
    drop(wal);
    let per_element = std::fs::metadata(&path).unwrap().len() as f64 / stream.len() as f64;
    assert!(per_element <= 5.0, "{per_element:.2} bytes per element");
    assert_eq!(
        Wal::replay(&path).unwrap().batches.concat(),
        stream.elements()
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// A kill between a rotation's `create_log` and its rename leaves
/// `wal-<R>.log.tmp` behind. It is no segment: recovery reports and
/// answers as it did without it, and leaves it where it is (recovery writes
/// nothing but a torn tail's truncation). The session ingests on, so its
/// next rotation is at another record and never reuses the name; that
/// checkpoint's retirement deletes the file.
#[test]
fn a_stale_rotation_temp_is_deleted_by_the_next_checkpoint() {
    let root = tmproot("stale-rotation-temp");
    let graph = social_graph(150, 73);
    let batches = batches_of(&graph, 40);
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    feed(&mut session, &batches[..3]);
    session.checkpoint().unwrap();
    feed(&mut session, &batches[3..5]);
    drop(session);
    let clean = assert_recovers_as_uncrashed(&root, &graph, &batches[..5], 3);
    let report = clean.report().clone();
    drop(clean);
    // What a checkpoint's rotation at record 5 would have renamed into place.
    let stale = segment_path(&root, 5).with_extension("log.tmp");
    std::fs::write(&stale, b"LOOMWAL2").unwrap();
    let before = root_image(&root);
    let mut recovered = assert_recovers_as_uncrashed(&root, &graph, &batches[..5], 3);
    assert_eq!(recovered.report(), &report);
    assert_eq!(root_image(&root), before, "recovery wrote");
    let session = recovered.session_mut();
    feed(session, &batches[5..7]);
    assert_eq!(session.checkpoint().unwrap(), 2);
    assert!(!stale.exists(), "the checkpoint left {}", stale.display());
    assert_eq!(segment_starts(&root), [3, 7]);
    drop(recovered);
    assert_recovers_as_uncrashed(&root, &graph, &batches[..7], 7);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn recovery_reads_only_the_log_past_its_checkpoint() {
    let graph = social_graph(150, 67);
    let batches = batches_of(&graph, 4);
    let delta = 3;
    assert!(batches.len() >= 100 + delta);
    for k in [1, 10, 100] {
        let root = tmproot(&format!("delta-{k}"));
        let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
        feed(&mut session, &batches[..k]);
        session.checkpoint().unwrap();
        feed(&mut session, &batches[k..k + delta]);
        drop(session);
        // The root holds the checkpoint and the delta, nothing older.
        assert_eq!(segment_starts(&root), [k as u64]);
        let recovered = assert_recovers_as_uncrashed(&root, &graph, &batches[..k + delta], k);
        let report = recovered.report();
        assert_eq!(report.wal_first_record, k as u64);
        assert_eq!(report.wal_records - report.wal_first_record, delta as u64);
        drop(recovered);
        std::fs::remove_dir_all(&root).unwrap();
    }
}

#[test]
fn a_single_file_root_recovers_and_its_next_checkpoints_retire_wal_log() {
    let graph = social_graph(150, 71);
    let batches = batches_of(&graph, 40);
    let cut = batches.len() - 4;
    for tail in [0, 2] {
        let root = tmproot(&format!("single-file-{tail}"));
        let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
        feed(&mut session, &batches[..cut]);
        let mut single = std::fs::read(root.join(WAL_FILE)).unwrap();
        session.checkpoint().unwrap();
        feed(&mut session, &batches[cut..cut + tail]);
        drop(session);
        // The root a binary from before segments leaves: the same checkpoint
        // beside one `wal.log` holding every batch. Frames do not know where
        // they lie, so that log is the segments' frames end to end.
        let newest = newest_segment(&root);
        single.extend_from_slice(&std::fs::read(&newest).unwrap()[8..]);
        std::fs::remove_file(&newest).unwrap();
        std::fs::write(root.join(WAL_FILE), &single).unwrap();
        assert_eq!(segment_starts(&root), [0]);
        let fed = cut + tail;
        let mut recovered = assert_recovers_as_uncrashed(&root, &graph, &batches[..fed], cut);
        assert_eq!(recovered.report().wal_first_record, 0);
        let session = recovered.session_mut();
        session.checkpoint().unwrap();
        if tail == 0 {
            // Both kept checkpoints start at the end of `wal.log`.
            assert_eq!(segment_starts(&root), [cut as u64]);
        } else {
            // The fallback still needs the records past it in `wal.log`:
            // it goes one checkpoint later.
            assert_eq!(segment_starts(&root), [0, fed as u64]);
            feed(session, &batches[fed..fed + 1]);
            session.checkpoint().unwrap();
            assert_eq!(segment_starts(&root), [fed as u64, fed as u64 + 1]);
        }
        drop(recovered);
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// A hub with 100 000 leaves and a few leaf–leaf edges that close `abab`
/// squares through it, frozen, checkpointed and loaded back. The loader's
/// arena check, the membership test at the square's closing edge and the
/// freeze all meet the hub's slice; the whole test takes a fraction of a
/// second under optimisation, and a check that scanned the hub's list once
/// per arc (Σd² = 10¹⁰ comparisons) fails it by name.
#[test]
fn a_hub_freezes_checkpoints_and_recovers_without_walking_its_list_per_arc() {
    const LEAVES: usize = 100_000;
    let mut graph = LabelledGraph::with_capacity(LEAVES + 1, LEAVES + 8);
    let hub = graph.add_vertex(l(0));
    // Even leaves are `b`, odd ones `a`: hub, leaf 2i, leaf 2i + 1 and leaf
    // 2i + 2 close a square once the two leaf–leaf edges between them exist.
    let leaves: Vec<VertexId> = (0..LEAVES)
        .map(|i| graph.add_vertex(l(u32::from(i % 2 == 0))))
        .collect();
    for &leaf in &leaves {
        graph.add_edge(hub, leaf).unwrap();
    }
    for start in [0, 10, 5_000, LEAVES - 3] {
        graph.add_edge(leaves[start], leaves[start + 1]).unwrap();
        graph
            .add_edge(leaves[start + 1], leaves[start + 2])
            .unwrap();
    }
    let mut partitioning = Partitioning::new(2, graph.vertex_count()).unwrap();
    partitioning.assign(hub, PartitionId::new(0)).unwrap();
    for (i, &leaf) in leaves.iter().enumerate() {
        partitioning
            .assign(leaf, PartitionId::new(i as u32 % 2))
            .unwrap();
    }

    let root = tmproot("hub");
    std::fs::create_dir_all(&root).unwrap();
    let store = ShardedStore::from_parts(&graph, &partitioning).with_epoch(1);
    write_checkpoint(&root, &store, 0, "hub").unwrap();
    let loaded = load_checkpoint(&root.join(CHECKPOINT_DIR).join(format!("{:010}", 1))).unwrap();
    assert_bit_identical(&loaded.store, &store);
    let recovered = Arc::new(loaded.store);
    std::fs::remove_dir_all(&root).unwrap();

    // The check's cost follows the arcs, not how they gather: the hub's
    // arena checks within a small factor of a path's with as many arcs
    // (×1.4–1.8 on a 2-vCPU x86 guest, debug or release), where a scan of
    // the hub's list per arc reads ×80 and more. Each side is the fastest of
    // three, and both run back to back, so the host's speed cancels out.
    let path = path_graph(LEAVES + 1, &[l(0), l(1)]);
    let path = ShardedStore::from_parts(&path, &Partitioning::new(2, LEAVES + 1).unwrap());
    let fastest = |store: &ShardedStore| {
        let timed = |_| {
            let started = Instant::now();
            store.check_arena().unwrap();
            started.elapsed()
        };
        (0..3).map(timed).min().unwrap()
    };
    let (hub_check, path_check) = (fastest(&recovered), fastest(&path));
    assert!(
        hub_check < path_check * 10,
        "the hub's arena checked in {hub_check:?}, a path's as long in {path_check:?}"
    );

    let pairs = [
        (hub, leaves[0], true),
        (leaves[LEAVES - 1], hub, true),
        (leaves[10], leaves[11], true),
        (leaves[LEAVES - 2], leaves[LEAVES - 1], true),
        (leaves[0], leaves[2], false),
        (leaves[3], leaves[4], false),
    ];
    for (a, b, edge) in pairs {
        assert_eq!(graph.contains_edge(a, b), edge, "{a} – {b} in the graph");
        let (ha, hb) = (recovered.resolve(a).unwrap(), recovered.resolve(b).unwrap());
        assert_eq!(recovered.adjacent(ha, hb), edge, "adjacent({a}, {b})");
        assert_eq!(recovered.adjacent(hb, ha), edge, "adjacent({b}, {a})");
    }

    let square = PatternQuery::cycle(QueryId::new(0), &[l(0), l(1), l(0), l(1)]).unwrap();
    let workload = Workload::new(vec![(square, 1.0)]).unwrap();
    let engine = ServeEngine::new(ServeConfig::new(2).with_mode(QueryMode::FullEnumeration));
    let request = QueryRequest::workload(2).with_seed(3);
    let ctx = RequestContext::unbounded();
    let reference = PartitionedStore::new(graph, partitioning);
    let sequential = engine
        .run_sequential(&reference, &workload, request, &ctx)
        .metrics;
    let sharded = engine.run(&recovered, &workload, request, &ctx).0;
    assert_eq!(sharded.aggregate, sequential);
    assert!(sequential.matches_found > 0);
}

/// An adaptive engine stood up on a recovered handle serves the recovered
/// store itself at the epoch its checkpoint carried, and its first publish
/// is the epoch after it: the sequence stays monotonic across the restart,
/// and the recovered handle's own snapshot is never written through.
#[test]
fn an_adaptive_engine_on_a_recovered_handle_continues_its_epochs() {
    let root = tmproot("adaptive-epochs");
    let graph = social_graph(120, 5);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
    let (first, rest) = stream.elements().split_at(stream.len() / 2);
    let mut session = loom_builder(&graph).with_durability(&root).build().unwrap();
    session.ingest_batch(first).unwrap();
    session.checkpoint().unwrap();
    session.ingest_batch(rest).unwrap();
    assert_eq!(session.checkpoint().unwrap(), 2);
    drop(session);

    let recovered = loom_builder(&graph)
        .with_durability(&root)
        .recover()
        .unwrap();
    let epoch_seq = recovered.epoch_seq();
    assert_eq!(epoch_seq, 2);
    let mut adaptive = recovered
        .serving()
        .adaptive(2, AdaptConfig::default())
        .unwrap();
    assert_eq!(adaptive.current_epoch(), epoch_seq);
    assert!(Arc::ptr_eq(&adaptive.epochs().load(), recovered.store()));
    let dead = graph.vertices_sorted()[0];
    let outcome = adaptive.apply_mutations(&[StreamElement::RemoveVertex { id: dead }]);
    assert_eq!(outcome.removed_vertices, 1);
    assert_eq!(outcome.epoch, epoch_seq + 1);
    assert_eq!(adaptive.current_epoch(), epoch_seq + 1);
    assert_eq!(recovered.store().epoch(), epoch_seq);
    assert!(recovered.store().home_shard(dead).is_some());
    std::fs::remove_dir_all(&root).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoint → recover → re-encode is bit-identical for random graphs,
    /// partitioner states, and checkpoint boundaries.
    #[test]
    fn checkpoint_recovery_roundtrips_bit_identically(
        seed in 0u64..1000,
        vertices in 40usize..140,
        cut_percent in 30usize..100,
    ) {
        let root = tmproot(&format!("prop-{seed}-{vertices}-{cut_percent}"));
        let graph = social_graph(vertices, seed);
        let stream = GraphStream::from_graph(&graph, &StreamOrder::Bfs);
        let elements = stream.elements();
        let cut = (elements.len() * cut_percent / 100).max(1);

        let mut session = loom_builder(&graph)
            .with_durability(&root)
            .build()
            .unwrap();
        session.ingest_batch(&elements[..cut]).unwrap();
        session.checkpoint().unwrap();
        session.ingest_batch(&elements[cut..]).unwrap();

        let mut control = loom_builder(&graph).build().unwrap();
        control.ingest_batch(&elements[..cut]).unwrap();
        let control_graph =
            GraphStream::from_elements(elements[..cut].to_vec()).materialise();
        let control_store =
            ShardedStore::from_parts(&control_graph, &control.snapshot());
        drop(session);

        let recovered = loom_builder(&graph)
            .with_durability(&root)
            .recover()
            .unwrap();
        prop_assert_eq!(recovered.epoch_seq(), 1);
        assert_bit_identical(recovered.store(), &control_store);
        // The replayed partitioner also reproduces the *current* (post-
        // checkpoint) state: snapshots at the full stream agree.
        control.ingest_batch(&elements[cut..]).unwrap();
        let mut session = recovered.into_session();
        prop_assert_eq!(
            assignment_vec(&session.snapshot()),
            assignment_vec(&control.snapshot())
        );
        prop_assert_eq!(
            session.stats().vertices_ingested,
            control.stats().vertices_ingested
        );
        session.ingest_batch(&[]).unwrap(); // still append-ready
        drop(session);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
