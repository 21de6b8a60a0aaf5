//! Durability-layer throughput: checkpoint write, checkpoint recovery, WAL
//! append, and WAL replay.
//!
//! Durability sits on the ingest path (every acknowledged batch is an
//! fsynced WAL append) and on the restart path (recovery time bounds how
//! long a crashed node serves nothing), so both directions get data points:
//!
//! * **checkpoint write** — serialize a LOOM-partitioned [`ShardedStore`]
//!   as per-shard CRC blobs + manifest, fsync-complete (MB/s and ms);
//! * **checkpoint recover** — [`load_checkpoint`] back to a bit-verified
//!   store, including the graph/partitioning rebuild and the re-encode
//!   checksum proof (MB/s and ms);
//! * **WAL append** — fsynced batch appends (records/s, elements/s);
//! * **WAL replay** — full-log decode + CRC validation (elements/s).
//!
//! Besides the Criterion wall-clock timings, the bench emits
//! `BENCH_durability.json` at the workspace root so the durability numbers
//! have a trail across PRs. `LOOM_BENCH_FAST=1` (CI smoke mode) shrinks the
//! graph and batch counts and writes to `target/bench-fast/` instead.

use criterion::{criterion_group, criterion_main, Criterion};
use loom_bench::{fast_mode, scenarios};
use loom_core::workload_registry;
use loom_graph::ordering::StreamOrder;
use loom_graph::GraphStream;
use loom_motif::mining::MotifMiner;
use loom_partition::spec::{LoomConfig, PartitionerSpec};
use loom_partition::traits::partition_stream;
use loom_serve::shard::ShardedStore;
use loom_store::checkpoint::{latest_checkpoint, load_checkpoint, write_checkpoint};
use loom_store::wal::{Wal, WAL_FILE};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const PARTITIONS: u32 = 8;
const SEED: u64 = 42;
const EPOCH: u64 = 3;

/// (graph vertices, WAL batch size) per mode.
fn sizes() -> (usize, usize) {
    if fast_mode() {
        (600, 64)
    } else {
        (3_000, 256)
    }
}

fn bench_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loom-bench-dur-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp root is creatable");
    dir
}

/// A LOOM-partitioned store plus the stream that produced it.
fn setup() -> (GraphStream, ShardedStore) {
    let (vertices, _) = sizes();
    let graph = scenarios::social_graph(vertices, 7);
    let stream = GraphStream::from_graph(&graph, &StreamOrder::Random { seed: 1 });
    let workload = scenarios::motif_workload();
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
    let store = ShardedStore::from_parts(&graph, &partitioning).with_epoch(EPOCH);
    (stream, store)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("checkpoint dir listable")
        .map(|e| e.expect("entry").metadata().expect("metadata").len())
        .sum()
}

/// One timed checkpoint write → recover cycle plus a WAL fill → replay
/// cycle; returns the JSON body lines.
fn measure_and_persist(stream: &GraphStream, store: &ShardedStore) -> (PathBuf, usize) {
    let root = bench_root("json");
    let (_, batch_size) = sizes();

    // Checkpoint write (fsync-complete, manifest last).
    let started = Instant::now();
    let meta = write_checkpoint(&root, store, 0, "loom").expect("checkpoint writes");
    let write_ms = started.elapsed().as_secs_f64() * 1e3;
    let (dir, _, _) = latest_checkpoint(&root)
        .expect("scan succeeds")
        .expect("checkpoint present");
    let bytes = dir_bytes(&dir);
    let mb = bytes as f64 / (1 << 20) as f64;

    // Checkpoint recover: load + rebuild + bit-identity proof.
    let started = Instant::now();
    let loaded = load_checkpoint(&dir).expect("checkpoint loads");
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(loaded.store.epoch(), EPOCH);
    assert_eq!(loaded.meta, meta);

    // WAL append: one fsynced record per batch.
    let wal_path = root.join(WAL_FILE);
    let elements = stream.elements();
    let batches: Vec<&[_]> = elements.chunks(batch_size).collect();
    let started = Instant::now();
    let mut wal = Wal::create(&wal_path).expect("wal creates");
    for batch in &batches {
        wal.append(batch).expect("append succeeds");
    }
    let append_s = started.elapsed().as_secs_f64();
    drop(wal);

    // WAL replay: full decode + per-record CRC validation.
    let started = Instant::now();
    let replay = Wal::replay(&wal_path).expect("wal replays");
    let replay_s = started.elapsed().as_secs_f64();
    assert_eq!(replay.records as usize, batches.len());

    let append_rate = batches.len() as f64 / append_s.max(f64::MIN_POSITIVE);
    let element_rate = elements.len() as f64 / append_s.max(f64::MIN_POSITIVE);
    let replay_rate = elements.len() as f64 / replay_s.max(f64::MIN_POSITIVE);
    println!(
        "durability checkpoint: write {write_ms:.1} ms / recover {load_ms:.1} ms \
         ({mb:.2} MiB, {} blobs); wal: {append_rate:.0} appends/s \
         ({element_rate:.0} elements/s), replay {replay_rate:.0} elements/s",
        meta.blobs.len(),
    );

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"durability\",\n  \"seed\": {},\n  \"partitions\": {},\n",
            "  \"fast\": {},\n  \"checkpoint\": {{\n",
            "    \"vertices\": {},\n    \"edges\": {},\n    \"shards\": {},\n",
            "    \"bytes\": {},\n    \"write_ms\": {:.3},\n    \"write_mb_per_s\": {:.2},\n",
            "    \"recover_ms\": {:.3},\n    \"recover_mb_per_s\": {:.2}\n  }},\n",
            "  \"wal\": {{\n    \"batch_size\": {},\n    \"records\": {},\n",
            "    \"elements\": {},\n    \"append_records_per_s\": {:.0},\n",
            "    \"append_elements_per_s\": {:.0},\n    \"replay_elements_per_s\": {:.0}\n",
            "  }}\n}}\n"
        ),
        SEED,
        PARTITIONS,
        fast_mode(),
        meta.vertices,
        meta.edges,
        meta.shards,
        bytes,
        write_ms,
        mb / (write_ms / 1e3).max(f64::MIN_POSITIVE),
        load_ms,
        mb / (load_ms / 1e3).max(f64::MIN_POSITIVE),
        batch_size,
        batches.len(),
        elements.len(),
        append_rate,
        element_rate,
        replay_rate,
    );
    loom_bench::persist("BENCH_durability.json", &json);
    (root, batches.len())
}

fn bench_durability(c: &mut Criterion) {
    let (stream, store) = setup();
    let (json_root, _) = measure_and_persist(&stream, &store);
    let _ = std::fs::remove_dir_all(&json_root);
    let (_, batch_size) = sizes();

    let mut group = c.benchmark_group("durability");
    group.sample_size(3);

    let write_root = bench_root("write");
    group.bench_function("checkpoint_write", |b| {
        b.iter(|| black_box(write_checkpoint(&write_root, &store, 0, "loom").unwrap()))
    });

    let (dir, _, _) = latest_checkpoint(&write_root)
        .unwrap()
        .expect("written above");
    group.bench_function("checkpoint_recover", |b| {
        b.iter(|| black_box(load_checkpoint(&dir).unwrap()))
    });

    let wal_root = bench_root("wal");
    let wal_path = wal_root.join(WAL_FILE);
    group.bench_function("wal_append", |b| {
        b.iter(|| {
            let mut wal = Wal::create(&wal_path).unwrap();
            for batch in stream.elements().chunks(batch_size) {
                wal.append(batch).unwrap();
            }
            black_box(wal.records())
        })
    });
    group.bench_function("wal_replay", |b| {
        b.iter(|| black_box(Wal::replay(&wal_path).unwrap().records))
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&write_root);
    let _ = std::fs::remove_dir_all(&wal_root);
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);
