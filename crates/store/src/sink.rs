//! Background writing of checkpoint images.
//!
//! The session hands a [`CheckpointSink`] each checkpoint it takes with
//! [`CheckpointSink::submit`]: the [`CheckpointImage`] — the epoch and the
//! blobs, encoded from its graph mirror on the session's thread — the WAL
//! records folded into it and the partitioner's state, captured together,
//! so a checkpoint is always sealed with its own epoch's log position and
//! state. `submit` never blocks and does no IO: it stamps a latest-wins job
//! slot and wakes a dedicated worker thread, which writes and fsyncs the
//! blobs and the manifest while ingestion keeps running. Under pressure
//! superseded jobs are skipped — only the newest epoch is worth a
//! checkpoint, and the log still holds every batch behind the oldest kept
//! checkpoint. After each seal and prune the worker retires the WAL
//! segments every checkpoint left has folded in (see [`crate::wal`]).

use crate::checkpoint::{write_and_prune, CheckpointImage, CheckpointMeta};
use crate::error::{Result, StoreError};
use crate::wal::retire_segments;
use loom_obs::{stage, FlightKind, SpanTimer, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One epoch to checkpoint, as its publisher captured it.
#[derive(Debug)]
struct Job {
    image: CheckpointImage,
    wal_records: u64,
    state: Vec<u8>,
}

#[derive(Debug, Default)]
struct SinkState {
    /// The latest submitted epoch not yet taken by the worker.
    pending: Option<Job>,
    /// A checkpoint write is in flight.
    writing: bool,
    /// The sink is shutting down; the worker exits at the next wakeup.
    shutdown: bool,
    /// Highest epoch successfully checkpointed.
    last_written: u64,
    /// Checkpoints written over the sink's lifetime.
    written: u64,
    /// The last failure, if any — a write that did not happen, or a
    /// superseded checkpoint directory or WAL segment a written one could
    /// not remove (surfaced by [`CheckpointSink::wait_idle`] as it was
    /// raised).
    last_error: Option<StoreError>,
}

/// Checkpoints every submitted epoch in the background.
pub struct CheckpointSink {
    state: Mutex<SinkState>,
    work: Condvar,
    done: Condvar,
    root: PathBuf,
    spec: String,
    worker: Mutex<Option<JoinHandle<()>>>,
    /// Optional telemetry: checkpoint writes charge `store.checkpoint_write`
    /// and every sealed checkpoint leaves a flight-recorder event.
    telemetry: Mutex<Option<Arc<Telemetry>>>,
}

impl std::fmt::Debug for CheckpointSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointSink")
            .field("root", &self.root)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl CheckpointSink {
    /// Create a sink checkpointing into `root` the images of an arena placed
    /// by partitioner `spec`, and start its worker thread.
    pub fn start(root: &Path, spec: &str) -> Arc<Self> {
        let sink = Arc::new(Self {
            state: Mutex::new(SinkState::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            root: root.to_path_buf(),
            spec: spec.to_string(),
            worker: Mutex::new(None),
            telemetry: Mutex::new(None),
        });
        let handle = {
            let sink = Arc::clone(&sink);
            std::thread::Builder::new()
                .name("loom-checkpoint".into())
                .spawn(move || sink.run())
                .expect("spawn checkpoint worker")
        };
        *sink.worker.lock().expect("worker slot") = Some(handle);
        sink
    }

    /// Observe this sink: subsequent checkpoint writes charge their wall
    /// clock into the `store.checkpoint_write` histogram, every sealed
    /// checkpoint records a [`FlightKind::CheckpointSealed`] event, and every
    /// retirement that deleted a WAL segment a [`FlightKind::WalRetired`].
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        *self.telemetry.lock().expect("telemetry slot") = Some(telemetry);
    }

    /// Checkpoint `image` with the `wal_records` it folds in and the
    /// partitioner `state` it was encoded beside. Replaces any submitted
    /// image the worker has not yet taken, wakes the worker, and returns
    /// without IO. After [`CheckpointSink::shutdown`] it does nothing.
    pub fn submit(&self, image: CheckpointImage, wal_records: u64, state: Vec<u8>) {
        let mut slot = self.state.lock().expect("sink state");
        if slot.shutdown {
            return;
        }
        slot.pending = Some(Job {
            image,
            wal_records,
            state,
        });
        self.work.notify_one();
    }

    /// Highest epoch successfully checkpointed so far.
    pub fn last_written(&self) -> u64 {
        self.state.lock().expect("sink state").last_written
    }

    /// Checkpoints written over the sink's lifetime.
    pub fn written(&self) -> u64 {
        self.state.lock().expect("sink state").written
    }

    /// Block until no checkpoint work is pending or in flight, then return
    /// the highest epoch written. Surfaces the last write error, if any, as
    /// it was raised — a failed `create_dir`, write or `fsync` is
    /// [`StoreError::Io`] — and a wait that runs out as
    /// [`StoreError::TimedOut`].
    pub fn wait_idle(&self, timeout: Duration) -> Result<u64> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().expect("sink state");
        while state.pending.is_some() || state.writing {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(StoreError::TimedOut {
                    path: self.root.clone(),
                    waited: timeout,
                });
            }
            let (next, _) = self
                .done
                .wait_timeout(state, left)
                .expect("sink state poisoned");
            state = next;
        }
        match state.last_error.take() {
            Some(error) => Err(error),
            None => Ok(state.last_written),
        }
    }

    /// Stop the worker thread. Idempotent; a submitted image that has not
    /// started yet is dropped (the WAL still covers it).
    pub fn shutdown(&self) {
        {
            let mut state = self.state.lock().expect("sink state");
            state.shutdown = true;
            self.work.notify_one();
        }
        let handle = self.worker.lock().expect("worker slot").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    fn run(&self) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("sink state");
                loop {
                    if state.shutdown {
                        return;
                    }
                    if let Some(job) = state.pending.take() {
                        state.writing = true;
                        break job;
                    }
                    state = self.work.wait(state).expect("sink state poisoned");
                }
            };
            let result = self.write(&job);
            let mut state = self.state.lock().expect("sink state");
            state.writing = false;
            match result {
                Ok(Some((meta, tidied))) => {
                    state.last_written = meta.epoch_seq;
                    state.written += 1;
                    // The checkpoint stands; what it could not prune or
                    // retire is reported, and tried again by the next one.
                    if let Err(e) = tidied {
                        state.last_error = Some(e);
                    }
                }
                Ok(None) => {} // stale or already-covered epoch: skipped
                Err(e) => state.last_error = Some(e),
            }
            self.done.notify_all();
        }
    }

    /// Checkpoint the job's epoch unless it is already covered: the
    /// manifest written, and whether the prune and the retirement behind it
    /// went through.
    fn write(&self, job: &Job) -> Result<Option<(CheckpointMeta, Result<()>)>> {
        let last_written = self.state.lock().expect("sink state").last_written;
        if job.image.epoch_seq() <= last_written {
            return Ok(None);
        }
        let telemetry = self.telemetry.lock().expect("telemetry slot").clone();
        let hist = telemetry
            .as_ref()
            .map(|t| t.stage_histogram(stage::STORE_CHECKPOINT_WRITE));
        let span = SpanTimer::start(hist.as_deref());
        let written = write_and_prune(
            &self.root,
            &job.image,
            job.wal_records,
            &self.spec,
            Some(&job.state),
        );
        drop(span);
        let (meta, pruned) = written?;
        let retired = pruned.and_then(|floor| retire_segments(&self.root, floor));
        if let Some(t) = &telemetry {
            t.flight().record(FlightKind::CheckpointSealed {
                epoch: meta.epoch_seq,
                wal_records: meta.wal_records,
            });
            match &retired {
                Ok(retired) if retired.segments > 0 => t.flight().record(FlightKind::WalRetired {
                    below: retired.below,
                    segments: retired.segments,
                    bytes: retired.bytes,
                }),
                _ => {}
            }
        }
        Ok(Some((meta, retired.map(drop))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{latest_checkpoint, load_checkpoint, read_manifest, CHECKPOINT_DIR};
    use loom_graph::generators::erdos_renyi::erdos_renyi;
    use loom_graph::generators::GeneratorConfig;
    use loom_partition::partition::{PartitionId, Partitioning};
    use loom_serve::shard::ShardedStore;

    fn store(seed: u64) -> ShardedStore {
        let g = erdos_renyi(GeneratorConfig::new(30, 3, seed), 80).unwrap();
        let mut part = Partitioning::new(3, g.vertex_count()).unwrap();
        for (i, v) in g.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new((i % 3) as u32)).unwrap();
        }
        ShardedStore::from_parts(&g, &part)
    }

    fn tmproot(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("loom-sink-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The WAL count and state a test submits with `epoch`: distinct for
    /// every epoch, so a checkpoint sealed with another epoch's shows.
    fn stamp(epoch: u64) -> (u64, Vec<u8>) {
        (1_000 + 7 * epoch, epoch.to_le_bytes().to_vec())
    }

    fn submit(sink: &CheckpointSink, store: &ShardedStore, epoch: u64) {
        let (wal_records, state) = stamp(epoch);
        let image = CheckpointImage::from_store(&store.clone().with_epoch(epoch));
        sink.submit(image, wal_records, state);
    }

    /// Every checkpoint with a valid manifest under `root` carries the WAL
    /// count and the state submitted with its own epoch. Returns how many
    /// there were.
    fn assert_each_sealed_with_its_own_epoch(root: &Path) -> usize {
        let Ok(dirs) = std::fs::read_dir(root.join(CHECKPOINT_DIR)) else {
            return 0;
        };
        let mut sealed = 0;
        for dir in dirs.flatten() {
            // A directory mid-write or mid-prune has no valid manifest.
            let Ok(meta) = read_manifest(&dir.path()) else {
                continue;
            };
            let (wal_records, state) = stamp(meta.epoch_seq);
            assert_eq!(meta.wal_records, wal_records, "epoch {}", meta.epoch_seq);
            if let Ok(loaded) = load_checkpoint(&dir.path()) {
                assert_eq!(loaded.partitioner.unwrap().bytes, state);
            }
            sealed += 1;
        }
        sealed
    }

    #[test]
    fn publishes_are_checkpointed_in_the_background() {
        let root = tmproot("bg");
        let sink = CheckpointSink::start(&root, "loom");
        submit(&sink, &store(2), 1);
        let written = sink.wait_idle(Duration::from_secs(30)).unwrap();
        assert_eq!(written, 1);
        let (_, meta, _) = latest_checkpoint(&root).unwrap().unwrap();
        assert_eq!(meta.epoch_seq, 1);
        assert_eq!(meta.wal_records, stamp(1).0);
        // A second publish advances the checkpoint.
        submit(&sink, &store(3), 2);
        assert_eq!(sink.wait_idle(Duration::from_secs(30)).unwrap(), 2);
        assert_eq!(sink.written(), 2);
        assert_eq!(assert_each_sealed_with_its_own_epoch(&root), 2);
        sink.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rapid_publishes_coalesce_to_the_newest_epoch() {
        let root = tmproot("coalesce");
        let sink = CheckpointSink::start(&root, "loom");
        for epoch in 1..=8 {
            submit(&sink, &store(10 + epoch), epoch);
        }
        assert_eq!(sink.wait_idle(Duration::from_secs(30)).unwrap(), 8);
        // Possibly fewer checkpoints than publishes, but the newest is on
        // disk, sealed with its own WAL count and state.
        assert!(sink.written() <= 8);
        let (dir, meta, _) = latest_checkpoint(&root).unwrap().unwrap();
        assert_eq!(meta.epoch_seq, 8);
        assert_eq!(meta.wal_records, stamp(8).0);
        let loaded = load_checkpoint(&dir).unwrap();
        assert_eq!(loaded.partitioner.unwrap().bytes, stamp(8).1);
        assert!(assert_each_sealed_with_its_own_epoch(&root) >= 1);
        sink.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn back_to_back_checkpoints_are_each_sealed_with_their_own_epoch() {
        let root = tmproot("stamps");
        let sink = CheckpointSink::start(&root, "loom");
        let base = store(4);
        for epoch in 1..=500 {
            submit(&sink, &base, epoch);
            if epoch % 25 == 0 {
                assert_each_sealed_with_its_own_epoch(&root);
            }
        }
        assert_eq!(sink.wait_idle(Duration::from_secs(60)).unwrap(), 500);
        assert!(assert_each_sealed_with_its_own_epoch(&root) >= 1);
        sink.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_failed_write_is_an_io_error_and_a_wait_that_runs_out_a_timeout() {
        let root = tmproot("errors");
        // A file where the checkpoint directory goes: create_dir fails.
        std::fs::write(root.join(CHECKPOINT_DIR), b"in the way").unwrap();
        let sink = CheckpointSink::start(&root, "loom");
        submit(&sink, &store(5), 1);
        match sink.wait_idle(Duration::from_secs(30)) {
            Err(StoreError::Io { path, .. }) => assert_eq!(path, root.join(CHECKPOINT_DIR)),
            other => panic!("expected Io, got {other:?}"),
        }
        // The error was reported once; the sink is idle and wrote nothing.
        assert_eq!(sink.wait_idle(Duration::from_secs(30)).unwrap(), 0);
        // A write that is still in flight when the wait runs out.
        sink.state.lock().unwrap().writing = true;
        match sink.wait_idle(Duration::from_millis(20)) {
            Err(StoreError::TimedOut { path, waited }) => {
                assert_eq!((path, waited), (root.clone(), Duration::from_millis(20)));
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        sink.state.lock().unwrap().writing = false;
        sink.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shutdown_is_idempotent_and_drops_the_subscription_cleanly() {
        let root = tmproot("shutdown");
        let sink = CheckpointSink::start(&root, "loom");
        sink.shutdown();
        sink.shutdown();
        // After shutdown a submission is dropped, never written, and
        // waiting on it does not hang.
        submit(&sink, &store(1), 99);
        assert_eq!(sink.wait_idle(Duration::from_secs(30)).unwrap(), 0);
        assert_eq!(sink.written(), 0);
        assert!(latest_checkpoint(&root).unwrap().is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
