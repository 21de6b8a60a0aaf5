//! Background checkpointing, driven by epoch publishes.
//!
//! [`CheckpointSink`] subscribes to an [`EpochStore`]'s publish broadcast.
//! `notify` runs on the publisher thread and must never block, so it only
//! stamps a latest-wins job slot and wakes a dedicated worker thread; the
//! worker loads the current epoch snapshot and writes the checkpoint while
//! ingestion keeps running. Under pressure, superseded publishes are simply
//! skipped — only the newest epoch is worth a checkpoint, and recovery
//! replays the WAL regardless.

use crate::checkpoint::{write_and_prune, CheckpointMeta};
use crate::error::{Result, StoreError};
use loom_obs::{stage, FlightKind, SpanTimer, Telemetry};
use loom_serve::epoch::{EpochSink, EpochStore, SubscriptionId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

#[derive(Debug, Default)]
struct SinkState {
    /// WAL record count captured at the latest un-checkpointed publish.
    pending: Option<u64>,
    /// A checkpoint write is in flight.
    writing: bool,
    /// The sink is shutting down; the worker exits at the next wakeup.
    shutdown: bool,
    /// Highest epoch successfully checkpointed.
    last_written: u64,
    /// Checkpoints written over the sink's lifetime.
    written: u64,
    /// The last failure, if any — a write that did not happen, or a
    /// superseded checkpoint directory a written one could not prune
    /// (surfaced by [`CheckpointSink::wait_idle`]).
    last_error: Option<String>,
}

/// An [`EpochSink`] that checkpoints every published epoch in the background.
pub struct CheckpointSink {
    state: Mutex<SinkState>,
    work: Condvar,
    done: Condvar,
    epochs: Weak<EpochStore>,
    root: PathBuf,
    spec: String,
    wal_records: AtomicU64,
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
    /// Create a sink checkpointing into `root`, subscribe it to `epochs`,
    /// and start its worker thread. The sink holds the store only weakly, so
    /// dropping the `EpochStore` never deadlocks on the subscription cycle.
    pub fn attach(
        epochs: &Arc<EpochStore>,
        root: &Path,
        spec: &str,
    ) -> (Arc<Self>, SubscriptionId) {
        let sink = Arc::new(Self {
            state: Mutex::new(SinkState::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            epochs: Arc::downgrade(epochs),
            root: root.to_path_buf(),
            spec: spec.to_string(),
            wal_records: AtomicU64::new(0),
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
        let id = epochs.subscribe(Arc::clone(&sink) as Arc<dyn EpochSink>);
        (sink, id)
    }

    /// Observe this sink: subsequent checkpoint writes charge their wall
    /// clock into the `store.checkpoint_write` histogram, and every sealed
    /// checkpoint records a [`FlightKind::CheckpointSealed`] event.
    pub fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        *self.telemetry.lock().expect("telemetry slot") = Some(telemetry);
    }

    /// Record the WAL position the *next* publish corresponds to. Call this
    /// before `EpochStore::publish`; `notify` runs inline on the publisher
    /// thread, so the value it reads here is exact, not racy.
    pub fn set_wal_records(&self, records: u64) {
        self.wal_records.store(records, Ordering::Release);
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
    /// the highest epoch written. Surfaces the last write error, if any.
    pub fn wait_idle(&self, timeout: Duration) -> Result<u64> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().expect("sink state");
        while state.pending.is_some() || state.writing {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(StoreError::corrupt(
                    &self.root,
                    "timed out waiting for background checkpoint",
                ));
            }
            let (next, _) = self
                .done
                .wait_timeout(state, left)
                .expect("sink state poisoned");
            state = next;
        }
        match state.last_error.take() {
            Some(detail) => Err(StoreError::corrupt(&self.root, detail)),
            None => Ok(state.last_written),
        }
    }

    /// Stop the worker thread and detach. Idempotent; pending work that has
    /// not started yet is dropped (the WAL still covers it).
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
                    if let Some(wal) = state.pending.take() {
                        state.writing = true;
                        break wal;
                    }
                    state = self.work.wait(state).expect("sink state poisoned");
                }
            };
            let result = self.write_current(job);
            let mut state = self.state.lock().expect("sink state");
            state.writing = false;
            match result {
                Ok(Some((meta, pruned))) => {
                    state.last_written = meta.epoch_seq;
                    state.written += 1;
                    // The checkpoint stands; what it could not prune is
                    // reported, and tried again by the next one.
                    if let Err(e) = pruned {
                        state.last_error = Some(e.to_string());
                    }
                }
                Ok(None) => {} // stale or already-covered epoch: skipped
                Err(e) => state.last_error = Some(e.to_string()),
            }
            self.done.notify_all();
        }
    }

    /// Checkpoint the current epoch unless it is already covered: the
    /// manifest written, and whether the prune behind it went through.
    fn write_current(&self, wal_records: u64) -> Result<Option<(CheckpointMeta, Result<()>)>> {
        let Some(epochs) = self.epochs.upgrade() else {
            return Ok(None); // store dropped mid-flight; nothing to snapshot
        };
        let snapshot = epochs.load();
        let last_written = self.state.lock().expect("sink state").last_written;
        if snapshot.epoch() <= last_written {
            return Ok(None);
        }
        let telemetry = self.telemetry.lock().expect("telemetry slot").clone();
        let hist = telemetry
            .as_ref()
            .map(|t| t.stage_histogram(stage::STORE_CHECKPOINT_WRITE));
        let span = SpanTimer::start(hist.as_deref());
        let written = write_and_prune(&self.root, &snapshot, wal_records, &self.spec);
        drop(span);
        let (meta, pruned) = written?;
        if let Some(t) = &telemetry {
            t.flight().record(FlightKind::CheckpointSealed {
                epoch: meta.epoch_seq,
                wal_records: meta.wal_records,
            });
        }
        Ok(Some((meta, pruned)))
    }
}

impl EpochSink for CheckpointSink {
    fn notify(&self, _epoch: u64) {
        // Publisher thread: stamp the job slot (latest wins) and wake the
        // worker. Never blocks, never does IO.
        let mut state = self.state.lock().expect("sink state");
        state.pending = Some(self.wal_records.load(Ordering::Acquire));
        self.work.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::latest_checkpoint;
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

    #[test]
    fn publishes_are_checkpointed_in_the_background() {
        let root = tmproot("bg");
        let epochs = Arc::new(EpochStore::new(store(1)));
        let (sink, sub) = CheckpointSink::attach(&epochs, &root, "loom");
        sink.set_wal_records(4);
        let seq = epochs.publish(store(2));
        let written = sink.wait_idle(Duration::from_secs(30)).unwrap();
        assert_eq!(written, seq);
        let (_, meta, _) = latest_checkpoint(&root).unwrap().unwrap();
        assert_eq!(meta.epoch_seq, seq);
        assert_eq!(meta.wal_records, 4);
        // A second publish advances the checkpoint.
        sink.set_wal_records(9);
        let seq2 = epochs.publish(store(3));
        assert_eq!(sink.wait_idle(Duration::from_secs(30)).unwrap(), seq2);
        assert_eq!(sink.written(), 2);
        epochs.unsubscribe(sub);
        sink.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rapid_publishes_coalesce_to_the_newest_epoch() {
        let root = tmproot("coalesce");
        let epochs = Arc::new(EpochStore::new(store(1)));
        let (sink, sub) = CheckpointSink::attach(&epochs, &root, "loom");
        let mut last = 0;
        for i in 0..8 {
            sink.set_wal_records(i);
            last = epochs.publish(store(10 + i));
        }
        assert_eq!(sink.wait_idle(Duration::from_secs(30)).unwrap(), last);
        // Possibly fewer checkpoints than publishes, but the newest is on disk.
        assert!(sink.written() <= 8);
        let (_, meta, _) = latest_checkpoint(&root).unwrap().unwrap();
        assert_eq!(meta.epoch_seq, last);
        epochs.unsubscribe(sub);
        sink.shutdown();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shutdown_is_idempotent_and_drops_the_subscription_cleanly() {
        let root = tmproot("shutdown");
        let epochs = Arc::new(EpochStore::new(store(1)));
        let (sink, sub) = CheckpointSink::attach(&epochs, &root, "loom");
        epochs.unsubscribe(sub);
        sink.shutdown();
        sink.shutdown();
        // After shutdown, the weak upgrade path still behaves: dropping the
        // store and notifying directly must not panic.
        drop(epochs);
        sink.notify(99);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
