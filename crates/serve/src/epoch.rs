//! Epoch-swapped snapshots: a new store swapped in without read-side
//! blocking.
//!
//! A writer builds a new immutable [`ShardedStore`] and publishes it through
//! an [`EpochStore`]. In the library the writer is `loom-adapt`'s adaptive
//! serving: each migration (`adapt_now`), tombstone batch
//! (`apply_mutations`) and compaction (`compact_now`) is one publication.
//! The `loom` session façade publishes nothing — `Session::serve` consumes
//! the session, so a served graph never grows — though a caller may drive a
//! partitioner beside an `EpochStore` and publish its snapshots by hand
//! (`examples/serving.rs` does). Publication is an `arc-swap`-style atomic
//! pointer exchange (an `RwLock<Arc<_>>` from the vendored `parking_lot`,
//! held only for the pointer swap itself): a reader clones the current `Arc`
//! and then works entirely lock-free on a *pinned* snapshot, so a query
//! observes exactly one epoch end-to-end — never a torn mix of two — and
//! reads never wait on the writer.
//!
//! Since the transport refactor, publication is additionally **broadcast**:
//! interested parties register an `EpochSink` and each [`EpochStore::publish`]
//! notifies every registered sink with the fresh epoch number. The serving
//! coordinator registers a sink that enqueues an epoch-publication message
//! on its own transport inbox and relays it to the shard workers — workers
//! re-pin their snapshot on the *notice*, not by peeking at shared state
//! mid-query, which is what keeps the message layer socket-ready.

use crate::shard::ShardedStore;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A subscriber to epoch publications.
///
/// `notify` runs on the publisher's thread, after the swap is visible, and
/// must not block: sinks that forward into bounded channels drop the notice
/// when the channel is full (any notice merely says "something newer than
/// what you pinned exists"; a dropped one is superseded by the next publish
/// or by the next explicit [`EpochStore::load`]).
pub(crate) trait EpochSink: Send + Sync {
    /// A new snapshot with this epoch number is now loadable.
    fn notify(&self, epoch: u64);
}

/// Handle returned by [`EpochStore::subscribe`]; pass it back to
/// [`EpochStore::unsubscribe`] when the subscriber goes away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SubscriptionId(u64);

/// A shared, atomically swappable handle to the current serving snapshot.
#[derive(Debug)]
pub struct EpochStore {
    current: RwLock<Arc<ShardedStore>>,
    epoch: AtomicU64,
    #[allow(clippy::type_complexity)]
    sinks: Mutex<Vec<(u64, Arc<dyn EpochSink>)>>,
    next_sink: AtomicU64,
}

impl std::fmt::Debug for dyn EpochSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EpochSink")
    }
}

impl EpochStore {
    /// Create an epoch store serving `initial` as epoch 1.
    pub fn new(initial: ShardedStore) -> Self {
        Self::resume(Arc::new(initial.with_epoch(1)))
    }

    /// Create an epoch store serving a shared snapshot, as it is, at the
    /// epoch it carries — a store rebuilt from a checkpoint keeps its
    /// pre-crash `epoch_seq`, so the sequence numbers in
    /// [`crate::metrics::ShardServeMetrics`] and in checkpoint manifests stay
    /// monotonic (and diffable) across a restart. The next
    /// [`EpochStore::publish`] is stamped one past it.
    pub fn resume(initial: Arc<ShardedStore>) -> Self {
        let epoch = initial.epoch();
        Self {
            current: RwLock::new(initial),
            epoch: AtomicU64::new(epoch),
            sinks: Mutex::new(Vec::new()),
            next_sink: AtomicU64::new(0),
        }
    }

    /// Pin the current snapshot. The returned `Arc` stays valid (and
    /// immutable) for as long as the caller holds it, regardless of how many
    /// newer epochs are published meanwhile.
    pub fn load(&self) -> Arc<ShardedStore> {
        Arc::clone(&self.current.read())
    }

    /// Publish a new snapshot, returning the epoch number it was stamped
    /// with. Readers that already pinned the previous epoch keep it; new
    /// loads observe the fresh one.
    ///
    /// # Ordering invariant
    ///
    /// The counter is advanced *inside* the write lock, *after* the pointer
    /// swap, with `Release`; [`EpochStore::current_epoch`] reads it with
    /// `Acquire`. Snapshots are only pinned under the read lock, which cannot
    /// be acquired before the publisher's unlock — and the unlock is ordered
    /// after the counter store. So once a thread has pinned a snapshot with
    /// epoch `e`, every later [`EpochStore::current_epoch`] call it makes
    /// returns at least `e`: the counter can never trail a pointer swap the
    /// reader has already observed (the bug a bare `Relaxed` load allowed).
    /// With concurrent publishers the write lock serialises both the swap and
    /// the counter bump, so the snapshot left behind is always the one with
    /// the highest epoch.
    pub fn publish(&self, store: ShardedStore) -> u64 {
        let epoch = {
            let mut current = self.current.write();
            // Exclusive via the write lock (the previous publisher's store
            // happens-before this load through lock acquisition), so a plain
            // Relaxed read sees the latest value.
            let epoch = self.epoch.load(Ordering::Relaxed) + 1;
            *current = Arc::new(store.with_epoch(epoch));
            self.epoch.store(epoch, Ordering::Release);
            epoch
        };
        // Broadcast outside the write lock: a sink that loads the snapshot
        // from inside `notify` must not deadlock against the publisher, and
        // readers should never wait on sink fan-out.
        let sinks: Vec<Arc<dyn EpochSink>> = {
            let registered = self.sinks.lock();
            registered
                .iter()
                .map(|(_, sink)| Arc::clone(sink))
                .collect()
        };
        for sink in sinks {
            sink.notify(epoch);
        }
        epoch
    }

    /// Register a sink notified on every subsequent publish. Returns the id
    /// to [`EpochStore::unsubscribe`] with.
    pub(crate) fn subscribe(&self, sink: Arc<dyn EpochSink>) -> SubscriptionId {
        let id = self.next_sink.fetch_add(1, Ordering::Relaxed);
        self.sinks.lock().push((id, sink));
        SubscriptionId(id)
    }

    /// Remove a previously registered sink. Unknown ids are a no-op (the
    /// sink may already have been removed).
    pub(crate) fn unsubscribe(&self, id: SubscriptionId) {
        self.sinks.lock().retain(|(sid, _)| *sid != id.0);
    }

    /// The epoch number of the latest published snapshot. Never trails the
    /// epoch of any snapshot the calling thread has already pinned via
    /// [`EpochStore::load`] (see [`EpochStore::publish`] for the ordering
    /// argument).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::Label;
    use loom_partition::partition::{PartitionId, Partitioning};

    fn snapshot(vertices: usize) -> ShardedStore {
        let g = path_graph(vertices, &[Label::new(0), Label::new(1)]);
        let mut part = Partitioning::new(2, vertices).unwrap();
        for (i, v) in g.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new((i % 2) as u32)).unwrap();
        }
        ShardedStore::from_parts(&g, &part)
    }

    #[test]
    fn publish_bumps_epoch_and_swaps() {
        let epochs = EpochStore::new(snapshot(4));
        assert_eq!(epochs.current_epoch(), 1);
        assert_eq!(epochs.load().vertex_count(), 4);
        let e = epochs.publish(snapshot(6));
        assert_eq!(e, 2);
        assert_eq!(epochs.current_epoch(), 2);
        assert_eq!(epochs.load().vertex_count(), 6);
        assert_eq!(epochs.load().epoch(), 2);
    }

    #[test]
    fn pinned_snapshot_survives_a_swap() {
        let epochs = EpochStore::new(snapshot(4));
        let pinned = epochs.load();
        epochs.publish(snapshot(8));
        // The pinned epoch still sees the old graph, the store the new one.
        assert_eq!(pinned.vertex_count(), 4);
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(epochs.load().vertex_count(), 8);
    }

    #[test]
    fn sinks_receive_each_publish_and_unsubscribe_stops_them() {
        use std::sync::Mutex as StdMutex;
        #[derive(Default)]
        struct Recorder(StdMutex<Vec<u64>>);
        impl EpochSink for Recorder {
            fn notify(&self, epoch: u64) {
                self.0.lock().unwrap().push(epoch);
            }
        }
        let epochs = EpochStore::new(snapshot(4));
        let recorder = Arc::new(Recorder::default());
        let id = epochs.subscribe(Arc::clone(&recorder) as Arc<dyn EpochSink>);
        assert_eq!(epochs.sinks.lock().len(), 1);
        epochs.publish(snapshot(6));
        epochs.publish(snapshot(8));
        assert_eq!(*recorder.0.lock().unwrap(), vec![2, 3]);
        epochs.unsubscribe(id);
        assert_eq!(epochs.sinks.lock().len(), 0);
        epochs.publish(snapshot(10));
        assert_eq!(*recorder.0.lock().unwrap(), vec![2, 3]);
        // Unsubscribing twice is a harmless no-op.
        epochs.unsubscribe(id);
    }

    #[test]
    fn sinks_may_load_the_snapshot_they_were_notified_about() {
        // A sink that loads from inside `notify` must observe at least the
        // epoch it was told about (broadcast happens after the swap, outside
        // the write lock).
        struct Loader(Arc<EpochStore>);
        impl EpochSink for Loader {
            fn notify(&self, epoch: u64) {
                assert!(self.0.load().epoch() >= epoch);
            }
        }
        let epochs = Arc::new(EpochStore::new(snapshot(4)));
        epochs.subscribe(Arc::new(Loader(Arc::clone(&epochs))));
        assert_eq!(epochs.publish(snapshot(6)), 2);
    }

    #[test]
    fn concurrent_loads_and_publishes_do_not_tear() {
        let epochs = EpochStore::new(snapshot(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 2..30usize {
                    epochs.publish(snapshot(2 * i));
                }
            });
            for _ in 0..200 {
                let snap = epochs.load();
                // Every observed snapshot is internally consistent: a path
                // graph of n vertices always has n-1 edges.
                assert_eq!(snap.edge_count(), snap.vertex_count() - 1);
                // The counter never trails a snapshot this thread pinned.
                assert!(snap.epoch() <= epochs.current_epoch());
            }
        });
        assert_eq!(epochs.current_epoch(), 29);
    }
}
