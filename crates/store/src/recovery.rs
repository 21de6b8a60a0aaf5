//! Restart-and-serve recovery.
//!
//! [`recover`] is the single entry point a restarting process calls on its
//! durability root. It works in this order:
//!
//! 1. the newest checkpoint with a valid manifest is found (torn ones are
//!    skipped) and **read** — blobs CRC-checked and decoded straight into
//!    the CSR arena, the partitioner blob read as bytes
//!    ([`read_checkpoint`]);
//! 2. two branches then run side by side, because neither needs anything
//!    the other produces. **A scoped thread proves** what was read: the
//!    arena's invariants, the manifest's totals, the re-encode bit-identity
//!    proof ([`crate::UnverifiedCheckpoint::verify`]). **The calling
//!    thread** reads and decodes the WAL from the segment holding the
//!    record the partitioner's replay starts at — the checkpoint's
//!    `wal_records` when it carries the partitioner's state, else 0 — so
//!    segments the checkpoint folded in are neither read nor required; then,
//!    if the log covers the checkpoint, it runs the caller's closure over
//!    the batches and the checkpoint as read ([`Beside`]): the manifest, the
//!    partitioner blob and a read-only view of the arena — all of it still
//!    unproven. That is where a session restores its partitioner, replays
//!    the log past it and builds its graph mirror from the arena's rows and
//!    the log's tail. Both then join. The split follows the allocator: the
//!    scoped thread only reads, so everything recovery builds is on the
//!    calling thread's heap and the process does not grow a second one for
//!    the length of the recovered session;
//! 3. the log must hold at least the records its checkpoint folded in:
//!    checked on the calling thread once the log is decoded, before the
//!    closure that slices the batches past them runs.
//!
//! Nothing built before the proof leaves [`recover`] unless the proof
//! holds: the closure's result is handed back only beside a proven
//! checkpoint (or none) and a decoded log that covers it, and is dropped
//! otherwise. Nothing is written: the caller gets back the proven checkpoint
//! (pinned at its original `epoch_seq`, with the partitioner's state when it
//! carries one), the batches from [`RecoveryReport::wal_first_record`] on, a
//! report — [`RecoveryReport::replayed_from`] says where the partitioner's
//! replay starts — and what its closure built. Only once nothing else can
//! fail does it call [`RecoveredState::resume_wal`], which truncates the
//! newest segment's torn tail and opens it for append — or, when that
//! segment is a `LOOMWAL1` file, opens a `LOOMWAL2` segment at the log's end
//! — recovery's only writes. Recovery never retires a segment. A recovery that fails leaves
//! the root byte-for-byte as found. Errors keep their order: the
//! checkpoint's, then the log's, then the caller's.

use crate::checkpoint::{latest_checkpoint, read_checkpoint, LoadedCheckpoint, UnprovenCheckpoint};
use crate::error::{Result, StoreError};
use crate::wal::{replay_log, LogReplay, Wal};
use loom_graph::StreamElement;
use loom_obs::{stage, Histogram, SpanTimer, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What [`recover`] found on disk, summarized for logs and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch sequence of the recovered checkpoint (0 when none existed).
    pub epoch_seq: u64,
    /// Whether a valid checkpoint was found at all.
    pub checkpoint_found: bool,
    /// Newer-but-invalid (torn) checkpoint directories skipped over.
    pub invalid_checkpoints_skipped: usize,
    /// Acknowledged WAL records in the log's whole history, retired
    /// segments' included.
    pub wal_records: u64,
    /// Of those, how many the checkpoint had already folded in.
    pub wal_records_in_checkpoint: u64,
    /// The first record decoded: the first of the segment holding
    /// `replayed_from`. Nothing below it was read.
    pub wal_first_record: u64,
    /// The record the partitioner's replay starts at: the checkpoint's
    /// `wal_records` when it carries the partitioner's state, else 0.
    pub replayed_from: u64,
    /// Bytes of torn WAL tail found past the last good record, truncated by
    /// [`RecoveredState::resume_wal`].
    pub wal_truncated_bytes: u64,
}

/// Everything recovered from a durability root.
#[derive(Debug)]
pub struct RecoveredState {
    /// The newest valid checkpoint, fully loaded and bit-verified; `None`
    /// when the root has never been checkpointed.
    pub checkpoint: Option<LoadedCheckpoint>,
    /// Every acknowledged batch from [`RecoveryReport::wal_first_record`]
    /// on, in ingest order. A partitioner restored from the checkpoint's
    /// state and fed the batches from [`RecoveryReport::replayed_from`] on
    /// ([`Beside::replay`]) — or a fresh one fed all of them, when the
    /// checkpoint carries no state and they start at record 0 — is in the
    /// exact pre-crash state, streaming window included.
    pub batches: Vec<Vec<StreamElement>>,
    /// Summary of what was found.
    pub report: RecoveryReport,
    /// The log as read (its batches moved to `batches`), for the resume.
    log: LogReplay,
    root: PathBuf,
}

impl RecoveredState {
    /// Truncate the newest segment's torn tail and open it for append (in a
    /// new v2 segment at the log's end when it holds v1 records) —
    /// recovery's only writes, so the caller makes them last, once nothing
    /// else can fail.
    pub fn resume_wal(&self) -> Result<Wal> {
        self.log.resume(&self.root)
    }
}

/// The stage histograms an observed recovery charges, one sample each:
/// `recover.checkpoint_load` from the first blob read on the calling thread
/// to the end of the proof on the verifying one; beside that proof, on the
/// calling thread, `recover.wal_decode` (the segments from the one holding
/// [`RecoveryReport::replayed_from`] on), then the closure's
/// `recover.replay` ([`RecoverSpans::replay`]: the partitioner's restore and
/// the log past it) and `recover.mirror` ([`RecoverSpans::mirror`]). So
/// `max(load, decode + replay + mirror)` bounds the recovery's wall clock
/// from below. The default charges nothing and reads no clock.
#[derive(Debug, Default)]
pub struct RecoverSpans {
    checkpoint_load: Option<Arc<Histogram>>,
    wal_decode: Option<Arc<Histogram>>,
    replay: Option<Arc<Histogram>>,
    mirror: Option<Arc<Histogram>>,
}

impl RecoverSpans {
    /// Resolve the four `recover.*` stage histograms of `telemetry`.
    pub fn resolve(telemetry: &Telemetry) -> Self {
        Self {
            checkpoint_load: Some(telemetry.stage_histogram(stage::RECOVER_CHECKPOINT_LOAD)),
            wal_decode: Some(telemetry.stage_histogram(stage::RECOVER_WAL_DECODE)),
            replay: Some(telemetry.stage_histogram(stage::RECOVER_REPLAY)),
            mirror: Some(telemetry.stage_histogram(stage::RECOVER_MIRROR)),
        }
    }

    /// The `recover.replay` span, for the closure that restores a
    /// partitioner and replays the log past it beside the proof.
    pub fn replay(&self) -> SpanTimer<'_> {
        SpanTimer::start(self.replay.as_deref())
    }

    /// The `recover.mirror` span, for the closure that builds a graph mirror
    /// beside the proof.
    pub fn mirror(&self) -> SpanTimer<'_> {
        SpanTimer::start(self.mirror.as_deref())
    }
}

/// What [`recover`]'s closure builds from, on the calling thread while the
/// checkpoint's proof runs: the decoded log and the checkpoint as read.
/// Nothing here is proven yet, and what the closure returns leaves
/// [`recover`] only once it is.
#[derive(Debug, Clone, Copy)]
pub struct Beside<'a> {
    /// The checkpoint being proven; `None` when the root has none.
    pub checkpoint: Option<UnprovenCheckpoint<'a>>,
    /// The log's batches from record `first` on.
    batches: &'a [Vec<StreamElement>],
    first: u64,
    /// [`RecoveryReport::replayed_from`].
    replayed_from: u64,
}

impl<'a> Beside<'a> {
    /// The batches a partitioner restored from the checkpoint's state is fed
    /// — or a fresh one, when the checkpoint carries none and this is the
    /// whole log: those from [`RecoveryReport::replayed_from`] on.
    pub fn replay(&self) -> &'a [Vec<StreamElement>] {
        self.batches_from(self.replayed_from)
    }

    /// The batches the checkpoint did not fold in — what a graph mirror
    /// built from its arena applies; the whole log without a checkpoint.
    pub fn tail(&self) -> &'a [Vec<StreamElement>] {
        self.batches_from(self.checkpoint.map_or(0, |c| c.meta.wal_records))
    }

    fn batches_from(&self, record: u64) -> &'a [Vec<StreamElement>] {
        &self.batches[(record - self.first) as usize..]
    }
}

/// Recover a durability root: read the newest valid checkpoint, then prove
/// it on a scoped thread while the calling thread decodes the WAL from the
/// segment the partitioner's replay needs on, checks the log covers the
/// checkpoint and runs `build` over both, unproven ([`Beside`]). A fresh or
/// empty root recovers to an empty state. Writes nothing: see
/// [`RecoveredState::resume_wal`], and the module docs for what is verified
/// where.
///
/// # Errors
///
/// The checkpoint's error if it fails to load, else the log's (records
/// missing between or before the segments needed, a torn frame in a segment
/// but the newest); then [`StoreError::Corrupt`] if the log holds fewer
/// records than the checkpoint folded in. `build` runs only when the log
/// decodes and covers the checkpoint, and what it returns is dropped with
/// any error.
pub fn recover<R>(
    root: &Path,
    spans: &RecoverSpans,
    build: impl FnOnce(Beside<'_>) -> R,
) -> Result<(RecoveredState, R)> {
    let found = latest_checkpoint(root)?;
    let replayed_from = found
        .as_ref()
        .map_or(0, |(_, meta, _)| meta.replayed_from());
    let decode_then_build = |checkpoint: Option<UnprovenCheckpoint<'_>>| {
        let decode = SpanTimer::start(spans.wal_decode.as_deref());
        let log = replay_log(root, replayed_from)?;
        drop(decode);
        if let Some(meta) = checkpoint.map(|c| c.meta) {
            if log.records < meta.wal_records {
                return Err(StoreError::corrupt(
                    root,
                    format!(
                        "log holds {} records, but checkpoint {} folded in {}",
                        log.records, meta.epoch_seq, meta.wal_records
                    ),
                ));
            }
        }
        let built = build(Beside {
            checkpoint,
            batches: &log.batches,
            first: log.first,
            replayed_from,
        });
        Ok((log, built))
    };
    let (checkpoint, decoded) = match &found {
        Some((dir, _, _)) => {
            let span = SpanTimer::start(spans.checkpoint_load.as_deref());
            let (loaded, decoded) = read_checkpoint(dir)?
                .verify_beside(span, |checkpoint| decode_then_build(Some(checkpoint)));
            (Some(loaded?), decoded)
        }
        None => (None, decode_then_build(None)),
    };
    let (mut log, built) = decoded?;
    let report = RecoveryReport {
        epoch_seq: checkpoint.as_ref().map_or(0, |c| c.meta.epoch_seq),
        checkpoint_found: checkpoint.is_some(),
        invalid_checkpoints_skipped: found.map_or(0, |(_, _, skipped)| skipped),
        wal_records: log.records,
        wal_records_in_checkpoint: checkpoint.as_ref().map_or(0, |c| c.meta.wal_records),
        wal_first_record: log.first,
        replayed_from,
        wal_truncated_bytes: log.truncated_bytes,
    };
    let state = RecoveredState {
        checkpoint,
        batches: std::mem::take(&mut log.batches),
        report,
        log,
        root: root.to_path_buf(),
    };
    Ok((state, built))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::write_checkpoint;
    use crate::wal::segment_path;
    use loom_graph::generators::erdos_renyi::erdos_renyi;
    use loom_graph::generators::GeneratorConfig;
    use loom_graph::prelude::StreamOrder;
    use loom_graph::GraphStream;
    use loom_partition::partition::{PartitionId, Partitioning};
    use loom_serve::shard::ShardedStore;

    fn tmproot(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("loom-rec-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fresh_root_recovers_empty() {
        let root = tmproot("fresh");
        let (state, ()) = recover(&root, &RecoverSpans::default(), |_| ()).unwrap();
        assert!(state.checkpoint.is_none());
        assert!(state.batches.is_empty());
        assert_eq!(
            state.report,
            RecoveryReport {
                epoch_seq: 0,
                checkpoint_found: false,
                invalid_checkpoints_skipped: 0,
                wal_records: 0,
                wal_records_in_checkpoint: 0,
                wal_first_record: 0,
                replayed_from: 0,
                wal_truncated_bytes: 0,
            }
        );
        // Recovery itself wrote nothing; resuming creates the log.
        assert!(!segment_path(&root, 0).exists());
        assert_eq!(state.resume_wal().unwrap().records(), 0);
        assert!(segment_path(&root, 0).exists());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn checkpoint_plus_wal_tail_recovers_both() {
        let root = tmproot("both");
        let g = erdos_renyi(GeneratorConfig::new(24, 3, 5), 60).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Bfs);
        let elements = stream.elements();

        // WAL the full history in two batches; checkpoint after the first.
        let half = elements.len() / 2;
        let mut wal = Wal::create(&segment_path(&root, 0)).unwrap();
        wal.append(&elements[..half]).unwrap();
        let first = GraphStream::from_elements(elements[..half].to_vec()).materialise();
        let mut part = Partitioning::new(2, first.vertex_count().max(1)).unwrap();
        for (i, v) in first.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new((i % 2) as u32)).unwrap();
        }
        let store = ShardedStore::from_parts(&first, &part).with_epoch(1);
        write_checkpoint(&root, &store, 1, "loom").unwrap();
        wal.append(&elements[half..]).unwrap();
        drop(wal);
        // Torn tail from a crash mid-append.
        let wal_path = segment_path(&root, 0);
        let mut raw = std::fs::read(&wal_path).unwrap();
        raw.extend_from_slice(&[9, 9, 9]);
        std::fs::write(&wal_path, &raw).unwrap();

        // Beside the proof, the closure sees the unproven checkpoint and
        // the log cut where a partitioner and a mirror start from it.
        let (state, (replay, tail, arena)) = recover(&root, &RecoverSpans::default(), |beside| {
            let checkpoint = beside.checkpoint.expect("the checkpoint was found");
            assert!(checkpoint.partitioner.is_none());
            let arena = checkpoint.arena;
            (beside.replay().len(), beside.tail().len(), arena.to_graph())
        })
        .unwrap();
        assert_eq!((replay, tail), (2, 1));
        assert_eq!(arena.edges_sorted(), first.edges_sorted());
        let ckpt = state.checkpoint.as_ref().unwrap();
        assert_eq!(ckpt.meta.epoch_seq, 1);
        assert_eq!(ckpt.store.epoch(), 1);
        assert!(ckpt.partitioner.is_none());
        assert_eq!(state.report.wal_records, 2);
        assert_eq!(state.report.wal_records_in_checkpoint, 1);
        // No partitioner state: its replay starts at the log's first record.
        assert_eq!(state.report.replayed_from, 0);
        assert_eq!(state.report.wal_truncated_bytes, 3);
        // The batches replay to the full pre-crash graph.
        let all: Vec<_> = state.batches.concat();
        let replayed = GraphStream::from_elements(all).materialise();
        assert_eq!(replayed.vertex_count(), g.vertex_count());
        assert_eq!(replayed.edge_count(), g.edge_count());
        // The torn tail is still on disk until the log is resumed.
        assert_eq!(std::fs::read(&wal_path).unwrap(), raw);
        let wal = state.resume_wal().unwrap();
        assert_eq!(wal.records(), 2);
        assert_eq!(std::fs::read(&wal_path).unwrap().len(), raw.len() - 3);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
