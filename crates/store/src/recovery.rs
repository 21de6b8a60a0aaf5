//! Restart-and-serve recovery.
//!
//! [`recover_with`] is the single entry point a restarting process calls on
//! its durability root ([`recover`] is the same call with nothing to replay
//! into). It works in this order:
//!
//! 1. the newest checkpoint with a valid manifest is found (torn ones are
//!    skipped) and **read** — blobs CRC-checked and decoded straight into
//!    the CSR arena ([`read_checkpoint`]);
//! 2. two branches then run side by side, because neither needs anything
//!    the other produces. **A scoped thread verifies** what was read: the
//!    arena's invariants, the manifest's totals, the re-encode bit-identity
//!    proof ([`crate::UnverifiedCheckpoint::verify`]). **The calling thread** reads
//!    and decodes the WAL ([`Wal::replay`]) and hands the acknowledged batch
//!    history to the caller's `replay` closure — the session replays it
//!    through a fresh partitioner there, the only state no checkpoint holds
//!    and so the only step that needs the full history. (The session's graph
//!    mirror does not: it is built once recovery has returned, from the
//!    arena proven here plus the batches past
//!    [`RecoveryReport::wal_records_in_checkpoint`] — one replay of the
//!    history, not two.) The split follows the allocator: everything that
//!    builds a long-lived structure stays on the calling thread, the scoped
//!    one only reads, so the process does not grow a second heap for the
//!    length of the recovered session;
//! 3. only when both have succeeded is the root touched: the log must hold
//!    at least the records its checkpoint folded in, and then
//!    [`Wal::resume_from`] truncates the torn tail — recovery's only write —
//!    and opens the log for append.
//!
//! A recovery that fails leaves the root byte-for-byte as found. Errors keep
//! their order: the checkpoint's, then the log's, then the closure's.
//!
//! The caller gets back the checkpointed store (pinned at its original
//! `epoch_seq`), the batch history, the reopened append-ready log, and
//! whatever its closure built.

use crate::checkpoint::{latest_checkpoint, read_checkpoint, CheckpointMeta, LoadedCheckpoint};
use crate::error::{Result, StoreError};
use crate::wal::{Wal, WAL_FILE};
use loom_graph::StreamElement;
use loom_obs::{stage, Histogram, SpanTimer, Telemetry};
use std::path::Path;
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
    /// Acknowledged WAL records recovered (full history since creation).
    pub wal_records: u64,
    /// Of those, how many the checkpoint had already folded in.
    pub wal_records_in_checkpoint: u64,
    /// Bytes of torn WAL tail truncated during resume.
    pub wal_truncated_bytes: u64,
}

/// Everything recovered from a durability root.
#[derive(Debug)]
pub struct RecoveredState {
    /// The newest valid checkpoint, fully loaded and bit-verified; `None`
    /// when the root has never been checkpointed.
    pub checkpoint: Option<LoadedCheckpoint>,
    /// Every acknowledged batch, in ingest order. Replaying *all* of them
    /// through a fresh (deterministic) partitioner reproduces the exact
    /// pre-crash partitioner state — including its streaming window.
    pub batches: Vec<Vec<StreamElement>>,
    /// The reopened log, torn tail truncated, positioned for append.
    pub wal: Wal,
    /// Summary of what was found.
    pub report: RecoveryReport,
}

/// The stage histograms an observed recovery charges, one sample each:
/// `recover.checkpoint_load` from the first blob read on the calling thread
/// to the end of the proof on the verifying one, `recover.wal_decode` and
/// `recover.replay` back to back on the calling thread beside that proof,
/// and `recover.mirror` ([`RecoverSpans::mirror`]) on the calling thread
/// once [`recover_with`] has returned — so `max(load, decode + replay) +
/// mirror`, and with it `max(load, decode + replay + mirror)`, bounds the
/// recovery's wall clock from below. The default charges nothing and reads
/// no clock.
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

    /// The `recover.mirror` span, for the caller that builds a graph mirror
    /// out of what [`recover_with`] handed back.
    pub fn mirror(&self) -> SpanTimer<'_> {
        SpanTimer::start(self.mirror.as_deref())
    }
}

/// Recover a durability root with nothing to replay into: [`recover_with`]
/// unobserved, under a closure that does nothing.
pub fn recover(root: &Path) -> Result<RecoveredState> {
    recover_with(root, &RecoverSpans::default(), |_, _| {
        Ok::<_, StoreError>(())
    })
    .map(|(state, ())| state)
}

/// Recover a durability root: read the newest valid checkpoint, then verify
/// it on a scoped thread while the calling thread decodes the WAL and runs
/// `replay` over the newest valid manifest (if any) and the acknowledged
/// batch history; then check the log covers its checkpoint, truncate its
/// torn tail and reopen it. A fresh or empty root recovers to an empty state
/// with a newly created log. See the module docs for what is verified where.
///
/// # Errors
///
/// The checkpoint's error if it fails to load, else the log's, else
/// `replay`'s; then [`StoreError::Corrupt`] if the log holds fewer records
/// than the checkpoint folded in. The root is not written to before all of
/// these have passed.
pub fn recover_with<T, E: From<StoreError>>(
    root: &Path,
    spans: &RecoverSpans,
    replay: impl FnOnce(Option<&CheckpointMeta>, &[Vec<StreamElement>]) -> std::result::Result<T, E>,
) -> std::result::Result<(RecoveredState, T), E> {
    let found = latest_checkpoint(root)?;
    let wal_path = root.join(WAL_FILE);
    let pending = match &found {
        Some((dir, _, _)) => {
            let span = SpanTimer::start(spans.checkpoint_load.as_deref());
            Some((read_checkpoint(dir)?, span))
        }
        None => None,
    };
    let (loaded, replayed) = std::thread::scope(|scope| {
        let verifier = pending.map(|(pending, span)| {
            scope.spawn(move || {
                let _span = span;
                pending.verify()
            })
        });
        let decode = SpanTimer::start(spans.wal_decode.as_deref());
        let log = Wal::replay(&wal_path);
        drop(decode);
        let replayed = log.map(|log| {
            let _span = SpanTimer::start(spans.replay.as_deref());
            let built = replay(found.as_ref().map(|(_, meta, _)| meta), &log.batches);
            (log, built)
        });
        let loaded = verifier.map(|v| v.join().expect("checkpoint verifier panicked"));
        (loaded, replayed)
    });
    let checkpoint = loaded.transpose()?;
    let (log, built) = replayed?;
    let built = built?;
    if let Some(ckpt) = &checkpoint {
        if log.records < ckpt.meta.wal_records {
            return Err(StoreError::corrupt(
                &wal_path,
                format!(
                    "log holds {} records, but checkpoint {} folded in {}",
                    log.records, ckpt.meta.epoch_seq, ckpt.meta.wal_records
                ),
            )
            .into());
        }
    }
    let wal = Wal::resume_from(&wal_path, &log)?;
    let report = RecoveryReport {
        epoch_seq: checkpoint.as_ref().map_or(0, |c| c.meta.epoch_seq),
        checkpoint_found: checkpoint.is_some(),
        invalid_checkpoints_skipped: found.map_or(0, |(_, _, skipped)| skipped),
        wal_records: log.records,
        wal_records_in_checkpoint: checkpoint.as_ref().map_or(0, |c| c.meta.wal_records),
        wal_truncated_bytes: log.truncated_bytes,
    };
    let state = RecoveredState {
        checkpoint,
        batches: log.batches,
        wal,
        report,
    };
    Ok((state, built))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::write_checkpoint;
    use loom_graph::generators::erdos_renyi::erdos_renyi;
    use loom_graph::generators::GeneratorConfig;
    use loom_graph::prelude::StreamOrder;
    use loom_graph::GraphStream;
    use loom_partition::partition::{PartitionId, Partitioning};
    use loom_serve::shard::ShardedStore;
    use std::path::PathBuf;

    fn tmproot(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("loom-rec-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fresh_root_recovers_empty() {
        let root = tmproot("fresh");
        let state = recover(&root).unwrap();
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
                wal_truncated_bytes: 0,
            }
        );
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
        let mut wal = Wal::create(&root.join(WAL_FILE)).unwrap();
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
        let wal_path = root.join(WAL_FILE);
        let mut raw = std::fs::read(&wal_path).unwrap();
        raw.extend_from_slice(&[9, 9, 9]);
        std::fs::write(&wal_path, &raw).unwrap();

        let state = recover(&root).unwrap();
        let ckpt = state.checkpoint.as_ref().unwrap();
        assert_eq!(ckpt.meta.epoch_seq, 1);
        assert_eq!(ckpt.store.epoch(), 1);
        assert_eq!(state.report.wal_records, 2);
        assert_eq!(state.report.wal_records_in_checkpoint, 1);
        assert_eq!(state.report.wal_truncated_bytes, 3);
        // The batches replay to the full pre-crash graph.
        let all: Vec<_> = state.batches.concat();
        let replayed = GraphStream::from_elements(all).materialise();
        assert_eq!(replayed.vertex_count(), g.vertex_count());
        assert_eq!(replayed.edge_count(), g.edge_count());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
