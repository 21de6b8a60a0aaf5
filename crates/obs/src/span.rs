//! Scoped spans: RAII guards charging wall-clock time into stage
//! histograms.
//!
//! A [`SpanTimer`] is a zero-allocation guard: started against an optional
//! histogram handle, it records the elapsed microseconds on drop. When the
//! handle is `None` — a session built **without** observability — starting
//! the span does not even read the clock, so the uninstrumented path pays a
//! single branch and the bit-identical parity tests are untouched.
//!
//! The [`stage`] module is the stack's span catalogue: every instrumented
//! stage charges into a histogram named by one of these constants, so
//! dashboards and tests agree on the series names.

use crate::hist::Histogram;
use std::time::Instant;

/// The stage-histogram catalogue: one metric id per instrumented stage.
pub mod stage {
    /// WAL append + fsync of one ingested batch (`Session::ingest_batch`).
    pub const INGEST_WAL_APPEND: &str = "ingest.wal_append";
    /// Partitioner ingestion of one batch (`Session::ingest_batch`).
    pub const INGEST_PARTITION: &str = "ingest.partition";
    /// Wall-clock time a routed message sat in a shard worker's inbox.
    pub const SERVE_QUEUE_WAIT: &str = "serve.queue_wait";
    /// One query execution on a shard worker (matcher run, wall clock).
    pub const SERVE_EXECUTE: &str = "serve.execute";
    /// One checkpoint written by `Session::checkpoint`, on its thread: the
    /// blobs and the manifest, fsyncs included. The encode before it and the
    /// prune and log retirement after it are not charged.
    pub const STORE_CHECKPOINT_WRITE: &str = "store.checkpoint_write";
    /// One fsync on the durability path (WAL append or checkpoint file).
    pub const STORE_FSYNC: &str = "store.fsync";
    /// One migration-planning pass (`AdaptiveServing::adapt_now` rounds).
    pub const ADAPT_PLAN: &str = "adapt.plan";
    /// Applying a migration plan and rebuilding the affected shards.
    pub const ADAPT_MIGRATE: &str = "adapt.migrate";
    /// Mirroring one ingested batch that carries deletes/relabels into the
    /// durable graph (`Session::ingest_batch`).
    pub const INGEST_APPLY_DELETE: &str = "ingest.apply_delete";
    /// One epoch-compaction pass: rewriting tombstone-heavy shards and
    /// publishing the compacted store.
    pub const SERVE_COMPACTION: &str = "serve.compaction";
    /// Loading and bit-verifying the newest checkpoint during recovery (runs
    /// beside the WAL decode, the verification on a thread of its own).
    pub const RECOVER_CHECKPOINT_LOAD: &str = "recover.checkpoint_load";
    /// Reading, CRC-checking and decoding the whole WAL during recovery.
    pub const RECOVER_WAL_DECODE: &str = "recover.wal_decode";
    /// Restoring the partitioner from the proven checkpoint's state and
    /// replaying the log past it — the whole log when the checkpoint carries
    /// no state. Starts once the two stages above have joined.
    pub const RECOVER_REPLAY: &str = "recover.replay";
    /// Building a recovered session's durable graph mirror: the proven
    /// checkpoint's arena, then the log's batches past it, on the session's
    /// first write, checkpoint or `serve_ingested` — not during recovery,
    /// so a recovery from a checkpoint charges it nothing. A root with no
    /// checkpoint has no arena: its recovery builds the mirror from the
    /// whole log, after the replay, to freeze the recovered store from it.
    pub const RECOVER_MIRROR: &str = "recover.mirror";
}

/// A scoped wall-clock timer charging into a stage histogram on drop.
///
/// Construct with [`SpanTimer::start`]; the borrow keeps the guard from
/// outliving the handle it charges. `None` builds a no-op guard that never
/// reads the clock.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct SpanTimer<'a> {
    target: Option<(&'a Histogram, Instant)>,
}

impl<'a> SpanTimer<'a> {
    /// Start a span against `hist`, or a free no-op when `hist` is `None`.
    #[inline]
    pub fn start(hist: Option<&'a Histogram>) -> Self {
        Self {
            target: hist.map(|h| (h, Instant::now())),
        }
    }

    /// Whether this span will record anything.
    pub fn is_live(&self) -> bool {
        self.target.is_some()
    }

    #[inline]
    fn finish(&mut self) -> Option<u64> {
        self.target.take().map(|(hist, started)| {
            let us = started.elapsed().as_micros() as u64;
            hist.record(us);
            us
        })
    }
}

impl Drop for SpanTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_charge_their_histogram_on_drop() {
        let hist = Histogram::new();
        {
            let _span = SpanTimer::start(Some(&hist));
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(hist.count(), 1);
        assert!(hist.quantile(1.0) >= 1_000, "recorded at least ~1ms");
    }

    #[test]
    fn stop_returns_the_recorded_duration() {
        let hist = Histogram::new();
        let mut span = SpanTimer::start(Some(&hist));
        let us = span.finish().expect("live span");
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), us);
    }

    #[test]
    fn disabled_spans_are_no_ops() {
        let mut span = SpanTimer::start(None);
        assert!(!span.is_live());
        assert_eq!(span.finish(), None);
    }

    #[test]
    fn the_stage_catalogue_is_unique_and_dotted() {
        use stage::*;
        let mut seen = std::collections::BTreeSet::new();
        for name in [
            INGEST_WAL_APPEND,
            INGEST_PARTITION,
            SERVE_QUEUE_WAIT,
            SERVE_EXECUTE,
            STORE_CHECKPOINT_WRITE,
            STORE_FSYNC,
            ADAPT_PLAN,
            ADAPT_MIGRATE,
            INGEST_APPLY_DELETE,
            SERVE_COMPACTION,
            RECOVER_CHECKPOINT_LOAD,
            RECOVER_WAL_DECODE,
            RECOVER_REPLAY,
            RECOVER_MIRROR,
        ] {
            assert!(name.contains('.'), "{name} is not stage-scoped");
            assert!(seen.insert(name), "{name} appears twice");
        }
        assert_eq!(seen.len(), 14);
    }
}
