//! The streaming partitioner contract.
//!
//! A streaming partitioner consumes the elements of a [`GraphStream`] exactly
//! once, in order, and decides vertex placement "on the fly" with bounded
//! memory (paper §3.1). Every partitioner in this workspace — Hash, LDG,
//! Fennel and LOOM itself — implements [`Partitioner`], so the top-level
//! `loom::Session` façade and the benchmark can treat them uniformly as
//! `Box<dyn Partitioner>` trait objects built from a declarative
//! [`crate::spec::PartitionerSpec`].
//!
//! The contract separates three concerns that the original two-method trait
//! conflated:
//!
//! * **ingestion** — [`Partitioner::ingest`] consumes one element;
//!   [`Partitioner::ingest_batch`] consumes a chunk at once, letting
//!   implementations amortise hash-table growth and lookup costs;
//! * **observation** — [`Partitioner::snapshot`] clones the partitioning
//!   built so far without disturbing the partitioner (periodic checkpoints),
//!   and [`Partitioner::stats`] reports unified ingestion counters;
//! * **completion** — [`Partitioner::finish`] flushes buffered elements and
//!   *moves* the final partitioning out. No clone is paid; the partitioner is
//!   spent afterwards;
//! * **checkpointing** — [`Partitioner::encode_state`] writes everything but
//!   the placed assignment, and [`Partitioner::restore_state`] turns a fresh
//!   partitioner back into the one that wrote it, the assignment taken from
//!   the checkpoint's arena ([`crate::state`]). Both are required: no
//!   partitioner can only be rebuilt by replaying its whole history.

use crate::error::Result;
use crate::partition::Partitioning;
use crate::state::ArenaHomes;
use loom_graph::{GraphStream, StreamElement};

/// Default chunk size used by [`partition_stream`] when driving a stream
/// through a partitioner batch-wise.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// Unified ingestion counters reported by every [`Partitioner`].
///
/// Implementations with richer internals (LOOM) expose their detailed
/// counters through inherent methods; this report is the common denominator
/// the experiment harness can rely on for any `Box<dyn Partitioner>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionerStats {
    /// Stream vertices ingested so far.
    pub vertices_ingested: usize,
    /// Stream edges ingested so far.
    pub edges_ingested: usize,
    /// Calls to [`Partitioner::ingest_batch`] served so far.
    pub batches_ingested: usize,
    /// Vertices already assigned to a partition.
    pub assigned: usize,
    /// Vertices buffered awaiting a placement decision (pending vertices,
    /// window contents, …).
    pub buffered: usize,
}

impl std::fmt::Display for PartitionerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vertices={} edges={} batches={} assigned={} buffered={}",
            self.vertices_ingested,
            self.edges_ingested,
            self.batches_ingested,
            self.assigned,
            self.buffered,
        )
    }
}

/// A partitioner that consumes a graph stream and produces a [`Partitioning`].
///
/// The trait is object safe: the `loom::Session` façade and the benchmark
/// drive partitioners through `Box<dyn Partitioner>`
/// built by a [`crate::spec::PartitionerRegistry`]. `Send` is a supertrait so
/// a boxed partitioner can ingest on another thread: `examples/serving.rs`
/// and `tests/serving.rs` do, publishing each grown snapshot to a
/// `loom-serve` `EpochStore` by hand while the engine answers queries. The
/// `loom::Session` façade does not (its `serve` consumes the session, so a
/// served graph never grows).
pub trait Partitioner: Send {
    /// A short, stable name used in reports and benchmark output.
    fn name(&self) -> &'static str;

    /// Consume the next stream element.
    ///
    /// # Errors
    ///
    /// Implementations report configuration errors (e.g. unknown labels) and
    /// internal assignment errors; they never panic on well-formed streams.
    fn ingest(&mut self, element: &StreamElement) -> Result<()>;

    /// Consume a contiguous chunk of stream elements at once.
    ///
    /// Semantically identical to calling [`Partitioner::ingest`] on each
    /// element in order — same partitioning, same counters, same error after
    /// the same prefix. Every partitioner in this workspace gets that by
    /// construction: its override is a per-chunk preamble (count the batch,
    /// pre-reserve the assignment table) followed by this very loop over its
    /// one `ingest` transition, so there is no second transition to drift.
    ///
    /// # Errors
    ///
    /// Propagates the first per-element error.
    fn ingest_batch(&mut self, batch: &[StreamElement]) -> Result<()> {
        for element in batch {
            self.ingest(element)?;
        }
        Ok(())
    }

    /// The partitioning built so far, borrowed: what a checkpoint reads.
    ///
    /// Buffered vertices (a pending LDG/Fennel vertex, LOOM's window
    /// contents) have no assignment yet and are therefore *not* part of it;
    /// call [`Partitioner::finish`] for the complete result.
    fn partitioning(&self) -> &Partitioning;

    /// A non-destructive copy of [`Partitioner::partitioning`]. This is the
    /// explicit clone — `finish` itself never copies.
    fn snapshot(&self) -> Partitioning {
        self.partitioning().clone()
    }

    /// Flush any buffered elements and move the final partitioning out.
    ///
    /// The partitioner is *spent* afterwards: it keeps its configuration but
    /// starts from an empty assignment table, so further `ingest` calls begin
    /// a fresh partitioning. Use [`Partitioner::snapshot`] for periodic
    /// checkpoints instead.
    ///
    /// # Errors
    ///
    /// Propagates any assignment error encountered while flushing.
    fn finish(&mut self) -> Result<Partitioning>;

    /// Unified ingestion counters accumulated so far.
    fn stats(&self) -> PartitionerStats {
        PartitionerStats::default()
    }

    /// Everything this partitioner holds **except the placed assignment** —
    /// which a checkpoint's arena already encodes as shard membership — as
    /// one [`crate::state`] blob: its name, settings and partition loads,
    /// then whatever it buffers and counts. The same state always encodes to
    /// the same bytes.
    fn encode_state(&self) -> Vec<u8>;

    /// Become the partitioner that wrote `state` with
    /// [`Partitioner::encode_state`], the placed assignment taken from
    /// `arena`: every live vertex of the checkpoint's arena with its home
    /// shard, `None` for the unassigned tail. Called on a freshly built
    /// partitioner. Fed the rest of the stream, the restored partitioner
    /// places, counts and encodes exactly as the writer would have.
    ///
    /// # Errors
    ///
    /// [`crate::PartitionError::StateMismatch`] when `state` was written by
    /// another partitioner, under other settings or for another workload;
    /// [`crate::PartitionError::CorruptState`] when it does not decode or
    /// disagrees with `arena`. On `Err` the partitioner must be dropped.
    fn restore_state(&mut self, state: &[u8], arena: &mut ArenaHomes<'_>) -> Result<()>;
}

/// Drive a full stream through a partitioner and return the resulting
/// partitioning.
///
/// This is the batched driver with the default chunk size
/// ([`DEFAULT_BATCH_SIZE`]); batched and per-element ingestion are
/// contractually identical, so callers only choose a chunk size for
/// throughput (see [`partition_stream_batched`]).
///
/// # Errors
///
/// Propagates the first error returned by the partitioner.
pub fn partition_stream<P: Partitioner + ?Sized>(
    partitioner: &mut P,
    stream: &GraphStream,
) -> Result<Partitioning> {
    partition_stream_batched(partitioner, stream, DEFAULT_BATCH_SIZE)
}

/// Drive a full stream through a partitioner in chunks of `chunk_size`
/// elements and return the resulting partitioning.
///
/// `chunk_size == 1` degenerates to per-element ingestion; larger chunks let
/// implementations amortise per-element overheads. A zero chunk size is
/// treated as 1.
///
/// # Errors
///
/// Propagates the first error returned by the partitioner.
pub fn partition_stream_batched<P: Partitioner + ?Sized>(
    partitioner: &mut P,
    stream: &GraphStream,
    chunk_size: usize,
) -> Result<Partitioning> {
    for chunk in stream.elements().chunks(chunk_size.max(1)) {
        partitioner.ingest_batch(chunk)?;
    }
    partitioner.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionId;
    use crate::state::{StateReader, StateWriter};
    use loom_graph::{Label, VertexId};

    /// A trivial partitioner that sends everything to partition 0; used to
    /// exercise the driver functions and the trait defaults.
    struct Trivial {
        partitioning: Partitioning,
        stats: PartitionerStats,
    }

    impl Trivial {
        fn new() -> Self {
            Self {
                partitioning: Partitioning::new(1, 10).unwrap(),
                stats: PartitionerStats::default(),
            }
        }
    }

    impl Partitioner for Trivial {
        fn name(&self) -> &'static str {
            "trivial"
        }

        fn ingest(&mut self, element: &StreamElement) -> Result<()> {
            if let StreamElement::AddVertex { id, .. } = element {
                self.stats.vertices_ingested += 1;
                self.partitioning.assign(*id, PartitionId::new(0))?;
            } else {
                self.stats.edges_ingested += 1;
            }
            Ok(())
        }

        fn partitioning(&self) -> &Partitioning {
            &self.partitioning
        }

        fn finish(&mut self) -> Result<Partitioning> {
            Ok(self.partitioning.take())
        }

        fn stats(&self) -> PartitionerStats {
            PartitionerStats {
                assigned: self.partitioning.assigned_count(),
                ..self.stats
            }
        }

        fn encode_state(&self) -> Vec<u8> {
            let mut w = StateWriter::new(self.name(), &[], &self.partitioning);
            w.counters(&self.stats);
            w.finish()
        }

        fn restore_state(&mut self, state: &[u8], arena: &mut ArenaHomes<'_>) -> Result<()> {
            let mut r = StateReader::open(state, self.name(), &[], &mut self.partitioning, arena)?;
            self.stats = r.counters()?;
            r.finish()
        }
    }

    fn five_vertex_stream() -> GraphStream {
        let mut stream = GraphStream::new();
        for i in 0..5u64 {
            stream.push(StreamElement::AddVertex {
                id: VertexId::new(i),
                label: Label::new(0),
            });
        }
        stream.push(StreamElement::AddEdge {
            source: VertexId::new(0),
            target: VertexId::new(1),
        });
        stream
    }

    #[test]
    fn driver_feeds_every_element() {
        let stream = five_vertex_stream();
        let mut partitioner = Trivial::new();
        let result = partition_stream(&mut partitioner, &stream).unwrap();
        assert_eq!(result.assigned_count(), 5);
        assert_eq!(partitioner.name(), "trivial");
        // `finish` moved the result out: the partitioner starts afresh.
        assert_eq!(partitioner.snapshot().assigned_count(), 0);
    }

    #[test]
    fn batched_and_per_element_ingestion_agree() {
        let stream = five_vertex_stream();
        for chunk_size in [0usize, 1, 2, 3, 100] {
            let mut partitioner = Trivial::new();
            let result = partition_stream_batched(&mut partitioner, &stream, chunk_size).unwrap();
            assert_eq!(result.assigned_count(), 5, "chunk_size={chunk_size}");
        }
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let stream = five_vertex_stream();
        let mut partitioner = Trivial::new();
        partitioner.ingest_batch(stream.elements()).unwrap();
        let snap = partitioner.snapshot();
        assert_eq!(snap.assigned_count(), 5);
        // Snapshot did not disturb the partitioner.
        let finished = partitioner.finish().unwrap();
        assert_eq!(finished.assigned_count(), 5);
    }

    #[test]
    fn stats_report_counts() {
        let stream = five_vertex_stream();
        let mut partitioner = Trivial::new();
        partitioner.ingest_batch(stream.elements()).unwrap();
        let stats = partitioner.stats();
        assert_eq!(stats.vertices_ingested, 5);
        assert_eq!(stats.edges_ingested, 1);
        assert_eq!(stats.assigned, 5);
        assert!(stats.to_string().contains("vertices=5"));
    }
}
