//! # loom-store — durability for the LOOM serving stack
//!
//! The serving layer ([`loom-serve`](loom_serve)) keeps everything in
//! memory: a crash loses the ingested graph, the partitioner's streaming
//! state, and the epoch history. This crate adds the durability subsystem
//! that makes restart-and-serve possible:
//!
//! * **Checkpoints** ([`checkpoint`]) — an epoch's arena is serialized as
//!   one CRC-checksummed blob per shard (its slice of the partition-major
//!   CSR arena), one for the unassigned tail and one for the state of the
//!   partitioner that placed them, under `checkpoints/<epoch_seq>/`, with a
//!   `MANIFEST` written last and fsynced so a torn checkpoint is simply
//!   invisible. The arena blobs travel as a [`CheckpointImage`], encoded
//!   from a frozen store or straight from a graph and its partitioning —
//!   the same bytes either way, so a session checkpoints its graph mirror
//!   without freezing a store.
//! * **Write-ahead log** ([`wal`]) — every ingested batch is appended as a
//!   CRC-framed record and fsynced *before* it reaches the partitioner; a
//!   crash mid-append leaves a torn tail that truncates cleanly back to the
//!   last acknowledged batch. A record (v2, [`codec`]) spells each element
//!   as a tag byte and varints — its first id as the zigzag distance from
//!   the previous element's, then a label or the zigzag distance to its
//!   edge's target — behind segments that start with the magic `LOOMWAL2`.
//!   `LOOMWAL1` segments (fixed-width records) are still read; a recovery
//!   whose newest segment is one continues the log in a new v2 segment, so
//!   nothing writes v1 again. The log is cut into segments at checkpoint
//!   boundaries, and a segment every kept checkpoint has folded in is
//!   deleted.
//! * **Committing a checkpoint** ([`commit_checkpoint`]) — a session's
//!   checkpoint is written on the thread that takes it: the image, sealed
//!   with the WAL position and the partitioner state of its epoch, then the
//!   prune of the checkpoints it supersedes and the retirement of the log
//!   segments behind them. When it returns `Ok`, all of that is on disk;
//!   otherwise it returns the error the write raised.
//! * **Recovery** ([`recovery`]) — [`recover`] reads the newest valid
//!   checkpoint's blobs straight into the serving layer's CSR arena
//!   (size, CRC and structure checked on the way), then proves it on a
//!   scoped thread — arena invariants, manifest totals, re-encode bit
//!   identity — while the calling thread decodes the WAL from the segment
//!   the checkpoint's state ends in and runs the caller's closure over the
//!   checkpoint as read: that is where a session restores its partitioner
//!   from the checkpoint's state and the arena's homes, replays only the
//!   log past the checkpoint (the whole log when the checkpoint carries no
//!   state) to reproduce exact pre-crash state, and builds its graph mirror
//!   from the arena's rows and the log's tail. What the closure built is
//!   handed back only beside a proven checkpoint, and dropped otherwise. The
//!   log must cover the checkpoint; its torn tail is truncated last (and a
//!   newest `LOOMWAL1` segment continued in a new `LOOMWAL2` one), so a
//!   failed recovery writes nothing. Serving resumes pinned at the original
//!   `epoch_seq`; the checkpoint's graph and partitioning are derived from
//!   the verified arena only if asked for.
//!
//! The on-disk layout of a durability root:
//!
//! ```text
//! <root>/
//! ├── wal-00000000000000000147.log  log segment: `LOOMWAL2`, then
//! │                                 CRC-framed batches from
//! │                                 record 147, cut when checkpoint 3 took
//! │                                 it (the one from record 0 is wal.log,
//! │                                 retired once no kept checkpoint needs it)
//! ├── wal-00000000000000000212.log  the newest segment, appended to
//! └── checkpoints/
//!     ├── 0000000003/               wal_records 147: the fallback
//!     │   ├── shard_0000.blob       CSR slice: ids, labels, adjacency,
//!     │   │                         gap-coded (blob format v3)
//!     │   ├── shard_0001.blob
//!     │   ├── tail.blob             unassigned arena tail
//!     │   ├── partitioner.blob      the partitioner's window, counters, …
//!     │   └── MANIFEST              written last; names every blob + CRC
//!     └── 0000000005/…              wal_records 212: the newest
//! ```
//!
//! Ordering rules: blobs are fsynced before the manifest; the manifest is
//! written to a temp file, fsynced, renamed into place, and the directory
//! fsynced — so `MANIFEST` present ⇒ checkpoint complete. WAL appends are
//! fsynced before the batch is acknowledged to the partitioner. A new log
//! segment is in place (header synced, renamed in, root fsynced) before the
//! checkpoint it starts behind is written, and a segment is deleted only
//! after the checkpoints that folded it in are sealed.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod recovery;
pub mod wal;

pub use checkpoint::{
    commit_checkpoint, latest_checkpoint, load_checkpoint, read_checkpoint, write_checkpoint,
    BlobEntry, CheckpointImage, CheckpointMeta, LoadedCheckpoint, PartitionerBlob,
    UnprovenCheckpoint, UnverifiedCheckpoint,
};
pub use error::{Result, StoreError};
pub use recovery::{recover, Beside, RecoverSpans, RecoveredState, RecoveryReport};
pub use wal::{segment_path, segments, Segment, Wal, WalReplay, WAL_FILE};
