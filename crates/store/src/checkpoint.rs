//! Checkpoint writer and loader.
//!
//! A checkpoint is a directory `checkpoints/<epoch_seq>/` holding one blob
//! per shard (`shard_0000.blob`, …), one for the unassigned arena tail
//! (`tail.blob`), one for the state of the partitioner that placed them
//! (`partitioner.blob`, see `loom_partition::state`; a checkpoint written
//! without one, as [`write_checkpoint`] writes and every root from before
//! the blob existed holds, is recovered by replaying the whole log), and a
//! `MANIFEST` written **last**: the manifest names
//! every blob with its size and CRC, and is itself CRC-trailed and moved
//! into place with `tmp → fsync → rename → fsync(dir)`. A crash at any
//! point mid-checkpoint therefore leaves either a complete, self-validating
//! checkpoint or a directory without a valid `MANIFEST` — which recovery
//! simply skips in favour of the previous epoch. Nothing in a checkpoint is
//! ever trusted without its checksum.
//!
//! The arena blobs are written from a [`CheckpointImage`], encoded before
//! any file is touched: from a frozen store ([`write_checkpoint`]), or —
//! what a durable session does — straight from its graph mirror and the
//! partitioner's snapshot, with no store frozen. Both lay the rows out by
//! the same partition-major order and encode them through the same
//! encoder, so they write the same bytes for the same arena.
//!
//! Once a checkpoint is sealed the root is **pruned**: the new checkpoint
//! and the newest valid one before it (the fallback, should the new
//! directory be lost) stay; every older checkpoint goes, and so does every
//! manifest-less directory older than the new one. A crash before the prune
//! leaves more directories than needed, never fewer; the next checkpoint
//! prunes them. The prune's listing also gives the log's **floor**, the
//! lowest record any checkpoint left replays the log from — its
//! `wal_records` when it carries the partitioner's state, 0 when it does
//! not. [`commit_checkpoint`] then retires every WAL segment wholly below it
//! ([`crate::wal`]), on the same thread; a prune that failed retires
//! nothing, and the next checkpoint tries both again.
//!
//! Loading ([`load_checkpoint`]) goes from the blobs straight to the arena
//! they were cut from, in two halves:
//!
//! * [`read_checkpoint`] — the half that allocates. (1) Each blob is read,
//!   size- and CRC-checked against the manifest, and decoded — shard blobs
//!   in id order, then the tail, which is the arena's own order — into an
//!   [`ArenaLoader`], with every count bounded by the bytes behind it and
//!   the shard id a blob claims checked against its file name.
//!   (2) [`ArenaLoader::finish`] renames adjacency to positions, builds the
//!   label index — each label's positions by ascending id, read off one
//!   walk of the `id → position` index in id order, no sort but of the ids
//!   it hashes — derives the arc tags and each shard's label counts, and
//!   reserves the room step (3) sorts into; a vertex listed twice or a
//!   neighbour no blob lists fails here.
//! * [`UnverifiedCheckpoint::verify`] — the half that only reads the arena.
//!   (3) [`ShardedStore::check_arena`] over the whole arena: a self-loop
//!   fails its pass over the arcs and a slice out of id order its pass over
//!   the shards; a repeated neighbour (one position among a vertex's
//!   sources twice) and an edge only one endpoint lists (an arc missing
//!   from its target's sources) fail its pass over the transpose it
//!   counting-sorts the live arcs into. (4) The vertex and edge totals must equal the
//!   manifest's. (5) Every shard and the tail are re-encoded from the loaded
//!   store in blob format v3, the only one [`decode_blob`] reads, and must
//!   equal, byte for byte, the blob step (1) read and checked against the
//!   manifest: the bit-identity proof. Each blob read is kept until its
//!   comparison, then freed.
//!
//! Every failure is a [`StoreError::Corrupt`]. No `LabelledGraph` or
//! `Partitioning` is built on the way: a caller that wants them
//! ([`LoadedCheckpoint::graph`], [`LoadedCheckpoint::partitioning`]) gets
//! them derived from the verified arena, once, on first use. The
//! partitioner blob is read and checked against its size and CRC in step
//! (1) and handed over as bytes ([`LoadedCheckpoint::partitioner`]): only
//! the partitioner can decode it, and its proof — the restored partitioner
//! must re-encode to the same bytes — is the restorer's to run.

use crate::codec::{blob_crc, decode_blob, encode_slice, BlobEncoder, MIN_ROW};
use crate::error::{Result, StoreError};
use crate::wal::{retire_segments, sync_dir};
use loom_graph::io::crc32;
use loom_graph::LabelledGraph;
use loom_obs::{stage, FlightKind, SpanTimer, Telemetry};
use loom_partition::partition::{PartitionId, Partitioning};
use loom_serve::shard::{ArenaLoader, ArenaView, PartitionMajor, ShardedStore, UncheckedArena};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Directory (under the durability root) that holds checkpoint epochs.
pub const CHECKPOINT_DIR: &str = "checkpoints";
/// Manifest file name inside one checkpoint directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// First line of every manifest.
const MANIFEST_HEADER: &str = "LOOM-CHECKPOINT v1";
/// File name of the unassigned-tail blob (shards are `shard_<id>.blob`).
const TAIL_BLOB: &str = "tail.blob";
/// File name of the partitioner-state blob.
pub const PARTITIONER_BLOB: &str = "partitioner.blob";

/// One blob recorded in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobEntry {
    /// File name inside the checkpoint directory.
    pub name: String,
    /// Exact size in bytes.
    pub size: u64,
    /// CRC-32 of the file contents.
    pub crc: u32,
}

/// The validated contents of one checkpoint's `MANIFEST`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Epoch sequence the checkpointed store was published at.
    pub epoch_seq: u64,
    /// WAL records already folded into this checkpoint. Recovery's graph
    /// mirror starts from the checkpoint's arena and applies the log from
    /// this record on, and so does the partitioner when the checkpoint
    /// carries its state; without a partitioner blob it is replayed from
    /// the log's first record.
    pub wal_records: u64,
    /// Name of the partitioner spec that produced the store.
    pub spec: String,
    /// Number of shard blobs (excluding the tail).
    pub shards: u32,
    /// Total live vertices across all blobs.
    pub vertices: u64,
    /// Total edges in the checkpointed store.
    pub edges: u64,
    /// Every blob, in manifest order.
    pub blobs: Vec<BlobEntry>,
}

impl CheckpointMeta {
    /// The log record a recovery from this checkpoint replays the
    /// partitioner from: `wal_records` when the checkpoint carries its
    /// state, 0 when it does not. The log below it is what this checkpoint
    /// no longer needs.
    pub(crate) fn replayed_from(&self) -> u64 {
        match self.blobs.iter().any(|blob| blob.name == PARTITIONER_BLOB) {
            true => self.wal_records,
            false => 0,
        }
    }
}

/// A checkpoint's partitioner blob, size- and CRC-checked against the
/// manifest, not decoded.
#[derive(Debug, Clone)]
pub struct PartitionerBlob {
    /// Where it was read from, for error reports.
    pub path: PathBuf,
    /// Its bytes, as the partitioner encoded them.
    pub bytes: Vec<u8>,
}

/// A checkpoint loaded back into memory.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The manifest the load was validated against.
    pub meta: CheckpointMeta,
    /// The rebuilt store, stamped with the checkpoint's `epoch_seq` — byte-
    /// for-byte re-encodable to the same blobs (verified during load).
    pub store: ShardedStore,
    /// The state of the partitioner that placed `store`, when the
    /// checkpoint carries one.
    pub partitioner: Option<PartitionerBlob>,
    /// The graph and assignment `store` holds, derived on first use.
    parts: OnceLock<(LabelledGraph, Partitioning)>,
}

impl LoadedCheckpoint {
    /// The checkpointed data graph, adjacency order identical to pre-crash.
    /// Derived from the verified store on first use.
    pub fn graph(&self) -> &LabelledGraph {
        &self.parts().0
    }

    /// The checkpointed vertex→partition assignment. Derived from the
    /// verified store on first use.
    pub fn partitioning(&self) -> &Partitioning {
        &self.parts().1
    }

    fn parts(&self) -> &(LabelledGraph, Partitioning) {
        self.parts.get_or_init(|| self.store.to_parts())
    }
}

fn write_blob(dir: &Path, name: &str, bytes: &[u8]) -> Result<BlobEntry> {
    let path = dir.join(name);
    let mut file = File::create(&path).map_err(|e| StoreError::io(&path, e))?;
    file.write_all(bytes)
        .and_then(|()| file.sync_all())
        .map_err(|e| StoreError::io(&path, e))?;
    Ok(BlobEntry {
        name: name.to_string(),
        size: bytes.len() as u64,
        crc: blob_crc(bytes),
    })
}

fn manifest_body(meta: &CheckpointMeta) -> String {
    let mut body = String::new();
    body.push_str(MANIFEST_HEADER);
    body.push('\n');
    body.push_str(&format!("epoch_seq {}\n", meta.epoch_seq));
    body.push_str(&format!("wal_records {}\n", meta.wal_records));
    body.push_str(&format!("spec {}\n", meta.spec));
    body.push_str(&format!("shards {}\n", meta.shards));
    body.push_str(&format!("vertices {}\n", meta.vertices));
    body.push_str(&format!("edges {}\n", meta.edges));
    for blob in &meta.blobs {
        body.push_str(&format!("blob {} {} {}\n", blob.name, blob.size, blob.crc));
    }
    body
}

/// Rows [`CheckpointImage::from_graph`] gathers from the graph before it
/// encodes them: gathered first, the slot reads of a run of rows overlap
/// each other, where a walk that encodes each row as it reads it waits on
/// every slot in turn (a third slower on a graph streamed in random order).
const CHUNK_ROWS: usize = 1024;

/// One checkpoint's arena, encoded and not yet written: the epoch it is
/// sealed under, its vertex and edge totals, and one blob per shard plus the
/// tail's. An image is cut either from a frozen store
/// ([`CheckpointImage::from_store`]) or straight from a graph and a
/// partitioning ([`CheckpointImage::from_graph`]) — the same bytes for the
/// same arena, both through the one blob encoder.
#[derive(Debug)]
pub struct CheckpointImage {
    epoch_seq: u64,
    vertices: u64,
    edges: u64,
    /// Shard 0's blob, …, shard `k − 1`'s, then the tail's: `k + 1` of them.
    blobs: Vec<Vec<u8>>,
}

impl CheckpointImage {
    /// The blobs of `store`'s arena, sealed under the store's epoch.
    pub fn from_store(store: &ShardedStore) -> Self {
        let blobs = arena_slots(store.shard_count())
            .map(|slot| encode_slice(store, slot).expect("slot in range"))
            .collect();
        Self {
            epoch_seq: store.epoch(),
            // A tombstoned vertex is in no blob.
            vertices: store.live_vertex_count() as u64,
            edges: store.edge_count() as u64,
            blobs,
        }
    }

    /// The blobs of the arena [`ShardedStore::from_parts`] would freeze from
    /// `graph` and `partitioning`, sealed under `epoch_seq` — byte for byte,
    /// without freezing it: one walk of the graph in id order
    /// ([`PartitionMajor::bucketed`]), a chunk of rows at a time, hands
    /// each row to its slot's blob, whose rows thereby come in arena order.
    /// Nothing but the blobs is allocated in proportion to the graph, so
    /// what a checkpoint costs does not hinge on whether the allocator still
    /// holds a copy's worth of memory from earlier work.
    pub fn from_graph(graph: &LabelledGraph, partitioning: &Partitioning, epoch_seq: u64) -> Self {
        let layout = PartitionMajor::new(graph, partitioning);
        let mut blobs: Vec<BlobEncoder> = arena_slots(layout.shard_count())
            .map(|slot| {
                let range = layout.range(slot).expect("slot in range");
                BlobEncoder::new(slot, range.len())
            })
            .collect();
        let mut rows = layout.bucketed();
        let mut chunk = Vec::with_capacity(CHUNK_ROWS);
        loop {
            chunk.clear();
            chunk.extend(rows.by_ref().take(CHUNK_ROWS));
            if chunk.is_empty() {
                break;
            }
            for &((v, label, neighbours), bucket) in &chunk {
                blobs[bucket].push(v, label, neighbours.iter().copied());
            }
        }
        Self {
            epoch_seq,
            vertices: layout.vertex_count() as u64,
            edges: graph.edge_count() as u64,
            blobs: blobs.into_iter().map(BlobEncoder::finish).collect(),
        }
    }

    /// The epoch the checkpoint is sealed under.
    pub fn epoch_seq(&self) -> u64 {
        self.epoch_seq
    }

    /// Number of shard blobs (the tail excluded).
    pub fn shard_count(&self) -> u32 {
        (self.blobs.len() - 1) as u32
    }

    /// Live vertices across all blobs.
    pub fn vertices(&self) -> u64 {
        self.vertices
    }

    /// Edges in the arena.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Shard `p`'s blob; `None` when `p` is out of range.
    pub fn shard(&self, p: PartitionId) -> Option<&[u8]> {
        let blobs = &self.blobs[..self.blobs.len() - 1];
        blobs.get(p.index()).map(Vec::as_slice)
    }

    /// The unassigned tail's blob.
    pub fn tail(&self) -> &[u8] {
        self.blobs.last().expect("an image holds the tail's blob")
    }
}

/// The arena's slots in blob order: each of `shards` shards, then the tail.
fn arena_slots(shards: u32) -> impl Iterator<Item = Option<PartitionId>> {
    (0..shards).map(|p| Some(PartitionId::new(p))).chain([None])
}

/// Serialize `store` as checkpoint `root/checkpoints/<epoch_seq>/`,
/// replacing any half-written directory of the same epoch, then prune the
/// checkpoints it supersedes (see the module docs). The directory becomes
/// visible to recovery only once its manifest is fully on disk. A
/// directory the prune could not remove does not fail the checkpoint that
/// is already durable: it is left for the next one, which tries again. No
/// partitioner state is written: a session recovering this checkpoint
/// replays its partitioner from the log's first record.
pub fn write_checkpoint(
    root: &Path,
    store: &ShardedStore,
    wal_records: u64,
    spec: &str,
) -> Result<CheckpointMeta> {
    let image = CheckpointImage::from_store(store);
    write_and_prune(root, &image, wal_records, spec, None).map(|(meta, _left_behind)| meta)
}

/// Seal `image` with the partitioner's `state`, if any, and prune, handing
/// back beside the manifest what the prune could not remove, or the log
/// floor of the checkpoints it left.
pub(crate) fn write_and_prune(
    root: &Path,
    image: &CheckpointImage,
    wal_records: u64,
    spec: &str,
    state: Option<&[u8]>,
) -> Result<(CheckpointMeta, Result<u64>)> {
    let meta = seal_checkpoint(root, image, wal_records, spec, state)?;
    let pruned = prune_checkpoints(root, &meta);
    Ok((meta, pruned))
}

/// Write `image` as checkpoint `root/checkpoints/<epoch_seq>/`, sealed
/// with the `wal_records` it folds in and the partitioner `state` it was
/// encoded beside, on the calling thread; then prune the checkpoints it
/// supersedes and retire the log segments every checkpoint left has folded
/// in ([`crate::wal`]). This is what a durable session's checkpoint does
/// once it has cut the log and encoded the image.
///
/// When observed, the write (blobs, manifest, fsyncs; not the prune)
/// charges `store.checkpoint_write`, a sealed checkpoint records a
/// [`FlightKind::CheckpointSealed`] event, and a retirement that deleted a
/// segment a [`FlightKind::WalRetired`].
///
/// # Errors
///
/// [`StoreError::Io`] for a failed create, write, fsync or rename — then
/// no manifest names the epoch. A checkpoint that is sealed but could not
/// prune or retire what it supersedes returns that failure too: it stands,
/// and the next checkpoint tries the prune and the retirement again.
pub fn commit_checkpoint(
    root: &Path,
    image: &CheckpointImage,
    wal_records: u64,
    spec: &str,
    state: &[u8],
    telemetry: Option<&Telemetry>,
) -> Result<CheckpointMeta> {
    let hist = telemetry.map(|t| t.stage_histogram(stage::STORE_CHECKPOINT_WRITE));
    let span = SpanTimer::start(hist.as_deref());
    let written = write_and_prune(root, image, wal_records, spec, Some(state));
    drop(span);
    let (meta, pruned) = written?;
    let retired = pruned.and_then(|floor| retire_segments(root, floor));
    if let Some(t) = telemetry {
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
    retired.map(|_| meta)
}

/// Write the blobs, then the manifest, then fsync both directory levels.
fn seal_checkpoint(
    root: &Path,
    image: &CheckpointImage,
    wal_records: u64,
    spec: &str,
    state: Option<&[u8]>,
) -> Result<CheckpointMeta> {
    let epoch_seq = image.epoch_seq;
    let parent = root.join(CHECKPOINT_DIR);
    fs::create_dir_all(&parent).map_err(|e| StoreError::io(&parent, e))?;
    let dir = parent.join(format!("{epoch_seq:010}"));
    if dir.exists() {
        fs::remove_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
    }
    fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;

    let mut blobs = Vec::with_capacity(image.blobs.len() + 1);
    for (slot, bytes) in arena_slots(image.shard_count()).zip(&image.blobs) {
        let name = match slot {
            Some(p) => format!("shard_{:04}.blob", p.0),
            None => TAIL_BLOB.to_string(),
        };
        blobs.push(write_blob(&dir, &name, bytes)?);
    }
    if let Some(state) = state {
        blobs.push(write_blob(&dir, PARTITIONER_BLOB, state)?);
    }

    let meta = CheckpointMeta {
        epoch_seq,
        wal_records,
        spec: spec.to_string(),
        shards: image.shard_count(),
        vertices: image.vertices,
        edges: image.edges,
        blobs,
    };
    let body = manifest_body(&meta);
    let trailed = format!("{body}crc {}\n", crc32(body.as_bytes()));

    // MANIFEST last: tmp → fsync → rename → fsync both directory levels, so
    // a crash anywhere above leaves no manifest and the whole directory is
    // invisible to recovery.
    let tmp = dir.join("MANIFEST.tmp");
    let mut file = File::create(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
    file.write_all(trailed.as_bytes())
        .and_then(|()| file.sync_all())
        .map_err(|e| StoreError::io(&tmp, e))?;
    drop(file);
    let manifest = dir.join(MANIFEST_FILE);
    fs::rename(&tmp, &manifest).map_err(|e| StoreError::io(&manifest, e))?;
    sync_dir(&dir)?;
    sync_dir(&parent)?;
    Ok(meta)
}

/// Every `checkpoints/<seq>/` under `root`, ascending, with whether its
/// manifest validates (and names that sequence).
fn checkpoint_dirs(root: &Path) -> Result<Vec<(u64, PathBuf, Option<CheckpointMeta>)>> {
    let parent = root.join(CHECKPOINT_DIR);
    let entries = match fs::read_dir(&parent) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(StoreError::io(&parent, e)),
    };
    let mut dirs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(&parent, e))?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(|n| n.parse::<u64>().ok()) {
            let meta = read_manifest(&entry.path()).ok();
            dirs.push((seq, entry.path(), meta.filter(|m| m.epoch_seq == seq)));
        }
    }
    dirs.sort_by_key(|entry| entry.0);
    Ok(dirs)
}

/// Remove what checkpoint `newest`, now sealed, supersedes: every valid
/// checkpoint older than the newest valid one before it, and every directory
/// older than `newest` that has no valid manifest. Tries every candidate and
/// returns the first failure; else the log floor of the valid checkpoints
/// left — the lowest `CheckpointMeta::replayed_from` among them.
fn prune_checkpoints(root: &Path, newest: &CheckpointMeta) -> Result<u64> {
    let dirs = checkpoint_dirs(root)?;
    let older = |seq: u64| seq < newest.epoch_seq;
    let fallback = dirs
        .iter()
        .rposition(|(seq, _, meta)| older(*seq) && meta.is_some());
    let mut outcome = Ok(());
    let mut floor = newest.replayed_from();
    for (i, (seq, dir, meta)) in dirs.iter().enumerate() {
        if older(*seq) && Some(i) != fallback {
            let removed = fs::remove_dir_all(dir).map_err(|e| StoreError::io(dir, e));
            outcome = outcome.and(removed);
        } else if let Some(meta) = meta {
            floor = floor.min(meta.replayed_from());
        }
    }
    outcome.map(|()| floor)
}

fn parse_field<'a>(line: &'a str, key: &str, path: &Path) -> Result<&'a str> {
    line.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| {
            StoreError::corrupt(path, format!("manifest line {line:?}: expected `{key} …`"))
        })
}

fn parse_u64(text: &str, what: &str, path: &Path) -> Result<u64> {
    text.parse()
        .map_err(|_| StoreError::corrupt(path, format!("manifest {what} {text:?} is not a number")))
}

/// Parse and checksum-validate one `MANIFEST` file.
pub fn read_manifest(dir: &Path) -> Result<CheckpointMeta> {
    let path = dir.join(MANIFEST_FILE);
    let raw = fs::read_to_string(&path).map_err(|e| StoreError::io(&path, e))?;
    let (body, trailer) = raw
        .rsplit_once("crc ")
        .ok_or_else(|| StoreError::corrupt(&path, "missing crc trailer"))?;
    let expect = parse_u64(trailer.trim(), "crc", &path)? as u32;
    if crc32(body.as_bytes()) != expect {
        return Err(StoreError::corrupt(&path, "manifest checksum mismatch"));
    }
    let mut lines = body.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(StoreError::corrupt(&path, "bad manifest header"));
    }
    let mut next = |key: &str| -> Result<String> {
        let line = lines.next().ok_or_else(|| {
            StoreError::corrupt(&path, format!("manifest truncated before {key}"))
        })?;
        parse_field(line, key, &path).map(str::to_string)
    };
    let epoch_seq = parse_u64(&next("epoch_seq")?, "epoch_seq", &path)?;
    let wal_records = parse_u64(&next("wal_records")?, "wal_records", &path)?;
    let spec = next("spec")?;
    let shards = parse_u64(&next("shards")?, "shards", &path)? as u32;
    let vertices = parse_u64(&next("vertices")?, "vertices", &path)?;
    let edges = parse_u64(&next("edges")?, "edges", &path)?;
    let mut blobs = Vec::new();
    for line in lines {
        let rest = parse_field(line, "blob", &path)?;
        let mut parts = rest.split(' ');
        let (name, size, crc) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(n), Some(s), Some(c), None) => (n, s, c),
            _ => {
                return Err(StoreError::corrupt(
                    &path,
                    format!("malformed blob line {line:?}"),
                ))
            }
        };
        blobs.push(BlobEntry {
            name: name.to_string(),
            size: parse_u64(size, "blob size", &path)?,
            crc: parse_u64(crc, "blob crc", &path)? as u32,
        });
    }
    let states = blobs.iter().filter(|b| b.name == PARTITIONER_BLOB).count();
    if blobs.len() - states != shards as usize + 1 || states > 1 {
        return Err(StoreError::corrupt(
            &path,
            format!(
                "{} blobs listed for {shards} shards + tail (+ partitioner)",
                blobs.len()
            ),
        ));
    }
    Ok(CheckpointMeta {
        epoch_seq,
        wal_records,
        spec,
        shards,
        vertices,
        edges,
        blobs,
    })
}

/// Find the newest checkpoint under `root` with a valid manifest. Returns
/// the directory, its metadata, and how many newer-but-invalid checkpoint
/// directories were skipped (torn checkpoints from a crash mid-write).
pub fn latest_checkpoint(root: &Path) -> Result<Option<(PathBuf, CheckpointMeta, usize)>> {
    let newest_first = checkpoint_dirs(root)?.into_iter().rev();
    for (skipped, (_, dir, meta)) in newest_first.enumerate() {
        if let Some(meta) = meta {
            return Ok(Some((dir, meta, skipped)));
        }
    }
    Ok(None)
}

/// Which slot of the arena a manifest entry fills, from its file name:
/// `shard_<id>.blob` → `Some(id)`, `tail.blob` → `None`.
fn blob_slot(name: &str, dir: &Path) -> Result<Option<u32>> {
    if name == TAIL_BLOB {
        return Ok(None);
    }
    name.strip_prefix("shard_")
        .and_then(|s| s.strip_suffix(".blob"))
        .and_then(|s| s.parse::<u32>().ok())
        .map(Some)
        .ok_or_else(|| StoreError::corrupt(dir, format!("unrecognised blob name {name}")))
}

/// A checkpoint read and laid into the arena but not yet proven: steps 1
/// and 2 of the module docs are done, and they are the ones that allocate.
/// [`UnverifiedCheckpoint::verify`] — arena invariants, totals, the
/// re-encode proof — allocates next to nothing, so recovery runs it on a
/// thread of its own without growing a second heap.
#[derive(Debug)]
pub struct UnverifiedCheckpoint {
    dir: PathBuf,
    meta: CheckpointMeta,
    /// Every arena blob as read, in arena order: what the proof compares
    /// the loaded store's re-encoding with.
    blobs: Vec<ReadBlob>,
    arena: UncheckedArena,
    partitioner: Option<PartitionerBlob>,
}

/// One arena blob as [`read_checkpoint`] read it: size- and CRC-checked
/// against the manifest, and decoded.
#[derive(Debug)]
struct ReadBlob {
    /// Its file name, for error reports.
    name: String,
    /// The slot it fills: a shard, or the tail (`None`).
    slot: Option<PartitionId>,
    bytes: Vec<u8>,
}

/// Read the checkpoint in `dir` into the arena: the manifest is parsed and
/// checksummed, then every blob is read and size- and CRC-checked against
/// the manifest, then — shard blobs in id order, then the tail, which is the
/// arena's own order — each is checked to be the shard its file name says
/// and decoded straight into an [`ArenaLoader`] sized for all of them, with
/// adjacency order preserved.
pub fn read_checkpoint(dir: &Path) -> Result<UnverifiedCheckpoint> {
    let meta = read_manifest(dir)?;
    // Each of the `shards + 1` slots of the arena must be named once.
    let mut entries = Vec::with_capacity(meta.blobs.len());
    let mut state = None;
    for entry in &meta.blobs {
        if entry.name == PARTITIONER_BLOB {
            state = Some(entry);
        } else {
            entries.push((blob_slot(&entry.name, dir)?, entry));
        }
    }
    entries.sort_by_key(|(id, _)| id.map_or(u64::MAX, u64::from));
    let expected = (0..meta.shards).map(Some).chain([None]);
    if !entries.iter().map(|(id, _)| *id).eq(expected) {
        return Err(StoreError::corrupt(
            dir,
            format!(
                "manifest does not list each of {} shards and the tail once",
                meta.shards
            ),
        ));
    }
    let mut blobs = Vec::with_capacity(entries.len());
    for (id, entry) in entries {
        blobs.push(ReadBlob {
            name: entry.name.clone(),
            slot: id.map(PartitionId::new),
            bytes: read_blob(&dir.join(&entry.name), entry)?,
        });
    }
    // The arena is sized once, from the manifest's totals, but never past
    // what the bytes read can hold (a row takes three bytes at least, a
    // neighbour one): a forged manifest cannot make this allocate.
    let bytes = blobs.iter().map(|blob| blob.bytes.len()).sum::<usize>();
    let clamp = |total: u64, most: usize| usize::try_from(total).map_or(most, |n| n.min(most));
    let mut arena = ArenaLoader::with_capacity(
        meta.shards,
        clamp(meta.vertices, bytes / MIN_ROW),
        clamp(meta.edges.saturating_mul(2), bytes),
    );
    for blob in &blobs {
        let path = dir.join(&blob.name);
        let header = decode_blob(&blob.bytes, &path, &mut arena)?;
        let id = blob.slot.map(|p| p.0);
        if header.shard != id {
            return Err(StoreError::corrupt(
                &path,
                format!(
                    "blob says it holds {:?}, its file name says {id:?}",
                    header.shard
                ),
            ));
        }
    }
    let partitioner = match state {
        Some(entry) => {
            let path = dir.join(&entry.name);
            let bytes = read_blob(&path, entry)?;
            Some(PartitionerBlob { path, bytes })
        }
        None => None,
    };
    let arena = arena
        .finish()
        .map_err(|detail| StoreError::corrupt(dir, detail))?;
    Ok(UnverifiedCheckpoint {
        dir: dir.to_path_buf(),
        meta,
        blobs,
        arena,
        partitioner,
    })
}

/// Read the blob the manifest entry names, checked against its size and CRC.
fn read_blob(path: &Path, entry: &BlobEntry) -> Result<Vec<u8>> {
    let raw = fs::read(path).map_err(|e| StoreError::io(path, e))?;
    if raw.len() as u64 != entry.size {
        return Err(StoreError::corrupt(
            path,
            format!("size {} != manifest {}", raw.len(), entry.size),
        ));
    }
    if crc32(&raw) != entry.crc {
        return Err(StoreError::corrupt(path, "blob checksum mismatch"));
    }
    Ok(raw)
}

/// A checkpoint read but not yet proven, lent to the calling thread while
/// its proof runs (`UnverifiedCheckpoint::verify_beside`): the manifest,
/// the partitioner blob and a read-only view of the arena. Whatever is
/// built from it is dropped unless the proof holds.
#[derive(Debug, Clone, Copy)]
pub struct UnprovenCheckpoint<'a> {
    /// The manifest, parsed and checksummed.
    pub meta: &'a CheckpointMeta,
    /// The partitioner blob, size- and CRC-checked, when the checkpoint
    /// carries one.
    pub partitioner: Option<&'a PartitionerBlob>,
    /// The arena's rows, homes and totals, not yet proven.
    pub arena: ArenaView<'a>,
}

impl UnverifiedCheckpoint {
    /// Prove what was read: the arena must pass
    /// [`ShardedStore::check_arena`], hold the manifest's vertex and edge
    /// totals, and re-encode to the bytes of every blob that was read.
    pub fn verify(self) -> Result<LoadedCheckpoint> {
        self.verify_beside(SpanTimer::start(None), |_| ()).0
    }

    /// [`UnverifiedCheckpoint::verify`] on a scoped thread, which ends
    /// `span` when the proof does, while `beside` reads the checkpoint as
    /// read — unproven — on the calling thread. `beside`'s result comes back
    /// either way; the caller hands it on only beside a proven checkpoint.
    pub(crate) fn verify_beside<R>(
        self,
        span: SpanTimer<'_>,
        beside: impl FnOnce(UnprovenCheckpoint<'_>) -> R,
    ) -> (Result<LoadedCheckpoint>, R) {
        let Self {
            dir,
            meta,
            blobs,
            arena,
            partitioner,
        } = self;
        let (dir, meta_ref) = (&dir, &meta);
        let (store, built) = arena.check_beside(
            move |checked| {
                let _span = span;
                let store = checked.map_err(|detail| StoreError::corrupt(dir, detail))?;
                prove(store, meta_ref, blobs, dir)
            },
            |arena| {
                beside(UnprovenCheckpoint {
                    meta: meta_ref,
                    partitioner: partitioner.as_ref(),
                    arena,
                })
            },
        );
        let loaded = store.map(|store| LoadedCheckpoint {
            store: store.with_epoch(meta.epoch_seq),
            meta,
            partitioner,
            parts: OnceLock::new(),
        });
        (loaded, built)
    }
}

/// Steps (4) and (5) of the module docs over an arena that passed
/// [`ShardedStore::check_arena`]: the manifest's totals, then the
/// bit-identity proof — re-encoding the store must reproduce every blob that
/// was read, byte for byte, and each read blob is freed as soon as it is
/// compared.
fn prove(
    store: &ShardedStore,
    meta: &CheckpointMeta,
    blobs: Vec<ReadBlob>,
    dir: &Path,
) -> Result<()> {
    if store.vertex_count() as u64 != meta.vertices || store.edge_count() as u64 != meta.edges {
        return Err(StoreError::corrupt(
            dir,
            format!(
                "loaded store has {}v/{}e, manifest says {}v/{}e",
                store.vertex_count(),
                store.edge_count(),
                meta.vertices,
                meta.edges
            ),
        ));
    }
    for read in blobs {
        let bytes = encode_slice(store, read.slot)
            .ok_or_else(|| StoreError::corrupt(dir, format!("blob {} out of range", read.name)))?;
        if bytes != read.bytes {
            return Err(StoreError::corrupt(
                dir,
                format!("loaded store does not round-trip blob {}", read.name),
            ));
        }
    }
    Ok(())
}

/// Load and fully validate the checkpoint in `dir`: [`read_checkpoint`],
/// then [`UnverifiedCheckpoint::verify`] — recovery either reproduces the
/// pre-crash store bit-for-bit or fails loudly (see the module docs for
/// what is checked where).
pub fn load_checkpoint(dir: &Path) -> Result<LoadedCheckpoint> {
    read_checkpoint(dir)?.verify()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_rows, encode_rows, BlobHeader, BlobRow};
    use loom_graph::generators::erdos_renyi::erdos_renyi;
    use loom_graph::generators::GeneratorConfig;
    use loom_graph::VertexId;

    /// `store` stamped with `epoch`, as an image.
    fn image(store: &ShardedStore, epoch: u64) -> CheckpointImage {
        CheckpointImage::from_store(&store.clone().with_epoch(epoch))
    }

    fn fixture(seed: u64) -> (LabelledGraph, Partitioning) {
        let g = erdos_renyi(GeneratorConfig::new(40, 4, seed), 120).unwrap();
        let mut part = Partitioning::new(4, g.vertex_count()).unwrap();
        for (i, v) in g.vertices_sorted().into_iter().enumerate() {
            if i % 11 != 10 {
                part.assign(v, PartitionId::new((i % 4) as u32)).unwrap();
            }
        }
        (g, part)
    }

    #[test]
    fn an_image_cut_from_a_graph_of_many_chunks_is_the_frozen_stores() {
        // Vertices inserted in a scrambled order (slots out of id order),
        // past three whole chunks, a tenth of them unassigned.
        let n = 3 * CHUNK_ROWS + 17;
        let source = erdos_renyi(GeneratorConfig::new(n, 5, 3), 2 * n).unwrap();
        let mut g = LabelledGraph::new();
        for i in 0..n {
            let v = VertexId::new(((i * 7919) % n) as u64);
            g.insert_vertex(v, source.label(v).unwrap());
        }
        for (v, _, neighbours) in source.adjacency_sorted() {
            for &u in neighbours.iter().filter(|&&u| v < u) {
                g.add_edge(v, u).unwrap();
            }
        }
        let mut part = Partitioning::new(5, n).unwrap();
        for (i, v) in g.vertices_sorted().into_iter().enumerate() {
            if i % 10 != 9 {
                part.assign(v, PartitionId::new((i * 31 % 5) as u32))
                    .unwrap();
            }
        }
        let frozen = image(&ShardedStore::from_parts(&g, &part), 4);
        let cut = CheckpointImage::from_graph(&g, &part, 4);
        assert_eq!(
            (cut.vertices(), cut.edges()),
            (frozen.vertices(), frozen.edges())
        );
        assert_eq!(cut.blobs, frozen.blobs);
        assert!(cut.tail().len() > 16, "the tail holds rows");
    }

    fn tmproot(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("loom-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_load_roundtrip_is_bit_identical() {
        let root = tmproot("roundtrip");
        let (g, part) = fixture(7);
        let store = ShardedStore::from_parts(&g, &part).with_epoch(3);
        let meta = write_checkpoint(&root, &store, 12, "loom").unwrap();
        assert_eq!(meta.epoch_seq, 3);
        assert_eq!(meta.wal_records, 12);
        assert_eq!(meta.blobs.len(), 5);

        let (dir, found, skipped) = latest_checkpoint(&root).unwrap().unwrap();
        assert_eq!(found, meta);
        assert_eq!(skipped, 0);
        let loaded = load_checkpoint(&dir).unwrap();
        assert_eq!(loaded.store.epoch(), 3);
        assert_eq!(loaded.graph().vertex_count(), g.vertex_count());
        assert_eq!(loaded.graph().edge_count(), g.edge_count());
        // Blob-level bit identity, end to end: re-checkpointing the loaded
        // store produces byte-identical files.
        let root2 = tmproot("roundtrip2");
        write_checkpoint(&root2, &loaded.store, 12, "loom").unwrap();
        for entry in &meta.blobs {
            let a = std::fs::read(dir.join(&entry.name)).unwrap();
            let b = std::fs::read(
                root2
                    .join(CHECKPOINT_DIR)
                    .join(format!("{:010}", 3))
                    .join(&entry.name),
            )
            .unwrap();
            assert_eq!(a, b, "blob {} differs", entry.name);
        }
        std::fs::remove_dir_all(&root).unwrap();
        std::fs::remove_dir_all(&root2).unwrap();
    }

    /// A store whose ids straddle the arena index's direct bound — dense
    /// ids past 4096 and `v << 24` ids, the ones the loader's label index
    /// walks out of the index's hashed side — comes back from its blobs
    /// proven (label lists in id order included) and writes the same bytes
    /// again.
    #[test]
    fn ids_across_the_direct_bound_load_and_rewrite_bit_identical() {
        let ids: Vec<VertexId> = (0..6_000u64)
            .map(|v| VertexId::new(if v % 5 == 4 { v << 24 } else { v }))
            .collect();
        let mut g = LabelledGraph::new();
        for &v in &ids {
            g.insert_vertex(v, loom_graph::Label::new((v.raw() % 3) as u32));
        }
        for (i, &v) in ids.iter().enumerate() {
            for step in [1, 7, 600] {
                g.add_edge(v, ids[(i + step) % ids.len()]).unwrap();
            }
        }
        let mut part = Partitioning::new(2, ids.len()).unwrap();
        for (i, &v) in ids.iter().enumerate().filter(|(i, _)| i % 3 < 2) {
            part.assign(v, PartitionId::new((i % 3) as u32)).unwrap();
        }
        let store = ShardedStore::from_parts(&g, &part).with_epoch(1);
        let (root, again) = (tmproot("straddle"), tmproot("straddle2"));
        let meta = write_checkpoint(&root, &store, 0, "loom").unwrap();
        let dir = root.join(CHECKPOINT_DIR).join(format!("{:010}", 1));
        let loaded = load_checkpoint(&dir).unwrap();
        assert_eq!(loaded.graph().edges_sorted(), g.edges_sorted());
        write_checkpoint(&again, &loaded.store, 0, "loom").unwrap();
        let dir2 = again.join(CHECKPOINT_DIR).join(format!("{:010}", 1));
        for entry in &meta.blobs {
            let (a, b) = (dir.join(&entry.name), dir2.join(&entry.name));
            assert_eq!(fs::read(a).unwrap(), fs::read(b).unwrap(), "{}", entry.name);
        }
        fs::remove_dir_all(&root).unwrap();
        fs::remove_dir_all(&again).unwrap();
    }

    #[test]
    fn missing_manifest_falls_back_to_previous_epoch() {
        let root = tmproot("fallback");
        let (g, part) = fixture(11);
        let store = ShardedStore::from_parts(&g, &part);
        write_checkpoint(&root, &store.clone().with_epoch(1), 5, "loom").unwrap();
        write_checkpoint(&root, &store.clone().with_epoch(2), 9, "loom").unwrap();
        // Simulate a crash mid-checkpoint of epoch 3: blobs but no MANIFEST.
        let torn = root.join(CHECKPOINT_DIR).join(format!("{:010}", 3));
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(torn.join("shard_0000.blob"), b"partial").unwrap();
        let (_, meta, skipped) = latest_checkpoint(&root).unwrap().unwrap();
        assert_eq!(meta.epoch_seq, 2);
        assert_eq!(skipped, 1);
        // And a corrupted manifest is equally invisible.
        let manifest2 = root
            .join(CHECKPOINT_DIR)
            .join(format!("{:010}", 2))
            .join(MANIFEST_FILE);
        let mut raw = std::fs::read(&manifest2).unwrap();
        raw[30] ^= 0x01;
        std::fs::write(&manifest2, &raw).unwrap();
        let (_, meta, skipped) = latest_checkpoint(&root).unwrap().unwrap();
        assert_eq!(meta.epoch_seq, 1);
        assert_eq!(skipped, 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn tampered_blob_fails_load() {
        let root = tmproot("tamper");
        let (g, part) = fixture(13);
        let store = ShardedStore::from_parts(&g, &part).with_epoch(1);
        write_checkpoint(&root, &store, 0, "loom").unwrap();
        let (dir, _, _) = latest_checkpoint(&root).unwrap().unwrap();
        let blob = dir.join("shard_0001.blob");
        let mut raw = std::fs::read(&blob).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&blob, &raw).unwrap();
        assert!(matches!(
            load_checkpoint(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn empty_root_has_no_checkpoint() {
        let root = tmproot("empty");
        assert!(latest_checkpoint(&root).unwrap().is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The checksum a manifest records for a blob does not move: these are
    /// the blob CRCs of `fixture(7)` in format v3, recorded at the commit
    /// before the formats older than v3 were retired, where `io::tests`
    /// already held the slice-by-8 kernel equal to the bytewise one.
    #[test]
    fn blob_checksums_match_the_values_recorded_under_the_bytewise_kernel() {
        let (g, part) = fixture(7);
        let store = ShardedStore::from_parts(&g, &part).with_epoch(3);
        let image = CheckpointImage::from_store(&store);
        let crcs: Vec<u32> = image.blobs.iter().map(|blob| blob_crc(blob)).collect();
        assert_eq!(
            crcs,
            [
                0xa7c1_9663,
                0xb570_a1f6,
                0xd1da_6d08,
                0x662e_1eaf,
                0xe38a_53b7
            ]
        );
    }

    /// Replace blob `name` of the checkpoint in `dir` by `bytes` and reseal
    /// everything a checksum covers — the blob's size and CRC in the
    /// manifest, the manifest's own trailer — so only a structural check can
    /// object.
    fn replace_blob(dir: &Path, name: &str, bytes: &[u8]) {
        std::fs::write(dir.join(name), bytes).unwrap();
        let mut meta = read_manifest(dir).unwrap();
        let entry = meta.blobs.iter_mut().find(|b| b.name == name).unwrap();
        (entry.size, entry.crc) = (bytes.len() as u64, crc32(bytes));
        let body = manifest_body(&meta);
        let trailed = format!("{body}crc {}\n", crc32(body.as_bytes()));
        std::fs::write(dir.join(MANIFEST_FILE), trailed).unwrap();
    }

    /// Rewrite blob `name` of the checkpoint in `dir` through `edit`, which
    /// sees the blob's header and rows as the codec decodes them, re-encode
    /// them and reseal the blob ([`replace_blob`]).
    fn tamper(dir: &Path, name: &str, edit: impl FnOnce(&mut BlobHeader, &mut Vec<BlobRow>)) {
        let path = dir.join(name);
        let raw = std::fs::read(&path).unwrap();
        let (mut header, mut rows) = decode_rows(&raw, &path).unwrap();
        edit(&mut header, &mut rows);
        replace_blob(dir, name, &encode_rows(header, &rows));
    }

    /// A checkpoint of `store`. Returns the root and the checkpoint's
    /// directory.
    fn root_of(case: &str, store: &ShardedStore) -> (PathBuf, PathBuf) {
        let root = tmproot(case);
        write_checkpoint(&root, store, 0, "loom").unwrap();
        let (dir, _, _) = latest_checkpoint(&root).unwrap().unwrap();
        (root, dir)
    }

    /// The detail of the `Corrupt` error loading `dir` fails with.
    fn refusal(dir: &Path) -> String {
        match load_checkpoint(dir) {
            Err(StoreError::Corrupt { detail, .. }) => detail,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_v3_blob_that_decodes_but_is_not_what_its_writer_writes_fails_the_proof() {
        let (g, part) = fixture(19);
        let store = ShardedStore::from_parts(&g, &part).with_epoch(4);
        let (root, dir) = root_of("v3-canonical", &store);
        // Shard 0's first label as a two-byte varint: the same number, so the
        // arena it loads into is sound, but not the bytes the encoder writes.
        let blob = dir.join("shard_0000.blob");
        let raw = std::fs::read(&blob).unwrap();
        // Header, then one-byte varints: the vertex count and the first gap.
        let label = 16 + 1 + 1;
        assert!(raw[16..=label].iter().all(|&b| b < 0x80));
        let mut padded = raw[..label].to_vec();
        padded.extend_from_slice(&[raw[label] | 0x80, 0x00]);
        padded.extend_from_slice(&raw[label + 1..]);
        replace_blob(&dir, "shard_0000.blob", &padded);
        let detail = refusal(&dir);
        assert!(
            detail.contains("does not round-trip blob shard_0000.blob"),
            "{detail}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The checkpoint directories under `root`, by sequence number.
    fn sequences(root: &Path) -> Vec<u64> {
        let dirs = checkpoint_dirs(root).unwrap();
        dirs.into_iter().map(|(seq, _, _)| seq).collect()
    }

    #[test]
    fn checkpoints_are_pruned_down_to_the_newest_and_its_fallback() {
        let root = tmproot("prune");
        let (g, part) = fixture(23);
        let store = ShardedStore::from_parts(&g, &part);
        for epoch in 1..=3 {
            write_checkpoint(&root, &store.clone().with_epoch(epoch), epoch, "loom").unwrap();
        }
        assert_eq!(sequences(&root), [2, 3]);

        // Killed between manifest and prune: every directory is still there,
        // and recovery reads the newest.
        for epoch in 4..=5 {
            seal_checkpoint(&root, &image(&store, epoch), epoch, "loom", None).unwrap();
        }
        assert_eq!(sequences(&root), [2, 3, 4, 5]);
        let (_, meta, skipped) = latest_checkpoint(&root).unwrap().unwrap();
        assert_eq!((meta.epoch_seq, skipped), (5, 0));

        // A torn directory older than the new checkpoint goes; the fallback
        // is the newest *valid* one before it, so losing 6 still leaves 5.
        let torn = root.join(CHECKPOINT_DIR).join(format!("{:010}", 1));
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(torn.join("shard_0000.blob"), b"partial").unwrap();
        std::fs::remove_file(
            root.join(CHECKPOINT_DIR)
                .join("0000000004")
                .join(MANIFEST_FILE),
        )
        .unwrap();
        let (_, pruned) = write_and_prune(&root, &image(&store, 6), 6, "loom", None).unwrap();
        pruned.unwrap();
        assert_eq!(sequences(&root), [5, 6]);
        // A directory from the future is none of this checkpoint's business.
        std::fs::create_dir_all(root.join(CHECKPOINT_DIR).join("0000000009")).unwrap();
        write_checkpoint(&root, &store.clone().with_epoch(7), 7, "loom").unwrap();
        assert_eq!(sequences(&root), [6, 7, 9]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn the_log_floor_is_the_lowest_record_a_kept_checkpoint_replays_from() {
        let root = tmproot("floor");
        let (g, part) = fixture(29);
        let store = ShardedStore::from_parts(&g, &part);
        let state = Some(&b"state"[..]);
        let floor = |epoch: u64, state: Option<&[u8]>| {
            let image = image(&store, epoch);
            let (_, pruned) = write_and_prune(&root, &image, 10 * epoch, "loom", state).unwrap();
            pruned.unwrap()
        };
        // Alone, a checkpoint with the partitioner's state needs the log from
        // its own record on; beside its fallback, from the fallback's.
        assert_eq!(floor(1, state), 10);
        assert_eq!(floor(2, state), 10);
        assert_eq!(floor(3, state), 20);
        // A kept checkpoint without the state needs the whole log.
        assert_eq!(floor(4, None), 0);
        assert_eq!(floor(5, state), 0);
        assert_eq!(floor(6, state), 50);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The WAL count and state a test commits with `epoch`: distinct for
    /// every epoch, so a checkpoint sealed with another epoch's shows.
    fn stamp(epoch: u64) -> (u64, Vec<u8>) {
        (1_000 + 7 * epoch, epoch.to_le_bytes().to_vec())
    }

    #[test]
    fn back_to_back_checkpoints_are_each_sealed_with_their_own_epoch() {
        let root = tmproot("stamps");
        let (g, part) = fixture(4);
        let store = ShardedStore::from_parts(&g, &part);
        for epoch in 1..=500u64 {
            let (wal_records, state) = stamp(epoch);
            let image = image(&store, epoch);
            let meta = commit_checkpoint(&root, &image, wal_records, "loom", &state, None).unwrap();
            assert_eq!((meta.epoch_seq, meta.wal_records), (epoch, wal_records));
            // On disk when the call returns: the newest checkpoint, kept
            // beside its fallback only, each sealed with its own stamp.
            assert_eq!(latest_checkpoint(&root).unwrap().unwrap().1, meta);
            let dirs = checkpoint_dirs(&root).unwrap();
            assert_eq!(dirs.len(), epoch.min(2) as usize);
            for (seq, dir, meta) in dirs {
                let (wal_records, state) = stamp(seq);
                assert_eq!(meta.unwrap().wal_records, wal_records, "epoch {seq}");
                let loaded = load_checkpoint(&dir).unwrap();
                assert_eq!(loaded.partitioner.unwrap().bytes, state, "epoch {seq}");
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_failed_write_is_an_io_error() {
        let root = tmproot("errors");
        let (g, part) = fixture(5);
        let store = ShardedStore::from_parts(&g, &part);
        // A file where the checkpoint directory goes: create_dir fails.
        let blocked = root.join(CHECKPOINT_DIR);
        std::fs::write(&blocked, b"in the way").unwrap();
        match commit_checkpoint(&root, &image(&store, 1), 10, "loom", b"state", None) {
            Err(StoreError::Io { path, .. }) => assert_eq!(path, blocked),
            other => panic!("expected Io, got {other:?}"),
        }
        // Nothing was sealed; once the way is clear the next epoch is.
        std::fs::remove_file(&blocked).unwrap();
        assert!(latest_checkpoint(&root).unwrap().is_none());
        let meta = commit_checkpoint(&root, &image(&store, 2), 20, "loom", b"state", None).unwrap();
        assert_eq!(latest_checkpoint(&root).unwrap().unwrap().1, meta);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Checkpoint `fixture(17)`, tamper one blob, and return what the loader
    /// said — which must be `Corrupt`, never a panic.
    fn load_tampered(
        case: &str,
        name: &str,
        edit: impl FnOnce(&mut BlobHeader, &mut Vec<BlobRow>),
    ) -> String {
        let (g, part) = fixture(17);
        let store = ShardedStore::from_parts(&g, &part).with_epoch(1);
        let (root, dir) = root_of(&format!("teeth-{case}"), &store);
        load_checkpoint(&dir).expect("untampered checkpoint loads");
        tamper(&dir, name, edit);
        let detail = refusal(&dir);
        std::fs::remove_dir_all(&root).unwrap();
        detail
    }

    /// Index of the first row with at least two neighbours.
    fn busy(rows: &[BlobRow]) -> usize {
        rows.iter().position(|r| r.2.len() >= 2).unwrap()
    }

    #[test]
    fn structurally_broken_blobs_are_corrupt_even_with_valid_checksums() {
        let shard0 = "shard_0000.blob";
        let detail = load_tampered("self-loop", shard0, |_, rows| {
            let i = busy(rows);
            let v = rows[i].0;
            rows[i].2.push(v);
        });
        assert!(detail.contains("not a live neighbour"), "{detail}");

        let detail = load_tampered("unknown", shard0, |_, rows| {
            let i = busy(rows);
            rows[i].2.push(VertexId::new(9_999_999));
        });
        assert!(detail.contains("listed nowhere"), "{detail}");

        let detail = load_tampered("repeated", shard0, |_, rows| {
            let i = busy(rows);
            let again = rows[i].2[0];
            rows[i].2.push(again);
        });
        assert!(detail.contains("a repeated neighbour"), "{detail}");

        // Redirect one arc to a vertex that does not name this one back: the
        // arc count is unchanged, only symmetry is broken.
        let detail = load_tampered("one-sided", shard0, |_, rows| {
            let i = busy(rows);
            let (v, listed) = (rows[i].0, rows[i].2.clone());
            let stranger = rows
                .iter()
                .map(|r| r.0)
                .find(|u| *u != v && !listed.contains(u))
                .unwrap();
            rows[i].2[0] = stranger;
        });
        assert!(detail.contains("no reverse arc"), "{detail}");

        // The fixture's lowest vertex lives in shard 0; list it in shard 1
        // too.
        let (g, _) = fixture(17);
        let first = g.vertices_sorted()[0];
        let copy: BlobRow = (first, g.label(first).unwrap(), g.neighbors(first).to_vec());
        let detail = load_tampered("twice", "shard_0001.blob", |_, rows| {
            rows.insert(0, copy);
        });
        assert!(detail.contains("listed twice"), "{detail}");

        let detail = load_tampered("misnamed", "shard_0001.blob", |header, _| {
            header.shard = Some(2);
        });
        assert!(detail.contains("file name"), "{detail}");

        // Rows out of id order: the gaps only ascend, so the decoder refuses
        // them before the arena check could.
        let detail = load_tampered("unsorted", shard0, |_, rows| rows.swap(0, 1));
        assert!(detail.contains("ids do not ascend"), "{detail}");
    }
}
