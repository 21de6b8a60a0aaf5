//! Binary codecs for checkpoint blobs and WAL record payloads.
//!
//! Everything here is little-endian and sits on the `loom_graph::io` frame
//! substrate: the same [`crc32`] checksum, the same "bounds-check every
//! length prefix, never trust a count you have not bounded by the payload
//! size" discipline. Encoders are **deterministic**: the same
//! [`ShardedStore`] always serializes to the same bytes, which is what lets
//! recovery prove bit-identity by re-encoding and comparing bytes — and a
//! graph and partitioning encode, row for row, to the bytes of the store
//! [`ShardedStore::from_parts`] would freeze from them, which is what lets a
//! session checkpoint its graph mirror without freezing it.
//!
//! # Blob formats
//!
//! A blob is one slice of the arena — a shard's, or the unassigned tail.
//! "Varint" is unsigned LEB128, at most 10 bytes.
//!
//! | section | v1 (read) | v2 (read) | v3 (read and written) |
//! |---|---|---|---|
//! | header: magic `LSHD`, version, kind (shard / tail), shard id — 4 × `u32` | ✓ | ✓ | ✓ |
//! | slice: `u64` vertex count, then per live vertex `u64` id, `u32` label, `u32` degree, degree × `u64` neighbour id in traversal order | ✓ | ✓ | — |
//! | slice: varint vertex count, then per live vertex the varint gap from the previous row's id (from 0 for the first; ids strictly ascend), varint label, varint degree, degree × the zigzag varint of `neighbour − vertex` (wrapping) in traversal order | — | — | ✓ |
//! | boundary: `u64` count + ids | ✓ | — | — |
//! | halo: `u64` count + ids | ✓ | — | — |
//! | per-shard label lists: `u32` count, then per label (ascending) `u32` label, `u64` count + ids | ✓ | — | — |
//!
//! Everything v1 carries behind the slice is a function of the arena, so v2
//! stops where the slice does and trailing bytes are refused. v3 holds the
//! same rows as v2, gap-coded: a row's id as its distance from the row before
//! it, each neighbour as its signed distance from the row's own id — on the
//! benchmark's `ingest` checkpoint a quarter of v2's bytes. Nothing is
//! reordered, so a v3 root loads into the arena a v2 root of the same store
//! loads into. Older blobs still load: a v1 blob's trailing sections are
//! walked for structure, and the proof re-encodes every blob in the version
//! [`decode_blob`] handed back — a v1 blob's sections derived from the loaded
//! arena for the purpose — so an old root is held to exactly what it was
//! held to when it was written. Only v3 is ever written. A reader from before
//! v3 refuses a v3 blob by name: `unsupported blob version 3`.

use crate::error::{Result, StoreError};
use loom_graph::io::crc32;
use loom_graph::{Label, StreamElement, VertexId};
use loom_partition::partition::PartitionId;
use loom_serve::shard::{ArenaLoader, ShardBorder, ShardedStore};
use std::collections::BTreeMap;
use std::path::Path;

/// Magic prefix of a shard blob ("LSHD").
const BLOB_MAGIC: u32 = 0x4C53_4844;
/// The blob format version written: header + gap-coded slice.
pub(crate) const BLOB_VERSION: u32 = 3;
/// The version with fixed-width rows and nothing behind the slice; read,
/// never written.
pub(crate) const BLOB_V2: u32 = 2;
/// The version that carried derived lists behind the slice; read, never
/// written.
pub(crate) const BLOB_V1: u32 = 1;
/// Fewest bytes a v3 row takes: a one-byte gap, label and degree.
const V3_MIN_ROW: usize = 3;
/// Blob kind tag: a partition's home slice.
const KIND_SHARD: u32 = 0;
/// Blob kind tag: the unassigned arena tail.
const KIND_TAIL: u32 = 1;

/// WAL element tag: `StreamElement::AddVertex`.
const EL_VERTEX: u8 = 0;
/// WAL element tag: `StreamElement::AddEdge`.
const EL_EDGE: u8 = 1;
/// WAL element tag: `StreamElement::RemoveVertex`.
const EL_REMOVE_VERTEX: u8 = 2;
/// WAL element tag: `StreamElement::RemoveEdge`.
const EL_REMOVE_EDGE: u8 = 3;
/// WAL element tag: `StreamElement::Relabel`.
const EL_RELABEL: u8 = 4;

/// Append one integer's little-endian bytes (`put(buf, x.to_le_bytes())`).
fn put<const N: usize>(buf: &mut Vec<u8>, le: [u8; N]) {
    buf.extend_from_slice(&le);
}

/// The longest varint: ten bytes of seven bits hold a `u64`.
const MAX_VARINT: usize = 10;

/// Write `x` as an unsigned LEB128 varint at `out[at..]` — seven bits a
/// byte, low bits first, the high bit set on every byte but the last — and
/// return where it ends. The caller has made room: [`MAX_VARINT`] bytes.
fn write_varint(out: &mut [u8], mut at: usize, mut x: u64) -> usize {
    while x >= 0x80 {
        out[at] = x as u8 | 0x80;
        x >>= 7;
        at += 1;
    }
    out[at] = x as u8;
    at + 1
}

/// Why a varint could not be read.
#[derive(Debug)]
enum VarintFault {
    /// The input ends inside it.
    Truncated,
    /// It runs past [`MAX_VARINT`] bytes, or its tenth carries more than bit
    /// 63.
    Overlong,
}

/// Decode the unsigned LEB128 varint at the front of `bytes` and step past
/// it: at most [`MAX_VARINT`] bytes, the tenth carrying only bit 63.
fn next_varint(bytes: &mut &[u8]) -> std::result::Result<u64, VarintFault> {
    let mut value = 0;
    for (i, &byte) in bytes.iter().enumerate().take(MAX_VARINT) {
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte < 0x80 {
            if i == MAX_VARINT - 1 && byte > 1 {
                break;
            }
            *bytes = &bytes[i + 1..];
            return Ok(value);
        }
    }
    match bytes.len() < MAX_VARINT {
        true => Err(VarintFault::Truncated),
        false => Err(VarintFault::Overlong),
    }
}

/// A wrapping difference as a zigzag code: small distances either way
/// become small numbers (0, −1, 1, −2, … → 0, 1, 2, 3, …).
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

/// The inverse of [`zigzag`].
fn unzigzag(code: u64) -> u64 {
    (code >> 1) ^ (code & 1).wrapping_neg()
}

fn put_ids(buf: &mut Vec<u8>, ids: &[VertexId]) {
    put(buf, (ids.len() as u64).to_le_bytes());
    for v in ids {
        put(buf, v.raw().to_le_bytes());
    }
}

/// What a v1 blob carried behind its slice, derived from the arena the way
/// its writer derived it: the shard's boundary, its halo, and its home
/// vertices (`homes`, in arena order) listed per label in ascending label
/// order.
fn put_v1_sections(
    buf: &mut Vec<u8>,
    border: &ShardBorder,
    homes: impl Iterator<Item = (VertexId, Label)>,
) {
    let mut lists: BTreeMap<Label, Vec<VertexId>> = BTreeMap::new();
    for (v, label) in homes {
        lists.entry(label).or_default().push(v);
    }
    put_ids(buf, &border.boundary);
    put_ids(buf, &border.halo);
    put(buf, (lists.len() as u32).to_le_bytes());
    for (label, members) in lists {
        put(buf, label.raw().to_le_bytes());
        put_ids(buf, &members);
    }
}

/// The one blob encoder: header, then `rows` — the `vertices` live rows of
/// the slice `slot` names (`None` is the unassigned tail), in arena order,
/// whichever source they are read from: a frozen store's
/// [`ArenaSlice::rows`](loom_serve::shard::ArenaSlice::rows) or a graph's
/// [`PartitionMajor`](loom_serve::shard::PartitionMajor) layout — gap-coded
/// in version 3, fixed-width before it; then, in version 1 only, the derived
/// sections, with the shard's boundary and halo from `border` (asked for
/// only then; only the proof of a v1 root writes v1, and it has the store).
/// The bit-identity proof asks for the version [`decode_blob`] handed back
/// and compares with what was read; everything else writes
/// [`BLOB_VERSION`].
pub(crate) fn encode_blob<N>(
    slot: Option<PartitionId>,
    version: u32,
    vertices: usize,
    rows: impl Iterator<Item = (VertexId, Label, N)>,
    border: impl FnOnce() -> ShardBorder,
) -> Vec<u8>
where
    N: ExactSizeIterator<Item = VertexId>,
{
    let gap_coded = version == BLOB_VERSION;
    let row_bytes = if gap_coded { 16 } else { 24 };
    let mut buf = Vec::with_capacity(16 + MAX_VARINT + vertices * row_bytes);
    put(&mut buf, BLOB_MAGIC.to_le_bytes());
    put(&mut buf, version.to_le_bytes());
    let kind = if slot.is_some() {
        KIND_SHARD
    } else {
        KIND_TAIL
    };
    put(&mut buf, kind.to_le_bytes());
    put(&mut buf, slot.map_or(0, |p| p.0).to_le_bytes());
    if gap_coded {
        // Varints go through a cursor into zeroed room, grown ahead of each
        // row to its longest spelling: a store into a slice per byte, where
        // a `Vec::push` per byte runs at half the speed.
        let mut at = buf.len();
        buf.resize(buf.capacity(), 0);
        at = write_varint(&mut buf, at, vertices as u64);
        let mut previous = 0;
        for (v, label, neighbours) in rows {
            let longest = (3 + neighbours.len()) * MAX_VARINT;
            if buf.len() < at + longest {
                buf.resize((2 * buf.len()).max(at + longest), 0);
            }
            let out = buf.as_mut_slice();
            // Ids ascend within a slice; a row that does not wraps to a gap
            // the decoder refuses.
            let v = v.raw();
            at = write_varint(out, at, v.wrapping_sub(previous));
            at = write_varint(out, at, u64::from(label.raw()));
            at = write_varint(out, at, neighbours.len() as u64);
            for n in neighbours {
                at = write_varint(out, at, zigzag(n.raw().wrapping_sub(v)));
            }
            previous = v;
        }
        buf.truncate(at);
        return buf;
    }
    put(&mut buf, (vertices as u64).to_le_bytes());
    let mut homes = Vec::new();
    for (v, label, neighbours) in rows {
        put(&mut buf, v.raw().to_le_bytes());
        put(&mut buf, label.raw().to_le_bytes());
        put(&mut buf, (neighbours.len() as u32).to_le_bytes());
        for n in neighbours {
            put(&mut buf, n.raw().to_le_bytes());
        }
        if version == BLOB_V1 {
            homes.push((v, label));
        }
    }
    if version == BLOB_V1 {
        match slot {
            Some(_) => put_v1_sections(&mut buf, &border(), homes.into_iter()),
            // The tail borders nothing and indexed nothing.
            None => put_v1_sections(&mut buf, &ShardBorder::default(), std::iter::empty()),
        }
    }
    buf
}

/// The slice `slot` names of `store`'s arena (`None` is the unassigned
/// tail) as a blob in `version`. `None` when the shard is out of range.
pub(crate) fn encode_slice(
    store: &ShardedStore,
    slot: Option<PartitionId>,
    version: u32,
) -> Option<Vec<u8>> {
    let slice = match slot {
        Some(p) => store.shard_slice(p)?,
        None => store.unassigned_slice(),
    };
    let border = || slot.map(|p| store.border(p)).unwrap_or_default();
    Some(encode_blob(
        slot,
        version,
        slice.len(),
        slice.rows(),
        border,
    ))
}

/// One row of a blob: a vertex, its label, and its neighbours in traversal
/// order.
pub type BlobRow = (VertexId, Label, Vec<VertexId>);

/// The blob `header` describes, holding `rows` in the order given: what
/// [`decode_rows`] read back, or a graph's rows in
/// [`PartitionMajor`](loom_serve::shard::PartitionMajor) arena order — byte
/// for byte what [`encode_shard`] or [`encode_tail`] writes (under a
/// current-version header) for the same slot of the store
/// [`ShardedStore::from_parts`] freezes from the same graph and
/// partitioning.
///
/// # Panics
///
/// If `header.version` is neither 2 nor 3: a version-1 blob carries sections
/// derived from a whole store, which rows alone cannot give.
pub fn encode_rows<A: AsRef<[VertexId]>>(
    header: BlobHeader,
    rows: &[(VertexId, Label, A)],
) -> Vec<u8> {
    assert!(
        [BLOB_V2, BLOB_VERSION].contains(&header.version),
        "rows alone encode blob versions 2 and 3, not {}",
        header.version
    );
    let rows = rows
        .iter()
        .map(|(v, label, neighbours)| (*v, *label, neighbours.as_ref().iter().copied()));
    encode_blob(
        header.shard.map(PartitionId::new),
        header.version,
        rows.len(),
        rows,
        ShardBorder::default,
    )
}

/// Serialize shard `p` of `store` as one contiguous blob. `None` when `p`
/// is out of range.
pub fn encode_shard(store: &ShardedStore, p: PartitionId) -> Option<Vec<u8>> {
    encode_slice(store, Some(p), BLOB_VERSION)
}

/// Serialize the unassigned tail of `store`'s arena (vertices the
/// partitioner had not placed at snapshot time). Always produced, even when
/// empty, so a checkpoint's blob set has a fixed shape.
pub fn encode_tail(store: &ShardedStore) -> Vec<u8> {
    encode_slice(store, None, BLOB_VERSION).expect("every store has a tail slice")
}

/// Checked reader of little-endian integers and varints over a byte slice:
/// every accessor verifies the remaining length first (a decoder must return
/// `Err` on torn input, never panic), and nothing is copied out of the input.
struct Reader<'a> {
    bytes: &'a [u8],
    path: &'a Path,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], path: &'a Path) -> Self {
        Self { bytes, path }
    }

    fn take(&mut self, want: usize, what: &str) -> Result<&'a [u8]> {
        if self.bytes.len() < want {
            return Err(StoreError::corrupt(
                self.path,
                format!(
                    "truncated while reading {what}: need {want} bytes, {} remain",
                    self.bytes.len()
                ),
            ));
        }
        let (head, rest) = self.bytes.split_at(want);
        self.bytes = rest;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let raw = self.take(4, what)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let raw = self.take(8, what)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// An unsigned LEB128 varint (see [`next_varint`]).
    fn varint(&mut self, what: &str) -> Result<u64> {
        next_varint(&mut self.bytes).map_err(|fault| self.varint_fault(fault, what))
    }

    #[cold]
    fn varint_fault(&self, fault: VarintFault, what: &str) -> StoreError {
        let detail = match fault {
            VarintFault::Truncated => format!(
                "truncated inside a varint while reading {what}: {} bytes remain",
                self.bytes.len()
            ),
            VarintFault::Overlong => format!("overlong varint while reading {what}"),
        };
        StoreError::corrupt(self.path, detail)
    }

    /// A `u64` count that precedes `stride`-byte records (see
    /// [`Reader::bounded`]).
    fn count(&mut self, stride: usize, what: &str) -> Result<usize> {
        let raw = self.u64(what)?;
        self.bounded(raw, stride, what)
    }

    /// A varint count that precedes records of at least `stride` bytes (see
    /// [`Reader::bounded`]).
    fn varint_count(&mut self, stride: usize, what: &str) -> Result<usize> {
        let raw = self.varint(what)?;
        self.bounded(raw, stride, what)
    }

    /// `raw`, a count of records of at least `stride` bytes, bounded by the
    /// bytes actually remaining, so a flipped count can never drive a huge
    /// allocation.
    fn bounded(&self, raw: u64, stride: usize, what: &str) -> Result<usize> {
        let bound = usize::try_from(raw)
            .ok()
            .filter(|n| n.checked_mul(stride).is_some_and(|b| b <= self.bytes.len()));
        bound.ok_or_else(|| {
            StoreError::corrupt(
                self.path,
                format!("implausible {what}: {raw} records of {stride}+ bytes"),
            )
        })
    }

    /// `count` vertex ids, borrowed as they lie in the input.
    fn ids(&mut self, count: usize, what: &str) -> Result<impl Iterator<Item = VertexId> + 'a> {
        let raw = self.take(count.saturating_mul(8), what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|id| VertexId::new(u64::from_le_bytes(id.try_into().expect("8 bytes")))))
    }

    /// Step over a counted id list (the derived sections of a v1 blob).
    fn skip_ids(&mut self, what: &str) -> Result<()> {
        let count = self.count(8, what)?;
        self.take(count * 8, what).map(|_| ())
    }

    fn finish(self, what: &str) -> Result<()> {
        if !self.bytes.is_empty() {
            return Err(StoreError::corrupt(
                self.path,
                format!("{} trailing bytes after {what}", self.bytes.len()),
            ));
        }
        Ok(())
    }
}

/// What a blob's header says it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobHeader {
    /// The shard whose slice the blob holds; `None` for the unassigned tail.
    pub shard: Option<u32>,
    /// The format version it was written in: what [`UnverifiedCheckpoint`]'s
    /// proof re-encodes it in.
    ///
    /// [`UnverifiedCheckpoint`]: crate::UnverifiedCheckpoint
    pub version: u32,
}

/// Where a decoded blob's rows go: the arena a checkpoint loads into, or a
/// list of [`BlobRow`]s.
trait RowSink {
    fn row(
        &mut self,
        home: Option<PartitionId>,
        v: VertexId,
        label: Label,
        neighbours: impl Iterator<Item = VertexId>,
    );
}

impl RowSink for ArenaLoader {
    fn row(
        &mut self,
        home: Option<PartitionId>,
        v: VertexId,
        label: Label,
        neighbours: impl Iterator<Item = VertexId>,
    ) {
        self.push_vertex(home, v, label, neighbours);
    }
}

impl RowSink for Vec<BlobRow> {
    fn row(
        &mut self,
        _home: Option<PartitionId>,
        v: VertexId,
        label: Label,
        neighbours: impl Iterator<Item = VertexId>,
    ) {
        self.push((v, label, neighbours.collect()));
    }
}

/// Decode a checkpoint blob of any format version straight into `arena`:
/// the blob's vertices are appended in the order they were serialized, homed
/// at the shard the blob names (or nowhere, for the tail). Returns what the
/// header said. The derived sections behind a v1 slice are walked for
/// structure only — the proof re-derives them from the arena and compares
/// bytes; behind a v2 or v3 slice there is nothing, and anything there is
/// refused. `path` is used only for error reporting.
///
/// On `Err`, `arena` may hold part of the blob and must be discarded.
pub fn decode_blob(bytes: &[u8], path: &Path, arena: &mut ArenaLoader) -> Result<BlobHeader> {
    decode_into(bytes, path, arena)
}

/// Decode a checkpoint blob of any format version into its header and its
/// rows, in the order they were serialized — what [`encode_rows`] writes
/// back. A v1 blob's derived sections are walked and dropped.
pub fn decode_rows(bytes: &[u8], path: &Path) -> Result<(BlobHeader, Vec<BlobRow>)> {
    let mut rows = Vec::new();
    let header = decode_into(bytes, path, &mut rows)?;
    Ok((header, rows))
}

fn decode_into(bytes: &[u8], path: &Path, sink: &mut impl RowSink) -> Result<BlobHeader> {
    let mut r = Reader::new(bytes, path);
    let magic = r.u32("blob magic")?;
    if magic != BLOB_MAGIC {
        return Err(StoreError::corrupt(
            path,
            format!("bad blob magic 0x{magic:08x}"),
        ));
    }
    let version = r.u32("blob version")?;
    if ![BLOB_V1, BLOB_V2, BLOB_VERSION].contains(&version) {
        return Err(StoreError::corrupt(
            path,
            format!("unsupported blob version {version}"),
        ));
    }
    let kind = r.u32("blob kind")?;
    let raw_id = r.u32("shard id")?;
    let shard = match kind {
        KIND_SHARD => Some(raw_id),
        KIND_TAIL => None,
        other => {
            return Err(StoreError::corrupt(
                path,
                format!("unknown blob kind {other}"),
            ));
        }
    };
    let home = shard.map(PartitionId::new);
    if version == BLOB_VERSION {
        gap_coded_rows(&mut r, home, sink)?;
        r.finish("blob")?;
        return Ok(BlobHeader { shard, version });
    }
    // Minimum 16 bytes per vertex record (id + label + degree).
    let vertex_count = r.count(16, "vertex count")?;
    for _ in 0..vertex_count {
        let v = VertexId::new(r.u64("vertex id")?);
        let label = Label::new(r.u32("vertex label")?);
        let degree = r.u32("vertex degree")? as usize;
        sink.row(home, v, label, r.ids(degree, "adjacency")?);
    }
    if version == BLOB_V1 {
        r.skip_ids("boundary")?;
        r.skip_ids("halo")?;
        for _ in 0..r.u32("label index size")? {
            r.u32("index label")?;
            r.skip_ids("index members")?;
        }
    }
    r.finish("blob")?;
    Ok(BlobHeader { shard, version })
}

/// The rows of a v3 slice, into `sink`: every count bounded by the bytes
/// behind it, every id gap checked.
fn gap_coded_rows(
    r: &mut Reader<'_>,
    home: Option<PartitionId>,
    sink: &mut impl RowSink,
) -> Result<()> {
    let vertex_count = r.varint_count(V3_MIN_ROW, "vertex count")?;
    let mut previous = 0u64;
    for row in 0..vertex_count {
        let gap = r.varint("vertex id gap")?;
        if row > 0 && gap == 0 {
            return Err(StoreError::corrupt(
                r.path,
                format!("vertex id {previous} is listed twice in a row"),
            ));
        }
        let v = previous.checked_add(gap).ok_or_else(|| {
            StoreError::corrupt(
                r.path,
                format!("vertex id gap {gap} after {previous} overflows u64: ids do not ascend"),
            )
        })?;
        let raw_label = r.varint("vertex label")?;
        let label = u32::try_from(raw_label).map_err(|_| {
            StoreError::corrupt(r.path, format!("vertex label {raw_label} overflows u32"))
        })?;
        // At least one byte per neighbour.
        let degree = r.varint_count(1, "vertex degree")?;
        // Read through a local cursor, which the sink's stores cannot alias.
        let (mut cursor, mut fault) = (r.bytes, None);
        let neighbours = (0..degree).map_while(|_| match next_varint(&mut cursor) {
            Ok(code) => Some(VertexId::new(v.wrapping_add(unzigzag(code)))),
            Err(e) => {
                fault = Some(e);
                None
            }
        });
        sink.row(home, VertexId::new(v), Label::new(label), neighbours);
        r.bytes = cursor;
        if let Some(fault) = fault {
            return Err(r.varint_fault(fault, "neighbour"));
        }
        previous = v;
    }
    Ok(())
}

/// Append a batch of stream elements to `buf` as one WAL record payload.
pub fn encode_elements(batch: &[StreamElement], buf: &mut Vec<u8>) {
    buf.reserve(4 + batch.len() * 17);
    put(buf, (batch.len() as u32).to_le_bytes());
    for element in batch {
        match *element {
            StreamElement::AddVertex { id, label } => {
                buf.push(EL_VERTEX);
                put(buf, id.raw().to_le_bytes());
                put(buf, label.raw().to_le_bytes());
            }
            StreamElement::AddEdge { source, target } => {
                buf.push(EL_EDGE);
                put(buf, source.raw().to_le_bytes());
                put(buf, target.raw().to_le_bytes());
            }
            StreamElement::RemoveVertex { id } => {
                buf.push(EL_REMOVE_VERTEX);
                put(buf, id.raw().to_le_bytes());
            }
            StreamElement::RemoveEdge { source, target } => {
                buf.push(EL_REMOVE_EDGE);
                put(buf, source.raw().to_le_bytes());
                put(buf, target.raw().to_le_bytes());
            }
            StreamElement::Relabel { id, label } => {
                buf.push(EL_RELABEL);
                put(buf, id.raw().to_le_bytes());
                put(buf, label.raw().to_le_bytes());
            }
        }
    }
}

/// Decode one WAL record payload back into its element batch.
pub fn decode_elements(bytes: &[u8], path: &Path) -> Result<Vec<StreamElement>> {
    let mut r = Reader::new(bytes, path);
    let count = r.u32("element count")? as usize;
    // Smallest element is 9 bytes (RemoveVertex: tag + u64 id).
    if count.saturating_mul(9) > r.bytes.len() + 9 {
        return Err(StoreError::corrupt(
            path,
            format!("implausible element count {count}"),
        ));
    }
    let mut batch = Vec::with_capacity(count);
    for _ in 0..count {
        match r.u8("element tag")? {
            EL_VERTEX => batch.push(StreamElement::AddVertex {
                id: VertexId::new(r.u64("vertex id")?),
                label: Label::new(r.u32("vertex label")?),
            }),
            EL_EDGE => batch.push(StreamElement::AddEdge {
                source: VertexId::new(r.u64("edge source")?),
                target: VertexId::new(r.u64("edge target")?),
            }),
            EL_REMOVE_VERTEX => batch.push(StreamElement::RemoveVertex {
                id: VertexId::new(r.u64("removed vertex id")?),
            }),
            EL_REMOVE_EDGE => batch.push(StreamElement::RemoveEdge {
                source: VertexId::new(r.u64("removed edge source")?),
                target: VertexId::new(r.u64("removed edge target")?),
            }),
            EL_RELABEL => batch.push(StreamElement::Relabel {
                id: VertexId::new(r.u64("relabelled vertex id")?),
                label: Label::new(r.u32("new label")?),
            }),
            other => {
                return Err(StoreError::corrupt(
                    path,
                    format!("unknown element tag {other}"),
                ));
            }
        }
    }
    r.finish("element batch")?;
    Ok(batch)
}

/// CRC of an encoded blob — the checksum recorded in (and verified against)
/// the checkpoint manifest.
pub fn blob_crc(bytes: &[u8]) -> u32 {
    crc32(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::LabelledGraph;
    use loom_partition::partition::Partitioning;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn encoded(batch: &[StreamElement]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_elements(batch, &mut buf);
        buf
    }

    fn fixture() -> ShardedStore {
        let g = path_graph(10, &[Label::new(0), Label::new(1), Label::new(2)]);
        let mut part = Partitioning::new(3, 10).unwrap();
        for (i, v) in g.vertices_sorted().into_iter().enumerate() {
            if i < 9 {
                part.assign(v, PartitionId::new((i % 3) as u32)).unwrap();
            } // last vertex left unassigned → lands in the tail blob
        }
        ShardedStore::from_parts(&g, &part)
    }

    /// Every blob of `store` in `version`, shards in id order, then the tail.
    fn blobs(store: &ShardedStore, version: u32) -> Vec<Vec<u8>> {
        let shards = (0..store.shard_count()).map(|p| Some(PartitionId::new(p)));
        shards
            .chain([None])
            .map(|slot| encode_slice(store, slot, version).unwrap())
            .collect()
    }

    /// Decode `blobs` (arena order) into one arena and prove it sound.
    fn load(blobs: &[Vec<u8>], shards: u32) -> ShardedStore {
        let mut arena = ArenaLoader::new(shards);
        for bytes in blobs {
            decode_blob(bytes.as_slice(), Path::new("test.blob"), &mut arena).unwrap();
        }
        arena.finish().unwrap().check().unwrap()
    }

    #[test]
    fn shard_blobs_roundtrip() {
        let store = fixture();
        let path = Path::new("test.blob");
        let mut arena = ArenaLoader::new(store.shard_count());
        let mut blobs = Vec::new();
        for p in 0..store.shard_count() {
            let p = PartitionId::new(p);
            let bytes = encode_shard(&store, p).unwrap();
            let before = arena.vertex_count();
            let header = decode_blob(bytes.as_slice(), path, &mut arena).unwrap();
            assert_eq!((header.shard, header.version), (Some(p.0), BLOB_VERSION));
            assert_eq!(arena.vertex_count() - before, store.home_vertices(p).len());
            // Determinism: encoding twice yields identical bytes.
            assert_eq!(encode_shard(&store, p).unwrap(), bytes);
            blobs.push(bytes);
        }
        let before = arena.vertex_count();
        let tail = decode_blob(encode_tail(&store).as_slice(), path, &mut arena).unwrap();
        assert_eq!((tail.shard, tail.version), (None, BLOB_VERSION));
        assert_eq!(arena.vertex_count() - before, 1);
        assert!(encode_shard(&store, PartitionId::new(99)).is_none());
        // Header + gap-coded slice, nothing derived: 16 bytes, a one-byte
        // count, then a one-byte gap, label and degree for each of shard 0's
        // three vertices and one byte per neighbour (five arcs between them).
        assert_eq!(blobs[0].as_slice(), GOLDEN_V3_SHARD_0);
        assert_eq!(encode_tail(&store).as_slice(), GOLDEN_V3_TAIL);
        // What the decoder laid into the arena is the store that was
        // serialized: same borders, same bytes when re-encoded.
        let loaded = arena.finish().unwrap().check().unwrap();
        for (p, bytes) in blobs.iter().enumerate() {
            let p = PartitionId::new(p as u32);
            assert_eq!(loaded.border(p), store.border(p));
            assert_eq!(&encode_shard(&loaded, p).unwrap(), bytes);
        }
        assert_eq!(encode_tail(&loaded), encode_tail(&store));
    }

    /// Shard 0 and the tail of `fixture()` as the last v1 writer (the commit
    /// before format v2) serialized them, printed from that commit's own
    /// `encode_shard` / `encode_tail`.
    const GOLDEN_V1_SHARD_0: [u8; 232] = [
        68, 72, 83, 76, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0,
        0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0,
        0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0,
    ];
    const GOLDEN_V1_TAIL: [u8; 68] = [
        68, 72, 83, 76, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0,
    ];

    /// The same two slices as the last v2 writer (the commit before format
    /// v3) serialized them, printed from that commit's own `encode_shard` /
    /// `encode_tail`.
    const GOLDEN_V2_SHARD_0: [u8; 112] = [
        68, 72, 83, 76, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0,
    ];
    const GOLDEN_V2_TAIL: [u8; 48] = [
        68, 72, 83, 76, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
    ];

    /// The same two slices in format v3: a one-byte count, then per row
    /// gap, label, degree and each neighbour's zigzag distance (−1 → 1,
    /// +1 → 2).
    const GOLDEN_V3_SHARD_0: [u8; 31] = [
        68, 72, 83, 76, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 1, 2, 3, 0, 2, 1, 2, 3, 0, 2,
        1, 2,
    ];
    const GOLDEN_V3_TAIL: [u8; 21] = [
        68, 72, 83, 76, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 9, 0, 1, 1,
    ];

    #[test]
    fn golden_v1_blobs_decode_prove_and_equal_the_v2_round_trip() {
        let store = fixture();
        // The v1 encoder kept for the proof writes what the v1 writer wrote.
        let v1 = blobs(&store, BLOB_V1);
        assert_eq!(v1[0].as_slice(), GOLDEN_V1_SHARD_0);
        assert_eq!(v1[3].as_slice(), GOLDEN_V1_TAIL);
        // The golden bytes decode as version 1 …
        let mut scratch = ArenaLoader::new(3);
        let header = decode_blob(&GOLDEN_V1_SHARD_0, Path::new("v1.blob"), &mut scratch).unwrap();
        assert_eq!((header.shard, header.version), (Some(0), BLOB_V1));
        assert_eq!(scratch.vertex_count(), 3);
        // … the arena a v1 root loads into is the arena a v2 or a v3 root
        // loads into (versions may even mix within one root) …
        let (v2, v3) = (blobs(&store, BLOB_V2), blobs(&store, BLOB_VERSION));
        let mixed = [v1[0].clone(), v2[1].clone(), v3[2].clone(), v1[3].clone()];
        let from_v3 = load(&v3, 3);
        for loaded in [load(&v1, 3), load(&v2, 3), load(&mixed, 3)] {
            assert_eq!(blobs(&loaded, BLOB_VERSION), blobs(&from_v3, BLOB_VERSION));
            assert_eq!(blobs(&loaded, BLOB_VERSION), v3);
        }
        // … and the proof of a v1 blob passes: re-encoded in the version it
        // was read in, the loaded arena reproduces the golden bytes.
        let from_v1 = load(&v1, 3);
        let proof = encode_slice(&from_v1, Some(PartitionId::new(0)), header.version).unwrap();
        assert_eq!(proof.as_slice(), GOLDEN_V1_SHARD_0);
        assert_eq!(
            encode_slice(&from_v1, None, BLOB_V1).unwrap().as_slice(),
            GOLDEN_V1_TAIL
        );
    }

    #[test]
    fn golden_v2_blobs_decode_and_prove_in_v2() {
        let store = fixture();
        // The v2 encoder kept for the proof writes what the v2 writer wrote …
        let v2 = blobs(&store, BLOB_V2);
        assert_eq!(v2[0].as_slice(), GOLDEN_V2_SHARD_0);
        assert_eq!(v2[3].as_slice(), GOLDEN_V2_TAIL);
        // … the golden bytes decode as version 2, into the rows v3 holds …
        let path = Path::new("v2.blob");
        let (header, rows) = decode_rows(&GOLDEN_V2_SHARD_0, path).unwrap();
        assert_eq!((header.shard, header.version), (Some(0), BLOB_V2));
        assert_eq!(decode_rows(&GOLDEN_V3_SHARD_0, path).unwrap().1, rows);
        // … and re-encoded in v2 from the arena they load into, they are
        // reproduced byte for byte.
        let loaded = load(&v2, 3);
        assert_eq!(blobs(&loaded, BLOB_V2), v2);
        assert_eq!(encode_rows(header, &rows).as_slice(), GOLDEN_V2_SHARD_0);
    }

    #[test]
    fn unknown_versions_and_trailing_bytes_are_refused_by_name() {
        let store = fixture();
        let detail = |bytes: &[u8]| match decode_blob(
            bytes,
            Path::new("test.blob"),
            &mut ArenaLoader::new(3),
        ) {
            Err(StoreError::Corrupt { detail, .. }) => detail,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        let v3 = encode_shard(&store, PartitionId::new(0)).unwrap();
        let mut v4 = v3.as_slice().to_vec();
        v4[4] = 4;
        assert_eq!(detail(&v4), "unsupported blob version 4");
        // A v2 or v3 blob ends with its slice: the sections v1 kept there
        // are not skipped, they are refused.
        for version in [BLOB_V2, BLOB_VERSION] {
            let mut trailing = encode_slice(&store, Some(PartitionId::new(0)), version).unwrap();
            trailing.extend_from_slice(&[0; 8]);
            assert_eq!(detail(&trailing), "8 trailing bytes after blob");
        }
        let mut relabelled = GOLDEN_V1_SHARD_0.to_vec();
        relabelled[4] = 2;
        assert!(detail(&relabelled).contains("trailing bytes after blob"));
    }

    #[test]
    fn blob_decode_rejects_corruption_cleanly() {
        let store = fixture();
        let path = Path::new("test.blob");
        for version in [BLOB_V1, BLOB_V2, BLOB_VERSION] {
            let full = encode_slice(&store, Some(PartitionId::new(0)), version).unwrap();
            let decode = |bytes: &[u8]| decode_blob(bytes, path, &mut ArenaLoader::new(3));
            assert!(decode(&full).is_ok());
            for cut in 0..full.len() {
                assert!(decode(&full[..cut]).is_err(), "v{version} prefix {cut}");
            }
            for byte in 0..full.len() {
                // A flip anywhere — a count, a varint's continuation bit —
                // must never panic or OOM.
                for bit in [0x01, 0x80] {
                    let mut flipped = full.clone();
                    flipped[byte] ^= bit;
                    let _ = decode(&flipped);
                }
            }
        }
    }

    /// A v3 shard-0 blob whose slice is `body`, spelled byte by byte.
    fn v3_blob(body: &[u8]) -> Vec<u8> {
        let mut bytes = GOLDEN_V3_SHARD_0[..16].to_vec();
        bytes.extend_from_slice(body);
        bytes
    }

    /// The varint of `x`.
    fn varint(x: u64) -> Vec<u8> {
        let mut out = [0; MAX_VARINT];
        let len = write_varint(&mut out, 0, x);
        out[..len].to_vec()
    }

    #[test]
    fn v3_refusals_name_what_is_wrong() {
        let path = Path::new("v3.blob");
        let detail = |bytes: &[u8]| match decode_blob(bytes, path, &mut ArenaLoader::new(3)) {
            Err(StoreError::Corrupt { detail, .. }) => detail,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        // The largest id a varint spells is ten bytes, the last of them 1.
        let max = varint(u64::MAX);
        assert_eq!(max.len(), 10);
        assert_eq!(max[9], 1);
        let (_, rows) = decode_rows(&v3_blob(&[&[1][..], &max, &[0, 0]].concat()), path).unwrap();
        assert_eq!(rows, [(VertexId::new(u64::MAX), Label::new(0), vec![])]);

        // Overlong: eleven bytes, or a tenth byte above 1.
        let eleven = [&[0x80; 10][..], &[0]].concat();
        assert_eq!(
            detail(&v3_blob(&eleven)),
            "overlong varint while reading vertex count"
        );
        let mut tenth = max.clone();
        tenth[9] = 2;
        let row = [&[1][..], &tenth, &[0, 0]].concat();
        assert_eq!(
            detail(&v3_blob(&row)),
            "overlong varint while reading vertex id gap"
        );
        // A count larger than the bytes behind it: three per row, one per
        // neighbour.
        assert_eq!(
            detail(&v3_blob(&[2, 5, 0, 0])),
            "implausible vertex count: 2 records of 3+ bytes"
        );
        assert_eq!(
            detail(&v3_blob(&[1, 5, 0, 3, 2, 2])),
            "implausible vertex degree: 3 records of 1+ bytes"
        );
        assert!(detail(&v3_blob(&varint(u64::MAX))).starts_with("implausible vertex count"));
        // Truncated inside a varint: a label, a neighbour.
        assert!(detail(&v3_blob(&[1, 5, 0x80, 0x80]))
            .starts_with("truncated inside a varint while reading vertex label"));
        assert!(detail(&v3_blob(&[1, 5, 0, 1, 0x80]))
            .starts_with("truncated inside a varint while reading neighbour"));
        // A label past `u32`.
        let wide = [&[1, 5][..], &varint(1 << 32), &[0]].concat();
        assert_eq!(
            detail(&v3_blob(&wide)),
            "vertex label 4294967296 overflows u32"
        );
        // A repeated id: a zero gap after the first row.
        assert_eq!(
            detail(&v3_blob(&[2, 5, 0, 0, 0, 0, 0])),
            "vertex id 5 is listed twice in a row"
        );
        // A descending id, as the encoder spells one: its gap wraps past
        // `u64::MAX`.
        let header = BlobHeader {
            shard: Some(0),
            version: BLOB_VERSION,
        };
        let descending: Vec<BlobRow> = [7, 5]
            .map(|v| (VertexId::new(v), Label::new(0), vec![]))
            .into();
        assert!(detail(&encode_rows(header, &descending))
            .contains("after 7 overflows u64: ids do not ascend"));
        // A gap that overflows from the largest id.
        let past_max = [&[2][..], &max, &[0, 0, 1, 0, 0]].concat();
        assert_eq!(
            detail(&v3_blob(&past_max)),
            format!(
                "vertex id gap 1 after {} overflows u64: ids do not ascend",
                u64::MAX
            )
        );
        // Trailing bytes.
        let mut trailing = GOLDEN_V3_SHARD_0.to_vec();
        trailing.push(0);
        assert_eq!(detail(&trailing), "1 trailing bytes after blob");
    }

    /// `rows` in `shard`'s blob (`None`: the tail), in v2 and in v3: each
    /// decodes to the same header and rows, and re-encodes to the same bytes.
    fn assert_round_trip(shard: Option<u32>, rows: &[BlobRow]) {
        let path = Path::new("rows.blob");
        for version in [BLOB_V2, BLOB_VERSION] {
            let header = BlobHeader { shard, version };
            let bytes = encode_rows(header, rows);
            let (read, back) = decode_rows(&bytes, path).unwrap();
            assert_eq!((read, back.as_slice()), (header, rows), "v{version}");
            assert_eq!(encode_rows(read, &back), bytes, "v{version}");
            let mut arena = ArenaLoader::new(4);
            decode_blob(&bytes, path, &mut arena).unwrap();
            assert_eq!(arena.vertex_count(), rows.len());
        }
    }

    #[test]
    fn rows_at_the_edges_round_trip() {
        let row = |v: u64, degree: u64| {
            let neighbours = (0..degree).map(|i| VertexId::new(v ^ (i + 1))).collect();
            (VertexId::new(v), Label::new(u32::MAX), neighbours)
        };
        for shard in [Some(0), Some(3), None] {
            assert_round_trip(shard, &[]);
            assert_round_trip(shard, &[row(0, 0)]);
            assert_round_trip(shard, &[row(u64::MAX, 0)]);
            assert_round_trip(
                shard,
                &[row(0, 2), row(1, 0), row(u64::MAX - 1, 3), row(u64::MAX, 1)],
            );
        }
        // Neighbours at both ends of the id space, from both ends.
        let far = vec![VertexId::new(0), VertexId::new(u64::MAX)];
        assert_round_trip(Some(1), &[(VertexId::new(0), Label::new(0), far.clone())]);
        assert_round_trip(None, &[(VertexId::new(u64::MAX), Label::new(0), far)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn random_rows_round_trip(
            (ids, narrow, ends, slot) in (vec(0u64..u64::MAX, 0..24), 0u8..2, 0u8..4, 0u32..4),
            rows in vec((0u32..u32::MAX, vec((0u64..u64::MAX, 0u8..4), 0..6)), 26..27),
        ) {
            // Ids in a narrow range (small gaps) or anywhere, with 0 and
            // `u64::MAX` when `ends` asks.
            let mut ids: Vec<u64> = ids.into_iter().map(|v| if narrow == 1 { v % 1000 } else { v }).collect();
            if ends & 1 == 1 {
                ids.push(0);
            }
            if ends & 2 == 2 {
                ids.push(u64::MAX);
            }
            ids.sort_unstable();
            ids.dedup();
            let rows: Vec<BlobRow> = ids
                .iter()
                .zip(rows)
                .map(|(&v, (label, neighbours))| {
                    let neighbours = neighbours
                        .into_iter()
                        .map(|(n, kind)| match kind {
                            0 => 0,
                            1 => u64::MAX,
                            2 => v.wrapping_add(n % 64).wrapping_sub(32),
                            _ => n,
                        })
                        .map(VertexId::new)
                        .collect();
                    (VertexId::new(v), Label::new(label), neighbours)
                })
                .collect();
            // Slot 3 is the tail.
            assert_round_trip(Some(slot).filter(|&p| p < 3), &rows);
        }
    }

    #[test]
    fn element_batches_roundtrip() {
        let g = path_graph(6, &[Label::new(0), Label::new(1)]);
        let stream =
            loom_graph::GraphStream::from_graph(&g, &loom_graph::prelude::StreamOrder::Bfs);
        let path = Path::new("wal.log");
        let decoded = decode_elements(&encoded(stream.elements()), path).unwrap();
        assert_eq!(decoded, stream.elements());
        assert_eq!(
            decode_elements(&encoded(&[]), path).unwrap(),
            Vec::<StreamElement>::new()
        );
        // Rebuilding from the decoded elements reproduces the graph.
        let rebuilt = loom_graph::GraphStream::from_elements(decoded).materialise();
        assert_eq!(rebuilt.vertex_count(), g.vertex_count());
        assert_eq!(rebuilt.edge_count(), g.edge_count());
    }

    #[test]
    fn mutation_elements_roundtrip() {
        let path = Path::new("wal.log");
        let batch = vec![
            StreamElement::AddVertex {
                id: VertexId::new(1),
                label: Label::new(0),
            },
            StreamElement::AddVertex {
                id: VertexId::new(2),
                label: Label::new(1),
            },
            StreamElement::AddEdge {
                source: VertexId::new(1),
                target: VertexId::new(2),
            },
            StreamElement::Relabel {
                id: VertexId::new(2),
                label: Label::new(3),
            },
            StreamElement::RemoveEdge {
                source: VertexId::new(1),
                target: VertexId::new(2),
            },
            StreamElement::RemoveVertex {
                id: VertexId::new(1),
            },
        ];
        let decoded = decode_elements(&encoded(&batch), path).unwrap();
        assert_eq!(decoded, batch);
        // Replaying the decoded batch applies the mutations: only vertex 2
        // survives, relabelled, with no edges.
        let replayed = loom_graph::GraphStream::from_elements(decoded).materialise();
        assert_eq!(replayed.vertex_count(), 1);
        assert_eq!(replayed.edge_count(), 0);
        assert_eq!(replayed.label(VertexId::new(2)), Some(Label::new(3)));
    }

    #[test]
    fn element_decode_rejects_garbage() {
        let path = Path::new("wal.log");
        assert!(decode_elements(&[0xFF; 3], path).is_err());
        let mut buf = Vec::new();
        put(&mut buf, 1_000_000u32.to_le_bytes()); // count with no payload behind it
        assert!(decode_elements(&buf, path).is_err());
        let mut buf = Vec::new();
        put(&mut buf, 1u32.to_le_bytes());
        buf.push(7); // unknown tag
        put(&mut buf, 0u64.to_le_bytes());
        put(&mut buf, 0u64.to_le_bytes());
        assert!(decode_elements(&buf, path).is_err());
    }

    #[test]
    fn empty_store_still_produces_a_tail_blob() {
        let g = LabelledGraph::new();
        let part = Partitioning::new(2, 1).unwrap();
        let store = ShardedStore::from_parts(&g, &part);
        let mut arena = ArenaLoader::new(2);
        let tail = decode_blob(encode_tail(&store).as_slice(), Path::new("t"), &mut arena);
        assert_eq!(tail.unwrap().shard, None);
        assert_eq!(arena.vertex_count(), 0);
    }
}
