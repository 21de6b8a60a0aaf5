//! Binary codecs for checkpoint blobs and WAL record payloads.
//!
//! Everything here is little-endian and sits on the `loom_graph::io`
//! substrate: the same [`crc32`] checksum, the same bounded [`Reader`] — it
//! bounds every length prefix by the payload size, never trusting a count it
//! has not checked. Encoders are **deterministic**: the same
//! [`ShardedStore`] always serializes to the same bytes, which is what lets
//! recovery prove bit-identity by re-encoding and comparing bytes — and a
//! graph and partitioning encode, row for row, to the bytes of the store
//! [`ShardedStore::from_parts`] would freeze from them, which is what lets a
//! session checkpoint its graph mirror without freezing it.
//!
//! # Blob format
//!
//! A blob is one slice of the arena — a shard's, or the unassigned tail.
//! "Varint" is unsigned LEB128, at most 10 bytes.
//!
//! | section | encoding |
//! |---|---|
//! | header | magic `LSHD`, version 3, kind (shard / tail), shard id — 4 × `u32` |
//! | slice | varint vertex count, then per live vertex the varint gap from the previous row's id (from 0 for the first; ids strictly ascend), varint label, varint degree, degree × the zigzag varint of `neighbour − vertex` (wrapping) in traversal order |
//!
//! Nothing behind the slice: everything a shard's boundary, halo or label
//! lists would say is a function of the arena, and trailing bytes are
//! refused. A row's id is stored as its distance from the row before it, each
//! neighbour as its signed distance from the row's own id — on the
//! benchmark's `ingest` checkpoint a quarter of the fixed-width rows' bytes.
//! Version 3 is the only one read and written: a blob of any other version is
//! refused by name (`unsupported blob version N`), never misread. (Roots
//! written before v3, with v1 or v2 blobs, are upgraded by the binaries that
//! still read them; see the README.)
//!
//! # WAL record format
//!
//! A WAL record's payload is one ingested batch. Segments that start with
//! the magic `LOOMWAL2` hold v2 records, the only ones written:
//!
//! | field | encoding |
//! |---|---|
//! | count | varint element count |
//! | per element | one tag byte (0 `AddVertex`, 1 `AddEdge`, 2 `RemoveVertex`, 3 `RemoveEdge`, 4 `Relabel`); the zigzag varint of the element's first id minus the previous element's first id (wrapping; from 0 at the batch's start); then a varint label (`AddVertex`, `Relabel`) or the zigzag varint of `target − source` (wrapping; `AddEdge`, `RemoveEdge`) |
//!
//! A stream's neighbouring elements name neighbouring ids, so most fields
//! take one or two bytes: on the benchmark's `ingest` stream 4.4 bytes per
//! element against the 15.65 of v1. v1 records (segments that start with
//! `LOOMWAL1`: a `u32` count, then per element its tag, `u64` ids and `u32`
//! labels) are still read, never written.

use crate::error::{Result, StoreError};
use loom_graph::io::{crc32, next_varint, Reader, MAX_VARINT};
use loom_graph::{Label, StreamElement, VertexId};
use loom_partition::partition::PartitionId;
use loom_serve::shard::{ArenaLoader, ShardedStore};
use std::path::Path;

/// What a decoder refuses, before the file it read is named.
type Decoded<T> = std::result::Result<T, String>;

/// Magic prefix of a shard blob ("LSHD").
const BLOB_MAGIC: u32 = 0x4C53_4844;
/// The blob format version, written and read: header + gap-coded slice.
const BLOB_VERSION: u32 = 3;
/// Fewest bytes a row takes: a one-byte gap, label and degree.
pub(crate) const MIN_ROW: usize = 3;
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
/// Fewest bytes a v2 WAL element takes (`RemoveVertex`: tag + a one-byte
/// id delta).
const MIN_ELEMENT: usize = 2;
/// Most bytes a v2 WAL element takes: tag + two ten-byte varints.
const MAX_ELEMENT: usize = 1 + 2 * MAX_VARINT;
/// Fewest bytes a v1 WAL element takes (`RemoveVertex`: tag + `u64` id).
const MIN_ELEMENT_V1: usize = 9;

/// Append one integer's little-endian bytes (`put(buf, x.to_le_bytes())`).
fn put<const N: usize>(buf: &mut Vec<u8>, le: [u8; N]) {
    buf.extend_from_slice(&le);
}

/// Write `x` as an unsigned LEB128 varint at `out[at..]` — seven bits a
/// byte, low bits first, the high bit set on every byte but the last — and
/// return where it ends. The caller has made room: [`MAX_VARINT`] bytes.
#[inline]
fn write_varint(out: &mut [u8], mut at: usize, mut x: u64) -> usize {
    while x >= 0x80 {
        out[at] = x as u8 | 0x80;
        x >>= 7;
        at += 1;
    }
    out[at] = x as u8;
    at + 1
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

/// The one blob encoder: header, then the `vertices` live rows of the slice
/// `slot` names (`None` is the unassigned tail), gap-coded, in arena order,
/// whichever source they are read from: a frozen store's
/// [`ArenaSlice::rows`](loom_serve::shard::ArenaSlice::rows) or a graph's
/// [`PartitionMajor`](loom_serve::shard::PartitionMajor) layout. Rows are
/// handed over one at a time ([`BlobEncoder::push`]), so a reader of a
/// graph can fill every slot's blob in one walk of it.
pub(crate) struct BlobEncoder {
    buf: Vec<u8>,
    /// End of what is written; `buf` is zeroed room past it.
    at: usize,
    /// The id of the last row pushed (0 before the first).
    previous: u64,
}

impl BlobEncoder {
    /// The header of a blob of `vertices` rows of the slice `slot` names.
    pub(crate) fn new(slot: Option<PartitionId>, vertices: usize) -> Self {
        let mut buf = Vec::with_capacity(16 + MAX_VARINT + vertices * 16);
        put(&mut buf, BLOB_MAGIC.to_le_bytes());
        put(&mut buf, BLOB_VERSION.to_le_bytes());
        let kind = if slot.is_some() {
            KIND_SHARD
        } else {
            KIND_TAIL
        };
        put(&mut buf, kind.to_le_bytes());
        put(&mut buf, slot.map_or(0, |p| p.0).to_le_bytes());
        // Varints go through a cursor into zeroed room, grown ahead of each
        // row to its longest spelling: a store into a slice per byte, where
        // a `Vec::push` per byte runs at half the speed.
        let at = buf.len();
        buf.resize(buf.capacity(), 0);
        let at = write_varint(&mut buf, at, vertices as u64);
        Self {
            buf,
            at,
            previous: 0,
        }
    }

    /// Append the next row.
    #[inline]
    pub(crate) fn push(
        &mut self,
        v: VertexId,
        label: Label,
        neighbours: impl ExactSizeIterator<Item = VertexId>,
    ) {
        let longest = (3 + neighbours.len()) * MAX_VARINT;
        if self.buf.len() < self.at + longest {
            let room = (2 * self.buf.len()).max(self.at + longest);
            self.buf.resize(room, 0);
        }
        let out = self.buf.as_mut_slice();
        // Ids ascend within a slice; a row that does not wraps to a gap the
        // decoder refuses.
        let v = v.raw();
        let mut at = self.at;
        at = write_varint(out, at, v.wrapping_sub(self.previous));
        at = write_varint(out, at, u64::from(label.raw()));
        at = write_varint(out, at, neighbours.len() as u64);
        for n in neighbours {
            at = write_varint(out, at, zigzag(n.raw().wrapping_sub(v)));
        }
        self.at = at;
        self.previous = v;
    }

    /// The blob's bytes.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.buf.truncate(self.at);
        self.buf
    }
}

/// [`BlobEncoder`] over `rows`, the `vertices` rows of the slice `slot`
/// names.
pub(crate) fn encode_blob<N>(
    slot: Option<PartitionId>,
    vertices: usize,
    rows: impl Iterator<Item = (VertexId, Label, N)>,
) -> Vec<u8>
where
    N: ExactSizeIterator<Item = VertexId>,
{
    let mut blob = BlobEncoder::new(slot, vertices);
    for (v, label, neighbours) in rows {
        blob.push(v, label, neighbours);
    }
    blob.finish()
}

/// The slice `slot` names of `store`'s arena (`None` is the unassigned
/// tail) as a blob. `None` when the shard is out of range.
pub(crate) fn encode_slice(store: &ShardedStore, slot: Option<PartitionId>) -> Option<Vec<u8>> {
    let slice = match slot {
        Some(p) => store.shard_slice(p)?,
        None => store.unassigned_slice(),
    };
    Some(encode_blob(slot, slice.len(), slice.rows()))
}

/// One row of a blob: a vertex, its label, and its neighbours in traversal
/// order.
pub type BlobRow = (VertexId, Label, Vec<VertexId>);

/// The blob `header` describes, holding `rows` in the order given: what
/// [`decode_rows`] read back, or a graph's rows in
/// [`PartitionMajor`](loom_serve::shard::PartitionMajor) arena order — byte
/// for byte what [`encode_shard`] or [`encode_tail`] writes for the same
/// slot of the store [`ShardedStore::from_parts`] freezes from the same
/// graph and partitioning.
pub fn encode_rows<A: AsRef<[VertexId]>>(
    header: BlobHeader,
    rows: &[(VertexId, Label, A)],
) -> Vec<u8> {
    let rows = rows
        .iter()
        .map(|(v, label, neighbours)| (*v, *label, neighbours.as_ref().iter().copied()));
    encode_blob(header.shard.map(PartitionId::new), rows.len(), rows)
}

/// Serialize shard `p` of `store` as one contiguous blob. `None` when `p`
/// is out of range.
pub fn encode_shard(store: &ShardedStore, p: PartitionId) -> Option<Vec<u8>> {
    encode_slice(store, Some(p))
}

/// Serialize the unassigned tail of `store`'s arena (vertices the
/// partitioner had not placed at snapshot time). Always produced, even when
/// empty, so a checkpoint's blob set has a fixed shape.
pub fn encode_tail(store: &ShardedStore) -> Vec<u8> {
    encode_slice(store, None).expect("every store has a tail slice")
}

/// What a blob's header says it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobHeader {
    /// The shard whose slice the blob holds; `None` for the unassigned tail.
    pub shard: Option<u32>,
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

/// Decode a checkpoint blob straight into `arena`: the blob's vertices are
/// appended in the order they were serialized, homed at the shard the blob
/// names (or nowhere, for the tail). Returns what the header said. Anything
/// behind the slice is refused. `path` is used only for error reporting.
///
/// On `Err`, `arena` may hold part of the blob and must be discarded.
pub(crate) fn decode_blob(
    bytes: &[u8],
    path: &Path,
    arena: &mut ArenaLoader,
) -> Result<BlobHeader> {
    decode_into(bytes, arena).map_err(|detail| StoreError::corrupt(path, detail))
}

/// Decode a checkpoint blob into its header and its rows, in the order they
/// were serialized — what [`encode_rows`] writes back.
pub fn decode_rows(bytes: &[u8], path: &Path) -> Result<(BlobHeader, Vec<BlobRow>)> {
    let mut rows = Vec::new();
    let header =
        decode_into(bytes, &mut rows).map_err(|detail| StoreError::corrupt(path, detail))?;
    Ok((header, rows))
}

/// The blob in `bytes`, into `sink`; `Err` is what is wrong with it.
fn decode_into(bytes: &[u8], sink: &mut impl RowSink) -> Decoded<BlobHeader> {
    let mut r = Reader::new(bytes);
    let magic = r.u32("blob magic")?;
    if magic != BLOB_MAGIC {
        return Err(format!("bad blob magic 0x{magic:08x}"));
    }
    let version = r.u32("blob version")?;
    if version != BLOB_VERSION {
        return Err(format!("unsupported blob version {version}"));
    }
    let kind = r.u32("blob kind")?;
    let raw_id = r.u32("shard id")?;
    let shard = match kind {
        KIND_SHARD => Some(raw_id),
        KIND_TAIL => None,
        other => return Err(format!("unknown blob kind {other}")),
    };
    gap_coded_rows(&mut r, shard.map(PartitionId::new), sink)?;
    r.finish("blob")?;
    Ok(BlobHeader { shard })
}

/// The rows of a slice, into `sink`: every count bounded by the bytes
/// behind it, every id gap checked.
fn gap_coded_rows(
    r: &mut Reader<'_>,
    home: Option<PartitionId>,
    sink: &mut impl RowSink,
) -> Decoded<()> {
    let raw = r.varint("vertex count")?;
    let vertex_count = r.bounded(raw, MIN_ROW, "vertex count")?;
    let mut previous = 0u64;
    for row in 0..vertex_count {
        let gap = r.varint("vertex id gap")?;
        if row > 0 && gap == 0 {
            return Err(format!("vertex id {previous} is listed twice in a row"));
        }
        let v = previous.checked_add(gap).ok_or_else(|| {
            format!("vertex id gap {gap} after {previous} overflows u64: ids do not ascend")
        })?;
        let label = label(r, "vertex label")?;
        // At least one byte per neighbour.
        let raw = r.varint("vertex degree")?;
        let degree = r.bounded(raw, 1, "vertex degree")?;
        // Read through a local cursor, which the sink's stores cannot alias.
        let (mut cursor, mut fault) = (r.rest(), None);
        let neighbours = (0..degree).map_while(|_| match next_varint(&mut cursor) {
            Ok(code) => Some(VertexId::new(v.wrapping_add(unzigzag(code)))),
            Err(e) => {
                fault = Some(e);
                None
            }
        });
        sink.row(home, VertexId::new(v), label, neighbours);
        r.resume(cursor);
        if let Some(fault) = fault {
            return Err(r.varint_fault(fault, "neighbour").into());
        }
        previous = v;
    }
    Ok(())
}

/// A varint label, refused past `u32`.
#[inline]
fn label(r: &mut Reader<'_>, what: &str) -> Decoded<Label> {
    let raw = r.varint(what)?;
    u32::try_from(raw)
        .map(Label::new)
        .map_err(|_| format!("{what} {raw} overflows u32"))
}

/// An edge's target, as its zigzag distance from `source`.
#[inline]
fn target(r: &mut Reader<'_>, source: u64, what: &str) -> Decoded<VertexId> {
    Ok(VertexId::new(
        source.wrapping_add(unzigzag(r.varint(what)?)),
    ))
}

/// Write `batch` as one v2 WAL record payload at `buf[at..]` and return
/// where it ends. `buf` is grown, zero-filled, only when it is shorter than
/// the batch's longest spelling; what lies past the returned end is stale,
/// so a caller that keeps one buffer for every record pays for the room
/// once.
pub(crate) fn encode_elements(batch: &[StreamElement], buf: &mut Vec<u8>, at: usize) -> usize {
    let longest = at + MAX_VARINT + batch.len() * MAX_ELEMENT;
    if buf.len() < longest {
        buf.resize(longest, 0);
    }
    let out = buf.as_mut_slice();
    let mut at = write_varint(out, at, batch.len() as u64);
    let mut previous = 0u64;
    for element in batch {
        let (tag, first, field) = match *element {
            StreamElement::AddVertex { id, label } => (EL_VERTEX, id, Some(label.raw().into())),
            StreamElement::AddEdge { source, target } => (
                EL_EDGE,
                source,
                Some(zigzag(target.raw().wrapping_sub(source.raw()))),
            ),
            StreamElement::RemoveVertex { id } => (EL_REMOVE_VERTEX, id, None),
            StreamElement::RemoveEdge { source, target } => (
                EL_REMOVE_EDGE,
                source,
                Some(zigzag(target.raw().wrapping_sub(source.raw()))),
            ),
            StreamElement::Relabel { id, label } => (EL_RELABEL, id, Some(label.raw().into())),
        };
        let first = first.raw();
        out[at] = tag;
        at = write_varint(out, at + 1, zigzag(first.wrapping_sub(previous)));
        if let Some(field) = field {
            at = write_varint(out, at, field);
        }
        previous = first;
    }
    at
}

/// Decode one v2 WAL record payload back into its element batch.
pub(crate) fn decode_elements(bytes: &[u8], path: &Path) -> Result<Vec<StreamElement>> {
    read_elements(bytes).map_err(|detail| StoreError::corrupt(path, detail))
}

fn read_elements(bytes: &[u8]) -> Decoded<Vec<StreamElement>> {
    let mut r = Reader::new(bytes);
    let raw = r.varint("element count")?;
    let count = r.bounded(raw, MIN_ELEMENT, "element count")?;
    let mut batch = Vec::with_capacity(count);
    let mut previous = 0u64;
    for _ in 0..count {
        let tag = r.u8("element tag")?;
        if tag > EL_RELABEL {
            return Err(format!("unknown element tag {tag}"));
        }
        let first = previous.wrapping_add(unzigzag(r.varint("element id")?));
        previous = first;
        let id = VertexId::new(first);
        batch.push(match tag {
            EL_VERTEX => StreamElement::AddVertex {
                id,
                label: label(&mut r, "vertex label")?,
            },
            EL_EDGE => StreamElement::AddEdge {
                source: id,
                target: target(&mut r, first, "edge target")?,
            },
            EL_REMOVE_VERTEX => StreamElement::RemoveVertex { id },
            EL_REMOVE_EDGE => StreamElement::RemoveEdge {
                source: id,
                target: target(&mut r, first, "removed edge target")?,
            },
            _ => StreamElement::Relabel {
                id,
                label: label(&mut r, "new label")?,
            },
        });
    }
    r.finish("element batch")?;
    Ok(batch)
}

/// Decode one v1 WAL record payload — fixed-width ids and labels, what
/// `LOOMWAL1` segments hold — back into its element batch. Read only: no
/// writer spells v1 any more.
pub(crate) fn decode_elements_v1(bytes: &[u8], path: &Path) -> Result<Vec<StreamElement>> {
    read_elements_v1(bytes).map_err(|detail| StoreError::corrupt(path, detail))
}

fn read_elements_v1(bytes: &[u8]) -> Decoded<Vec<StreamElement>> {
    let mut r = Reader::new(bytes);
    let raw = r.u32("element count")?;
    let count = r.bounded(raw.into(), MIN_ELEMENT_V1, "element count")?;
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
            other => return Err(format!("unknown element tag {other}")),
        }
    }
    r.finish("element batch")?;
    Ok(batch)
}

/// CRC of an encoded blob — the checksum recorded in (and verified against)
/// the checkpoint manifest.
pub(crate) fn blob_crc(bytes: &[u8]) -> u32 {
    crc32(bytes)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::io::take_frame;
    use loom_graph::LabelledGraph;
    use loom_partition::partition::Partitioning;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn encoded(batch: &[StreamElement]) -> Vec<u8> {
        let mut buf = Vec::new();
        let end = encode_elements(batch, &mut buf, 0);
        buf.truncate(end);
        buf
    }

    /// A `LOOMWAL1` segment holding record 0 on, written by the fixed-width
    /// encoder before v2 replaced it: [`v1_batches`], one record each.
    pub(crate) const V1_SEGMENT: &[u8] = include_bytes!("../fixtures/loomwal1.log");

    /// The batches [`V1_SEGMENT`] holds: every element kind, a sparse id,
    /// an empty batch.
    pub(crate) fn v1_batches() -> Vec<Vec<StreamElement>> {
        const FAR: u64 = 1 << 40;
        let v = |id, label| StreamElement::AddVertex {
            id: VertexId::new(id),
            label: Label::new(label),
        };
        let e = |source, target| StreamElement::AddEdge {
            source: VertexId::new(source),
            target: VertexId::new(target),
        };
        vec![
            vec![
                v(0, 0),
                v(1, 1),
                v(2, 2),
                e(0, 1),
                e(1, 2),
                v(3, 0),
                e(2, 3),
                e(3, 0),
            ],
            vec![
                v(FAR, 1),
                e(FAR, 0),
                StreamElement::Relabel {
                    id: VertexId::new(2),
                    label: Label::new(3),
                },
                StreamElement::RemoveEdge {
                    source: VertexId::new(0),
                    target: VertexId::new(1),
                },
                StreamElement::RemoveVertex {
                    id: VertexId::new(3),
                },
            ],
            vec![],
            vec![v(4, 1), e(4, FAR), e(4, 2)],
        ]
    }

    /// The record payloads of [`V1_SEGMENT`].
    fn v1_payloads() -> Vec<&'static [u8]> {
        let mut bytes = V1_SEGMENT.strip_prefix(b"LOOMWAL1").unwrap();
        std::iter::from_fn(|| take_frame(&mut bytes, 1 << 20).unwrap()).collect()
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
            assert_eq!(header.shard, Some(p.0));
            assert_eq!(arena.vertex_count() - before, store.home_vertices(p).len());
            // Determinism: encoding twice yields identical bytes.
            assert_eq!(encode_shard(&store, p).unwrap(), bytes);
            blobs.push(bytes);
        }
        let before = arena.vertex_count();
        let tail = decode_blob(encode_tail(&store).as_slice(), path, &mut arena).unwrap();
        assert_eq!(tail.shard, None);
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

    /// Shard 0 and the tail of `fixture()`: a one-byte count, then per row
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
        // The versions before v3 are refused as plainly as one after it.
        for version in [0, 1, 2, 4] {
            let mut other = v3.clone();
            other[4] = version;
            assert_eq!(
                detail(&other),
                format!("unsupported blob version {version}")
            );
        }
        // A blob ends with its slice: the sections v1 kept there are not
        // skipped, they are refused.
        let mut trailing = v3;
        trailing.extend_from_slice(&[0; 8]);
        assert_eq!(detail(&trailing), "8 trailing bytes after blob");
    }

    #[test]
    fn blob_decode_rejects_corruption_cleanly() {
        let store = fixture();
        let path = Path::new("test.blob");
        let full = encode_shard(&store, PartitionId::new(0)).unwrap();
        let decode = |bytes: &[u8]| decode_blob(bytes, path, &mut ArenaLoader::new(3));
        assert!(decode(&full).is_ok());
        for cut in 0..full.len() {
            assert!(decode(&full[..cut]).is_err(), "prefix {cut}");
        }
        for byte in 0..full.len() {
            // A flip anywhere — a count, a varint's continuation bit — must
            // never panic or OOM.
            for bit in [0x01, 0x80] {
                let mut flipped = full.clone();
                flipped[byte] ^= bit;
                let _ = decode(&flipped);
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
        let header = BlobHeader { shard: Some(0) };
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

    /// `rows` in `shard`'s blob (`None`: the tail): it decodes to the same
    /// header and rows, and re-encodes to the same bytes.
    fn assert_round_trip(shard: Option<u32>, rows: &[BlobRow]) {
        let path = Path::new("rows.blob");
        let header = BlobHeader { shard };
        let bytes = encode_rows(header, rows);
        let (read, back) = decode_rows(&bytes, path).unwrap();
        assert_eq!((read, back.as_slice()), (header, rows));
        assert_eq!(encode_rows(read, &back), bytes);
        let mut arena = ArenaLoader::new(4);
        decode_blob(&bytes, path, &mut arena).unwrap();
        assert_eq!(arena.vertex_count(), rows.len());
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
        fn random_element_batches_round_trip(
            picks in vec(((0u8..5, 0u8..4, 0u8..4), (0u64..u64::MAX, 0u64..u64::MAX, 0u32..u32::MAX)), 0..48),
        ) {
            let mut previous = 0;
            let batch: Vec<StreamElement> = picks
                .into_iter()
                .map(|((kind, a, b), (x, y, label))| {
                    let first = VertexId::new(pick(a, x, previous));
                    let second = VertexId::new(pick(b, y, first.raw()));
                    previous = first.raw();
                    let label = Label::new(if b == 1 { u32::MAX } else { label });
                    match kind {
                        0 => StreamElement::AddVertex { id: first, label },
                        1 => StreamElement::AddEdge { source: first, target: second },
                        2 => StreamElement::RemoveVertex { id: first },
                        3 => StreamElement::RemoveEdge { source: first, target: second },
                        _ => StreamElement::Relabel { id: first, label },
                    }
                })
                .collect();
            let bytes = encoded(&batch);
            prop_assert!(bytes.len() <= MAX_VARINT + batch.len() * MAX_ELEMENT);
            prop_assert_eq!(decode_elements(&bytes, Path::new("wal.log")).unwrap(), batch.clone());
            // Written behind other bytes, into a buffer longer than it needs,
            // the record is the same bytes.
            let mut buf = vec![0xAB; 8 + bytes.len() + 64];
            let end = encode_elements(&batch, &mut buf, 8);
            prop_assert_eq!(&buf[8..end], bytes.as_slice());
        }

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

    /// What `decode` refuses in `bytes`.
    fn refusal(decode: fn(&[u8], &Path) -> Result<Vec<StreamElement>>, bytes: &[u8]) -> String {
        match decode(bytes, Path::new("wal.log")) {
            Err(StoreError::Corrupt { detail, .. }) => detail,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn element_decode_rejects_garbage() {
        let refused = |bytes: &[u8]| refusal(decode_elements, bytes);
        assert!(refused(&[0xFF; 3]).starts_with("truncated inside a varint"));
        // A count with no payload behind it.
        assert!(refused(&varint(1_000_000)).starts_with("implausible element count"));
        assert_eq!(refused(&[1, 7, 0, 0]), "unknown element tag 7");
        assert!(
            refused(&[1, 0, 0]).starts_with("truncated inside a varint while reading vertex label")
        );
        let wide = [&[1, 4, 0][..], &varint(1 << 32)].concat();
        assert_eq!(refused(&wide), "new label 4294967296 overflows u32");
        assert_eq!(refused(&[0, 0]), "1 trailing bytes after element batch");
    }

    #[test]
    fn an_element_count_past_what_the_payload_holds_is_implausible() {
        let path = Path::new("wal.log");
        let removals: Vec<StreamElement> = (0..4)
            .map(|v| StreamElement::RemoveVertex {
                id: VertexId::new(v),
            })
            .collect();
        let mut buf = encoded(&removals);
        // Each removal is its tag and a one-byte id delta (0, then +1).
        assert_eq!(buf, [4, 2, 0, 2, 2, 2, 2, 2, 2]);
        assert_eq!(decode_elements(&buf, path).unwrap(), removals);
        // Four 2-byte records behind a count of five: one more than fits.
        buf[0] = 5;
        assert_eq!(
            refusal(decode_elements, &buf),
            "implausible element count: 5 records of 2+ bytes"
        );
    }

    #[test]
    fn a_v1_element_count_past_what_the_payload_holds_is_implausible() {
        let path = Path::new("loomwal1.log");
        let payloads = v1_payloads();
        let decoded: Vec<_> = payloads
            .iter()
            .map(|p| decode_elements_v1(p, path).unwrap())
            .collect();
        assert_eq!(decoded, v1_batches());
        // The second record: five elements in 69 bytes behind a `u32` count,
        // room for seven 9-byte records at most. A count of eight is one
        // more than fits.
        let mut second = payloads[1].to_vec();
        assert_eq!(second.len(), 4 + 69);
        second[..4].copy_from_slice(&8u32.to_le_bytes());
        assert_eq!(
            refusal(decode_elements_v1, &second),
            "implausible element count: 8 records of 9+ bytes"
        );
        // Neither decoder reads the other's records.
        assert!(decode_elements(payloads[0], path).is_err());
        assert!(decode_elements_v1(&encoded(&v1_batches()[0]), path).is_err());
    }

    /// One id of a generated batch: 0, `u64::MAX`, a small step either way
    /// from `previous` (wrapping), or anywhere.
    fn pick(kind: u8, raw: u64, previous: u64) -> u64 {
        match kind {
            0 => 0,
            1 => u64::MAX,
            2 => previous.wrapping_add(raw % 64).wrapping_sub(32),
            _ => raw,
        }
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
