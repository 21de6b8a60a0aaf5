//! Binary codecs for checkpoint blobs and WAL record payloads.
//!
//! Everything here extends the `loom_graph::io` binary substrate: the same
//! little-endian [`bytes`] primitives, the same [`crc32`] checksum, the same
//! "bounds-check every length prefix, never trust a count you have not
//! bounded by the payload size" discipline. Encoders are **deterministic**:
//! the same [`ShardedStore`] always serializes to the same bytes, which is
//! what lets recovery prove bit-identity by re-encoding and comparing CRCs.

use crate::error::{Result, StoreError};
use bytes::{BufMut, Bytes, BytesMut};
use loom_graph::io::crc32;
use loom_graph::{Label, StreamElement, VertexId};
use loom_partition::partition::PartitionId;
use loom_serve::shard::{ArenaLoader, ArenaSlice, ShardedStore};
use std::path::Path;

/// Magic prefix of a shard blob ("LSHD").
const BLOB_MAGIC: u32 = 0x4C53_4844;
/// Shard blob format version.
const BLOB_VERSION: u32 = 1;
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

fn put_ids(buf: &mut BytesMut, ids: &[VertexId]) {
    buf.put_u64_le(ids.len() as u64);
    for v in ids {
        buf.put_u64_le(v.raw());
    }
}

fn encode_slice(buf: &mut BytesMut, slice: &ArenaSlice<'_>) {
    buf.put_u64_le(slice.len() as u64);
    for (i, v) in slice.vertices().iter().enumerate() {
        buf.put_u64_le(v.raw());
        buf.put_u32_le(slice.label(i).raw());
        let neighbours = slice.neighbors(i);
        buf.put_u32_le(neighbours.len() as u32);
        for n in neighbours {
            buf.put_u64_le(n.raw());
        }
    }
}

/// Serialize shard `p` of `store` as one contiguous blob. `None` when `p`
/// is out of range.
pub fn encode_shard(store: &ShardedStore, p: PartitionId) -> Option<Bytes> {
    let slice = store.shard_slice(p)?;
    let shard = store.shard(p)?;
    let mut buf = BytesMut::with_capacity(64 + slice.len() * 24);
    buf.put_u32_le(BLOB_MAGIC);
    buf.put_u32_le(BLOB_VERSION);
    buf.put_u32_le(KIND_SHARD);
    buf.put_u32_le(p.0);
    encode_slice(&mut buf, &slice);
    put_ids(&mut buf, shard.boundary());
    put_ids(&mut buf, shard.halo());
    let mut index: Vec<(Label, &[VertexId])> = shard.label_index().collect();
    index.sort_by_key(|(l, _)| *l);
    buf.put_u32_le(index.len() as u32);
    for (label, members) in index {
        buf.put_u32_le(label.raw());
        put_ids(&mut buf, members);
    }
    Some(buf.freeze())
}

/// Serialize the unassigned tail of `store`'s arena (vertices the
/// partitioner had not placed at snapshot time). Always produced, even when
/// empty, so a checkpoint's blob set has a fixed shape.
pub fn encode_tail(store: &ShardedStore) -> Bytes {
    let slice = store.unassigned_slice();
    let mut buf = BytesMut::with_capacity(64 + slice.len() * 24);
    buf.put_u32_le(BLOB_MAGIC);
    buf.put_u32_le(BLOB_VERSION);
    buf.put_u32_le(KIND_TAIL);
    buf.put_u32_le(0);
    encode_slice(&mut buf, &slice);
    put_ids(&mut buf, &[]);
    put_ids(&mut buf, &[]);
    buf.put_u32_le(0);
    buf.freeze()
}

/// Checked little-endian reader over a byte slice: every accessor verifies
/// the remaining length first (a decoder must return `Err` on torn input,
/// never panic), and nothing is copied out of the input.
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

    /// A count that precedes `stride`-byte records: bounded by the bytes
    /// actually remaining, so a flipped count can never drive a huge
    /// allocation.
    fn count(&mut self, stride: usize, what: &str) -> Result<usize> {
        let raw = self.u64(what)?;
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

    /// Step over a counted id list (the derived indexes a blob carries).
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

/// Decode a checkpoint blob produced by [`encode_shard`] or [`encode_tail`]
/// straight into `arena`: the blob's vertices are appended in the order they
/// were serialized, homed at the shard the blob names (or nowhere, for the
/// tail). Returns that shard id, `None` for the tail. The derived indexes
/// behind the slice (boundary, halo, label index) are walked for structure
/// only — the loader re-derives them from the arena and proves them equal by
/// re-encoding. `path` is used only for error reporting.
///
/// On `Err`, `arena` may hold part of the blob and must be discarded.
pub fn decode_blob(bytes: &[u8], path: &Path, arena: &mut ArenaLoader) -> Result<Option<u32>> {
    let mut r = Reader::new(bytes, path);
    let magic = r.u32("blob magic")?;
    if magic != BLOB_MAGIC {
        return Err(StoreError::corrupt(
            path,
            format!("bad blob magic 0x{magic:08x}"),
        ));
    }
    let version = r.u32("blob version")?;
    if version != BLOB_VERSION {
        return Err(StoreError::corrupt(
            path,
            format!("unsupported blob version {version}"),
        ));
    }
    let kind = r.u32("blob kind")?;
    let raw_id = r.u32("shard id")?;
    let id = match kind {
        KIND_SHARD => Some(raw_id),
        KIND_TAIL => None,
        other => {
            return Err(StoreError::corrupt(
                path,
                format!("unknown blob kind {other}"),
            ));
        }
    };
    let home = id.map(PartitionId::new);
    // Minimum 16 bytes per vertex record (id + label + degree).
    let vertex_count = r.count(16, "vertex count")?;
    for _ in 0..vertex_count {
        let v = VertexId::new(r.u64("vertex id")?);
        let label = Label::new(r.u32("vertex label")?);
        let degree = r.u32("vertex degree")? as usize;
        arena.push_vertex(home, v, label, r.ids(degree, "adjacency")?);
    }
    r.skip_ids("boundary")?;
    r.skip_ids("halo")?;
    for _ in 0..r.u32("label index size")? {
        r.u32("index label")?;
        r.skip_ids("index members")?;
    }
    r.finish("blob")?;
    Ok(id)
}

/// Append a batch of stream elements to `buf` as one WAL record payload.
pub fn encode_elements(batch: &[StreamElement], buf: &mut Vec<u8>) {
    buf.reserve(4 + batch.len() * 17);
    buf.put_u32_le(batch.len() as u32);
    for element in batch {
        match *element {
            StreamElement::AddVertex { id, label } => {
                buf.put_u8(EL_VERTEX);
                buf.put_u64_le(id.raw());
                buf.put_u32_le(label.raw());
            }
            StreamElement::AddEdge { source, target } => {
                buf.put_u8(EL_EDGE);
                buf.put_u64_le(source.raw());
                buf.put_u64_le(target.raw());
            }
            StreamElement::RemoveVertex { id } => {
                buf.put_u8(EL_REMOVE_VERTEX);
                buf.put_u64_le(id.raw());
            }
            StreamElement::RemoveEdge { source, target } => {
                buf.put_u8(EL_REMOVE_EDGE);
                buf.put_u64_le(source.raw());
                buf.put_u64_le(target.raw());
            }
            StreamElement::Relabel { id, label } => {
                buf.put_u8(EL_RELABEL);
                buf.put_u64_le(id.raw());
                buf.put_u32_le(label.raw());
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
pub fn blob_crc(bytes: &Bytes) -> u32 {
    crc32(bytes.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::LabelledGraph;
    use loom_partition::partition::Partitioning;

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
            let id = decode_blob(bytes.as_slice(), path, &mut arena).unwrap();
            assert_eq!(id, Some(p.0));
            assert_eq!(arena.vertex_count() - before, store.home_vertices(p).len());
            // Determinism: encoding twice yields identical bytes.
            assert_eq!(encode_shard(&store, p).unwrap(), bytes);
            blobs.push(bytes);
        }
        let before = arena.vertex_count();
        let tail = decode_blob(encode_tail(&store).as_slice(), path, &mut arena).unwrap();
        assert_eq!(tail, None);
        assert_eq!(arena.vertex_count() - before, 1);
        assert!(encode_shard(&store, PartitionId::new(99)).is_none());
        // What the decoder laid into the arena is the store that was
        // serialized: same derived indexes, same bytes when re-encoded.
        let loaded = arena.finish().unwrap().check().unwrap();
        for (p, bytes) in blobs.iter().enumerate() {
            let p = PartitionId::new(p as u32);
            let (a, b) = (loaded.shard(p).unwrap(), store.shard(p).unwrap());
            assert_eq!(a.boundary(), b.boundary());
            assert_eq!(a.halo(), b.halo());
            assert_eq!(&encode_shard(&loaded, p).unwrap(), bytes);
        }
        assert_eq!(encode_tail(&loaded), encode_tail(&store));
    }

    #[test]
    fn blob_decode_rejects_corruption_cleanly() {
        let store = fixture();
        let path = Path::new("test.blob");
        let bytes = encode_shard(&store, PartitionId::new(0)).unwrap();
        let full = bytes.as_slice().to_vec();
        let decode = |bytes: &[u8]| decode_blob(bytes, path, &mut ArenaLoader::new(3));
        for cut in 0..full.len() {
            assert!(decode(&full[..cut]).is_err(), "prefix {cut} decoded");
        }
        for byte in 0..full.len().min(24) {
            // Flips in the header/counts region must never panic or OOM.
            let mut flipped = full.clone();
            flipped[byte] ^= 0x80;
            let _ = decode(&flipped);
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
        buf.put_u32_le(1_000_000); // count with no payload behind it
        assert!(decode_elements(&buf, path).is_err());
        let mut buf = Vec::new();
        buf.put_u32_le(1);
        buf.put_u8(7); // unknown tag
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        assert!(decode_elements(&buf, path).is_err());
    }

    #[test]
    fn empty_store_still_produces_a_tail_blob() {
        let g = LabelledGraph::new();
        let part = Partitioning::new(2, 1).unwrap();
        let store = ShardedStore::from_parts(&g, &part);
        let mut arena = ArenaLoader::new(2);
        let tail = decode_blob(encode_tail(&store).as_slice(), Path::new("t"), &mut arena);
        assert_eq!(tail.unwrap(), None);
        assert_eq!(arena.vertex_count(), 0);
    }
}
