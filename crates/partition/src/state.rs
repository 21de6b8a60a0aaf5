//! A partitioner's state as bytes, for checkpoints.
//!
//! A checkpoint's arena already says which vertex is placed in which shard.
//! Everything else a partitioner holds — LOOM's window and motif matches,
//! the pending vertex of LDG and Fennel, every counter — travels in one blob
//! beside it. [`Partitioner::encode_state`] writes that blob through a
//! [`StateWriter`]; [`Partitioner::restore_state`] reads it back through a
//! [`StateReader`] into a freshly built partitioner, taking the assignment
//! from the arena. Fed the rest of the stream, the restored partitioner
//! places every element as the one that wrote the blob would have.
//!
//! | section | encoding (little-endian) |
//! |---|---|
//! | header | magic `LPST`, version — 2 × `u32` |
//! | name | `u32` length, then the partitioner's name in UTF-8 |
//! | config | `u32` count, then per setting: `u32` length and name, `u8` kind (0 integer, 1 float), `u64` value (a float's bits) |
//! | loads | `u32` count, then `u64` vertices per partition |
//! | body | the partitioner's own: `u64` counters, `u32`-counted id lists, … |
//!
//! Encoding is deterministic: a partitioner in a given state always writes
//! the same bytes, whatever order its hash maps iterate in, which is what
//! lets a restore be proven by re-encoding and comparing. Reading checks the
//! header against the restoring partitioner — another name, setting or
//! workload is a [`PartitionError::StateMismatch`] naming it — and the loads
//! against the arena's; a count larger than the bytes behind it, a vertex
//! the arena does not hold or trailing bytes are a
//! [`PartitionError::CorruptState`]. Nothing is trusted that has not been
//! bounded, so a torn or flipped blob is an error, never a panic.
//!
//! [`Partitioner::encode_state`]: crate::traits::Partitioner::encode_state
//! [`Partitioner::restore_state`]: crate::traits::Partitioner::restore_state

use crate::error::{PartitionError, Result};
use crate::partition::{PartitionId, Partitioning};
use crate::traits::PartitionerStats;
use loom_graph::fxhash::FxHashSet;
use loom_graph::io::Reader;
use loom_graph::VertexId;

/// Magic prefix of a partitioner state blob ("LPST").
const STATE_MAGIC: u32 = u32::from_le_bytes(*b"LPST");
/// The state format version written and read.
const STATE_VERSION: u32 = 1;

/// One configuration value a state blob is stamped with: a restore under a
/// different value is refused by the setting's name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setting {
    /// A count, size, seed or switch.
    Int(u64),
    /// A real-valued parameter, compared bit for bit.
    Float(f64),
}

impl Setting {
    fn kind_and_bits(self) -> (u8, u64) {
        match self {
            Setting::Int(x) => (0, x),
            Setting::Float(x) => (1, x.to_bits()),
        }
    }
}

impl std::fmt::Display for Setting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Setting::Int(x) => write!(f, "{x}"),
            Setting::Float(x) => write!(f, "{x}"),
        }
    }
}

/// A partitioner's settings, in the order its state blob records them.
pub type Settings<'a> = [(&'a str, Setting)];

/// Every live vertex of a checkpoint's arena with its home shard — `None`
/// for the unassigned tail — as [`Partitioner::restore_state`] takes it.
///
/// [`Partitioner::restore_state`]: crate::traits::Partitioner::restore_state
pub type ArenaHomes<'a> = dyn Iterator<Item = (VertexId, Option<PartitionId>)> + 'a;

/// Writes a state blob: the header at construction, then the body.
#[derive(Debug)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Start the blob of partitioner `name`: header, `config`, and the loads
    /// of `partitioning`.
    pub fn new(name: &str, config: &Settings<'_>, partitioning: &Partitioning) -> Self {
        let mut w = Self { buf: Vec::new() };
        w.u32(STATE_MAGIC);
        w.u32(STATE_VERSION);
        w.text(name);
        w.u32(config.len() as u32);
        for &(setting, value) in config {
            let (kind, bits) = value.kind_and_bits();
            w.text(setting);
            w.buf.push(kind);
            w.u64(bits);
        }
        w.u32(partitioning.sizes().len() as u32);
        for &size in partitioning.sizes() {
            w.u64(size as u64);
        }
        w
    }

    fn text(&mut self, text: &str) {
        self.u32(text.len() as u32);
        self.buf.extend_from_slice(text.as_bytes());
    }

    /// Append one `u8`.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Append one `u32`.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append one `u64` (a counter is written as one).
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append one vertex id.
    pub fn id(&mut self, v: VertexId) {
        self.u64(v.raw());
    }

    /// Append a `u32`-counted list of vertex ids, in order.
    pub fn ids(&mut self, ids: &[VertexId]) {
        self.u32(ids.len() as u32);
        for &v in ids {
            self.id(v);
        }
    }

    /// Append the counters of a [`PartitionerStats`] that are not derived
    /// from the assignment: vertices, edges and batches ingested.
    pub fn counters(&mut self, stats: &PartitionerStats) {
        for counter in [
            stats.vertices_ingested,
            stats.edges_ingested,
            stats.batches_ingested,
        ] {
            self.u64(counter as u64);
        }
    }

    /// The finished blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

fn corrupt(detail: impl Into<String>) -> PartitionError {
    PartitionError::CorruptState(detail.into())
}

fn mismatch(detail: impl Into<String>) -> PartitionError {
    PartitionError::StateMismatch(detail.into())
}

/// Reads a state blob back: [`StateReader::open`] checks the header and lays
/// the arena's placements into the restoring partitioner's assignment table,
/// then the body is read in the order it was written.
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: Reader<'a>,
    /// The arena's unassigned tail: where every buffered vertex that is not
    /// placed must be.
    unplaced: FxHashSet<VertexId>,
}

impl<'a> StateReader<'a> {
    /// Open `state` for the partitioner called `name` with `config`: the
    /// header must name that partitioner and those settings exactly. Then
    /// `partitioning` is emptied and filled with the placed vertices of
    /// `arena`, whose per-partition loads must be the ones the blob recorded.
    ///
    /// # Errors
    ///
    /// [`PartitionError::StateMismatch`] for another partitioner, setting or
    /// value; [`PartitionError::CorruptState`] for a torn header or loads
    /// that disagree with the arena.
    pub fn open(
        state: &'a [u8],
        name: &str,
        config: &Settings<'_>,
        partitioning: &mut Partitioning,
        arena: &mut ArenaHomes<'_>,
    ) -> Result<Self> {
        let mut r = Self {
            bytes: Reader::new(state),
            unplaced: FxHashSet::default(),
        };
        let magic = r.u32("state magic")?;
        if magic != STATE_MAGIC {
            return Err(corrupt(format!(
                "bad partitioner state magic 0x{magic:08x}"
            )));
        }
        let version = r.u32("state version")?;
        if version != STATE_VERSION {
            return Err(corrupt(format!(
                "unsupported partitioner state version {version}"
            )));
        }
        let written_by = r.text("partitioner name")?;
        if written_by != name.as_bytes() {
            return Err(mismatch(format!(
                "written by partitioner `{}`, restored into `{name}`",
                String::from_utf8_lossy(written_by)
            )));
        }
        let count = r.u32("setting count")? as usize;
        if count != config.len() {
            return Err(mismatch(format!(
                "written with {count} settings, `{name}` has {}",
                config.len()
            )));
        }
        for &(setting, value) in config {
            let written = r.text("setting name")?;
            if written != setting.as_bytes() {
                return Err(mismatch(format!(
                    "written with setting `{}` where `{name}` has `{setting}`",
                    String::from_utf8_lossy(written)
                )));
            }
            let kind = r.u8("setting kind")?;
            let bits = r.u64("setting value")?;
            if (kind, bits) != value.kind_and_bits() {
                let was = match kind {
                    1 => Setting::Float(f64::from_bits(bits)),
                    _ => Setting::Int(bits),
                };
                return Err(mismatch(format!(
                    "written with {setting} = {was}, this partitioner has {setting} = {value}"
                )));
            }
        }
        let loads = r.u32("partition count")? as usize;
        if loads != partitioning.sizes().len() {
            return Err(corrupt(format!(
                "state records {loads} partition loads for k = {}",
                partitioning.k()
            )));
        }
        let mut recorded = Vec::with_capacity(loads);
        for _ in 0..loads {
            recorded.push(r.u64("partition load")?);
        }

        partitioning.take();
        for (v, home) in arena {
            match home {
                Some(p) => partitioning.assign(v, p)?,
                None => {
                    r.unplaced.insert(v);
                }
            }
        }
        for (p, (&held, &was)) in partitioning.sizes().iter().zip(&recorded).enumerate() {
            if held as u64 != was {
                return Err(corrupt(format!(
                    "partition {p} holds {held} vertices in the arena, the state says {was}"
                )));
            }
        }
        Ok(r)
    }

    fn text(&mut self, what: &str) -> Result<&'a [u8]> {
        let len = self.u32(what)? as usize;
        self.bytes.take(len, what).map_err(corrupt)
    }

    /// Read one `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        self.bytes.u8(what).map_err(corrupt)
    }

    /// Read one `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        self.bytes.u32(what).map_err(corrupt)
    }

    /// Read one `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        self.bytes.u64(what).map_err(corrupt)
    }

    /// Read a counter written with [`StateWriter::u64`].
    pub fn counter(&mut self, what: &str) -> Result<usize> {
        let raw = self.u64(what)?;
        usize::try_from(raw).map_err(|_| corrupt(format!("{what} {raw} does not fit")))
    }

    /// Read a `u64` count of records at least `stride` bytes long each,
    /// bounded by the bytes actually remaining.
    pub fn count(&mut self, stride: usize, what: &str) -> Result<usize> {
        self.bytes.count(stride, what).map_err(corrupt)
    }

    /// Read one vertex id.
    pub fn id(&mut self, what: &str) -> Result<VertexId> {
        Ok(VertexId::new(self.u64(what)?))
    }

    /// Read a list written with [`StateWriter::ids`].
    pub fn ids(&mut self, what: &str) -> Result<Vec<VertexId>> {
        let len = self.u32(what)? as usize;
        let raw = self
            .bytes
            .take(len.saturating_mul(8), what)
            .map_err(corrupt)?;
        Ok(raw
            .chunks_exact(8)
            .map(|id| VertexId::new(u64::from_le_bytes(id.try_into().expect("8 bytes"))))
            .collect())
    }

    /// Read what [`StateWriter::counters`] wrote into `stats`.
    pub fn counters(&mut self) -> Result<PartitionerStats> {
        Ok(PartitionerStats {
            vertices_ingested: self.counter("vertices ingested")?,
            edges_ingested: self.counter("edges ingested")?,
            batches_ingested: self.counter("batches ingested")?,
            ..PartitionerStats::default()
        })
    }

    /// A vertex the partitioner buffers must be in the arena: placed (a
    /// placed vertex announced again is buffered too), or in its tail.
    pub fn check_buffered(&self, v: VertexId, partitioning: &Partitioning) -> Result<()> {
        if partitioning.is_assigned(v) || self.unplaced.contains(&v) {
            Ok(())
        } else {
            Err(corrupt(format!(
                "buffered vertex {v} is neither placed nor in the tail blob"
            )))
        }
    }

    /// End of the blob: nothing may follow the body.
    pub fn finish(self) -> Result<()> {
        self.bytes.finish("the partitioner state").map_err(corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONFIG: [(&str, Setting); 2] = [("k", Setting::Int(2)), ("slack", Setting::Float(1.1))];

    fn placed() -> Partitioning {
        let mut part = Partitioning::new(2, 10).unwrap();
        part.assign(VertexId::new(1), PartitionId::new(0)).unwrap();
        part.assign(VertexId::new(2), PartitionId::new(1)).unwrap();
        part
    }

    fn blob() -> Vec<u8> {
        let mut w = StateWriter::new("test", &CONFIG, &placed());
        w.ids(&[VertexId::new(3)]);
        w.finish()
    }

    fn open(bytes: &[u8], config: &Settings<'_>) -> Result<(Vec<VertexId>, Partitioning)> {
        let mut part = Partitioning::new(2, 10).unwrap();
        let homes = [
            (VertexId::new(1), Some(PartitionId::new(0))),
            (VertexId::new(2), Some(PartitionId::new(1))),
            (VertexId::new(3), None),
        ];
        let mut r = StateReader::open(bytes, "test", config, &mut part, &mut homes.into_iter())?;
        let ids = r.ids("ids")?;
        for &v in &ids {
            r.check_buffered(v, &part)?;
        }
        r.finish()?;
        Ok((ids, part))
    }

    #[test]
    fn a_blob_reopens_with_the_arena_as_its_assignment() {
        let (ids, part) = open(&blob(), &CONFIG).unwrap();
        assert_eq!(ids, vec![VertexId::new(3)]);
        assert_eq!(part.sizes(), placed().sizes());
        assert_eq!(
            part.partition_of(VertexId::new(2)),
            Some(PartitionId::new(1))
        );
    }

    #[test]
    fn every_truncation_and_header_flip_is_an_error_never_a_panic() {
        let full = blob();
        for cut in 0..full.len() {
            assert!(open(&full[..cut], &CONFIG).is_err(), "prefix {cut}");
        }
        for byte in 0..full.len() {
            let mut flipped = full.clone();
            flipped[byte] ^= 0x10;
            assert!(open(&flipped, &CONFIG).is_err(), "flip at {byte}");
        }
    }

    #[test]
    fn another_setting_is_refused_by_name() {
        let other = [("k", Setting::Int(2)), ("slack", Setting::Float(1.2))];
        match open(&blob(), &other) {
            Err(PartitionError::StateMismatch(detail)) => {
                assert_eq!(
                    detail,
                    "written with slack = 1.1, this partitioner has slack = 1.2"
                );
            }
            other => panic!("expected StateMismatch, got {other:?}"),
        }
    }
}
