//! Append-only write-ahead log for ingested stream batches.
//!
//! The log is a magic header followed by CRC-framed records — one record per
//! ingested batch, in the `loom_graph::io` frame format (`[len][crc32]
//! [payload]`). Appends are `fsync`ed before the batch reaches the
//! partitioner, so every acknowledged batch survives a crash. A crash *mid*
//! append leaves a torn tail whose frame fails its length or CRC check.
//! Reading and reopening are two steps so recovery can keep its only write
//! for last: [`Wal::replay`] reads and reports, [`Wal::resume_from`] truncates
//! the file back to the last good frame — exactly the prefix of batches that
//! were acknowledged — and opens it for append ([`Wal::resume`] does both).

use crate::codec::{decode_elements, encode_elements};
use crate::error::{Result, StoreError};
use loom_graph::io::{seal_frame, take_frame, FRAME_HEADER};
use loom_graph::StreamElement;
use loom_obs::{Histogram, SpanTimer};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the write-ahead log inside a durability root.
pub const WAL_FILE: &str = "wal.log";

/// Magic header identifying a LOOM WAL file.
const WAL_MAGIC: &[u8; 8] = b"LOOMWAL1";

/// Upper bound on a single record's payload — a batch far larger than any
/// realistic ingest chunk, small enough that a corrupt length prefix cannot
/// drive a giant allocation.
const MAX_RECORD: usize = 64 << 20;

/// An open, append-ready write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    records: u64,
    /// The frame being appended — header reserved, payload encoded straight
    /// behind it — kept so steady-state appends allocate nothing.
    frame: Vec<u8>,
    /// `store.fsync` histogram each append's write+sync wall clock is charged
    /// into; `None` (telemetry off) skips even the clock read.
    fsync_hist: Option<Arc<Histogram>>,
}

/// What [`Wal::replay`] recovered from disk.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// The acknowledged batches, in append order.
    pub batches: Vec<Vec<StreamElement>>,
    /// Number of valid records (`batches.len()` as u64).
    pub records: u64,
    /// Bytes of torn tail discarded past the last good frame.
    pub truncated_bytes: u64,
    /// Length of the valid prefix (header plus good frames).
    pub valid_len: u64,
}

impl Wal {
    /// Create a fresh, empty log at `path`, truncating any existing file,
    /// and `fsync` the header.
    pub fn create(path: &Path) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StoreError::io(path, e))?;
        file.write_all(WAL_MAGIC)
            .and_then(|()| file.sync_data())
            .map_err(|e| StoreError::io(path, e))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            records: 0,
            frame: Vec::new(),
            fsync_hist: None,
        })
    }

    /// Charge every append's write+`fsync` wall clock into `hist` (the
    /// session wires `store.fsync` here). Appends on an unobserved log take
    /// no clock reads at all.
    pub fn set_fsync_histogram(&mut self, hist: Arc<Histogram>) {
        self.fsync_hist = Some(hist);
    }

    /// Replay the log at `path` without opening it for append. A missing
    /// file replays as empty; a torn tail is *reported* (not yet truncated);
    /// anything that is not a LOOM WAL is a hard error — this function never
    /// silently discards a foreign file.
    pub fn replay(path: &Path) -> Result<WalReplay> {
        let raw = match std::fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(WalReplay::default());
            }
            Err(e) => return Err(StoreError::io(path, e)),
        };
        let Some(mut bytes) = raw.strip_prefix(WAL_MAGIC) else {
            return Err(StoreError::corrupt(path, "missing LOOMWAL1 magic header"));
        };
        let mut replay = WalReplay::default();
        // A frame that fails its length or CRC check is the torn tail: the
        // valid prefix ends there.
        while let Ok(Some(payload)) = take_frame(&mut bytes, MAX_RECORD) {
            // A CRC-valid frame whose payload fails to decode is not a torn
            // write (torn writes fail the CRC): it is real corruption or a
            // format break, and must be a hard error rather than a silent
            // truncation of acknowledged data.
            replay.batches.push(decode_elements(payload, path)?);
            replay.records += 1;
        }
        replay.truncated_bytes = bytes.len() as u64;
        replay.valid_len = (raw.len() - bytes.len()) as u64;
        Ok(replay)
    }

    /// Open the log at `path` for appending, replaying what is already
    /// there. A torn tail is truncated off the file (and synced) so the next
    /// append starts at a clean frame boundary. A missing file is created.
    pub fn resume(path: &Path) -> Result<(Self, WalReplay)> {
        let replay = Self::replay(path)?;
        Ok((Self::resume_from(path, &replay)?, replay))
    }

    /// Open the log at `path` for appending after `replay` — what
    /// [`Wal::replay`] reported of this very file — truncating the torn tail
    /// it found (and syncing) so the next append starts at a clean frame
    /// boundary. A missing file is created. This is the only step of
    /// resuming a log that writes.
    pub fn resume_from(path: &Path, replay: &WalReplay) -> Result<Self> {
        if !path.exists() {
            return Self::create(path);
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(path, e))?;
        if replay.truncated_bytes > 0 {
            file.set_len(replay.valid_len)
                .and_then(|()| file.sync_data())
                .map_err(|e| StoreError::io(path, e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io(path, e))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            records: replay.records,
            frame: Vec::new(),
            fsync_hist: None,
        })
    }

    /// Append one batch as a single CRC-framed record and `fsync` it. On
    /// `Ok`, the batch is durable.
    pub fn append(&mut self, batch: &[StreamElement]) -> Result<()> {
        self.frame.clear();
        self.frame.resize(FRAME_HEADER, 0);
        encode_elements(batch, &mut self.frame);
        seal_frame(&mut self.frame);
        let span = SpanTimer::start(self.fsync_hist.as_deref());
        let synced = self
            .file
            .write_all(&self.frame)
            .and_then(|()| self.file.sync_data());
        drop(span);
        synced.map_err(|e| StoreError::io(&self.path, e))?;
        self.records += 1;
        Ok(())
    }

    /// Number of records appended plus replayed — the WAL position recorded
    /// in checkpoint manifests.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Force an `fsync` (appends already sync; this is for belt-and-braces
    /// call sites like checkpoint boundaries).
    pub fn sync(&self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| StoreError::io(&self.path, e))
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::{Label, VertexId};

    fn batch(base: u64) -> Vec<StreamElement> {
        vec![
            StreamElement::AddVertex {
                id: VertexId::new(base),
                label: Label::new((base % 4) as u32),
            },
            StreamElement::AddVertex {
                id: VertexId::new(base + 1),
                label: Label::new(((base + 1) % 4) as u32),
            },
            StreamElement::AddEdge {
                source: VertexId::new(base),
                target: VertexId::new(base + 1),
            },
        ]
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("loom-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..5 {
            wal.append(&batch(i * 10)).unwrap();
        }
        assert_eq!(wal.records(), 5);
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, 5);
        assert_eq!(replay.truncated_bytes, 0);
        for (i, b) in replay.batches.iter().enumerate() {
            assert_eq!(b, &batch(i as u64 * 10));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_resume() {
        let dir = tmpdir("torn");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&batch(0)).unwrap();
        wal.append(&batch(10)).unwrap();
        drop(wal);
        let intact = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: a partial frame at the tail.
        let mut raw = std::fs::read(&path).unwrap();
        let mut torn = raw.clone();
        torn.extend_from_slice(&[0x2A, 0x00, 0x00, 0x00, 0xDE, 0xAD]); // half a header
        std::fs::write(&path, &torn).unwrap();
        let (mut resumed, replay) = Wal::resume(&path).unwrap();
        assert_eq!(replay.records, 2);
        assert_eq!(replay.truncated_bytes, 6);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        // The resumed log appends at a clean boundary.
        resumed.append(&batch(20)).unwrap();
        drop(resumed);
        assert_eq!(Wal::replay(&path).unwrap().records, 3);
        // A torn tail that corrupts a whole trailing record: flip a byte in
        // the final frame instead of appending garbage.
        raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let (_, replay) = Wal::resume(&path).unwrap();
        assert_eq!(replay.records, 2, "corrupt trailing frame dropped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_replays_empty_and_resume_creates() {
        let dir = tmpdir("missing");
        let path = dir.join(WAL_FILE);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, 0);
        let (wal, replay) = Wal::resume(&path).unwrap();
        assert_eq!(replay.records, 0);
        assert_eq!(wal.records(), 0);
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_file_is_a_hard_error() {
        let dir = tmpdir("foreign");
        let path = dir.join(WAL_FILE);
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(matches!(
            Wal::replay(&path),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(
            Wal::resume(&path).is_err(),
            "resume must not wipe foreign files"
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"definitely not a wal");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_batches_are_legal_records() {
        let dir = tmpdir("empty");
        let path = dir.join(WAL_FILE);
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&[]).unwrap();
        wal.append(&batch(0)).unwrap();
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.records, 2);
        assert!(replay.batches[0].is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
