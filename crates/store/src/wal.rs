//! Append-only write-ahead log for ingested stream batches.
//!
//! A log file is a magic header followed by CRC-framed records — one record
//! per ingested batch, in the `loom_graph::io` frame format (`[len][crc32]
//! [payload]`). Appends are `fsync`ed before the batch reaches the
//! partitioner, so every acknowledged batch survives a crash. A crash *mid*
//! append leaves a torn tail whose frame fails its length or CRC check.
//!
//! A durability root's log is a chain of such files, **segments**, cut at
//! checkpoint boundaries ([`Wal::rotate`]). The segment holding record 0 is
//! [`WAL_FILE`]; one starting at record `R` is `wal-<R, 20 digits>.log`, so
//! its first record number lives in its name the way a checkpoint's epoch
//! lives in its directory's. Record numbers run on across segments. Once
//! every checkpoint still on disk has folded in all of a segment's records,
//! the checkpoint that made it so deletes it, right after the prune in
//! [`crate::checkpoint`] and from the same directory listing: a root holds
//! its checkpoints plus the log behind the oldest of them, not the stream's
//! whole history. A root that never checkpointed holds [`WAL_FILE`] alone,
//! byte for byte what a single-file log ([`Wal::create`] / [`Wal::replay`])
//! is.
//!
//! Reading and reopening are two steps so recovery can keep its only write
//! for last: `replay_log` reads the segments from the one holding a given
//! record on and reports, `LogReplay::resume` truncates the newest segment
//! back to its last good frame — exactly the prefix of batches that were
//! acknowledged — and opens it for append.

use crate::codec::{decode_elements, encode_elements};
use crate::error::{Result, StoreError};
use loom_graph::io::{seal_frame, take_frame, FRAME_HEADER};
use loom_graph::StreamElement;
use loom_obs::{Histogram, SpanTimer};
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the write-ahead log inside a durability root: the segment
/// that holds record 0.
pub const WAL_FILE: &str = "wal.log";

/// Magic header identifying a LOOM WAL file.
const WAL_MAGIC: &[u8; 8] = b"LOOMWAL1";

/// Upper bound on a single record's payload — a batch far larger than any
/// realistic ingest chunk, small enough that a corrupt length prefix cannot
/// drive a giant allocation.
const MAX_RECORD: usize = 64 << 20;

/// One segment of a durability root's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The number of the first record it holds.
    pub first: u64,
    /// Its file.
    pub path: PathBuf,
}

/// The file under `root` of the segment whose first record is `first`.
pub fn segment_path(root: &Path, first: u64) -> PathBuf {
    match first {
        0 => root.join(WAL_FILE),
        _ => root.join(format!("wal-{first:020}.log")),
    }
}

/// The first record of the segment a file named `name` holds, if it is one.
fn segment_first(name: &str) -> Option<u64> {
    if name == WAL_FILE {
        return Some(0);
    }
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let first = digits.parse().ok().filter(|&first| first > 0)?;
    (digits.len() == 20 && digits.bytes().all(|b| b.is_ascii_digit())).then_some(first)
}

/// Every log segment under `root`, in record order; none for a root that
/// does not exist.
pub fn segments(root: &Path) -> Result<Vec<Segment>> {
    Ok(listing(root)?.0)
}

/// [`segments`], and the temporary files of rotations that never reached
/// their rename (`wal-<R>.log.tmp`, see [`Wal::rotate`]).
fn listing(root: &Path) -> Result<(Vec<Segment>, Vec<PathBuf>)> {
    let entries = match fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Default::default()),
        Err(e) => return Err(StoreError::io(root, e)),
    };
    let (mut found, mut stale) = (Vec::new(), Vec::new());
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(root, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(first) = segment_first(name) {
            found.push(Segment {
                first,
                path: entry.path(),
            });
        } else if name.strip_suffix(".tmp").and_then(segment_first).is_some() {
            stale.push(entry.path());
        }
    }
    found.sort_by_key(|segment| segment.first);
    Ok((found, stale))
}

/// Create the file at `path` as an empty log — the magic header, synced —
/// truncating any file there.
fn create_log(path: &Path) -> Result<File> {
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
    Ok(file)
}

fn sync_dir(path: &Path) -> Result<()> {
    File::open(path)
        .and_then(|d| d.sync_all())
        .map_err(|e| StoreError::io(path, e))
}

/// An open, append-ready write-ahead log: a single file, or the newest
/// segment of a root's log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// The number of the first record in `file`.
    first: u64,
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
        Ok(Self {
            file: create_log(path)?,
            path: path.to_path_buf(),
            first: 0,
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
        let wal = match path.exists() {
            true => Self::reopen(path, 0, &replay)?,
            false => Self::create(path)?,
        };
        Ok((wal, replay))
    }

    /// Open the existing file at `path`, whose first record is `first`, for
    /// appending after `replay` — what [`Wal::replay`] reported of this very
    /// file — truncating the torn tail it found (and syncing) so the next
    /// append starts at a clean frame boundary.
    fn reopen(path: &Path, first: u64, replay: &WalReplay) -> Result<Self> {
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
            first,
            records: first + replay.records,
            frame: Vec::new(),
            fsync_hist: None,
        })
    }

    /// Close this segment and continue the log in a new one beside it,
    /// starting at record [`Wal::records`] ([`segment_path`]); returns
    /// whether it did. A segment that holds no record yet is kept as the
    /// current one. The new segment's header is written under a temporary
    /// name, synced and renamed into place, and the directory synced, so a
    /// crash leaves either no new segment or an empty, well-formed one; a
    /// temporary file it leaves is no segment, and the next checkpoint's
    /// `retire_segments` deletes it. Once
    /// the rename has happened the log appends to the new segment, even if
    /// the directory sync then fails.
    pub fn rotate(&mut self) -> Result<bool> {
        if self.records == self.first {
            return Ok(false);
        }
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let path = segment_path(&dir, self.records);
        let tmp = path.with_extension("log.tmp");
        let file = create_log(&tmp)?;
        fs::rename(&tmp, &path).map_err(|e| StoreError::io(&path, e))?;
        self.file = file;
        self.path = path;
        self.first = self.records;
        sync_dir(&dir)?;
        Ok(true)
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

    /// Number of records in the log's whole history, every segment's —
    /// the WAL position recorded in checkpoint manifests.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// What [`replay_log`] read of a durability root's log.
#[derive(Debug, Default)]
pub(crate) struct LogReplay {
    /// The first record decoded: the first of the segment holding the
    /// record asked for (0 for a root with no segment).
    pub first: u64,
    /// The batches from record `first` on, in append order.
    pub batches: Vec<Vec<StreamElement>>,
    /// Records in the log's whole history: `first` plus the batches decoded.
    pub records: u64,
    /// Bytes of torn tail past the newest segment's last good frame.
    pub truncated_bytes: u64,
    /// The newest segment as read (its batches moved to `batches`), for the
    /// resume; `None` when the root holds no segment.
    newest: Option<(Segment, WalReplay)>,
}

impl LogReplay {
    /// Open the log of `root` — the root this was read from — for appending:
    /// the newest segment, its torn tail truncated (and synced), or a new
    /// [`WAL_FILE`] when the root holds no segment. The only step of
    /// resuming a log that writes.
    pub(crate) fn resume(&self, root: &Path) -> Result<Wal> {
        match &self.newest {
            Some((segment, replay)) => Wal::reopen(&segment.path, segment.first, replay),
            None => Wal::create(&segment_path(root, 0)),
        }
    }
}

/// Read `root`'s log from the segment holding record `from` — the last one
/// starting at or below it — through the newest, without opening it for
/// append. Segments wholly below it are neither read nor required: a
/// retirement that was interrupted, or persisted out of order, leaves them
/// behind. A root with no segment reads as an empty log.
///
/// # Errors
///
/// What [`Wal::replay`] refuses in any segment read; and
/// [`StoreError::Corrupt`] — naming the missing record range — when the
/// root holds segments but none starts at or below `from`, or two segments
/// read are not contiguous; or when any segment but the newest has a torn
/// frame.
pub(crate) fn replay_log(root: &Path, from: u64) -> Result<LogReplay> {
    let all = segments(root)?;
    let chain = match all.iter().rposition(|segment| segment.first <= from) {
        Some(start) => &all[start..],
        None if all.is_empty() => return Ok(LogReplay::default()),
        None => return Err(missing(root, from, all[0].first)),
    };
    let mut log = LogReplay {
        first: chain[0].first,
        records: chain[0].first,
        ..LogReplay::default()
    };
    for (i, segment) in chain.iter().enumerate() {
        if segment.first > log.records {
            return Err(missing(root, log.records, segment.first));
        }
        if segment.first < log.records {
            return Err(StoreError::corrupt(
                &segment.path,
                format!(
                    "segment starts at record {}, but the one before it ends at record {}",
                    segment.first, log.records
                ),
            ));
        }
        let mut replay = Wal::replay(&segment.path)?;
        log.records += replay.records;
        log.batches.append(&mut replay.batches);
        if i + 1 < chain.len() {
            if replay.truncated_bytes > 0 {
                return Err(StoreError::corrupt(
                    &segment.path,
                    format!(
                        "torn frame after record {} in a segment that is not the newest",
                        log.records
                    ),
                ));
            }
        } else {
            log.truncated_bytes = replay.truncated_bytes;
            log.newest = Some((segment.clone(), replay));
        }
    }
    Ok(log)
}

fn missing(root: &Path, from: u64, to: u64) -> StoreError {
    StoreError::corrupt(root, format!("log is missing records {from}..{to}"))
}

/// What [`retire_segments`] deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Retired {
    /// The first record the log still holds.
    pub below: u64,
    /// Segments deleted.
    pub segments: u64,
    /// Bytes they held.
    pub bytes: u64,
}

/// Delete, oldest first, every segment of `root`'s log whose successor
/// starts at or below `floor` — the lowest record any checkpoint on disk
/// replays the log from — so the log keeps the segment holding `floor` and
/// everything after it. The newest segment is never deleted. Then delete
/// the temporary file of every rotation a crash cut short: nothing rotates
/// while a checkpoint retires, so each one is stale. Stops at the first
/// failure; what is left is retired by a later call.
pub(crate) fn retire_segments(root: &Path, floor: u64) -> Result<Retired> {
    let (all, stale) = listing(root)?;
    let mut retired = Retired {
        below: all.first().map_or(0, |segment| segment.first),
        segments: 0,
        bytes: 0,
    };
    for pair in all.windows(2) {
        let (old, next) = (&pair[0], &pair[1]);
        if next.first > floor {
            break;
        }
        let bytes = fs::metadata(&old.path)
            .map_err(|e| StoreError::io(&old.path, e))?
            .len();
        fs::remove_file(&old.path).map_err(|e| StoreError::io(&old.path, e))?;
        retired.below = next.first;
        retired.segments += 1;
        retired.bytes += bytes;
    }
    for tmp in stale {
        fs::remove_file(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
    }
    Ok(retired)
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

    /// The first record of every segment under `dir`.
    fn firsts(dir: &Path) -> Vec<u64> {
        segments(dir).unwrap().iter().map(|s| s.first).collect()
    }

    #[test]
    fn segments_are_named_for_their_first_record_and_listed_in_order() {
        let dir = tmpdir("names");
        assert_eq!(segment_path(&dir, 0), dir.join(WAL_FILE));
        assert_eq!(
            segment_path(&dir, 147),
            dir.join("wal-00000000000000000147.log")
        );
        for first in [147, 0, 9] {
            Wal::create(&segment_path(&dir, first)).unwrap();
        }
        // Record 0 under a second name, a short number, a rotation's
        // temporary file: none of them is a segment.
        for name in [
            "wal-00000000000000000000.log",
            "wal-147.log",
            "wal-+0000000000000000005.log",
            "wal-00000000000000000005.log.tmp",
        ] {
            std::fs::write(dir.join(name), WAL_MAGIC).unwrap();
        }
        assert_eq!(firsts(&dir), [0, 9, 147]);
        assert!(segments(&dir.join("absent")).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_cuts_the_log_at_its_next_record() {
        let dir = tmpdir("rotate");
        let mut wal = Wal::create(&segment_path(&dir, 0)).unwrap();
        assert!(!wal.rotate().unwrap(), "an empty segment stays current");
        for i in 0..3 {
            wal.append(&batch(i * 10)).unwrap();
        }
        assert!(wal.rotate().unwrap());
        assert!(!wal.rotate().unwrap());
        assert_eq!(wal.path(), segment_path(&dir, 3));
        assert_eq!(std::fs::read(wal.path()).unwrap(), WAL_MAGIC);
        wal.append(&batch(30)).unwrap();
        assert_eq!(wal.records(), 4);
        drop(wal);
        let whole = replay_log(&dir, 0).unwrap();
        assert_eq!((whole.first, whole.records, whole.batches.len()), (0, 4, 4));
        // From any record at or past the cut, only the newest segment is read.
        for from in [3, 4, 99] {
            let tail = replay_log(&dir, from).unwrap();
            assert_eq!((tail.first, tail.records), (3, 4));
            assert_eq!(tail.batches, [batch(30)]);
        }
        // The resumed log appends to the newest segment and numbers on.
        let mut wal = replay_log(&dir, 3).unwrap().resume(&dir).unwrap();
        assert_eq!(wal.records(), 4);
        wal.append(&batch(40)).unwrap();
        assert!(wal.rotate().unwrap());
        assert_eq!(wal.path(), segment_path(&dir, 5));
        assert_eq!(firsts(&dir), [0, 3, 5]);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3, "no file left");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A log under `dir` whose segments start at records 0, 2 and 4, five
    /// records in all.
    fn three_segments(dir: &Path) {
        let mut wal = Wal::create(&segment_path(dir, 0)).unwrap();
        for i in 0..5 {
            wal.append(&batch(i * 10)).unwrap();
            if i % 2 == 1 {
                wal.rotate().unwrap();
            }
        }
        assert_eq!(firsts(dir), [0, 2, 4]);
    }

    #[test]
    fn retirement_keeps_the_segment_holding_the_floor_and_the_newest() {
        let dir = tmpdir("retire");
        three_segments(&dir);
        let bytes = std::fs::metadata(segment_path(&dir, 0)).unwrap().len();
        // Record 1 lives in the first segment: nothing goes.
        assert_eq!(retire_segments(&dir, 1).unwrap().segments, 0);
        assert_eq!(
            retire_segments(&dir, 3).unwrap(),
            Retired {
                below: 2,
                segments: 1,
                bytes,
            }
        );
        // However high the floor, the newest segment stays.
        let retired = retire_segments(&dir, u64::MAX).unwrap();
        assert_eq!((retired.below, retired.segments), (4, 1));
        assert_eq!(firsts(&dir), [4]);
        assert_eq!(replay_log(&dir, 4).unwrap().records, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_gap_or_a_torn_frame_before_the_newest_segment_is_refused() {
        let dir = tmpdir("chain");
        three_segments(&dir);
        assert_eq!(replay_log(&dir, 0).unwrap().records, 5);
        let refused = |dir: &Path, from: u64, expected: &str| match replay_log(dir, from) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains(expected), "{detail}");
            }
            other => panic!("expected Corrupt ({expected}), got {other:?}"),
        };
        for first in [2, 0] {
            let path = segment_path(&dir, first);
            let raw = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            // A segment below the record asked for is not needed.
            assert_eq!(replay_log(&dir, 4).unwrap().first, 4);
            std::fs::write(&path, raw).unwrap();
        }
        std::fs::remove_file(segment_path(&dir, 2)).unwrap();
        refused(&dir, 0, "missing records 2..4");
        refused(&dir, 3, "missing records 2..4");
        std::fs::remove_file(segment_path(&dir, 0)).unwrap();
        refused(&dir, 1, "missing records 1..4");
        std::fs::remove_dir_all(&dir).unwrap();

        // A torn frame is a crash mid-append only in the newest segment.
        let dir = tmpdir("chain-torn");
        three_segments(&dir);
        for first in [4, 2] {
            let path = segment_path(&dir, first);
            let mut raw = std::fs::read(&path).unwrap();
            raw.extend_from_slice(&[0xBE, 0xEF]);
            std::fs::write(&path, raw).unwrap();
        }
        refused(
            &dir,
            2,
            "torn frame after record 4 in a segment that is not the newest",
        );
        assert_eq!(replay_log(&dir, 4).unwrap().truncated_bytes, 2);
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
