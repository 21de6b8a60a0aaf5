//! The flight recorder: a bounded ring of recent structured events.
//!
//! Metrics say *how much*; the flight recorder says *what happened, in what
//! order*. Producers record compact structured events — admissions,
//! rejections, deadline hits, epoch publishes, checkpoint seals, WAL
//! truncations — into a bounded ring buffer (oldest evicted first). When
//! something goes wrong (a request blows its deadline, admission rejects at
//! a full queue), the owning component **latches a dump**: a copy of the
//! ring at that instant, tagged with the trigger, turning an opaque
//! `rejected: usize` counter into a diagnosable timeline.

use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

/// Default ring capacity (events retained before eviction).
pub(crate) const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// What happened. Every variant is compact plain data — recording never
/// allocates beyond the ring slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A routed request entered admission for a shard's queue.
    Admitted {
        /// Admission sequence number of the request.
        request: u64,
        /// Target worker shard.
        shard: u32,
        /// Epoch the request was routed against.
        epoch: u64,
    },
    /// Admission measured how long a request sat blocked on a full queue.
    QueueWait {
        /// Admission sequence number of the request.
        request: u64,
        /// Target worker shard.
        shard: u32,
        /// Microseconds the admission push stayed blocked.
        waited_us: u64,
    },
    /// Admission rejected a request: the queue stayed full past its
    /// deadline.
    Rejected {
        /// Admission sequence number of the request.
        request: u64,
        /// Target worker shard.
        shard: u32,
        /// Epoch the request was pinned to at rejection.
        epoch: u64,
    },
    /// A request finished with its deadline exceeded (matcher pre-flight or
    /// mid-run unwind).
    DeadlineExceeded {
        /// Admission sequence number of the request.
        request: u64,
        /// Worker shard that executed it.
        shard: u32,
        /// Epoch the execution was pinned to.
        epoch: u64,
    },
    /// A new snapshot epoch was published.
    EpochPublished {
        /// The published epoch sequence.
        epoch: u64,
    },
    /// A checkpoint was sealed (manifest written and fsynced).
    CheckpointSealed {
        /// Epoch the checkpoint captured.
        epoch: u64,
        /// WAL records the checkpoint folds in.
        wal_records: u64,
    },
    /// A torn WAL tail was truncated during recovery.
    WalTruncated {
        /// Bytes discarded past the last good frame.
        bytes: u64,
    },
    /// WAL segments every kept checkpoint had folded in were deleted.
    WalRetired {
        /// The first record the log still holds: every one below it is gone.
        below: u64,
        /// Segments deleted.
        segments: u64,
        /// Bytes those segments held.
        bytes: u64,
    },
    /// A migration pass moved vertices and rebuilt shards.
    Migrated {
        /// Vertices whose home shard changed.
        moved: u64,
        /// Epoch the migrated snapshot was published under.
        epoch: u64,
    },
    /// An epoch-compaction pass rewrote tombstone-heavy shards.
    Compacted {
        /// Tombstoned vertices physically removed.
        purged: u64,
        /// Shards rewritten by the pass.
        shards: u32,
        /// Epoch the compacted snapshot was published under.
        epoch: u64,
    },
}

impl fmt::Display for FlightKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FlightKind::Admitted {
                request,
                shard,
                epoch,
            } => write!(f, "admitted request={request} shard={shard} epoch={epoch}"),
            FlightKind::QueueWait {
                request,
                shard,
                waited_us,
            } => write!(
                f,
                "queue-wait request={request} shard={shard} waited_us={waited_us}"
            ),
            FlightKind::Rejected {
                request,
                shard,
                epoch,
            } => write!(f, "rejected request={request} shard={shard} epoch={epoch}"),
            FlightKind::DeadlineExceeded {
                request,
                shard,
                epoch,
            } => write!(
                f,
                "deadline-exceeded request={request} shard={shard} epoch={epoch}"
            ),
            FlightKind::EpochPublished { epoch } => write!(f, "epoch-published epoch={epoch}"),
            FlightKind::CheckpointSealed { epoch, wal_records } => {
                write!(
                    f,
                    "checkpoint-sealed epoch={epoch} wal_records={wal_records}"
                )
            }
            FlightKind::WalTruncated { bytes } => write!(f, "wal-truncated bytes={bytes}"),
            FlightKind::WalRetired {
                below,
                segments,
                bytes,
            } => write!(
                f,
                "wal-retired below={below} segments={segments} bytes={bytes}"
            ),
            FlightKind::Migrated { moved, epoch } => {
                write!(f, "migrated moved={moved} epoch={epoch}")
            }
            FlightKind::Compacted {
                purged,
                shards,
                epoch,
            } => {
                write!(f, "compacted purged={purged} shards={shards} epoch={epoch}")
            }
        }
    }
}

/// One recorded event: a monotone sequence number, a recorder-relative
/// timestamp, and the structured payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone event sequence (survives ring eviction, so gaps in a dump
    /// reveal how much history was evicted).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    /// What happened.
    pub kind: FlightKind,
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10}us #{:>5}] {}", self.at_us, self.seq, self.kind)
    }
}

/// A latched copy of the ring: the timeline leading up to a trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Why the dump was latched (static trigger description).
    pub reason: &'static str,
    /// Microseconds since recorder creation when the dump was taken.
    pub at_us: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Every event about admission sequence `request`, in timeline order.
    pub fn events_for_request(&self, request: u64) -> Vec<&FlightEvent> {
        self.events
            .iter()
            .filter(|e| match e.kind {
                FlightKind::Admitted { request: r, .. }
                | FlightKind::QueueWait { request: r, .. }
                | FlightKind::Rejected { request: r, .. }
                | FlightKind::DeadlineExceeded { request: r, .. } => r == request,
                _ => false,
            })
            .collect()
    }
}

impl fmt::Display for FlightDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "flight dump ({}, t={}us, {} events):",
            self.reason,
            self.at_us,
            self.events.len()
        )?;
        for event in &self.events {
            writeln!(f, "  {event}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct Ring {
    next_seq: u64,
    events: VecDeque<FlightEvent>,
}

/// The bounded event ring plus the latched last dump.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    started: Instant,
    ring: parking_lot::Mutex<Ring>,
    last_dump: parking_lot::Mutex<Option<FlightDump>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            started: Instant::now(),
            ring: parking_lot::Mutex::new(Ring::default()),
            last_dump: parking_lot::Mutex::new(None),
        }
    }

    /// Record one event, evicting the oldest when the ring is full.
    pub fn record(&self, kind: FlightKind) {
        self.record_at(Instant::now(), kind);
    }

    /// [`FlightRecorder::record`] for a caller that has just read the clock
    /// for a purpose of its own: the event is stamped `at`.
    pub fn record_at(&self, at: Instant, kind: FlightKind) {
        self.push(at, [kind]);
    }

    /// Record a batch of events that became known together — one clock
    /// read, one lock acquisition; they share a timestamp and keep their
    /// order.
    pub fn record_all(&self, kinds: impl IntoIterator<Item = FlightKind>) {
        self.push(Instant::now(), kinds);
    }

    fn push(&self, at: Instant, kinds: impl IntoIterator<Item = FlightKind>) {
        let at_us = at.saturating_duration_since(self.started).as_micros() as u64;
        let mut ring = self.ring.lock();
        for kind in kinds {
            let seq = ring.next_seq;
            ring.next_seq += 1;
            if ring.events.len() == self.capacity {
                ring.events.pop_front();
            }
            ring.events.push_back(FlightEvent { seq, at_us, kind });
        }
    }

    /// Copy the current ring out as a dump without latching it.
    pub fn dump(&self, reason: &'static str) -> FlightDump {
        FlightDump {
            reason,
            at_us: self.started.elapsed().as_micros() as u64,
            events: self.ring.lock().events.iter().copied().collect(),
        }
    }

    /// Take a dump and latch it as [`FlightRecorder::last_dump`] — called by
    /// components at the moment something went wrong (deadline blown,
    /// admission rejected). Returns the dump.
    pub fn latch(&self, reason: &'static str) -> FlightDump {
        let dump = self.dump(reason);
        *self.last_dump.lock() = Some(dump.clone());
        dump
    }

    /// The most recently latched dump, if any trigger has fired.
    pub fn last_dump(&self) -> Option<FlightDump> {
        self.last_dump.lock().clone()
    }

    /// Total events recorded (including evicted ones): the next sequence
    /// number.
    pub fn recorded(&self) -> u64 {
        self.ring.lock().next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_but_keeps_sequence() {
        let rec = FlightRecorder::new(3);
        for epoch in 0..5 {
            rec.record(FlightKind::EpochPublished { epoch });
        }
        let dump = rec.dump("test");
        assert_eq!(dump.events.len(), 3);
        assert_eq!(dump.events[0].seq, 2, "oldest two evicted");
        assert_eq!(rec.recorded(), 5);
    }

    #[test]
    fn latch_freezes_the_timeline_at_the_trigger() {
        let rec = FlightRecorder::new(8);
        rec.record(FlightKind::Admitted {
            request: 7,
            shard: 1,
            epoch: 3,
        });
        rec.record(FlightKind::Rejected {
            request: 7,
            shard: 1,
            epoch: 3,
        });
        let dump = rec.latch("admission rejected");
        rec.record(FlightKind::EpochPublished { epoch: 4 });
        let latched = rec.last_dump().expect("latched");
        assert_eq!(latched, dump);
        assert_eq!(latched.events.len(), 2, "post-trigger events excluded");
        let for_request = latched.events_for_request(7);
        assert_eq!(for_request.len(), 2);
        assert!(matches!(
            for_request[1].kind,
            FlightKind::Rejected { request: 7, .. }
        ));
    }

    #[test]
    fn timeline_renders_human_readably() {
        let rec = FlightRecorder::new(4);
        rec.record(FlightKind::CheckpointSealed {
            epoch: 2,
            wal_records: 10,
        });
        rec.record(FlightKind::WalTruncated { bytes: 3 });
        rec.record(FlightKind::WalRetired {
            below: 10,
            segments: 1,
            bytes: 96,
        });
        let text = rec.dump("render").to_string();
        assert!(text.contains("checkpoint-sealed epoch=2 wal_records=10"));
        assert!(text.contains("wal-truncated bytes=3"));
        assert!(text.contains("wal-retired below=10 segments=1 bytes=96"));
    }

    #[test]
    fn no_trigger_means_no_dump() {
        let rec = FlightRecorder::default();
        rec.record(FlightKind::EpochPublished { epoch: 1 });
        assert!(rec.last_dump().is_none());
    }
}
