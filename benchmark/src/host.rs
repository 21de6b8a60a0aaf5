//! The host-speed index: how fast the machine is *right now*.
//!
//! The benchmark runs on a few cores of a shared host whose memory system
//! slows by a fifth to a third for seconds, and sometimes for ten minutes, at
//! a time: the same in-memory ingest pass reads 4.3 M elements/s, then 2.9 M,
//! with the program unchanged. No estimator over a run's rounds can cancel a
//! spell that outlasts the run, so the spell is measured instead. A fixed
//! **reference slice** — work of the benchmark's own that never changes with
//! the program under test — is timed before and after every timed phase; the
//! phase's wall time is divided by the mean of the two slices over the
//! slice's nominal time. A timed metric is therefore wall-clock time on the
//! real code path, expressed at the reference host's undisturbed speed. The
//! raw wall-clock samples and the index are kept beside it in the result file.
//!
//! The slice mixes what the spells hit and what they spare, like the program
//! does: dependent loads over 16 MiB (memory latency, last-level cache),
//! hash-map inserts and look-ups, and a sort (branches and streaming). It
//! allocates nothing after construction.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// What one slice takes on the build host when nothing disturbs it (the
/// median over a quiet run). Only ratios between revisions matter: on
/// another host every timed metric shifts by one constant factor.
pub const NOMINAL_SLICE_S: f64 = 0.0091;

/// Slots of the pointer-chase cycle (`u32` each: 16 MiB).
const CHASE_SLOTS: usize = 4 << 20;
const CHASE_STEPS: usize = 20_000;
const TABLE_KEYS: usize = 48_000;
const SORT_KEYS: usize = 200_000;

/// The reference computation and its working set.
pub struct Reference {
    chase: Vec<u32>,
    cursor: u32,
    chase_steps: usize,
    /// The first `table_keys` go through the hash map; all are sorted.
    keys: Vec<u64>,
    table_keys: usize,
    /// Fixed hasher keys: the same probes on every run.
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    buffer: Vec<u64>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Reference {
    /// Build the working set (the same on every run) and touch all of it.
    /// `scale` divides its sizes, as it does the generators' (the self-test
    /// runs at 20; the nominal time holds at 1 only).
    pub fn new(scale: usize) -> Self {
        let scale = scale.max(1);
        // One random cycle over every slot: Sattolo's algorithm.
        let slots = CHASE_SLOTS / scale;
        let mut chase: Vec<u32> = (0..slots as u32).collect();
        let mut state = 7u64;
        for i in (1..slots).rev() {
            let j = (splitmix(&mut state) % i as u64) as usize;
            chase.swap(i, j);
        }
        let keys: Vec<u64> = (0..SORT_KEYS / scale)
            .map(|_| splitmix(&mut state))
            .collect();
        let table_keys = TABLE_KEYS / scale;
        let mut reference = Self {
            chase,
            cursor: 0,
            chase_steps: CHASE_STEPS / scale,
            table_keys,
            table: HashMap::with_capacity_and_hasher(table_keys, BuildHasherDefault::default()),
            buffer: Vec::with_capacity(keys.len()),
            keys,
        };
        reference.slice();
        reference
    }

    /// Run the reference slice once; its wall time in seconds.
    pub fn slice(&mut self) -> f64 {
        let started = Instant::now();
        let mut at = self.cursor;
        for _ in 0..self.chase_steps {
            at = self.chase[at as usize];
        }
        self.cursor = black_box(at);

        self.table.clear();
        for (i, &key) in self.keys[..self.table_keys].iter().enumerate() {
            self.table.insert(key, i as u64);
        }
        let mut sum = 0u64;
        for key in &self.keys[..self.table_keys] {
            sum = sum.wrapping_add(self.table[key]);
        }
        black_box(sum);

        self.buffer.clear();
        self.buffer.extend_from_slice(&self.keys);
        self.buffer.sort_unstable();
        black_box(self.buffer[17]);
        started.elapsed().as_secs_f64()
    }
}

/// Host-speed index of a phase from the slices run just before and just
/// after it: 1.0 on the undisturbed build host, 1.3 when the host is a
/// third slower.
pub fn index(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / (2.0 * NOMINAL_SLICE_S)
}
