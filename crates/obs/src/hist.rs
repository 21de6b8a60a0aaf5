//! Log-linear histograms: O(1) concurrent record, mergeable, quantile
//! readout without keeping (or re-sorting) sample vectors.
//!
//! The bucket layout is fixed and shared by every histogram, which is what
//! makes two histograms **mergeable** by bucket-wise addition — the property
//! the serving layer leans on: per-shard run-local histograms merge into the
//! registry's cumulative series, and two [`HistogramSnapshot`]s taken from
//! one series subtract into an interval histogram for rate reporting.
//!
//! Layout (an HdrHistogram-style log-linear grid over `u64` values):
//!
//! * values `0..32` get unit-width buckets (exact);
//! * every octave `[2^e, 2^(e+1))` above that is split into 32 equal
//!   sub-buckets, so the relative quantization error is bounded by `1/32`
//!   (≈3.1%) at every magnitude;
//! * values at or above `2^40` clamp into the top bucket (recording
//!   microseconds, that is ~12 days — far past any latency this stack
//!   charges).
//!
//! Recording is a single atomic increment plus count/sum/min/max updates —
//! no locks, no allocation — so the hot serving path can afford one per
//! query.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (`2^SUB_BITS`).
const SUB_BITS: u32 = 5;
/// Sub-bucket count: values below this get exact unit buckets.
const SUB: u64 = 1 << SUB_BITS;
/// Highest distinguished exponent; values `>= 2^(MAX_EXP + 1)` clamp.
const MAX_EXP: u32 = 39;
/// Total bucket count for the fixed layout.
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 2) as usize) * (SUB as usize);

/// Bucket index for a value (total function: large values clamp to the top).
#[inline]
fn bucket_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let e = 63 - value.leading_zeros();
    if e > MAX_EXP {
        return BUCKETS - 1;
    }
    let block = (e - SUB_BITS + 1) as usize;
    let sub = ((value >> (e - SUB_BITS)) - SUB) as usize;
    block * (SUB as usize) + sub
}

/// Inclusive upper bound of a bucket — the value quantiles report, so the
/// estimate is conservative (never below the true sample).
#[inline]
fn bucket_upper(index: usize) -> u64 {
    if index < SUB as usize {
        return index as u64;
    }
    let block = (index / SUB as usize) as u32;
    let sub = (index % SUB as usize) as u64;
    let shift = block - 1;
    ((SUB + sub) << shift) + (1u64 << shift) - 1
}

/// A concurrent log-linear histogram with the fixed bucket layout above.
///
/// `record` is lock-free and allocation-free; `snapshot` reads a consistent-
/// enough view for reporting (individual bucket reads are atomic; a snapshot
/// taken mid-record may be off by the in-flight sample, which is the usual
/// monitoring contract).
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            counts: counts.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. O(1), lock-free, allocation-free.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `value` `n` times in one update: the same buckets, count, sum,
    /// min and max as `n` calls to [`Histogram::record`]. A run of samples
    /// known to be equal (the queue waits of one push, handed over at one
    /// clock read) costs one record instead of one each. `n = 0` records
    /// nothing.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(value)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        // `n` wrapping additions of `value`, as `n` records would make.
        self.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
        // A new extreme is rare and `fetch_min` / `fetch_max` are
        // compare-exchange loops that write even when they change nothing:
        // look first. (They only ever move one way, so a stale look can
        // only cause a harmless extra attempt, never skip a needed one.)
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Record a (possibly fractional) number of microseconds, rounding to
    /// the nearest integer value. Negative and non-finite inputs record 0.
    #[inline]
    pub fn record_f64(&self, value: f64) {
        let v = if value.is_finite() && value > 0.0 {
            value.round() as u64
        } else {
            0
        };
        self.record(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Fold another histogram into this one, bucket by bucket.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter().zip(other.counts.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The `q`-th quantile (nearest rank) of everything recorded so far, as
    /// the matching bucket's inclusive upper bound; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of the histogram's state, detached from the
    /// atomics (sparse: only the non-empty buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (index, counter) in self.counts.iter().enumerate() {
            let n = counter.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((index as u32, n));
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A detached, serialisable copy of a [`Histogram`]'s state. Snapshots of
/// the shared layout merge and subtract bucket-wise, which is how interval
/// (scrape-to-scrape) quantiles are produced without resetting the live
/// series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sparse `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-th quantile (nearest rank), as the matching bucket's
    /// inclusive upper bound; 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64)
            .max(1)
            .min(self.count);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // Never report past the true maximum: the top occupied
                // bucket's upper bound can overshoot `max`.
                return bucket_upper(index as usize).min(self.max);
            }
        }
        self.max
    }

    /// Mean of all recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        while a.peek().is_some() || b.peek().is_some() {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia == ib {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else {
                        merged.push((ib, nb));
                        b.next();
                    }
                }
                (Some(&&pair), None) => {
                    merged.push(pair);
                    a.next();
                }
                (None, Some(&&pair)) => {
                    merged.push(pair);
                    b.next();
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.count - other.count, other.count) {
            (0, _) => other.min,
            (_, 0) => self.min,
            _ => self.min.min(other.min),
        };
        self.max = self.max.max(other.max);
    }

    /// The interval histogram between `earlier` (a previous snapshot of the
    /// **same** series) and this one: bucket-wise saturating subtraction.
    /// `min`/`max` cannot be recovered for an interval and are reported as
    /// the interval's quantile extremes instead.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut before = earlier.buckets.iter().peekable();
        for &(index, n) in &self.buckets {
            let prior = loop {
                match before.peek() {
                    Some(&&(i, _)) if i < index => {
                        before.next();
                        continue;
                    }
                    Some(&&(i, p)) if i == index => {
                        before.next();
                        break p;
                    }
                    _ => break 0,
                }
            };
            let delta = n.saturating_sub(prior);
            if delta > 0 {
                buckets.push((index, delta));
            }
        }
        let count = self.count.saturating_sub(earlier.count);
        let mut interval = HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min: 0,
            max: self.max,
        };
        interval.min = interval.quantile(0.0);
        interval.max = interval.quantile(1.0);
        interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unit_buckets_are_exact_below_sub() {
        for v in 0..SUB {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut last = 0usize;
        // Exhaustive over the low range, then octave edges above it.
        for v in (0..4096u64)
            .chain((12..=20u32).flat_map(|e| [1u64 << e, (1u64 << e) + 1, (1u64 << (e + 1)) - 1]))
        {
            let b = bucket_of(v);
            assert!(b >= last, "bucket index regressed at {v}");
            assert!(v <= bucket_upper(b), "{v} above its bucket bound");
            last = b;
        }
        assert!(last < BUCKETS);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 999, 12_345, 1_000_000, 87_654_321] {
            let upper = bucket_upper(bucket_of(v));
            assert!(upper >= v);
            let err = (upper - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB as f64 + 1e-9, "error {err} at {v}");
        }
    }

    #[test]
    fn huge_values_clamp_instead_of_panicking() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 60);
        assert_eq!(h.count(), 2);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_without_resorting() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        // Within one sub-bucket of the exact nearest-rank answers.
        assert!((500..=516).contains(&p50), "p50 = {p50}");
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert!((999..=1000).contains(&p999), "p999 = {p999}");
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_of_parts_equals_whole() {
        let (a, b, whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..500u64 {
            let v = v * 37 % 10_000;
            if v % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            };
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), whole.snapshot());
    }

    #[test]
    fn snapshot_since_yields_interval_counts() {
        let h = Histogram::new();
        h.record(10);
        h.record(10_000);
        let early = h.snapshot();
        h.record(20);
        h.record(20);
        let interval = h.snapshot().since(&early);
        assert_eq!(interval.count, 2);
        assert_eq!(interval.quantile(0.5), 20);
        assert_eq!(interval.min, 20);
        assert_eq!(interval.max, 20);
        // Self-diff is empty.
        let zero = h.snapshot().since(&h.snapshot());
        assert_eq!(zero.count, 0);
        assert_eq!(zero.quantile(0.99), 0);
    }

    #[test]
    fn record_f64_guards_pathological_inputs() {
        let h = Histogram::new();
        h.record_f64(-3.0);
        h.record_f64(f64::NAN);
        h.record_f64(1.6);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), 2);
    }

    /// One `record_n(v, n)` is `n` records of `v`: buckets, count, sum,
    /// min and max, so quantiles too, for each value and count alike.
    #[test]
    fn record_n_equals_n_records() {
        let (batched, single) = (Histogram::new(), Histogram::new());
        for (value, n) in [(0, 3), (17, 1), (40_000, 5), (31, 0), (1 << 45, 2), (7, 64)] {
            batched.record_n(value, n);
            for _ in 0..n {
                single.record(value);
            }
            assert_eq!(batched.snapshot(), single.snapshot(), "after {n} x {value}");
        }
        assert_eq!(batched.count(), 75);
        let empty = Histogram::new();
        empty.record_n(9, 0);
        assert_eq!(empty.snapshot(), Histogram::new().snapshot());
    }

    proptest! {
        /// Merging any split of a sample set reproduces the whole — the
        /// property that lets per-shard histograms aggregate exactly.
        #[test]
        fn prop_merge_of_parts_equals_whole(values in proptest::collection::vec(0u64..1_000_000, 0..200), mask in proptest::collection::vec(0u64..2, 0..200)) {
            let (left, right, whole) = (Histogram::new(), Histogram::new(), Histogram::new());
            for (i, &v) in values.iter().enumerate() {
                whole.record(v);
                if mask.get(i).copied().unwrap_or(0) == 1 { left.record(v) } else { right.record(v) };
            }
            left.merge(&right);
            prop_assert_eq!(left.snapshot(), whole.snapshot());
        }

        /// Snapshot-merge agrees with live merge.
        #[test]
        fn prop_snapshot_merge_matches_live_merge(a in proptest::collection::vec(0u64..100_000, 0..100), b in proptest::collection::vec(0u64..100_000, 0..100)) {
            let (ha, hb) = (Histogram::new(), Histogram::new());
            for &v in &a { ha.record(v); }
            for &v in &b { hb.record(v); }
            let mut snap = ha.snapshot();
            snap.merge(&hb.snapshot());
            ha.merge(&hb);
            prop_assert_eq!(snap, ha.snapshot());
        }

        /// Quantiles never undershoot the true value by more than one
        /// sub-bucket and never exceed the recorded maximum.
        #[test]
        fn prop_quantile_bounds(values in proptest::collection::vec(1u64..1_000_000, 1..200)) {
            let h = Histogram::new();
            for &v in &values { h.record(v); }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for &(q, idx) in &[(0.5f64, values.len().div_ceil(2) - 1), (1.0, values.len() - 1)] {
                let estimate = h.quantile(q);
                let exact = sorted[idx];
                prop_assert!(estimate >= exact, "q{q}: {estimate} < exact {exact}");
                prop_assert!(estimate <= *sorted.last().unwrap());
                let err = (estimate - exact) as f64 / exact as f64;
                prop_assert!(err <= 1.0 / SUB as f64 + 1e-9, "q{q}: err {err}");
            }
        }
    }
}
