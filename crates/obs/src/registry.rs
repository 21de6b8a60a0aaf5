//! The metric registry: named, labelled series backed by lock-free
//! instruments.
//!
//! Registration (the first `counter`/`gauge`/`histogram` call for a series)
//! takes a write lock; every call after that is a read-locked lookup, and
//! the returned handles are `Arc`-shared atomics — so the intended usage is
//! to **resolve handles once** (at engine construction or worker spawn) and
//! record through them lock-free on the hot path. Series are addressed by a
//! static metric id plus label dimensions (shard, partitioner, plan
//! strategy, …).

use crate::hist::{Histogram, HistogramSnapshot};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// One label dimension: a static key and its value for this series.
pub type Label = (&'static str, String);

/// A series address: static metric id plus ordered label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// The metric id (dotted stage-style name, e.g. `serve.execute`).
    pub name: &'static str,
    /// Label dimensions, sorted by key at registration.
    pub labels: Vec<Label>,
}

impl SeriesKey {
    fn new(name: &'static str, labels: &[Label]) -> Self {
        let mut labels = labels.to_vec();
        labels.sort();
        Self { name, labels }
    }
}

impl std::fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}=\"{v}\"")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// A monotonically increasing counter handle (cloneable, lock-free).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a settable signed level (cloneable, lock-free).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the level.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adjust the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the level to `value` if it is higher (high-water marks).
    #[inline]
    pub fn raise(&self, value: i64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Series {
    counters: BTreeMap<SeriesKey, Counter>,
    gauges: BTreeMap<SeriesKey, Gauge>,
    histograms: BTreeMap<SeriesKey, Arc<Histogram>>,
}

/// The registry: get-or-create instruments by `(metric id, labels)` and
/// snapshot everything for export.
#[derive(Default)]
pub struct MetricRegistry {
    series: RwLock<Series>,
}

impl std::fmt::Debug for MetricRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let series = self.series.read();
        f.debug_struct("MetricRegistry")
            .field("counters", &series.counters.len())
            .field("gauges", &series.gauges.len())
            .field("histograms", &series.histograms.len())
            .finish()
    }
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter for `(name, labels)`, created on first use.
    pub fn counter(&self, name: &'static str, labels: &[Label]) -> Counter {
        let key = SeriesKey::new(name, labels);
        if let Some(c) = self.series.read().counters.get(&key) {
            return c.clone();
        }
        self.series.write().counters.entry(key).or_default().clone()
    }

    /// The gauge for `(name, labels)`, created on first use.
    pub fn gauge(&self, name: &'static str, labels: &[Label]) -> Gauge {
        let key = SeriesKey::new(name, labels);
        if let Some(g) = self.series.read().gauges.get(&key) {
            return g.clone();
        }
        self.series.write().gauges.entry(key).or_default().clone()
    }

    /// The histogram for `(name, labels)`, created on first use.
    pub fn histogram(&self, name: &'static str, labels: &[Label]) -> Arc<Histogram> {
        let key = SeriesKey::new(name, labels);
        if let Some(h) = self.series.read().histograms.get(&key) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.series
                .write()
                .histograms
                .entry(key)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// A point-in-time copy of every registered series, sorted by key.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let series = self.series.read();
        RegistrySnapshot {
            counters: series
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: series
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: series
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A detached copy of every series in a [`MetricRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter series, sorted by key.
    pub counters: Vec<(SeriesKey, u64)>,
    /// Gauge series, sorted by key.
    pub gauges: Vec<(SeriesKey, i64)>,
    /// Histogram series, sorted by key.
    pub histograms: Vec<(SeriesKey, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_series() {
        let reg = MetricRegistry::new();
        let shard0 = [("shard", "0".to_string())];
        let a = reg.counter("serve.admitted", &shard0);
        let b = reg.counter("serve.admitted", &shard0);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Different labels are different series.
        let other = reg.counter("serve.admitted", &[("shard", "1".to_string())]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricRegistry::new();
        let a = reg.counter("x", &[("b", "2".to_string()), ("a", "1".to_string())]);
        let b = reg.counter("x", &[("a", "1".to_string()), ("b", "2".to_string())]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn gauges_track_levels_and_high_water_marks() {
        let reg = MetricRegistry::new();
        let g = reg.gauge("serve.queue_depth", &[]);
        g.set(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
        g.raise(10);
        g.raise(5);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn snapshot_covers_every_kind() {
        let reg = MetricRegistry::new();
        reg.counter("c", &[]).inc();
        reg.gauge("g", &[]).set(-4);
        reg.histogram("h", &[]).record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].1, 1);
        assert_eq!(snap.gauges[0].1, -4);
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    fn series_key_displays_prometheus_style() {
        let key = SeriesKey::new("serve.execute", &[("shard", "2".to_string())]);
        assert_eq!(key.to_string(), "serve.execute{shard=\"2\"}");
        assert_eq!(SeriesKey::new("up", &[]).to_string(), "up");
    }
}
