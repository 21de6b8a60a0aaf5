//! # loom-obs — the telemetry subsystem
//!
//! Observability for the LOOM serving stack, built on three pieces:
//!
//! - a **metric registry** ([`MetricRegistry`]) of lock-free counters,
//!   gauges, and log-linear histograms, addressed by static metric ids plus
//!   label dimensions (shard, partitioner, plan strategy). Histograms are
//!   HdrHistogram-style: fixed bucket layout, O(1) record, mergeable
//!   bucket-wise, and p50/p99/p999 without re-sorting samples;
//! - **scoped spans** ([`SpanTimer`]): zero-allocation RAII guards that
//!   charge wall-clock into the stage histograms catalogued in [`stage`]
//!   (`ingest.wal_append`, `serve.execute`, `store.fsync`, …). A span built
//!   without a target never reads the clock, so an uninstrumented session
//!   pays one branch and stays bit-identical;
//! - a **flight recorder** ([`FlightRecorder`]): a bounded ring of
//!   structured events (admissions, rejections, deadline hits, epoch
//!   publishes, checkpoint seals, WAL truncations) that components latch
//!   into a [`FlightDump`] the moment something goes wrong.
//!
//! [`Telemetry`] bundles the three behind one `Arc` that a
//! `SessionBuilder` hands down through ingest, serve, store, and adapt.
//! [`TelemetrySnapshot`] detaches the registry for export — Prometheus
//! text, JSON lines, or interval diffs via [`TelemetrySnapshot::since`].
//!
//! ```
//! use loom_obs::{stage, SpanTimer, Telemetry};
//!
//! let telemetry = Telemetry::new();
//! let hist = telemetry.stage_histogram(stage::SERVE_EXECUTE);
//! {
//!     let _span = SpanTimer::start(Some(&hist));
//!     // ... work charged into serve.execute on drop ...
//! }
//! let snapshot = telemetry.snapshot();
//! assert!(snapshot.prometheus().contains("loom_serve_execute_count"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod export;
pub mod flight;
pub mod hist;
pub mod registry;
pub mod span;

pub use export::{validate_prometheus, TelemetryDelta, TelemetrySnapshot};
pub use flight::{FlightDump, FlightKind};
pub use hist::Histogram;
pub use registry::{Counter, Label};
pub use span::{stage, SpanTimer};

use flight::FlightRecorder;
use registry::MetricRegistry;
use std::sync::Arc;
use std::time::Instant;

/// The telemetry bundle one session shares across its stack: a metric
/// registry, a flight recorder, and the epoch zero the snapshot clock
/// counts from.
#[derive(Debug)]
pub struct Telemetry {
    registry: MetricRegistry,
    flight: FlightRecorder,
    started: Instant,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self {
            registry: MetricRegistry::new(),
            flight: FlightRecorder::default(),
            started: Instant::now(),
        }
    }
}

impl Telemetry {
    /// A fresh telemetry bundle behind the `Arc` every component clones.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The metric registry.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Microseconds since this bundle was created.
    pub(crate) fn uptime_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// The unlabelled histogram for a [`stage`] name — resolve once, then
    /// record lock-free.
    pub fn stage_histogram(&self, stage: &'static str) -> Arc<Histogram> {
        self.registry.histogram(stage, &[])
    }

    /// The per-shard histogram for a [`stage`] name.
    pub fn shard_histogram(&self, stage: &'static str, shard: u32) -> Arc<Histogram> {
        self.registry
            .histogram(stage, &[("shard", shard.to_string())])
    }

    /// A point-in-time copy of every series, timestamped against this
    /// bundle's creation.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            at_us: self.uptime_us(),
            registry: self.registry.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_registry_and_clock() {
        let t = Telemetry::new();
        t.registry().counter("ops", &[]).add(3);
        t.stage_histogram(stage::ADAPT_PLAN).record(42);
        let snap = t.snapshot();
        assert_eq!(snap.registry.counters[0].1, 3);
        assert_eq!(snap.registry.histograms[0].1.count, 1);
        assert!(snap.at_us >= 1 || snap.at_us == 0);
    }

    #[test]
    fn shard_histograms_are_distinct_series() {
        let t = Telemetry::new();
        t.shard_histogram(stage::SERVE_EXECUTE, 0).record(10);
        t.shard_histogram(stage::SERVE_EXECUTE, 1).record(20);
        let snap = t.snapshot();
        assert_eq!(snap.registry.histograms.len(), 2);
    }

    #[test]
    fn flight_recorder_is_shared_state() {
        let t = Telemetry::new();
        t.flight().record(FlightKind::EpochPublished { epoch: 1 });
        assert_eq!(t.flight().recorded(), 1);
    }
}
