//! Exporters: Prometheus text exposition, JSON-lines snapshots, and the
//! snapshot diff API for interval (scrape-to-scrape) rates.
//!
//! A [`TelemetrySnapshot`] is a detached copy of every registered series at
//! one instant. Export it whole ([`TelemetrySnapshot::prometheus`],
//! [`TelemetrySnapshot::json_lines`]) or diff it against an earlier
//! snapshot of the same registry ([`TelemetrySnapshot::since`]) to get
//! interval rates and interval histogram quantiles — the shape a periodic
//! scraper wants, produced without ever resetting the live series.

use crate::hist::HistogramSnapshot;
use crate::registry::{RegistrySnapshot, SeriesKey};
use std::fmt;
use std::fmt::Write as _;

/// Histogram quantiles every exporter reports.
const QUANTILES: &[(f64, &str)] = &[(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")];

/// A point-in-time copy of every series in a telemetry registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Microseconds since the owning [`Telemetry`](crate::Telemetry) was
    /// created.
    pub at_us: u64,
    /// The registry's series.
    pub registry: RegistrySnapshot,
}

/// Prometheus metric name for a series: `loom_` prefix, dots and dashes
/// flattened to underscores.
fn prom_name(key: &SeriesKey, suffix: &str) -> String {
    let mut name = String::with_capacity(key.name.len() + 8);
    name.push_str("loom_");
    for c in key.name.chars() {
        name.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    name.push_str(suffix);
    name
}

/// `{k="v",...}` with escaped values, or the empty string for no labels.
fn prom_labels(key: &SeriesKey, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = key
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn json_labels(key: &SeriesKey) -> String {
    let pairs: Vec<String> = key
        .labels
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\":\"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{{}}}", pairs.join(","))
}

impl TelemetrySnapshot {
    /// Render the snapshot in the Prometheus text exposition format:
    /// counters as `<name>_total`, gauges plain, histograms as summaries
    /// (`quantile` labels plus `_sum`/`_count`).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.registry.counters {
            let name = prom_name(key, "_total");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{} {value}", prom_labels(key, None));
        }
        for (key, value) in &self.registry.gauges {
            let name = prom_name(key, "");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{} {value}", prom_labels(key, None));
        }
        for (key, hist) in &self.registry.histograms {
            let name = prom_name(key, "");
            let _ = writeln!(out, "# TYPE {name} summary");
            for &(q, tag) in QUANTILES {
                let _ = writeln!(
                    out,
                    "{name}{} {}",
                    prom_labels(key, Some(("quantile", tag))),
                    hist.quantile(q)
                );
            }
            let _ = writeln!(out, "{name}_sum{} {}", prom_labels(key, None), hist.sum);
            let _ = writeln!(out, "{name}_count{} {}", prom_labels(key, None), hist.count);
        }
        out
    }

    /// Render the snapshot as JSON lines: one self-contained object per
    /// series (histograms carry count/sum/min/max and p50/p99/p999).
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.registry.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"labels\":{},\"value\":{value}}}",
                key.name,
                json_labels(key)
            );
        }
        for (key, value) in &self.registry.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"labels\":{},\"value\":{value}}}",
                key.name,
                json_labels(key)
            );
        }
        for (key, hist) in &self.registry.histograms {
            let _ = writeln!(
                out,
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"labels\":{},\"count\":{},\
                 \"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
                key.name,
                json_labels(key),
                hist.count,
                hist.sum,
                hist.min,
                hist.max,
                hist.quantile(0.5),
                hist.quantile(0.99),
                hist.quantile(0.999),
            );
        }
        out
    }

    /// The interval between `earlier` (a previous snapshot of the same
    /// registry) and this one: counter deltas + per-second rates, current
    /// gauge levels, and interval histograms (bucket-wise subtraction, so
    /// interval quantiles are exact with respect to the bucket layout).
    pub fn since(&self, earlier: &TelemetrySnapshot) -> TelemetryDelta {
        let interval_us = self.at_us.saturating_sub(earlier.at_us);
        let find_counter = |key: &SeriesKey| {
            earlier
                .registry
                .counters
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0, |(_, v)| *v)
        };
        let find_hist = |key: &SeriesKey| {
            earlier
                .registry
                .histograms
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, h)| h.clone())
                .unwrap_or_default()
        };
        TelemetryDelta {
            interval_us,
            counters: self
                .registry
                .counters
                .iter()
                .map(|(key, value)| (key.clone(), value.saturating_sub(find_counter(key))))
                .collect(),
            gauges: self.registry.gauges.clone(),
            histograms: self
                .registry
                .histograms
                .iter()
                .map(|(key, hist)| (key.clone(), hist.since(&find_hist(key))))
                .collect(),
        }
    }
}

/// What changed between two snapshots of one registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryDelta {
    /// Interval length in microseconds.
    pub interval_us: u64,
    /// Counter deltas over the interval, sorted by key.
    pub counters: Vec<(SeriesKey, u64)>,
    /// Gauge levels at the end of the interval, sorted by key.
    pub gauges: Vec<(SeriesKey, i64)>,
    /// Interval histograms (only the samples recorded inside the interval),
    /// sorted by key.
    pub histograms: Vec<(SeriesKey, HistogramSnapshot)>,
}

impl TelemetryDelta {
    /// Interval length in seconds.
    pub(crate) fn interval_secs(&self) -> f64 {
        self.interval_us as f64 / 1e6
    }

    /// A counter's per-second rate over the interval (0 for an empty
    /// interval).
    pub fn rate(&self, key: &SeriesKey) -> f64 {
        if self.interval_us == 0 {
            return 0.0;
        }
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, delta)| *delta as f64 / self.interval_secs())
    }

    /// Every labelled series of histogram `name` merged into one interval
    /// snapshot — the per-step cross-shard distribution an open-loop ramp
    /// reads its queue-wait and latency quantiles from.
    pub fn histogram_merged(&self, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for (key, hist) in &self.histograms {
            if key.name == name {
                merged.merge(hist);
            }
        }
        merged
    }
}

impl fmt::Display for TelemetryDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "interval {:.3}s:", self.interval_secs())?;
        for (key, delta) in &self.counters {
            if *delta > 0 {
                writeln!(f, "  {key} +{delta} ({:.1}/s)", self.rate(key))?;
            }
        }
        for (key, value) in &self.gauges {
            writeln!(f, "  {key} = {value}")?;
        }
        for (key, hist) in &self.histograms {
            if hist.count > 0 {
                writeln!(
                    f,
                    "  {key} n={} p50={}us p99={}us p999={}us max={}us",
                    hist.count,
                    hist.quantile(0.5),
                    hist.quantile(0.99),
                    hist.quantile(0.999),
                    hist.max
                )?;
            }
        }
        Ok(())
    }
}

/// Validate a Prometheus text exposition: every non-comment line must be
/// `name[{labels}] value` with a well-formed metric name, balanced label
/// braces, and a numeric value. Returns the distinct series names, sorted.
///
/// This is the checker the CI telemetry smoke step runs over
/// `examples/telemetry.rs` output — a deliberate consumer-side guard that
/// the exposition stays machine-parseable.
///
/// # Errors
///
/// The first malformed line, described with its line number.
pub fn validate_prometheus(text: &str) -> Result<Vec<String>, String> {
    let mut names = std::collections::BTreeSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| Err(format!("line {}: {what}: {line}", lineno + 1));
        let (series, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return err("expected `name value`"),
        };
        if value.parse::<f64>().is_err() {
            return err("value is not numeric");
        }
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return err("unbalanced label braces");
                }
                let body = &labels[..labels.len() - 1];
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let well_formed = pair
                        .split_once('=')
                        .is_some_and(|(_, v)| v.starts_with('"') && v.ends_with('"'));
                    if !well_formed {
                        return err("malformed label pair");
                    }
                }
                name
            }
            None => series,
        };
        let valid_name = !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit());
        if !valid_name {
            return err("invalid metric name");
        }
        names.insert(name.to_string());
    }
    Ok(names.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricRegistry;

    fn sample_snapshot() -> TelemetrySnapshot {
        let reg = MetricRegistry::new();
        reg.counter("serve.admitted", &[("shard", "0".to_string())])
            .add(5);
        reg.gauge("serve.queue_depth", &[("shard", "0".to_string())])
            .set(2);
        let h = reg.histogram("serve.execute", &[("shard", "0".to_string())]);
        for v in [100, 200, 300] {
            h.record(v);
        }
        TelemetrySnapshot {
            at_us: 1_000_000,
            registry: reg.snapshot(),
        }
    }

    #[test]
    fn prometheus_exposition_validates_and_names_series() {
        let text = sample_snapshot().prometheus();
        let names = validate_prometheus(&text).expect("valid exposition");
        assert!(names.contains(&"loom_serve_admitted_total".to_string()));
        assert!(names.contains(&"loom_serve_queue_depth".to_string()));
        assert!(names.contains(&"loom_serve_execute".to_string()));
        assert!(names.contains(&"loom_serve_execute_count".to_string()));
        assert!(text.contains("quantile=\"0.99\""));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("loom_x{unbalanced 1").is_err());
        assert!(validate_prometheus("loom_x not_a_number").is_err());
        assert!(validate_prometheus("1bad_name 2").is_err());
        assert!(validate_prometheus("loom_x{k=unquoted} 2").is_err());
        assert!(validate_prometheus("# just a comment\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn json_lines_are_one_object_per_series() {
        let out = sample_snapshot().json_lines();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(out.contains("\"type\":\"histogram\""));
        assert!(out.contains("\"p99\":"));
    }

    #[test]
    fn since_reports_interval_rates_and_quantiles() {
        let reg = MetricRegistry::new();
        let c = reg.counter("ops", &[]);
        let h = reg.histogram("lat", &[]);
        c.add(10);
        h.record(1_000_000);
        let early = TelemetrySnapshot {
            at_us: 0,
            registry: reg.snapshot(),
        };
        c.add(20);
        h.record(5);
        h.record(5);
        let late = TelemetrySnapshot {
            at_us: 2_000_000,
            registry: reg.snapshot(),
        };
        let delta = late.since(&early);
        assert_eq!(delta.interval_secs(), 2.0);
        let key = &delta.counters[0].0;
        assert_eq!(delta.rate(key), 10.0, "20 more ops over 2s");
        // The interval histogram sees only the two new samples.
        let (_, interval) = &delta.histograms[0];
        assert_eq!(interval.count, 2);
        assert_eq!(interval.quantile(0.99), 5);
        let text = delta.to_string();
        assert!(text.contains("+20"));
        assert!(text.contains("p99=5us"));
    }

    #[test]
    fn delta_sums_and_merges_across_labelled_series() {
        let reg = MetricRegistry::new();
        for shard in 0..3u32 {
            reg.counter("serve.rejected", &[("shard", shard.to_string())])
                .add(u64::from(shard) + 1);
            let h = reg.histogram("serve.queue_wait", &[("shard", shard.to_string())]);
            h.record(10 * (u64::from(shard) + 1));
        }
        let early = TelemetrySnapshot {
            at_us: 0,
            registry: RegistrySnapshot::default(),
        };
        let late = TelemetrySnapshot {
            at_us: 1_000_000,
            registry: reg.snapshot(),
        };
        let delta = late.since(&early);
        // 1 + 2 + 3 rejections across the three shard series.
        let sum = |name: &str| -> u64 {
            let series = delta.counters.iter().filter(|(k, _)| k.name == name);
            series.map(|(_, d)| d).sum()
        };
        assert_eq!(sum("serve.rejected"), 6);
        assert_eq!(sum("serve.admitted"), 0);
        let merged = delta.histogram_merged("serve.queue_wait");
        assert_eq!(merged.count, 3);
        // The merged p99 is the largest shard's sample (log-linear bucket
        // upper bound, ≤ 1/32 above 30).
        assert!(merged.quantile(0.99) >= 30);
        assert_eq!(delta.histogram_merged("missing").count, 0);
    }
}
