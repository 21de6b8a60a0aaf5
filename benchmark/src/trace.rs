//! In-memory span recorder for the traced run.
//!
//! A span is opened around every call the benchmark makes into a layer
//! (round → phase → call). Spans stay in memory and are written out as JSON
//! lines when the run ends. A span's *self time* is its duration minus the
//! part its children cover, so the self times under one round sum to the
//! round's span. The untraced run uses a disabled tracer, which records
//! nothing and reads no clock of its own.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on the benchmark's one client thread.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u64,
}

impl Tracer {
    /// A tracer that records nothing (the untraced run).
    pub fn disabled() -> Self {
        Self {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// A recording tracer.
    pub fn enabled() -> Self {
        Self {
            origin: Some(Instant::now()),
            ..Self::disabled()
        }
    }

    /// Round id stamped on every span opened from now on.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Run `f` inside a span named `name`, a child of the innermost open one.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            round: self.round,
            start_ns: origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = origin.elapsed().as_nanos() as u64;
        out
    }

    /// Run `f` inside a span and return its result with its wall time in
    /// seconds. The clock is read inside the span, and read even when the
    /// tracer is disabled: this is how every timed step is measured.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.scope(name, |_| {
            let started = Instant::now();
            let out = f();
            (out, started.elapsed().as_secs_f64())
        })
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Total duration and self time per span name, in milliseconds.
    pub fn totals_ms(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let own = self.self_times_ns();
        let mut totals: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns() as f64 / 1e6;
            entry.2 += own[span.id] as f64 / 1e6;
        }
        totals
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.id, parent, span.name, span.round, span.start_ns, span.end_ns, own[span.id]
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_span() {
        let mut tracer = Tracer::enabled();
        tracer.scope("round", |t| {
            t.scope("phase", |t| {
                t.scope("call", |_| {
                    std::hint::black_box((0..10_000u64).sum::<u64>())
                });
                t.scope("call", |_| ());
            });
            t.scope("phase", |_| ());
        });
        let own = tracer.self_times_ns();
        assert_eq!(tracer.spans().len(), 5);
        assert_eq!(own.iter().sum::<u64>(), tracer.spans()[0].duration_ns());
        assert_eq!(tracer.spans()[2].parent, Some(1));
        assert_eq!(tracer.totals_ms()["call"].0, 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::disabled();
        assert_eq!(tracer.scope("round", |t| t.scope("call", |_| 7)), 7);
        assert!(tracer.spans().is_empty());
    }
}
