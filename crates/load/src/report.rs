//! Capacity-report types: the per-step measurements of one ramp and the
//! human-readable text report over them.

use crate::driver::CapacityRun;
use std::fmt::Write as _;

/// Everything measured over one ramp step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepMetrics {
    /// Position in the ramp, from 0.
    pub index: usize,
    /// The step's scheduled (offered) arrival rate.
    pub offered_rps: f64,
    /// Scheduled arrivals in the step.
    pub offered: usize,
    /// Arrivals the engine admitted.
    pub admitted: usize,
    /// Arrivals rejected at admission (home worker's inbox full).
    pub rejected: usize,
    /// Arrivals the driver shed because it was running hopelessly late.
    pub shed: usize,
    /// Completions observed during the step's wall-clock window (including
    /// deadline-expired ones).
    pub completed: usize,
    /// Of those completions, how many came back flagged `deadline_exceeded`.
    pub deadline_expired: usize,
    /// Goodput: completions *not* deadline-expired ÷ the step duration.
    pub achieved_rps: f64,
    /// Wall-clock median sojourn (arrival → completion observed), µs.
    pub p50_us: u64,
    /// Wall-clock p99 sojourn, µs.
    pub p99_us: u64,
    /// Wall-clock p99.9 sojourn, µs.
    pub p999_us: u64,
    /// p99 wall-clock queue wait (enqueue → dequeue) across all shards over
    /// the step, from the telemetry interval diff; 0 on unobserved engines.
    pub queue_wait_p99_us: u64,
    /// Requests still in flight when the step window closed — the
    /// queue-growth signal an open-loop driver exists to expose.
    pub inflight_end: usize,
}

impl StepMetrics {
    /// Achieved ÷ offered (1.0 for an idle step, so an empty step never
    /// reads as saturated).
    pub fn achieved_ratio(&self) -> f64 {
        if self.offered_rps <= 0.0 {
            1.0
        } else {
            self.achieved_rps / self.offered_rps
        }
    }
}

impl CapacityRun {
    /// A human-readable report: the per-step table, then the knee.
    pub fn text_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "capacity ramp · {} arrivals · seed {}",
            self.process.name(),
            self.seed
        );
        let _ = writeln!(
            out,
            "  {:>10} {:>10} {:>7} {:>6} {:>5} {:>9} {:>9} {:>9} {:>10} {:>8}",
            "offered",
            "achieved",
            "admit",
            "rej",
            "shed",
            "p50_us",
            "p99_us",
            "p999_us",
            "qwait99_us",
            "inflight"
        );
        for s in &self.steps {
            let _ = writeln!(
                out,
                "  {:>10.1} {:>10.1} {:>7} {:>6} {:>5} {:>9} {:>9} {:>9} {:>10} {:>8}",
                s.offered_rps,
                s.achieved_rps,
                s.admitted,
                s.rejected,
                s.shed,
                s.p50_us,
                s.p99_us,
                s.p999_us,
                s.queue_wait_p99_us,
                s.inflight_end
            );
        }
        let _ = writeln!(
            out,
            "  knee: {:.1} rps ({})",
            self.knee.knee_rps,
            self.knee.reason.name()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::knee::detect_knee;

    fn sample_run() -> CapacityRun {
        let steps = vec![
            StepMetrics {
                index: 0,
                offered_rps: 100.0,
                offered: 25,
                admitted: 25,
                completed: 25,
                achieved_rps: 100.0,
                p50_us: 800,
                p99_us: 1_500,
                p999_us: 1_900,
                ..StepMetrics::default()
            },
            StepMetrics {
                index: 1,
                offered_rps: 200.0,
                offered: 50,
                admitted: 30,
                rejected: 20,
                completed: 30,
                achieved_rps: 120.0,
                p50_us: 2_000,
                p99_us: 9_000,
                p999_us: 11_000,
                ..StepMetrics::default()
            },
        ];
        let knee = detect_knee(&steps);
        CapacityRun {
            process: ArrivalProcess::Constant,
            seed: 7,
            steps,
            knee,
            drained: 0,
            report: loom_serve::ServeReport::default(),
        }
    }

    #[test]
    fn text_report_tabulates_steps_and_knees() {
        let text = sample_run().text_report();
        assert!(text.contains("constant arrivals · seed 7"));
        assert!(text.contains("knee: 100.0 rps (achieved_flattened)"));
        assert!(text.contains("offered"));
        assert!(text.contains("qwait99_us"));
        // Title, header, one row per step, knee.
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn achieved_ratio_guards_idle_steps() {
        assert_eq!(StepMetrics::default().achieved_ratio(), 1.0);
        let s = StepMetrics {
            offered_rps: 200.0,
            achieved_rps: 150.0,
            ..StepMetrics::default()
        };
        assert!((s.achieved_ratio() - 0.75).abs() < 1e-12);
    }
}
