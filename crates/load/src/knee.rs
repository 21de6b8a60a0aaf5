//! Saturation-knee detection over a ramp's per-step measurements.
//!
//! The knee of an open-loop ramp is the last offered rate the system kept up
//! with. Two signals mark the step *past* the knee: achieved (goodput) RPS
//! flattening below the offered rate, and the wall-clock p99 crossing a
//! configured SLO. Either alone is gameable — a system can keep p99 low by
//! rejecting everything, or keep accepting while latency explodes — so the
//! detector checks both.

use crate::report::StepMetrics;

/// Knee-detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationDetector {
    /// A step is saturated when `achieved < min_achieved_ratio × offered`.
    pub min_achieved_ratio: f64,
    /// Optional latency SLO: a step whose wall-clock p99 exceeds this is
    /// saturated regardless of its achieved rate.
    pub slo_p99_us: Option<u64>,
}

impl Default for SaturationDetector {
    fn default() -> Self {
        Self {
            min_achieved_ratio: 0.9,
            slo_p99_us: None,
        }
    }
}

impl SaturationDetector {
    /// Builder-style achieved/offered ratio threshold (clamped to (0, 1]).
    #[must_use]
    pub fn with_min_achieved_ratio(mut self, ratio: f64) -> Self {
        self.min_achieved_ratio = ratio.clamp(f64::EPSILON, 1.0);
        self
    }

    /// Builder-style p99 SLO in microseconds.
    #[must_use]
    pub fn with_slo_p99_us(mut self, slo: u64) -> Self {
        self.slo_p99_us = Some(slo);
        self
    }

    /// Find the knee: the first saturated step marks it, and the knee RPS is
    /// the previous step's offered rate (0 when the very first step is
    /// already saturated). A ramp that never saturates reports its last
    /// offered rate with [`KneeReason::NotSaturated`] — the system's
    /// capacity is at least that, but the ramp did not find its edge.
    pub fn detect(&self, steps: &[StepMetrics]) -> Knee {
        for (i, step) in steps.iter().enumerate() {
            let flattened = step.achieved_rps < self.min_achieved_ratio * step.offered_rps;
            let slo_blown = self.slo_p99_us.is_some_and(|slo| step.p99_us > slo);
            if flattened || slo_blown {
                return Knee {
                    knee_rps: if i == 0 {
                        0.0
                    } else {
                        steps[i - 1].offered_rps
                    },
                    saturated_step: Some(i),
                    reason: if flattened {
                        KneeReason::AchievedFlattened
                    } else {
                        KneeReason::SloExceeded
                    },
                };
            }
        }
        Knee {
            knee_rps: steps.last().map_or(0.0, |s| s.offered_rps),
            saturated_step: None,
            reason: KneeReason::NotSaturated,
        }
    }
}

/// What tripped saturation at the knee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KneeReason {
    /// Achieved RPS fell below the configured fraction of offered.
    AchievedFlattened,
    /// The step's wall-clock p99 crossed the SLO.
    SloExceeded,
    /// The ramp ended without saturating (knee is a lower bound).
    NotSaturated,
}

impl KneeReason {
    /// The reason's name as it appears in reports.
    pub fn name(&self) -> &'static str {
        match self {
            KneeReason::AchievedFlattened => "achieved_flattened",
            KneeReason::SloExceeded => "slo_exceeded",
            KneeReason::NotSaturated => "not_saturated",
        }
    }
}

/// A detected saturation knee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knee {
    /// The last offered rate the system kept up with (a lower bound when
    /// the ramp never saturated).
    pub knee_rps: f64,
    /// Index of the first saturated step, if the ramp found one.
    pub saturated_step: Option<usize>,
    /// Which signal tripped.
    pub reason: KneeReason,
}

impl Knee {
    /// Whether the ramp actually drove the system past its knee.
    pub fn found(&self) -> bool {
        self.saturated_step.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(index: usize, offered: f64, achieved: f64, p99_us: u64) -> StepMetrics {
        StepMetrics {
            index,
            offered_rps: offered,
            achieved_rps: achieved,
            p99_us,
            ..StepMetrics::default()
        }
    }

    #[test]
    fn knee_is_the_last_step_that_kept_up() {
        let steps = vec![
            step(0, 100.0, 99.0, 900),
            step(1, 200.0, 198.0, 1_100),
            step(2, 300.0, 296.0, 1_800),
            step(3, 400.0, 310.0, 9_000), // achieved flattens here
            step(4, 500.0, 312.0, 22_000),
        ];
        let knee = SaturationDetector::default().detect(&steps);
        assert!(knee.found());
        assert_eq!(knee.saturated_step, Some(3));
        assert_eq!(knee.knee_rps, 300.0);
        assert_eq!(knee.reason, KneeReason::AchievedFlattened);
    }

    #[test]
    fn slo_crossing_marks_the_knee_even_at_full_goodput() {
        let steps = vec![
            step(0, 100.0, 100.0, 500),
            step(1, 200.0, 200.0, 800),
            step(2, 300.0, 300.0, 5_000), // keeps up, but past the SLO
        ];
        let detector = SaturationDetector::default().with_slo_p99_us(2_000);
        let knee = detector.detect(&steps);
        assert_eq!(knee.saturated_step, Some(2));
        assert_eq!(knee.knee_rps, 200.0);
        assert_eq!(knee.reason, KneeReason::SloExceeded);
        // Without the SLO the same curve never saturates.
        let lax = SaturationDetector::default().detect(&steps);
        assert!(!lax.found());
        assert_eq!(lax.reason, KneeReason::NotSaturated);
        assert_eq!(lax.knee_rps, 300.0);
    }

    #[test]
    fn immediate_saturation_reports_a_zero_knee() {
        let steps = vec![step(0, 1_000.0, 200.0, 50_000)];
        let knee = SaturationDetector::default().detect(&steps);
        assert_eq!(knee.knee_rps, 0.0);
        assert_eq!(knee.saturated_step, Some(0));
    }

    #[test]
    fn empty_ramp_is_not_saturated() {
        let knee = SaturationDetector::default().detect(&[]);
        assert!(!knee.found());
        assert_eq!(knee.knee_rps, 0.0);
    }
}
