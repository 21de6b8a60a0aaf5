//! Saturation-knee detection over a ramp's per-step measurements.
//!
//! The knee of an open-loop ramp is the last offered rate the system kept up
//! with. The step *past* the knee is the first whose achieved (goodput) RPS
//! flattens below 90 % of its offered rate. Goodput cannot be gamed by
//! shedding load: a system that keeps its latency low by rejecting arrivals
//! achieves less than it is offered.

use crate::report::StepMetrics;

/// A step is saturated when `achieved < MIN_ACHIEVED_RATIO × offered`.
const MIN_ACHIEVED_RATIO: f64 = 0.9;

/// Find the knee: the first saturated step marks it, and the knee RPS is the
/// previous step's offered rate (0 when the very first step is already
/// saturated). A ramp that never saturates reports its last offered rate
/// with [`KneeReason::NotSaturated`] — the system's capacity is at least
/// that, but the ramp did not find its edge.
pub fn detect_knee(steps: &[StepMetrics]) -> Knee {
    for (i, step) in steps.iter().enumerate() {
        if step.achieved_rps < MIN_ACHIEVED_RATIO * step.offered_rps {
            return Knee {
                knee_rps: if i == 0 {
                    0.0
                } else {
                    steps[i - 1].offered_rps
                },
                saturated_step: Some(i),
                reason: KneeReason::AchievedFlattened,
            };
        }
    }
    Knee {
        knee_rps: steps.last().map_or(0.0, |s| s.offered_rps),
        saturated_step: None,
        reason: KneeReason::NotSaturated,
    }
}

/// What tripped saturation at the knee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KneeReason {
    /// Achieved RPS fell below 90 % of offered.
    AchievedFlattened,
    /// The ramp ended without saturating (knee is a lower bound).
    NotSaturated,
}

impl KneeReason {
    /// The reason's name as it appears in reports.
    pub fn name(&self) -> &'static str {
        match self {
            KneeReason::AchievedFlattened => "achieved_flattened",
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

    fn step(index: usize, offered: f64, achieved: f64) -> StepMetrics {
        StepMetrics {
            index,
            offered_rps: offered,
            achieved_rps: achieved,
            ..StepMetrics::default()
        }
    }

    #[test]
    fn knee_is_the_last_step_that_kept_up() {
        let steps = vec![
            step(0, 100.0, 99.0),
            step(1, 200.0, 198.0),
            step(2, 300.0, 296.0),
            step(3, 400.0, 310.0), // achieved flattens here
            step(4, 500.0, 312.0),
        ];
        let knee = detect_knee(&steps);
        assert!(knee.found());
        assert_eq!(knee.saturated_step, Some(3));
        assert_eq!(knee.knee_rps, 300.0);
        assert_eq!(knee.reason, KneeReason::AchievedFlattened);
        // The steps that kept up never saturate: their last offered rate is
        // a lower bound on the knee.
        let kept_up = detect_knee(&steps[..3]);
        assert!(!kept_up.found());
        assert_eq!(kept_up.reason, KneeReason::NotSaturated);
        assert_eq!(kept_up.knee_rps, 300.0);
    }

    #[test]
    fn immediate_saturation_reports_a_zero_knee() {
        let steps = vec![step(0, 1_000.0, 200.0)];
        let knee = detect_knee(&steps);
        assert_eq!(knee.knee_rps, 0.0);
        assert_eq!(knee.saturated_step, Some(0));
    }

    #[test]
    fn empty_ramp_is_not_saturated() {
        let knee = detect_knee(&[]);
        assert!(!knee.found());
        assert_eq!(knee.knee_rps, 0.0);
    }
}
