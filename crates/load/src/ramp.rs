//! RPS ramp schedules: `initial_rps → increment_rps → max_rps`.
//!
//! The knob set is deliberately the one the Internet-Computer scalability
//! suite uses (`initial_rps`, `increment_rps`, per-step duration, a
//! `target_rps`/`max_rps` ceiling): start below the expected knee, step the
//! offered rate by a fixed increment, stop at the ceiling, and measure each
//! step long enough for queues to reach their step-local behaviour.

use std::time::Duration;

/// One ramp: an arithmetic sequence of offered-RPS steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampSchedule {
    /// Offered RPS of the first step.
    pub initial_rps: f64,
    /// Offered-RPS increase per step.
    pub increment_rps: f64,
    /// Wall-clock duration of every step.
    pub step: Duration,
    /// Ceiling (the `target_rps`/`max_rps` knob): the last step is the
    /// largest `initial + k·increment ≤ max_rps`.
    pub max_rps: f64,
}

impl RampSchedule {
    /// A ramp from `initial_rps` to `max_rps` in `increment_rps` steps of
    /// `step` each. Rates are clamped positive; a zero increment yields a
    /// single step at `initial_rps`.
    pub fn new(initial_rps: f64, increment_rps: f64, step: Duration, max_rps: f64) -> Self {
        let initial_rps = initial_rps.max(1.0);
        Self {
            initial_rps,
            increment_rps: increment_rps.max(0.0),
            step,
            max_rps: max_rps.max(initial_rps),
        }
    }

    /// The schedule's steps, in ramp order.
    pub(crate) fn steps(&self) -> Vec<StepSpec> {
        let mut steps = Vec::new();
        let mut offered = self.initial_rps;
        loop {
            steps.push(StepSpec {
                index: steps.len(),
                offered_rps: offered,
                duration: self.step,
            });
            if self.increment_rps <= 0.0 {
                break;
            }
            offered += self.increment_rps;
            if offered > self.max_rps + 1e-9 {
                break;
            }
        }
        steps
    }
}

/// One step of a ramp: offer `offered_rps` for `duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StepSpec {
    /// Position in the ramp, from 0.
    pub index: usize,
    /// The step's offered arrival rate.
    pub offered_rps: f64,
    /// The step's wall-clock duration.
    pub duration: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_enumerates_arithmetic_steps_up_to_the_ceiling() {
        let ramp = RampSchedule::new(100.0, 100.0, Duration::from_millis(250), 450.0);
        let steps = ramp.steps();
        let offered: Vec<f64> = steps.iter().map(|s| s.offered_rps).collect();
        assert_eq!(offered, vec![100.0, 200.0, 300.0, 400.0]);
        assert!(steps.iter().enumerate().all(|(i, s)| s.index == i));
        assert_eq!(
            steps.iter().map(|s| s.duration).sum::<Duration>(),
            Duration::from_millis(1000)
        );
    }

    #[test]
    fn ceiling_step_is_included_when_exactly_reachable() {
        let ramp = RampSchedule::new(100.0, 150.0, Duration::from_millis(100), 400.0);
        let offered: Vec<f64> = ramp.steps().iter().map(|s| s.offered_rps).collect();
        assert_eq!(offered, vec![100.0, 250.0, 400.0]);
    }

    #[test]
    fn zero_increment_is_a_single_step() {
        let ramp = RampSchedule::new(200.0, 0.0, Duration::from_millis(100), 1000.0);
        assert_eq!(ramp.steps().len(), 1);
        assert_eq!(ramp.steps()[0].offered_rps, 200.0);
    }

    #[test]
    fn rates_clamp_sane() {
        let ramp = RampSchedule::new(-10.0, -5.0, Duration::from_millis(50), -100.0);
        let steps = ramp.steps();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].offered_rps, 1.0);
    }
}
