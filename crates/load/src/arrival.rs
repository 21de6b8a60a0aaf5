//! Seeded arrival processes for open-loop load generation.
//!
//! An open-loop generator decides *when* requests arrive before the run
//! starts: the whole point is that arrival timing is a pure function of
//! `(process, rate, duration, seed)` and never of how the system under test
//! responds. Both processes here produce the exact same offset sequence for
//! the same inputs on every platform, which is what the determinism tests
//! pin.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// How inter-arrival gaps are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival gaps (a Poisson process): the memoryless
    /// arrivals of independent users, with bursts — the realistic choice.
    Poisson,
    /// Fixed `1/rate` spacing: the least bursty load a rate admits, useful
    /// for isolating queueing effects from arrival variance.
    Constant,
}

impl ArrivalProcess {
    /// The process's name as it appears in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Constant => "constant",
        }
    }

    /// The arrival offsets (microseconds from the step start, ascending) of
    /// one ramp step at `rate_rps` over `duration`. The first arrival lands
    /// one inter-arrival gap in; offsets are strictly `< duration`. For
    /// `Poisson` the count itself is a deterministic function of the seed;
    /// for `Constant` it is `⌊duration × rate⌋` (within rounding).
    pub fn offsets_us(&self, rate_rps: f64, duration: Duration, seed: u64) -> Vec<u64> {
        let duration_us = duration.as_micros() as f64;
        if rate_rps <= 0.0 || duration_us <= 0.0 {
            return Vec::new();
        }
        let mean_gap_us = 1e6 / rate_rps;
        let mut offsets = Vec::with_capacity((duration.as_secs_f64() * rate_rps) as usize + 1);
        let mut t = 0.0f64;
        match self {
            ArrivalProcess::Constant => loop {
                t += mean_gap_us;
                if t >= duration_us {
                    break;
                }
                offsets.push(t as u64);
            },
            ArrivalProcess::Poisson => {
                let mut rng = StdRng::seed_from_u64(seed);
                loop {
                    // Inverse-transform exponential: -ln(1-U)·mean, with U in
                    // [0,1) so the argument stays strictly positive.
                    let u: f64 = rng.random_range(0.0..1.0);
                    t += -(1.0 - u).ln() * mean_gap_us;
                    if t >= duration_us {
                        break;
                    }
                    offsets.push(t as u64);
                }
            }
        }
        offsets
    }
}

/// The per-step arrival seed: decorrelates steps of one ramp without the
/// caller managing more than one base seed. (SplitMix64's odd multiplicative
/// constant keeps neighbouring steps far apart in seed space.)
pub(crate) fn step_seed(base: u64, step: usize) -> u64 {
    base.wrapping_add((step as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_offsets() {
        for process in [ArrivalProcess::Poisson, ArrivalProcess::Constant] {
            let a = process.offsets_us(500.0, Duration::from_millis(200), 42);
            let b = process.offsets_us(500.0, Duration::from_millis(200), 42);
            assert_eq!(a, b, "{} must be deterministic", process.name());
            assert!(!a.is_empty());
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
            assert!(a.iter().all(|&t| t < 200_000), "offsets stay in the step");
        }
    }

    #[test]
    fn different_seeds_differ_for_poisson_only() {
        let p1 = ArrivalProcess::Poisson.offsets_us(500.0, Duration::from_millis(200), 1);
        let p2 = ArrivalProcess::Poisson.offsets_us(500.0, Duration::from_millis(200), 2);
        assert_ne!(p1, p2);
        let c1 = ArrivalProcess::Constant.offsets_us(500.0, Duration::from_millis(200), 1);
        let c2 = ArrivalProcess::Constant.offsets_us(500.0, Duration::from_millis(200), 2);
        assert_eq!(c1, c2, "constant spacing ignores the seed");
    }

    #[test]
    fn counts_track_the_offered_rate() {
        let constant = ArrivalProcess::Constant.offsets_us(1000.0, Duration::from_secs(1), 0);
        assert_eq!(
            constant.len(),
            999,
            "⌊1s × 1000rps⌋ minus the gap-first start"
        );
        let poisson = ArrivalProcess::Poisson.offsets_us(1000.0, Duration::from_secs(1), 7);
        // A Poisson count over 1s at 1000 rps: 1000 ± a few σ (σ ≈ 32).
        assert!(
            (800..1200).contains(&poisson.len()),
            "got {}",
            poisson.len()
        );
    }

    #[test]
    fn degenerate_inputs_produce_no_arrivals() {
        for process in [ArrivalProcess::Poisson, ArrivalProcess::Constant] {
            assert!(process
                .offsets_us(0.0, Duration::from_secs(1), 3)
                .is_empty());
            assert!(process
                .offsets_us(-5.0, Duration::from_secs(1), 3)
                .is_empty());
            assert!(process.offsets_us(100.0, Duration::ZERO, 3).is_empty());
        }
    }

    #[test]
    fn step_seeds_decorrelate() {
        let base = 42;
        let seeds: Vec<u64> = (0..8).map(|s| step_seed(base, s)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert!(!seeds.contains(&base));
    }
}
