//! Order statistics over a run's per-round samples.

/// n, median and quartiles of one timed metric's samples. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), the rule
/// the acceptance pipeline applies across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            n: sorted.len(),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-quantile of ascending `sorted` by the exclusive method: position
/// `p * (n + 1)` (1-based), linearly interpolated and clamped to the ends.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let position = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let below = position.floor() as usize;
    let fraction = position - below as f64;
    let lo = sorted[below - 1];
    let hi = sorted[below.min(n - 1)];
    lo + (hi - lo) * fraction
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!(Summary::of(&[7.0]).unwrap().median, 7.0);
        assert!(Summary::of(&[]).is_none());
    }
}
