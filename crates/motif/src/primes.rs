//! Prime number utilities backing the number-theoretic graph signatures.
//!
//! Song et al.'s signatures represent graph features as prime factors so
//! that sub-graph containment becomes divisibility. This module provides a
//! deterministic sieve and the mapping from vertex labels and (unordered)
//! label pairs to distinct primes.

/// Generate the first `count` prime numbers with a simple growing sieve.
pub(crate) fn first_primes(count: usize) -> Vec<u64> {
    if count == 0 {
        return Vec::new();
    }
    // Over-estimate the sieve bound: p_n < n (ln n + ln ln n) for n ≥ 6.
    let n = count.max(6) as f64;
    let bound = (n * (n.ln() + n.ln().ln())).ceil() as usize + 16;
    let mut sieve = vec![true; bound + 1];
    sieve[0] = false;
    if bound >= 1 {
        sieve[1] = false;
    }
    let mut primes = Vec::with_capacity(count);
    for i in 2..=bound {
        if sieve[i] {
            primes.push(i as u64);
            if primes.len() == count {
                break;
            }
            let mut multiple = i * i;
            while multiple <= bound {
                sieve[multiple] = false;
                multiple += i;
            }
        }
    }
    debug_assert_eq!(primes.len(), count, "sieve bound was too small");
    primes
}

/// Deterministic assignment of primes to vertex labels and unordered label
/// pairs, for a fixed label alphabet size.
#[derive(Debug, Clone)]
pub(crate) struct LabelPrimes {
    label_count: u32,
    vertex_primes: Vec<u64>,
    pair_primes: Vec<u64>,
}

impl LabelPrimes {
    /// Build the tables for an alphabet of `label_count` labels.
    pub fn new(label_count: u32) -> Self {
        let label_count = label_count.max(1);
        let n = label_count as usize;
        let pair_count = n * (n + 1) / 2;
        let primes = first_primes(n + pair_count);
        let vertex_primes = primes[..n].to_vec();
        let pair_primes = primes[n..].to_vec();
        Self {
            label_count,
            vertex_primes,
            pair_primes,
        }
    }

    /// The alphabet size the table was built for.
    pub fn label_count(&self) -> u32 {
        self.label_count
    }

    /// The prime assigned to a vertex label, or `None` if it exceeds the
    /// alphabet the table was built for.
    pub(crate) fn vertex_prime(&self, label: u32) -> Option<u64> {
        self.vertex_primes.get(label as usize).copied()
    }

    /// The prime assigned to the unordered pair of labels `(a, b)`.
    pub(crate) fn pair_prime(&self, a: u32, b: u32) -> Option<u64> {
        if a >= self.label_count || b >= self.label_count {
            return None;
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        // Index into the upper triangle (including the diagonal):
        // row `lo` starts after sum_{i<lo} (label_count - i).
        let lo = lo as usize;
        let hi = hi as usize;
        let n = self.label_count as usize;
        let row_start = lo * n - lo * (lo.saturating_sub(1)) / 2 - lo;
        let index = row_start + (hi - lo) + lo; // simplifies to triangular index
        self.pair_primes.get(index).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn first_primes_are_correct() {
        assert_eq!(first_primes(0), Vec::<u64>::new());
        assert_eq!(first_primes(1), vec![2]);
        assert_eq!(first_primes(10), vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
        let thousand = first_primes(1000);
        assert_eq!(thousand.len(), 1000);
        assert_eq!(*thousand.last().unwrap(), 7919);
    }

    #[test]
    fn vertex_and_pair_primes_are_distinct() {
        let table = LabelPrimes::new(6);
        let mut seen = HashSet::new();
        for l in 0..6 {
            let p = table.vertex_prime(l).unwrap();
            assert!(seen.insert(p), "duplicate prime {p}");
        }
        for a in 0..6u32 {
            for b in a..6u32 {
                let p = table.pair_prime(a, b).unwrap();
                assert!(seen.insert(p), "duplicate prime {p} for pair ({a},{b})");
            }
        }
    }

    #[test]
    fn pair_prime_is_symmetric() {
        let table = LabelPrimes::new(5);
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(table.pair_prime(a, b), table.pair_prime(b, a));
            }
        }
    }

    #[test]
    fn out_of_range_labels_return_none() {
        let table = LabelPrimes::new(3);
        assert!(table.vertex_prime(3).is_none());
        assert!(table.pair_prime(0, 3).is_none());
        assert!(table.pair_prime(7, 1).is_none());
        assert!(table.vertex_prime(2).is_some());
    }

    #[test]
    fn zero_label_count_is_clamped() {
        let table = LabelPrimes::new(0);
        assert_eq!(table.label_count(), 1);
        assert!(table.vertex_prime(0).is_some());
        assert!(table.pair_prime(0, 0).is_some());
    }

    #[test]
    fn tables_are_deterministic() {
        let a = LabelPrimes::new(8);
        let b = LabelPrimes::new(8);
        for l in 0..8 {
            assert_eq!(a.vertex_prime(l), b.vertex_prime(l));
        }
        assert_eq!(a.pair_prime(2, 7), b.pair_prime(2, 7));
    }
}
