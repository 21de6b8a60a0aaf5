//! Query workloads: sets of pattern queries with relative frequencies.
//!
//! The paper defines a workload `Q` as a set of pattern matching queries
//! together with each query's relative frequency. [`Workload`] models exactly
//! that; [`WorkloadGenerator`] produces synthetic workloads whose queries
//! share common sub-structure (motifs), with optionally skewed (Zipf)
//! frequencies — the regime the paper motivates.

use crate::error::{MotifError, Result};
use crate::query::{PatternQuery, QueryId};
use loom_graph::Label;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A workload `Q`: pattern queries plus normalised relative frequencies.
#[derive(Debug, Clone)]
pub struct Workload {
    queries: Vec<PatternQuery>,
    frequencies: Vec<f64>,
}

impl Workload {
    /// Build a workload from `(query, weight)` pairs; weights are normalised
    /// to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`MotifError::InvalidWorkload`] if the workload is empty or any
    /// weight is non-positive / non-finite.
    pub fn new(entries: Vec<(PatternQuery, f64)>) -> Result<Self> {
        if entries.is_empty() {
            return Err(MotifError::InvalidWorkload("no queries".into()));
        }
        let mut queries = Vec::with_capacity(entries.len());
        let mut frequencies = Vec::with_capacity(entries.len());
        let mut total = 0.0;
        for (query, weight) in entries {
            if !weight.is_finite() || weight <= 0.0 {
                return Err(MotifError::InvalidWorkload(format!(
                    "query {} has invalid weight {weight}",
                    query.id()
                )));
            }
            total += weight;
            queries.push(query);
            frequencies.push(weight);
        }
        for f in &mut frequencies {
            *f /= total;
        }
        Ok(Self {
            queries,
            frequencies,
        })
    }

    /// Build a workload where every query has the same frequency.
    ///
    /// # Errors
    ///
    /// Returns [`MotifError::InvalidWorkload`] if `queries` is empty.
    pub fn uniform(queries: Vec<PatternQuery>) -> Result<Self> {
        let entries = queries.into_iter().map(|q| (q, 1.0)).collect();
        Self::new(entries)
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload has no queries (never true for a constructed
    /// workload, but useful for defensive call sites).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries.
    pub fn queries(&self) -> &[PatternQuery] {
        &self.queries
    }

    /// Iterate over `(query, frequency)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&PatternQuery, f64)> + '_ {
        self.queries.iter().zip(self.frequencies.iter().copied())
    }

    /// The normalised frequency of the `i`-th query.
    pub fn frequency(&self, index: usize) -> f64 {
        self.frequencies[index]
    }

    /// Find a query by id.
    pub fn query(&self, id: QueryId) -> Option<&PatternQuery> {
        self.queries.iter().find(|q| q.id() == id)
    }

    /// Draw a query index according to the workload frequencies.
    pub fn sample_index(&self, rng: &mut StdRng) -> usize {
        let x: f64 = rng.random_range(0.0..1.0);
        let mut cumulative = 0.0;
        for (i, &f) in self.frequencies.iter().enumerate() {
            cumulative += f;
            if x < cumulative {
                return i;
            }
        }
        self.frequencies.len() - 1
    }

    /// Draw a query according to the workload frequencies.
    pub fn sample(&self, rng: &mut StdRng) -> &PatternQuery {
        &self.queries[self.sample_index(rng)]
    }

    /// The size of the label alphabet needed to encode every query
    /// (`max label + 1`).
    pub fn label_alphabet_size(&self) -> u32 {
        self.queries
            .iter()
            .flat_map(|q| q.label_sequence())
            .map(|l| l.raw() + 1)
            .max()
            .unwrap_or(1)
    }

    /// The largest query size (vertices) in the workload.
    pub fn max_query_size(&self) -> usize {
        self.queries
            .iter()
            .map(PatternQuery::vertex_count)
            .max()
            .unwrap_or(0)
    }
}

/// Generator for synthetic workloads with shared motifs and skewed
/// frequencies.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    /// Number of queries to generate.
    pub query_count: usize,
    /// Label alphabet size.
    pub label_count: u32,
    /// Number of distinct "core" label paths shared across queries. Shared
    /// cores are what make some motifs frequent.
    pub core_count: usize,
    /// Length (vertices) of each core path, ≥ 2.
    pub core_length: usize,
    /// Maximum number of extra vertices appended to a core per query.
    pub max_extension: usize,
    /// Zipf exponent for query frequencies; 0.0 gives uniform frequencies.
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadGenerator {
    fn default() -> Self {
        Self {
            query_count: 20,
            label_count: 4,
            core_count: 3,
            core_length: 3,
            max_extension: 2,
            zipf_exponent: 1.0,
            seed: 42,
        }
    }
}

impl WorkloadGenerator {
    /// Generate a workload.
    ///
    /// Each query starts from one of `core_count` shared label paths and is
    /// extended with up to `max_extension` extra labels, either prolonging
    /// the path or attaching a branch. Query frequencies follow a Zipf
    /// distribution over the query rank.
    ///
    /// # Errors
    ///
    /// Returns [`MotifError::InvalidConfig`] for degenerate parameters.
    pub fn generate(&self) -> Result<Workload> {
        if self.query_count == 0 {
            return Err(MotifError::InvalidConfig("query_count must be > 0".into()));
        }
        if self.core_count == 0 || self.core_length < 2 {
            return Err(MotifError::InvalidConfig(
                "need at least one core of length >= 2".into(),
            ));
        }
        if self.label_count == 0 {
            return Err(MotifError::InvalidConfig("label_count must be > 0".into()));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let label = |rng: &mut StdRng| Label::new(rng.random_range(0..self.label_count));

        // Shared cores.
        let cores: Vec<Vec<Label>> = (0..self.core_count)
            .map(|_| (0..self.core_length).map(|_| label(&mut rng)).collect())
            .collect();

        let mut entries = Vec::with_capacity(self.query_count);
        for i in 0..self.query_count {
            let core = &cores[rng.random_range(0..cores.len())];
            let extension = if self.max_extension == 0 {
                0
            } else {
                rng.random_range(0..=self.max_extension)
            };
            let id = QueryId::new(i as u32);
            let query = if extension == 0 {
                PatternQuery::path(id, core)?
            } else if rng.random_bool(0.5) {
                // Prolong the path.
                let mut labels = core.clone();
                for _ in 0..extension {
                    labels.push(label(&mut rng));
                }
                PatternQuery::path(id, &labels)?
            } else {
                // Turn the core into a branch: centre = core[0], leaves =
                // rest of core + extra labels.
                let mut leaves: Vec<Label> = core[1..].to_vec();
                for _ in 0..extension {
                    leaves.push(label(&mut rng));
                }
                PatternQuery::branch(id, core[0], &leaves)?
            };
            let weight = zipf_weight(i, self.zipf_exponent);
            entries.push((query, weight));
        }
        Workload::new(entries)
    }
}

/// Unnormalised Zipf weight of rank `rank` (0-based) with exponent `s`.
pub(crate) fn zipf_weight(rank: usize, s: f64) -> f64 {
    if s <= 0.0 {
        1.0
    } else {
        1.0 / ((rank + 1) as f64).powf(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    fn simple_queries() -> Vec<PatternQuery> {
        vec![
            PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap(),
            PatternQuery::path(QueryId::new(1), &[l(0), l(1), l(2)]).unwrap(),
            PatternQuery::path(QueryId::new(2), &[l(2), l(3)]).unwrap(),
        ]
    }

    #[test]
    fn uniform_workload_normalises_frequencies() {
        let w = Workload::uniform(simple_queries()).unwrap();
        assert_eq!(w.len(), 3);
        for (_, f) in w.iter() {
            assert!((f - 1.0 / 3.0).abs() < 1e-12);
        }
        let total: f64 = (0..w.len()).map(|i| w.frequency(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_workload_preserves_ratios() {
        let queries = simple_queries();
        let entries = vec![(queries[0].clone(), 3.0), (queries[1].clone(), 1.0)];
        let w = Workload::new(entries).unwrap();
        assert!((w.frequency(0) - 0.75).abs() < 1e-12);
        assert!((w.frequency(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn invalid_workloads_are_rejected() {
        assert!(Workload::uniform(vec![]).is_err());
        let q = simple_queries().remove(0);
        assert!(Workload::new(vec![(q.clone(), 0.0)]).is_err());
        assert!(Workload::new(vec![(q, f64::NAN)]).is_err());
    }

    #[test]
    fn sampling_respects_frequencies() {
        let queries = simple_queries();
        let entries = vec![(queries[0].clone(), 9.0), (queries[1].clone(), 1.0)];
        let w = Workload::new(entries).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 2];
        for _ in 0..5_000 {
            counts[w.sample_index(&mut rng)] += 1;
        }
        let ratio = counts[0] as f64 / 5_000.0;
        assert!((ratio - 0.9).abs() < 0.05, "ratio={ratio}");
    }

    #[test]
    fn alphabet_and_max_size() {
        let w = Workload::uniform(simple_queries()).unwrap();
        assert_eq!(w.label_alphabet_size(), 4);
        assert_eq!(w.max_query_size(), 3);
        assert!(w.query(QueryId::new(1)).is_some());
        assert!(w.query(QueryId::new(9)).is_none());
    }

    #[test]
    fn generator_produces_valid_workloads() {
        let generator = WorkloadGenerator::default();
        let w = generator.generate().unwrap();
        assert_eq!(w.len(), generator.query_count);
        assert!(w.label_alphabet_size() <= generator.label_count);
        // Frequencies are normalised and descending-ish (Zipf over rank).
        let total: f64 = (0..w.len()).map(|i| w.frequency(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(w.frequency(0) > w.frequency(w.len() - 1));
    }

    #[test]
    fn generator_is_deterministic() {
        let generator = WorkloadGenerator::default();
        let a = generator.generate().unwrap();
        let b = generator.generate().unwrap();
        for (qa, qb) in a.queries().iter().zip(b.queries()) {
            assert_eq!(qa.label_sequence(), qb.label_sequence());
            assert_eq!(qa.edge_count(), qb.edge_count());
        }
    }

    #[test]
    fn generator_rejects_bad_config() {
        let mut g = WorkloadGenerator {
            query_count: 0,
            ..WorkloadGenerator::default()
        };
        assert!(g.generate().is_err());
        g.query_count = 5;
        g.core_length = 1;
        assert!(g.generate().is_err());
        g.core_length = 3;
        g.label_count = 0;
        assert!(g.generate().is_err());
    }

    #[test]
    fn zipf_weights_decay() {
        assert_eq!(zipf_weight(0, 0.0), 1.0);
        assert_eq!(zipf_weight(5, 0.0), 1.0);
        assert!(zipf_weight(0, 1.0) > zipf_weight(1, 1.0));
        assert!((zipf_weight(1, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn uniform_zipf_exponent_gives_uniform_frequencies() {
        let generator = WorkloadGenerator {
            zipf_exponent: 0.0,
            ..WorkloadGenerator::default()
        };
        let w = generator.generate().unwrap();
        let first = w.frequency(0);
        assert!((0..w.len()).all(|i| (w.frequency(i) - first).abs() < 1e-12));
    }
}
