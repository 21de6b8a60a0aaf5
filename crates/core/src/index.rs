//! A compact, read-optimised index of the *frequent* motifs of a TPSTry++.
//!
//! The online matcher only ever needs two questions answered per signature:
//!
//! * "is this signature exactly the signature of a frequent motif?", and
//! * "could this signature still grow into one?" (i.e. does it divide some
//!   frequent motif's signature) — used to prune hopeless growth early.
//!
//! [`FrequentMotifIndex`] snapshots the answer structures once, when the
//! partitioner is constructed, so the streaming hot path never touches the
//! full TPSTry++ again.

use loom_graph::fxhash::{FxHashMap, FxHasher};
use loom_motif::signature::{PrimeTable, Signature};
use loom_motif::tpstry::{MotifId, Tpstry};
use std::hash::Hasher;

/// Read-only index over the frequent motifs of a workload summary.
#[derive(Debug, Clone)]
pub struct FrequentMotifIndex {
    prime_table: PrimeTable,
    /// Exact signature → motif id for every frequent motif.
    by_signature: FxHashMap<Signature, MotifId>,
    /// Signatures of frequent motifs, kept separately for the containment
    /// pre-check (sorted by factor count, largest last).
    signatures: Vec<Signature>,
    /// Canonical motif graphs, used by the optional exact verification step.
    motif_graphs: FxHashMap<MotifId, loom_graph::LabelledGraph>,
    /// Largest number of vertices in any frequent motif.
    max_motif_vertices: usize,
    /// Largest number of edges in any frequent motif.
    max_motif_edges: usize,
    /// p-value threshold the index was built with.
    threshold: f64,
}

impl FrequentMotifIndex {
    /// Build the index from a mined TPSTry++ and a frequency threshold `T`.
    ///
    /// Only motifs with at least one edge are indexed: single-vertex motifs
    /// are trivially "matched" by every vertex and say nothing useful about
    /// traversal locality.
    pub fn new(tpstry: &Tpstry, threshold: f64) -> Self {
        let mut by_signature = FxHashMap::default();
        let mut signatures = Vec::new();
        let mut motif_graphs = FxHashMap::default();
        let mut max_motif_vertices = 0;
        let mut max_motif_edges = 0;
        for id in tpstry.frequent_motifs(threshold) {
            let node = tpstry.node(id);
            if node.edge_count() == 0 {
                continue;
            }
            max_motif_vertices = max_motif_vertices.max(node.vertex_count());
            max_motif_edges = max_motif_edges.max(node.edge_count());
            by_signature.entry(node.signature().clone()).or_insert(id);
            signatures.push(node.signature().clone());
            motif_graphs.insert(id, node.graph().clone());
        }
        signatures.sort_by_key(Signature::factor_count);
        Self {
            prime_table: tpstry.prime_table().clone(),
            by_signature,
            signatures,
            motif_graphs,
            max_motif_vertices,
            max_motif_edges,
            threshold,
        }
    }

    /// The canonical graph of an indexed frequent motif, if present.
    pub fn motif_graph(&self, id: MotifId) -> Option<&loom_graph::LabelledGraph> {
        self.motif_graphs.get(&id)
    }

    /// The prime table signatures must be computed against.
    pub fn prime_table(&self) -> &PrimeTable {
        &self.prime_table
    }

    /// The threshold the index was built with.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of frequent motifs indexed.
    pub fn motif_count(&self) -> usize {
        self.by_signature.len()
    }

    /// Whether the workload produced no frequent (edge-bearing) motifs — in
    /// that case LOOM degenerates gracefully to windowed LDG.
    pub fn is_empty(&self) -> bool {
        self.by_signature.is_empty()
    }

    /// Largest frequent motif size in vertices (0 when empty).
    pub fn max_motif_vertices(&self) -> usize {
        self.max_motif_vertices
    }

    /// Largest frequent motif size in edges (0 when empty).
    pub fn max_motif_edges(&self) -> usize {
        self.max_motif_edges
    }

    /// Exact lookup: the frequent motif whose signature equals `signature`.
    pub(crate) fn motif_for(&self, signature: &Signature) -> Option<MotifId> {
        self.by_signature.get(signature).copied()
    }

    /// Whether a sub-graph with this signature could still grow into a
    /// frequent motif, i.e. whether it divides at least one frequent motif's
    /// signature. Used to stop growing candidate sub-graphs early.
    pub(crate) fn could_grow_into_motif(&self, signature: &Signature) -> bool {
        self.signatures.iter().any(|s| signature.divides(s))
    }

    /// A fingerprint of what the index answers — the threshold, the label
    /// alphabet and every indexed motif with its signature — stable across
    /// processes, so a checkpointed LOOM state is only restored under the
    /// workload it was written for.
    pub fn fingerprint(&self) -> u64 {
        let mut motifs: Vec<(&[u64], MotifId)> = self
            .by_signature
            .iter()
            .map(|(signature, &id)| (signature.factors(), id))
            .collect();
        motifs.sort_unstable();
        let mut hasher = FxHasher::default();
        hasher.write_u64(self.threshold.to_bits());
        hasher.write_u32(self.prime_table.label_count());
        for (factors, id) in motifs {
            hasher.write_u32(id.0);
            hasher.write_u64(factors.len() as u64);
            for &factor in factors {
                hasher.write_u64(factor);
            }
        }
        hasher.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::Label;
    use loom_motif::fixtures::paper_example_workload;
    use loom_motif::mining::MotifMiner;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    fn paper_index(threshold: f64) -> FrequentMotifIndex {
        let tpstry = MotifMiner::default()
            .mine(&paper_example_workload())
            .unwrap();
        FrequentMotifIndex::new(&tpstry, threshold)
    }

    #[test]
    fn frequent_motifs_are_indexed_without_single_vertices() {
        let index = paper_index(0.5);
        assert!(!index.is_empty());
        assert!(index.max_motif_vertices() >= 3);
        assert!(index.max_motif_edges() >= 2);
        // The a-b edge occurs in all three queries → indexed.
        let ab = index
            .prime_table()
            .signature_of(&path_graph(2, &[l(0), l(1)]))
            .unwrap();
        assert!(index.motif_for(&ab).is_some());
        // A single vertex is never indexed, however frequent.
        let single =
            loom_motif::signature::Signature::single_vertex(index.prime_table(), l(0)).unwrap();
        assert!(index.motif_for(&single).is_none());
    }

    #[test]
    fn fingerprints_are_what_earlier_state_blobs_were_stamped_with() {
        // Written into every LOOM state blob: a change here makes every
        // existing root's partitioner state refuse to restore.
        assert_eq!(paper_index(0.2).fingerprint(), 0xa59b_54ab_d449_d1ce);
        assert_eq!(paper_index(0.5).fingerprint(), 0xc672_cae6_3e43_25b6);
    }

    #[test]
    fn threshold_filters_rare_motifs() {
        let permissive = paper_index(0.2);
        let strict = paper_index(0.9);
        assert!(permissive.motif_count() > strict.motif_count());
        // The a-b-a-b square appears in only one of three queries: frequent
        // at T = 0.2 but not at T = 0.9.
        let square = permissive
            .prime_table()
            .signature_of(&loom_graph::generators::regular::cycle_graph(
                4,
                &[l(0), l(1), l(0), l(1)],
            ))
            .unwrap();
        assert!(permissive.motif_for(&square).is_some());
        assert!(strict.motif_for(&square).is_none());
    }

    #[test]
    fn growth_pruning_uses_divisibility() {
        let index = paper_index(0.5);
        let ab = index
            .prime_table()
            .signature_of(&path_graph(2, &[l(0), l(1)]))
            .unwrap();
        // a-b divides a-b-c (frequent), so it can still grow.
        assert!(index.could_grow_into_motif(&ab));
        // A d-d edge divides nothing in this workload.
        let dd = index
            .prime_table()
            .signature_of(&path_graph(2, &[l(3), l(3)]))
            .unwrap();
        assert!(!index.could_grow_into_motif(&dd));
    }

    #[test]
    fn impossible_threshold_yields_empty_index() {
        let index = paper_index(1.1);
        assert!(index.is_empty());
        assert_eq!(index.motif_count(), 0);
        assert_eq!(index.max_motif_vertices(), 0);
        assert!((index.threshold() - 1.1).abs() < 1e-12);
    }
}
