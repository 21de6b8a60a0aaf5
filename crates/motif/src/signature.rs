//! Number-theoretic graph signatures (after Song et al., VLDB 2015).
//!
//! A signature encodes a small labelled graph as a product of prime factors:
//! one factor per vertex (determined by its label) and one per edge
//! (determined by the unordered pair of endpoint labels). Two properties make
//! this useful for streaming motif matching (paper §4.2–4.3):
//!
//! * **Incrementality** — adding a vertex or an edge to a sub-graph multiplies
//!   its signature by a single factor, so the signature of a growing window
//!   sub-graph is maintained in O(1) per update.
//! * **Divisibility ⇒ containment (of the factor multiset)** — if a window
//!   sub-graph's signature is not divisible by a motif's signature, the
//!   sub-graph cannot contain a match for the motif. The converse does not
//!   hold (the check is *non-authoritative*), exactly as in the paper; callers
//!   that need certainty verify with [`crate::isomorphism`].
//!
//! Rather than multiplying into an unbounded big integer, a [`Signature`]
//! stores the **sorted multiset of prime factors** plus a 128-bit wrapping
//! product used as a cheap hash. Divisibility is multiset inclusion, which is
//! exact with respect to the factor model and never overflows.
//!
//! The factors are held inline, up to `INLINE_FACTORS` of them, so
//! copying and growing a signature allocates nothing. That bound covers
//! every signature a stream matcher builds under the default miner caps:
//! a motif has at most 6 vertices and 8 edges (14 factors), and a tried
//! extension adds one vertex and one edge to a match. A larger signature — a
//! whole graph's, or a motif mined under raised caps — moves its factors to
//! the heap once and behaves the same.

use crate::error::{MotifError, Result};
use crate::primes::LabelPrimes;
use loom_graph::{Label, LabelledGraph};

/// Mapping from labels / label pairs to prime factors, shared by every
/// signature in a pipeline. Wraps `LabelPrimes` with error reporting.
#[derive(Debug, Clone)]
pub struct PrimeTable {
    primes: LabelPrimes,
}

impl PrimeTable {
    /// Build a table for a label alphabet of `label_count` labels.
    pub fn new(label_count: u32) -> Self {
        Self {
            primes: LabelPrimes::new(label_count),
        }
    }

    /// The alphabet size.
    pub fn label_count(&self) -> u32 {
        self.primes.label_count()
    }

    /// Factor contributed by a vertex with the given label.
    pub fn vertex_factor(&self, label: Label) -> Result<u64> {
        self.primes
            .vertex_prime(label.raw())
            .ok_or(MotifError::PrimeTableExhausted {
                capacity: self.primes.label_count(),
                label: label.raw(),
            })
    }

    /// Factor contributed by an edge between vertices labelled `a` and `b`.
    pub fn edge_factor(&self, a: Label, b: Label) -> Result<u64> {
        self.primes
            .pair_prime(a.raw(), b.raw())
            .ok_or(MotifError::PrimeTableExhausted {
                capacity: self.primes.label_count(),
                label: a.raw().max(b.raw()),
            })
    }

    /// Compute the signature of a whole graph from scratch.
    pub fn signature_of(&self, graph: &LabelledGraph) -> Result<Signature> {
        let mut signature = Signature::empty();
        for (_, label) in graph.labelled_vertices() {
            signature.multiply(self.vertex_factor(label)?);
        }
        for e in graph.edges() {
            let la = graph.label(e.lo).expect("edge endpoint exists");
            let lb = graph.label(e.hi).expect("edge endpoint exists");
            signature.multiply(self.edge_factor(la, lb)?);
        }
        Ok(signature)
    }
}

/// Factors a [`Signature`] holds without a heap allocation.
pub(crate) const INLINE_FACTORS: usize = 16;

/// A signature's sorted factors: inline up to [`INLINE_FACTORS`], on the
/// heap past that.
#[derive(Debug, Clone)]
enum Factors {
    Inline {
        len: u8,
        items: [u64; INLINE_FACTORS],
    },
    Spilled(Vec<u64>),
}

impl Default for Factors {
    fn default() -> Self {
        Factors::Inline {
            len: 0,
            items: [0; INLINE_FACTORS],
        }
    }
}

impl Factors {
    fn as_slice(&self) -> &[u64] {
        match self {
            Factors::Inline { len, items } => &items[..usize::from(*len)],
            Factors::Spilled(items) => items,
        }
    }

    fn insert(&mut self, position: usize, factor: u64) {
        match self {
            Factors::Inline { len, items } if usize::from(*len) < INLINE_FACTORS => {
                let end = usize::from(*len);
                items.copy_within(position..end, position + 1);
                items[position] = factor;
                *len += 1;
            }
            Factors::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_FACTORS);
                spilled.extend_from_slice(items);
                spilled.insert(position, factor);
                *self = Factors::Spilled(spilled);
            }
            Factors::Spilled(items) => items.insert(position, factor),
        }
    }
}

/// A multiplicative graph signature: a sorted multiset of prime factors plus
/// a 128-bit wrapping product used for fast equality short-circuiting. The
/// factors are held inline up to `INLINE_FACTORS` (see the module docs).
#[derive(Clone, Default)]
pub struct Signature {
    /// Sorted prime factors with multiplicity.
    factors: Factors,
    /// Wrapping product of the factors (hash only — not unique).
    product: u128,
}

impl PartialEq for Signature {
    fn eq(&self, other: &Self) -> bool {
        self.product == other.product && self.factors() == other.factors()
    }
}

impl Eq for Signature {}

impl std::hash::Hash for Signature {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.factors().hash(state);
        self.product.hash(state);
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signature")
            .field("factors", &self.factors())
            .field("product", &self.product)
            .finish()
    }
}

impl Signature {
    /// The signature of the empty graph (multiplicative identity).
    pub fn empty() -> Self {
        Self {
            factors: Factors::default(),
            product: 1,
        }
    }

    /// The signature of a single vertex with the given label.
    pub fn single_vertex(table: &PrimeTable, label: Label) -> Result<Self> {
        let mut s = Self::empty();
        s.multiply(table.vertex_factor(label)?);
        Ok(s)
    }

    /// Multiply a raw factor into the signature (keeps factors sorted).
    pub fn multiply(&mut self, factor: u64) {
        let position = self.factors().partition_point(|&f| f < factor);
        self.factors.insert(position, factor);
        self.product = self.product.wrapping_mul(u128::from(factor));
    }

    /// Number of prime factors (vertices + edges encoded).
    pub fn factor_count(&self) -> usize {
        self.factors().len()
    }

    /// Whether this is the empty (identity) signature.
    pub fn is_empty(&self) -> bool {
        self.factors().is_empty()
    }

    /// The sorted factor multiset.
    pub fn factors(&self) -> &[u64] {
        self.factors.as_slice()
    }

    /// Whether `self` divides `other`, i.e. every factor of `self` appears in
    /// `other` with at least the same multiplicity. A sub-graph's signature
    /// always divides its super-graph's signature.
    pub fn divides(&self, other: &Signature) -> bool {
        let (mine, theirs) = (self.factors(), other.factors());
        if mine.len() > theirs.len() {
            return false;
        }
        // Both factor lists are sorted: a single merge pass suffices.
        let mut oi = 0usize;
        for &f in mine {
            loop {
                if oi >= theirs.len() {
                    return false;
                }
                match theirs[oi].cmp(&f) {
                    std::cmp::Ordering::Less => oi += 1,
                    std::cmp::Ordering::Equal => {
                        oi += 1;
                        break;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
        }
        true
    }
}

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sig[{} factors, hash={:x}]",
            self.factor_count(),
            self.product
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::{cycle_graph, path_graph};

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    #[test]
    fn empty_signature_is_identity() {
        let s = Signature::empty();
        assert!(s.is_empty());
        assert_eq!(s.product, 1);
        let other = Signature::empty();
        assert!(s.divides(&other));
        assert!(other.divides(&s));
    }

    #[test]
    fn signature_is_order_independent() {
        let table = PrimeTable::new(4);
        // Build a-b-c two ways: batch and incrementally in different orders.
        let graph = path_graph(3, &[l(0), l(1), l(2)]);
        let batch = table.signature_of(&graph).unwrap();

        let mut incremental = Signature::empty();
        incremental.multiply(table.edge_factor(l(1), l(2)).unwrap());
        incremental.multiply(table.vertex_factor(l(2)).unwrap());
        incremental.multiply(table.vertex_factor(l(0)).unwrap());
        incremental.multiply(table.edge_factor(l(0), l(1)).unwrap());
        incremental.multiply(table.vertex_factor(l(1)).unwrap());

        assert_eq!(batch, incremental);
        assert_eq!(batch.product, incremental.product);
    }

    #[test]
    fn subgraph_signature_divides_supergraph() {
        let table = PrimeTable::new(4);
        let ab = path_graph(2, &[l(0), l(1)]);
        let abc = path_graph(3, &[l(0), l(1), l(2)]);
        let abcd = path_graph(4, &[l(0), l(1), l(2), l(3)]);
        let s_ab = table.signature_of(&ab).unwrap();
        let s_abc = table.signature_of(&abc).unwrap();
        let s_abcd = table.signature_of(&abcd).unwrap();
        assert!(s_ab.divides(&s_abc));
        assert!(s_ab.divides(&s_abcd));
        assert!(s_abc.divides(&s_abcd));
        assert!(!s_abcd.divides(&s_abc));
    }

    #[test]
    fn different_topologies_with_same_labels_can_differ() {
        let table = PrimeTable::new(2);
        let path = path_graph(4, &[l(0), l(1), l(0), l(1)]);
        let cycle = cycle_graph(4, &[l(0), l(1), l(0), l(1)]);
        let s_path = table.signature_of(&path).unwrap();
        let s_cycle = table.signature_of(&cycle).unwrap();
        // The cycle has one more edge, so the path divides the cycle but not
        // vice versa, and the signatures differ.
        assert_ne!(s_path, s_cycle);
        assert!(s_path.divides(&s_cycle));
        assert!(!s_cycle.divides(&s_path));
    }

    #[test]
    fn disjoint_label_sets_do_not_divide() {
        let table = PrimeTable::new(6);
        let ab = path_graph(2, &[l(0), l(1)]);
        let cd = path_graph(2, &[l(2), l(3)]);
        let s_ab = table.signature_of(&ab).unwrap();
        let s_cd = table.signature_of(&cd).unwrap();
        assert!(!s_ab.divides(&s_cd));
        assert!(!s_cd.divides(&s_ab));
    }

    #[test]
    fn exceeding_the_alphabet_is_an_error() {
        let table = PrimeTable::new(2);
        assert!(table.vertex_factor(l(5)).is_err());
        assert!(table.edge_factor(l(0), l(5)).is_err());
        let mut g = LabelledGraph::new();
        g.add_vertex(l(9));
        assert!(table.signature_of(&g).is_err());
    }

    #[test]
    fn display_mentions_factor_count() {
        let table = PrimeTable::new(2);
        let s = table.signature_of(&path_graph(2, &[l(0), l(1)])).unwrap();
        assert!(s.to_string().contains("3 factors"));
    }

    #[test]
    fn multiplicity_matters_for_divisibility() {
        let table = PrimeTable::new(2);
        // a-a single edge vs a-a-a path (two a-a edges, three a vertices).
        let aa = path_graph(2, &[l(0), l(0)]);
        let aaa = path_graph(3, &[l(0), l(0), l(0)]);
        let s_aa = table.signature_of(&aa).unwrap();
        let s_aaa = table.signature_of(&aaa).unwrap();
        assert!(s_aa.divides(&s_aaa));
        // Two disjoint a-a edges require factor multiplicity 2 for the edge
        // prime, which a single a-a edge does not have.
        let mut two_edges = Signature::empty();
        two_edges.multiply(table.edge_factor(l(0), l(0)).unwrap());
        two_edges.multiply(table.edge_factor(l(0), l(0)).unwrap());
        let mut one_edge = Signature::empty();
        one_edge.multiply(table.edge_factor(l(0), l(0)).unwrap());
        assert!(one_edge.divides(&two_edges));
        assert!(!two_edges.divides(&one_edge));
    }

    #[test]
    fn factors_past_the_inline_bound_move_to_the_heap_and_behave_alike() {
        let table = PrimeTable::new(4);
        let labels: Vec<Label> = (0..12).map(|i| l(i % 4)).collect();
        let path = path_graph(12, &labels);
        let batch = table.signature_of(&path).unwrap();
        assert_eq!(batch.factor_count(), 23);
        assert!(matches!(batch.factors, Factors::Spilled(_)));
        // Factors multiplied in reverse: inline up to the bound, then moved.
        let mut factors = batch.factors().to_vec();
        factors.reverse();
        let mut incremental = Signature::empty();
        for (i, &f) in factors.iter().enumerate() {
            incremental.multiply(f);
            let inline = matches!(incremental.factors, Factors::Inline { .. });
            assert_eq!(inline, i < INLINE_FACTORS, "factor {i}");
            assert!(incremental.factors().windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(incremental, batch);
        let prefix = table.signature_of(&path_graph(8, &labels[..8])).unwrap();
        assert!(matches!(prefix.factors, Factors::Inline { len: 15, .. }));
        assert!(prefix.divides(&batch));
        assert!(!batch.divides(&prefix));
    }

    #[test]
    fn a_signature_hashes_as_its_factor_slice_and_product() {
        use std::hash::{Hash, Hasher};
        // Maps keyed by signatures iterate in hash order, so the hash is
        // what the factors held in a `Vec` hashed to.
        let table = PrimeTable::new(4);
        for n in [1, 3, 8, 12] {
            let labels: Vec<Label> = (0..n).map(|i| l(i % 4)).collect();
            let s = table
                .signature_of(&path_graph(n as usize, &labels))
                .unwrap();
            let mut hashed = loom_graph::fxhash::FxHasher::default();
            s.hash(&mut hashed);
            let mut expected = loom_graph::fxhash::FxHasher::default();
            s.factors().to_vec().hash(&mut expected);
            s.product.hash(&mut expected);
            assert_eq!(hashed.finish(), expected.finish(), "{n} vertices");
        }
    }
}
