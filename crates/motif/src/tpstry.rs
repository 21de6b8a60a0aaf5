//! TPSTry++ — the Traversal Pattern Summary Trie, generalised to a DAG.
//!
//! Each node of the TPSTry++ represents a *motif*: a small connected labelled
//! graph that occurs as a sub-graph of at least one query graph in the
//! workload `Q` (paper §4.2). A node stores
//!
//! * the motif graph itself (a canonical representative),
//! * its exact [`canonical code`](crate::canonical) and its
//!   [`Signature`] (the non-authoritative matching key used online),
//! * the set of queries that contain it and its accumulated (frequency
//!   weighted) support, from which the node's **p-value** is derived,
//! * child edges to every motif that extends it by exactly one edge
//!   (possibly introducing one new vertex), and parent edges back.
//!
//! The structure is a DAG rather than a tree because a motif with `k` edges
//! can be reached by adding its edges in any order, and because there is one
//! root per distinct vertex label (paper §4.2).
//!
//! Nodes whose p-value meets a user threshold `T` are *frequent*; those are
//! the motifs LOOM tries to keep within partition boundaries.

use crate::canonical::{canonical_code, CanonicalCode};
use crate::error::Result;
use crate::query::QueryId;
use crate::signature::{PrimeTable, Signature};
use loom_graph::fxhash::{FxHashMap, FxHashSet};
use loom_graph::{Label, LabelledGraph};

/// Identifier of a motif node within a [`Tpstry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct MotifId(pub u32);

impl MotifId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for MotifId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A node of the TPSTry++.
#[derive(Debug, Clone)]
pub struct MotifNode {
    id: MotifId,
    graph: LabelledGraph,
    code: CanonicalCode,
    signature: Signature,
    support: f64,
    supporting_queries: FxHashSet<QueryId>,
    /// Children: motifs extending this one by a single edge.
    pub(crate) children: Vec<MotifId>,
    parents: Vec<MotifId>,
}

impl MotifNode {
    /// The node id.
    pub fn id(&self) -> MotifId {
        self.id
    }

    /// The motif graph (canonical representative, ids are internal).
    pub fn graph(&self) -> &LabelledGraph {
        &self.graph
    }

    /// The motif's signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The motif's exact canonical code (node identity key).
    pub fn canonical(&self) -> &CanonicalCode {
        &self.code
    }

    /// Number of vertices in the motif.
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of edges in the motif.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
}

/// The TPSTry++ DAG.
#[derive(Debug, Clone)]
pub struct Tpstry {
    nodes: Vec<MotifNode>,
    by_code: FxHashMap<CanonicalCode, MotifId>,
    roots: FxHashMap<Label, MotifId>,
    total_weight: f64,
    prime_table: PrimeTable,
}

impl Tpstry {
    /// Create an empty TPSTry++ whose signatures use the given prime table.
    pub fn new(prime_table: PrimeTable) -> Self {
        Self {
            nodes: Vec::new(),
            by_code: FxHashMap::default(),
            roots: FxHashMap::default(),
            total_weight: 0.0,
            prime_table,
        }
    }

    /// The prime table signatures are computed against.
    pub fn prime_table(&self) -> &PrimeTable {
        &self.prime_table
    }

    /// Number of motif nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the trie has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total query weight observed (denominator of every p-value).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Record that a query of the given weight has been folded into the trie
    /// (increases the p-value denominator).
    pub(crate) fn record_query_weight(&mut self, weight: f64) {
        self.total_weight += weight.max(0.0);
    }

    /// Look up or insert the node for (the isomorphism class of) `motif`.
    ///
    /// # Errors
    ///
    /// Fails if the motif uses labels outside the prime table's alphabet.
    pub(crate) fn insert_motif(&mut self, motif: &LabelledGraph) -> Result<MotifId> {
        let code = canonical_code(motif);
        if let Some(&id) = self.by_code.get(&code) {
            return Ok(id);
        }
        let signature = self.prime_table.signature_of(motif)?;
        let id = MotifId(self.nodes.len() as u32);
        let node = MotifNode {
            id,
            graph: motif.clone(),
            code: code.clone(),
            signature,
            support: 0.0,
            supporting_queries: FxHashSet::default(),
            children: Vec::new(),
            parents: Vec::new(),
        };
        self.nodes.push(node);
        self.by_code.insert(code, id);
        // Single-vertex motifs are the DAG's roots (one per label).
        if motif.vertex_count() == 1 && motif.edge_count() == 0 {
            let label = motif
                .labelled_vertices()
                .next()
                .map(|(_, l)| l)
                .expect("single vertex motif has a label");
            self.roots.entry(label).or_insert(id);
        }
        Ok(id)
    }

    /// Add support for a motif from a query. Support is only counted once per
    /// (motif, query) pair, no matter how many times the query contains the
    /// motif — the p-value models "the probability a random query traverses
    /// this pattern", not the embedding count.
    pub(crate) fn add_support(&mut self, id: MotifId, query: QueryId, weight: f64) {
        let node = &mut self.nodes[id.index()];
        if node.supporting_queries.insert(query) {
            node.support += weight.max(0.0);
        }
    }

    /// Record a parent → child extension edge (idempotent).
    pub fn link(&mut self, parent: MotifId, child: MotifId) {
        if parent == child {
            return;
        }
        if !self.nodes[parent.index()].children.contains(&child) {
            self.nodes[parent.index()].children.push(child);
        }
        if !self.nodes[child.index()].parents.contains(&parent) {
            self.nodes[child.index()].parents.push(parent);
        }
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this trie.
    pub fn node(&self, id: MotifId) -> &MotifNode {
        &self.nodes[id.index()]
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &MotifNode> + '_ {
        self.nodes.iter()
    }

    /// The node id whose motif is isomorphic to `graph`, if present.
    pub fn find_isomorphic(&self, graph: &LabelledGraph) -> Option<MotifId> {
        self.by_code.get(&canonical_code(graph)).copied()
    }

    /// The root node for a vertex label, if a single-vertex motif with that
    /// label has been inserted.
    pub fn root(&self, label: Label) -> Option<MotifId> {
        self.roots.get(&label).copied()
    }

    /// All root nodes, keyed by label.
    pub fn roots(&self) -> &FxHashMap<Label, MotifId> {
        &self.roots
    }

    /// The p-value of a node: its weighted support divided by the total query
    /// weight folded into the trie (0.0 when the trie is empty).
    pub fn p_value(&self, id: MotifId) -> f64 {
        if self.total_weight <= 0.0 {
            0.0
        } else {
            self.nodes[id.index()].support / self.total_weight
        }
    }

    /// All frequent motif ids at threshold `threshold`, sorted by descending
    /// p-value (ties broken by larger motif, then id, for determinism).
    pub fn frequent_motifs(&self, threshold: f64) -> Vec<MotifId> {
        let mut result: Vec<MotifId> = self
            .nodes
            .iter()
            .filter(|n| self.p_value(n.id) >= threshold)
            .map(|n| n.id)
            .collect();
        result.sort_by(|&a, &b| {
            self.p_value(b)
                .partial_cmp(&self.p_value(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| self.node(b).edge_count().cmp(&self.node(a).edge_count()))
                .then_with(|| a.cmp(&b))
        });
        result
    }

    /// Verify structural invariants (used by tests and debug assertions):
    /// support monotonicity (a child's supporting query set is a subset of
    /// each parent's... in fact of the union of parents') and parent/child
    /// symmetry. Returns a human-readable description of the first violation.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        for node in &self.nodes {
            for &child in &node.children {
                if !self.nodes[child.index()].parents.contains(&node.id) {
                    return Err(format!("child {child} of {} lacks back edge", node.id));
                }
                // A child motif extends the parent, so every query containing
                // the child also contains the parent: child support ≤ parent.
                let child_node = &self.nodes[child.index()];
                if !child_node
                    .supporting_queries
                    .is_subset(&node.supporting_queries)
                {
                    return Err(format!(
                        "child {child} supported by queries its parent {} is not",
                        node.id
                    ));
                }
                if child_node.support > node.support + 1e-9 {
                    return Err(format!(
                        "child {child} support {} exceeds parent {} support {}",
                        child_node.support, node.id, node.support
                    ));
                }
            }
            for &parent in &node.parents {
                if !self.nodes[parent.index()].children.contains(&node.id) {
                    return Err(format!("parent {parent} of {} lacks forward edge", node.id));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    fn single(label: Label) -> LabelledGraph {
        let mut g = LabelledGraph::new();
        g.add_vertex(label);
        g
    }

    #[test]
    fn insert_is_idempotent_up_to_isomorphism() {
        let mut trie = Tpstry::new(PrimeTable::new(4));
        let ab = path_graph(2, &[l(0), l(1)]);
        let ba = path_graph(2, &[l(1), l(0)]);
        let id1 = trie.insert_motif(&ab).unwrap();
        let id2 = trie.insert_motif(&ba).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(trie.node_count(), 1);
        assert_eq!(trie.find_isomorphic(&ab), Some(id1));
    }

    #[test]
    fn roots_are_single_vertex_motifs() {
        let mut trie = Tpstry::new(PrimeTable::new(4));
        let a = trie.insert_motif(&single(l(0))).unwrap();
        let b = trie.insert_motif(&single(l(1))).unwrap();
        let ab = trie.insert_motif(&path_graph(2, &[l(0), l(1)])).unwrap();
        assert_eq!(trie.root(l(0)), Some(a));
        assert_eq!(trie.root(l(1)), Some(b));
        assert_eq!(trie.root(l(2)), None);
        assert_eq!(trie.roots().len(), 2);
        assert_ne!(ab, a);
    }

    #[test]
    fn support_is_counted_once_per_query() {
        let mut trie = Tpstry::new(PrimeTable::new(4));
        let id = trie.insert_motif(&path_graph(2, &[l(0), l(1)])).unwrap();
        trie.record_query_weight(1.0);
        trie.add_support(id, QueryId::new(0), 1.0);
        trie.add_support(id, QueryId::new(0), 1.0); // duplicate, ignored
        assert!((trie.node(id).support - 1.0).abs() < 1e-12);
        assert!((trie.p_value(id) - 1.0).abs() < 1e-12);
        trie.record_query_weight(1.0);
        trie.add_support(id, QueryId::new(1), 1.0);
        assert!((trie.p_value(id) - 1.0).abs() < 1e-12);
        assert_eq!(trie.node(id).supporting_queries.len(), 2);
    }

    #[test]
    fn p_values_and_frequent_set() {
        let mut trie = Tpstry::new(PrimeTable::new(4));
        let a = trie.insert_motif(&single(l(0))).unwrap();
        let ab = trie.insert_motif(&path_graph(2, &[l(0), l(1)])).unwrap();
        // Two queries of weight 1 each; 'a' occurs in both, 'ab' in one.
        trie.record_query_weight(1.0);
        trie.record_query_weight(1.0);
        trie.add_support(a, QueryId::new(0), 1.0);
        trie.add_support(a, QueryId::new(1), 1.0);
        trie.add_support(ab, QueryId::new(0), 1.0);
        assert!((trie.p_value(a) - 1.0).abs() < 1e-12);
        assert!((trie.p_value(ab) - 0.5).abs() < 1e-12);
        assert!(trie.p_value(a) >= 0.9);
        assert!(trie.p_value(ab) < 0.9);
        let frequent = trie.frequent_motifs(0.5);
        assert_eq!(frequent, vec![a, ab]);
        let very_frequent = trie.frequent_motifs(0.75);
        assert_eq!(very_frequent, vec![a]);
    }

    #[test]
    fn links_are_symmetric_and_idempotent() {
        let mut trie = Tpstry::new(PrimeTable::new(4));
        let a = trie.insert_motif(&single(l(0))).unwrap();
        let ab = trie.insert_motif(&path_graph(2, &[l(0), l(1)])).unwrap();
        trie.link(a, ab);
        trie.link(a, ab);
        trie.link(a, a); // self link ignored
        assert_eq!(trie.node(a).children, [ab]);
        assert_eq!(trie.node(ab).parents, [a]);
        assert!(trie.check_invariants().is_ok());
    }

    #[test]
    fn invariant_checker_catches_support_violations() {
        let mut trie = Tpstry::new(PrimeTable::new(4));
        let a = trie.insert_motif(&single(l(0))).unwrap();
        let ab = trie.insert_motif(&path_graph(2, &[l(0), l(1)])).unwrap();
        trie.link(a, ab);
        trie.record_query_weight(1.0);
        // Child supported by a query the parent is not: violates monotonicity.
        trie.add_support(ab, QueryId::new(0), 1.0);
        assert!(trie.check_invariants().is_err());
    }

    #[test]
    fn empty_trie_behaviour() {
        let trie = Tpstry::new(PrimeTable::new(2));
        assert!(trie.is_empty());
        assert_eq!(trie.total_weight(), 0.0);
        assert!(trie.frequent_motifs(0.0).is_empty());
        assert!(trie.check_invariants().is_ok());
    }
}
