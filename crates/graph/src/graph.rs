//! The mutable labelled graph used throughout LOOM.
//!
//! [`LabelledGraph`] matches the paper's Definition of a labelled graph
//! `G = (V, E, L_V, f_l)`: a vertex set, an undirected edge set, and a
//! surjective mapping of vertices to labels. It is an adjacency-list
//! structure optimised for the operations the streaming partitioner and the
//! motif matcher need: add vertex/edge, neighbourhood iteration, degree and
//! label lookups, and induced sub-graph extraction.

use crate::error::{GraphError, Result};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{EdgeKey, Label, VertexId};
use crate::stream::StreamElement;
use serde::{Deserialize, Serialize};

/// An undirected, vertex-labelled graph.
///
/// Self-loops and parallel edges are rejected: the partitioning model in the
/// paper treats edges as unordered vertex pairs and a self-loop can never be
/// cut, so neither contributes anything to the problem.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LabelledGraph {
    labels: FxHashMap<VertexId, Label>,
    adjacency: FxHashMap<VertexId, Vec<VertexId>>,
    edges: FxHashSet<EdgeKey>,
    next_id: u64,
}

impl LabelledGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty graph with capacity reserved for roughly
    /// `vertices` vertices and `edges` edges.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        Self {
            labels: FxHashMap::with_capacity_and_hasher(vertices, Default::default()),
            adjacency: FxHashMap::with_capacity_and_hasher(vertices, Default::default()),
            edges: FxHashSet::with_capacity_and_hasher(edges, Default::default()),
            next_id: 0,
        }
    }

    /// Rebuild a graph from explicit per-vertex adjacency lists (e.g. when
    /// loading a checkpoint blob), **preserving each list's order** as the
    /// graph's neighbour-iteration order. This matters because downstream
    /// CSR snapshots inherit [`LabelledGraph::neighbors`] order, and match
    /// enumeration (and therefore match-limited metrics) follows it: a
    /// recovered graph reproduces traversals bit-for-bit only if the lists
    /// come back in the exact order they were serialized.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingVertex`] if a list references an id with
    /// no entry of its own, [`GraphError::SelfLoop`] for `v ∈ adj(v)`,
    /// [`GraphError::DuplicateEdge`] if a neighbour repeats within one list,
    /// and [`GraphError::Parse`] if an edge does not appear in **both**
    /// endpoints' lists (the symmetry a well-formed undirected serialization
    /// guarantees).
    pub fn from_adjacency_lists<I>(lists: I) -> Result<Self>
    where
        I: IntoIterator<Item = (VertexId, Label, Vec<VertexId>)>,
    {
        let lists = lists.into_iter();
        let mut graph = Self::with_capacity(lists.size_hint().0, 0);
        for (v, label, neighbours) in lists {
            graph.insert_vertex(v, label);
            // Installed verbatim — order preserved.
            graph.adjacency.insert(v, neighbours);
        }
        // Each undirected edge must be named once by each endpoint. The
        // lower endpoint's mention claims the edge's key …
        let arcs: usize = graph.adjacency.values().map(Vec::len).sum();
        graph.edges.reserve(arcs / 2);
        let mut sorted: Vec<VertexId> = Vec::new();
        for (&v, neighbours) in &graph.adjacency {
            sorted.clear();
            sorted.extend_from_slice(neighbours);
            sorted.sort_unstable();
            if let Some(twice) = sorted.windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::DuplicateEdge(v, twice[0]));
            }
            for &u in neighbours {
                if u == v {
                    return Err(GraphError::SelfLoop(v));
                }
                if !graph.labels.contains_key(&u) {
                    return Err(GraphError::MissingVertex(u));
                }
                if v < u {
                    graph.edges.insert(EdgeKey::new(v, u));
                }
            }
        }
        // … and the higher endpoint's mention must find it claimed. No list
        // repeats a neighbour, so mentions map to keys one to one: when each
        // downward mention finds its key and there are as many of them as
        // keys, every edge is named exactly twice.
        let asymmetric = |lo: VertexId, hi: VertexId| GraphError::Parse {
            line: 0,
            message: format!(
                "asymmetric adjacency: edge ({lo}, {hi}) is missing from one endpoint's list"
            ),
        };
        let mut downward = 0usize;
        for (&v, neighbours) in &graph.adjacency {
            for &u in neighbours.iter().filter(|&&u| u < v) {
                if !graph.edges.contains(&EdgeKey::new(u, v)) {
                    return Err(asymmetric(u, v));
                }
                downward += 1;
            }
        }
        if downward != graph.edges.len() {
            let unanswered = graph
                .edges
                .iter()
                .find(|key| !graph.adjacency[&key.hi].contains(&key.lo));
            let key = unanswered.expect("fewer answers than claims leaves one unanswered");
            return Err(asymmetric(key.lo, key.hi));
        }
        Ok(graph)
    }

    /// Add a new vertex with the given label, returning its freshly allocated
    /// id (ids allocated this way are dense and increasing).
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId::new(self.next_id);
        self.next_id += 1;
        self.labels.insert(id, label);
        self.adjacency.entry(id).or_default();
        id
    }

    /// Insert a vertex with an explicit id (e.g. when replaying a stream or
    /// loading a file). Returns `true` if the vertex was new, `false` if the
    /// vertex already existed (in which case its label is updated).
    pub fn insert_vertex(&mut self, id: VertexId, label: Label) -> bool {
        self.next_id = self.next_id.max(id.raw() + 1);
        self.adjacency.entry(id).or_default();
        self.labels.insert(id, label).is_none()
    }

    /// Add an undirected edge between two existing vertices.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingVertex`] if either endpoint is absent,
    /// [`GraphError::SelfLoop`] for `a == b`, and
    /// [`GraphError::DuplicateEdge`] if the edge already exists.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) -> Result<EdgeKey> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        if !self.labels.contains_key(&a) {
            return Err(GraphError::MissingVertex(a));
        }
        if !self.labels.contains_key(&b) {
            return Err(GraphError::MissingVertex(b));
        }
        let key = EdgeKey::new(a, b);
        if !self.edges.insert(key) {
            return Err(GraphError::DuplicateEdge(a, b));
        }
        self.adjacency.entry(a).or_default().push(b);
        self.adjacency.entry(b).or_default().push(a);
        Ok(key)
    }

    /// Add an edge if it is not already present, ignoring duplicates.
    /// Returns `true` if the edge was inserted.
    ///
    /// # Errors
    ///
    /// Returns the same endpoint errors as [`LabelledGraph::add_edge`].
    pub fn add_edge_idempotent(&mut self, a: VertexId, b: VertexId) -> Result<bool> {
        match self.add_edge(a, b) {
            Ok(_) => Ok(true),
            Err(GraphError::DuplicateEdge(_, _)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Remove an edge. Returns `true` if it was present.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        let key = EdgeKey::new(a, b);
        if !self.edges.remove(&key) {
            return false;
        }
        if let Some(list) = self.adjacency.get_mut(&a) {
            list.retain(|&v| v != b);
        }
        if let Some(list) = self.adjacency.get_mut(&b) {
            list.retain(|&v| v != a);
        }
        true
    }

    /// Remove a vertex and all of its incident edges.
    /// Returns `true` if the vertex was present.
    pub fn remove_vertex(&mut self, v: VertexId) -> bool {
        if self.labels.remove(&v).is_none() {
            return false;
        }
        let neighbours = self.adjacency.remove(&v).unwrap_or_default();
        for n in neighbours {
            self.edges.remove(&EdgeKey::new(v, n));
            if let Some(list) = self.adjacency.get_mut(&n) {
                list.retain(|&u| u != v);
            }
        }
        true
    }

    /// Whether the vertex exists.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.labels.contains_key(&v)
    }

    /// Whether the undirected edge exists.
    #[inline]
    pub fn contains_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.edges.contains(&EdgeKey::new(a, b))
    }

    /// The label of a vertex.
    #[inline]
    pub fn label(&self, v: VertexId) -> Option<Label> {
        self.labels.get(&v).copied()
    }

    /// Change the label of an existing vertex. Returns the previous label.
    pub fn set_label(&mut self, v: VertexId, label: Label) -> Result<Label> {
        match self.labels.get_mut(&v) {
            Some(slot) => Ok(std::mem::replace(slot, label)),
            None => Err(GraphError::MissingVertex(v)),
        }
    }

    /// Apply one stream element with the no-op-on-missing semantics every
    /// replay path shares (stream materialisation, the durable mirror, WAL
    /// recovery, growth experiments): re-adding a vertex updates its label,
    /// a duplicate edge or one with a missing endpoint is ignored, and
    /// removing or relabelling something absent does nothing — so any
    /// element interleaving applies without error, and "recovered ≡ live"
    /// cannot drift between two copies of this match.
    #[inline]
    pub fn apply(&mut self, element: &StreamElement) {
        match *element {
            StreamElement::AddVertex { id, label } => {
                self.insert_vertex(id, label);
            }
            StreamElement::AddEdge { source, target } => {
                let _ = self.add_edge_idempotent(source, target);
            }
            StreamElement::RemoveVertex { id } => {
                self.remove_vertex(id);
            }
            StreamElement::RemoveEdge { source, target } => {
                self.remove_edge(source, target);
            }
            StreamElement::Relabel { id, label } => {
                let _ = self.set_label(id, label);
            }
        }
    }

    /// The neighbours of a vertex (empty slice if the vertex is absent).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.adjacency.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The degree of a vertex (0 if absent).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency.get(&v).map(Vec::len).unwrap_or(0)
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterate over all vertex ids (arbitrary order).
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.labels.keys().copied()
    }

    /// All vertex ids, sorted ascending. Useful for deterministic iteration.
    pub fn vertices_sorted(&self) -> Vec<VertexId> {
        let mut ids: Vec<_> = self.labels.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Iterate over all undirected edges (arbitrary order).
    pub fn edges(&self) -> impl Iterator<Item = EdgeKey> + '_ {
        self.edges.iter().copied()
    }

    /// All edges, sorted lexicographically. Useful for deterministic iteration.
    pub fn edges_sorted(&self) -> Vec<EdgeKey> {
        let mut edges: Vec<_> = self.edges.iter().copied().collect();
        edges.sort_unstable();
        edges
    }

    /// Iterate over `(VertexId, Label)` pairs (arbitrary order).
    pub fn labelled_vertices(&self) -> impl Iterator<Item = (VertexId, Label)> + '_ {
        self.labels.iter().map(|(&v, &l)| (v, l))
    }

    /// The maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.values().map(Vec::len).max().unwrap_or(0)
    }

    /// The average degree `2|E| / |V|` (0.0 for an empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            2.0 * self.edges.len() as f64 / self.labels.len() as f64
        }
    }

    /// Histogram of labels → number of vertices carrying that label.
    pub fn label_histogram(&self) -> FxHashMap<Label, usize> {
        let mut hist = FxHashMap::default();
        for &label in self.labels.values() {
            *hist.entry(label).or_insert(0) += 1;
        }
        hist
    }

    /// The set of distinct labels present in the graph.
    pub fn distinct_labels(&self) -> Vec<Label> {
        let mut labels: Vec<Label> = self
            .labels
            .values()
            .copied()
            .collect::<FxHashSet<_>>()
            .into_iter()
            .collect();
        labels.sort_unstable();
        labels
    }

    /// Copy every vertex and edge of `other` into `self`, keeping ids.
    /// Existing vertices keep their current label; duplicate edges are ignored.
    pub fn absorb(&mut self, other: &LabelledGraph) {
        for (v, l) in other.labelled_vertices() {
            if !self.contains_vertex(v) {
                self.insert_vertex(v, l);
            }
        }
        for e in other.edges() {
            let _ = self.add_edge_idempotent(e.lo, e.hi);
        }
    }

    /// Number of edges between `v` and vertices in `set`.
    pub fn edges_into_set(&self, v: VertexId, set: &FxHashSet<VertexId>) -> usize {
        self.neighbors(v).iter().filter(|n| set.contains(n)).count()
    }

    /// Total memory-light summary used in logs and reports.
    pub fn summary(&self) -> GraphSummary {
        GraphSummary {
            vertices: self.vertex_count(),
            edges: self.edge_count(),
            max_degree: self.max_degree(),
            avg_degree: self.average_degree(),
            labels: self.distinct_labels().len(),
        }
    }
}

/// A compact statistical summary of a graph, used in reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphSummary {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Maximum vertex degree.
    pub max_degree: usize,
    /// Average vertex degree.
    pub avg_degree: f64,
    /// Number of distinct labels.
    pub labels: usize,
}

impl std::fmt::Display for GraphSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} max_deg={} avg_deg={:.2} labels={}",
            self.vertices, self.edges, self.max_degree, self.avg_degree, self.labels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_vertex_graph() -> (LabelledGraph, VertexId, VertexId) {
        let mut g = LabelledGraph::new();
        let a = g.add_vertex(Label::new(0));
        let b = g.add_vertex(Label::new(1));
        (g, a, b)
    }

    #[test]
    fn add_vertex_allocates_dense_ids() {
        let mut g = LabelledGraph::new();
        let a = g.add_vertex(Label::new(0));
        let b = g.add_vertex(Label::new(1));
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.label(a), Some(Label::new(0)));
        assert_eq!(g.label(b), Some(Label::new(1)));
    }

    #[test]
    fn insert_vertex_respects_explicit_ids() {
        let mut g = LabelledGraph::new();
        assert!(g.insert_vertex(VertexId::new(10), Label::new(2)));
        // Fresh ids continue after the largest explicit id.
        let next = g.add_vertex(Label::new(0));
        assert_eq!(next.raw(), 11);
        // Re-inserting updates the label and reports "not new".
        assert!(!g.insert_vertex(VertexId::new(10), Label::new(3)));
        assert_eq!(g.label(VertexId::new(10)), Some(Label::new(3)));
    }

    #[test]
    fn add_edge_updates_adjacency_both_ways() {
        let (mut g, a, b) = two_vertex_graph();
        g.add_edge(a, b).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(a), &[b]);
        assert_eq!(g.neighbors(b), &[a]);
        assert!(g.contains_edge(a, b));
        assert!(g.contains_edge(b, a));
        assert_eq!(g.degree(a), 1);
    }

    #[test]
    fn add_edge_rejects_self_loops_and_duplicates_and_missing() {
        let (mut g, a, b) = two_vertex_graph();
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop(a)));
        g.add_edge(a, b).unwrap();
        assert!(matches!(
            g.add_edge(b, a),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        let ghost = VertexId::new(99);
        assert_eq!(g.add_edge(a, ghost), Err(GraphError::MissingVertex(ghost)));
        assert_eq!(g.add_edge(ghost, a), Err(GraphError::MissingVertex(ghost)));
    }

    #[test]
    fn idempotent_edge_insertion() {
        let (mut g, a, b) = two_vertex_graph();
        assert!(g.add_edge_idempotent(a, b).unwrap());
        assert!(!g.add_edge_idempotent(a, b).unwrap());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn remove_edge_and_vertex() {
        let mut g = LabelledGraph::new();
        let a = g.add_vertex(Label::new(0));
        let b = g.add_vertex(Label::new(1));
        let c = g.add_vertex(Label::new(2));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();

        assert!(g.remove_edge(a, b));
        assert!(!g.remove_edge(a, b));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(a), 0);

        assert!(g.remove_vertex(b));
        assert!(!g.remove_vertex(b));
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(c), 0);
    }

    #[test]
    fn set_label_replaces_and_errors_on_missing() {
        let (mut g, a, _) = two_vertex_graph();
        assert_eq!(g.set_label(a, Label::new(5)).unwrap(), Label::new(0));
        assert_eq!(g.label(a), Some(Label::new(5)));
        assert!(g.set_label(VertexId::new(77), Label::new(0)).is_err());
    }

    #[test]
    fn statistics_and_histograms() {
        let mut g = LabelledGraph::new();
        let a = g.add_vertex(Label::new(0));
        let b = g.add_vertex(Label::new(0));
        let c = g.add_vertex(Label::new(1));
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 4.0 / 3.0).abs() < 1e-9);
        let hist = g.label_histogram();
        assert_eq!(hist[&Label::new(0)], 2);
        assert_eq!(hist[&Label::new(1)], 1);
        assert_eq!(g.distinct_labels(), vec![Label::new(0), Label::new(1)]);
        let summary = g.summary();
        assert_eq!(summary.vertices, 3);
        assert_eq!(summary.edges, 2);
        assert_eq!(summary.labels, 2);
        assert!(summary.to_string().contains("|V|=3"));
    }

    #[test]
    fn absorb_merges_graphs() {
        let mut g1 = LabelledGraph::new();
        let a = g1.add_vertex(Label::new(0));
        let b = g1.add_vertex(Label::new(1));
        g1.add_edge(a, b).unwrap();

        let mut g2 = LabelledGraph::new();
        g2.insert_vertex(b, Label::new(1));
        g2.insert_vertex(VertexId::new(5), Label::new(2));
        g2.add_edge(b, VertexId::new(5)).unwrap();

        g1.absorb(&g2);
        assert_eq!(g1.vertex_count(), 3);
        assert_eq!(g1.edge_count(), 2);
        assert!(g1.contains_edge(b, VertexId::new(5)));
    }

    #[test]
    fn sorted_accessors_are_deterministic() {
        let mut g = LabelledGraph::new();
        for i in 0..10 {
            g.insert_vertex(VertexId::new(9 - i), Label::new(0));
        }
        let sorted = g.vertices_sorted();
        assert_eq!(sorted.len(), 10);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn from_adjacency_lists_preserves_neighbour_order() {
        // Build a graph whose adjacency order differs from sorted order,
        // then round-trip it through explicit lists.
        let mut g = LabelledGraph::new();
        for i in 0..4 {
            g.insert_vertex(VertexId::new(i), Label::new(i as u32));
        }
        // Edge insertion order drives neighbour order: 0 sees 3, then 1.
        g.add_edge(VertexId::new(0), VertexId::new(3)).unwrap();
        g.add_edge(VertexId::new(0), VertexId::new(1)).unwrap();
        g.add_edge(VertexId::new(2), VertexId::new(1)).unwrap();
        let lists: Vec<_> = g
            .vertices_sorted()
            .into_iter()
            .map(|v| (v, g.label(v).unwrap(), g.neighbors(v).to_vec()))
            .collect();
        let rebuilt = LabelledGraph::from_adjacency_lists(lists).unwrap();
        assert_eq!(rebuilt.vertex_count(), g.vertex_count());
        assert_eq!(rebuilt.edge_count(), g.edge_count());
        for v in g.vertices_sorted() {
            assert_eq!(rebuilt.neighbors(v), g.neighbors(v), "order of {v}");
            assert_eq!(rebuilt.label(v), g.label(v));
        }
        assert_eq!(rebuilt.edges_sorted(), g.edges_sorted());
        // Fresh ids continue after the largest explicit id.
        assert_eq!(rebuilt.clone().add_vertex(Label::new(0)).raw(), 4);
    }

    #[test]
    fn from_adjacency_lists_rejects_malformed_input() {
        let v = |i: u64| VertexId::new(i);
        let l = Label::new(0);
        // Neighbour with no vertex entry.
        assert!(matches!(
            LabelledGraph::from_adjacency_lists(vec![(v(0), l, vec![v(9)])]),
            Err(GraphError::MissingVertex(_))
        ));
        // Self-loop.
        assert!(matches!(
            LabelledGraph::from_adjacency_lists(vec![(v(0), l, vec![v(0)])]),
            Err(GraphError::SelfLoop(_))
        ));
        // Repeated neighbour within one list.
        assert!(matches!(
            LabelledGraph::from_adjacency_lists(vec![
                (v(0), l, vec![v(1), v(1)]),
                (v(1), l, vec![v(0)]),
            ]),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        // Asymmetric edge: 0 lists 1 but 1 does not list 0 — and the other
        // way round, with a sound edge beside it either time.
        for (zero, one) in [(vec![v(1), v(2)], vec![]), (vec![v(2)], vec![v(0)])] {
            assert!(matches!(
                LabelledGraph::from_adjacency_lists(vec![
                    (v(0), l, zero),
                    (v(1), l, one),
                    (v(2), l, vec![v(0)]),
                ]),
                Err(GraphError::Parse { .. })
            ));
        }
    }

    #[test]
    fn edges_into_set_counts_correctly() {
        let mut g = LabelledGraph::new();
        let a = g.add_vertex(Label::new(0));
        let b = g.add_vertex(Label::new(0));
        let c = g.add_vertex(Label::new(0));
        let d = g.add_vertex(Label::new(0));
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(a, d).unwrap();
        let mut set = FxHashSet::default();
        set.insert(b);
        set.insert(c);
        assert_eq!(g.edges_into_set(a, &set), 2);
    }
    #[test]
    fn apply_is_idempotent_and_ignores_missing_targets() {
        let v = VertexId::new;
        let script = [
            StreamElement::AddVertex {
                id: v(0),
                label: Label::new(0),
            },
            StreamElement::AddVertex {
                id: v(1),
                label: Label::new(1),
            },
            StreamElement::AddVertex {
                id: v(2),
                label: Label::new(2),
            },
            StreamElement::AddEdge {
                source: v(0),
                target: v(1),
            },
            StreamElement::AddEdge {
                source: v(1),
                target: v(2),
            },
            StreamElement::RemoveVertex { id: v(1) },
            // Every target below is missing by now: all no-ops.
            StreamElement::Relabel {
                id: v(1),
                label: Label::new(5),
            },
            StreamElement::RemoveEdge {
                source: v(0),
                target: v(1),
            },
            StreamElement::AddEdge {
                source: v(0),
                target: v(1),
            },
            StreamElement::RemoveVertex { id: v(9) },
            // Re-add under a new label and reconnect one side.
            StreamElement::AddVertex {
                id: v(1),
                label: Label::new(9),
            },
            StreamElement::AddEdge {
                source: v(1),
                target: v(2),
            },
            StreamElement::Relabel {
                id: v(0),
                label: Label::new(7),
            },
        ];
        let state = |g: &LabelledGraph| {
            let mut labelled: Vec<_> = g.labelled_vertices().collect();
            labelled.sort_unstable();
            (labelled, g.edges_sorted())
        };
        let mut g = LabelledGraph::new();
        script.iter().for_each(|e| g.apply(e));
        let once = state(&g);
        assert_eq!(
            once.0,
            vec![
                (v(0), Label::new(7)),
                (v(1), Label::new(9)),
                (v(2), Label::new(2)),
            ]
        );
        assert_eq!(once.1, vec![EdgeKey::new(v(1), v(2))]);
        assert_eq!(g.neighbors(v(0)), &[] as &[VertexId]);
        // A second pass over the same script lands in the same state.
        script.iter().for_each(|e| g.apply(e));
        assert_eq!(state(&g), once);
    }
}
