//! The mutable labelled graph used throughout LOOM.
//!
//! [`LabelledGraph`] matches the paper's Definition of a labelled graph
//! `G = (V, E, L_V, f_l)`: a vertex set, an undirected edge set, and a
//! surjective mapping of vertices to labels. It is an adjacency-list
//! structure optimised for the operations the streaming partitioner and the
//! motif matcher need: add vertex/edge, neighbourhood iteration, degree and
//! label lookups, and induced sub-graph extraction.
//!
//! # Layout
//!
//! The graph is a slab. A vertex occupies one *slot* — its id, its label and
//! its adjacency list — found through one `id → slot` [`VertexIndex`]: an
//! array cell for the dense ids a stream usually carries, a hash probe for
//! the rest. Every adjacency
//! list is a block of **one shared arena** of vertex ids (a
//! [`ListPool`], the same pool type the partitioner's sliding window keeps
//! its lists in). There is no edge set: the edge count is a counter, and
//! whether an edge exists is read off the shorter of its endpoints' lists.
//!
//! What is recycled: slots (a free list of indices) and list blocks (a free
//! list per power-of-two size, shared by all vertices, so a removed hub's
//! block serves the next hub wherever it lands). Once the index, the slot
//! vector, the arena and the free lists have reached a stream's high-water
//! mark, no operation allocates. Slots are numbered in `u32`: a graph holds
//! fewer than `u32::MAX` of them, and asking for more is a panic.
//!
//! Adjacency lists keep push order and removals preserve the order of what
//! stays: downstream CSR snapshots inherit [`LabelledGraph::neighbors`]
//! order and match enumeration follows it, so it is part of the contract.
//! [`LabelledGraph::vertices`], [`LabelledGraph::edges`] and
//! [`LabelledGraph::labelled_vertices`] walk the slots, an order that
//! depends on the history of insertions and removals; callers that need a
//! fixed order use the `*_sorted` accessors.
//!
//! # Cost per operation
//!
//! An *index lookup* is one array load for an id below the index's direct
//! bound and one hash probe above it (see [`VertexIndex`]).
//!
//! | operation | index lookups | list work |
//! |---|---|---|
//! | `insert_vertex`, `set_label`, `label`, `neighbors`, `degree` | 1 | — |
//! | `add_edge` | 2 | a scan of the shorter endpoint list, 2 pushes |
//! | `contains_edge` | 2 | a scan of the shorter endpoint list: O(min degree) |
//! | `remove_edge` | 2 | an order-preserving removal from each endpoint's list |
//! | `remove_vertex` | 1 + 1 per neighbour | an order-preserving removal from each neighbour's list |
//! | `vertices`, `labelled_vertices` | 0 | a slot walk |
//! | `adjacency_sorted`, `vertices_sorted` and their walks `adjacency_ordered`, `vertices_ordered` | 0 | the index walked in id order, one slot read per vertex; only ids above the direct bound are sorted |
//! | `edges` | 0 | O(arcs): every list is walked, each edge yielded from its lower endpoint |
//! | `edge_count`, `vertex_count` | 0 | a counter read |
//! | `from_proven_lists` | 1 per vertex | one block copy per vertex; nothing checked, nothing sorted |

use crate::error::{GraphError, Result};
use crate::fxhash::FxHashMap;
use crate::ids::{EdgeKey, Label, VertexId};
use crate::pool::{List, ListPool};
use crate::stream::StreamElement;
use crate::vertex_index::VertexIndex;

/// One vertex of the slab, or a vacancy on the free list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: VertexId,
    label: Label,
    adjacency: List,
    /// Cleared when the vertex is removed; the slot walks skip it until
    /// [`LabelledGraph::insert_vertex`] hands the slot out again.
    live: bool,
}

/// An undirected, vertex-labelled graph.
///
/// Self-loops and parallel edges are rejected: the partitioning model in the
/// paper treats edges as unordered vertex pairs and a self-loop can never be
/// cut, so neither contributes anything to the problem.
#[derive(Debug, Clone, Default)]
pub struct LabelledGraph {
    /// Exactly the live vertices, each to its slot.
    slot_of: VertexIndex,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    lists: ListPool,
    edge_count: usize,
    next_id: u64,
}

impl LabelledGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty graph with capacity reserved for roughly
    /// `vertices` vertices and `edges` edges; its id index expects
    /// `vertices` ids (see [`VertexIndex::with_expected`]).
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        Self {
            slot_of: VertexIndex::with_expected(vertices),
            slots: Vec::with_capacity(vertices),
            lists: ListPool::with_capacity(2 * edges),
            ..Self::default()
        }
    }

    /// Rebuild a graph from per-vertex adjacency lists somebody has already
    /// proven, **preserving each list's order** as the graph's
    /// neighbour-iteration order (the order CSR snapshots inherit, and match
    /// enumeration with them). Proven means: each vertex once, no self-loop,
    /// no repeated neighbour, every edge in both endpoints' lists — what a
    /// sound CSR arena holds. Nothing is checked and nothing is sorted: one
    /// map insert and one block copy per vertex, through one scratch buffer.
    /// `vertices` and `edges` size the slab up front.
    ///
    /// Lists that break the promise — a self-loop, a repeated neighbour, an
    /// edge one endpoint lists — build a graph that breaks its own
    /// invariants, but building it, and [`LabelledGraph::apply`] on it,
    /// never panics. The one caller, `ShardedStore::to_graph`, builds only
    /// from arenas that passed `check_arena`. Input nobody will prove is
    /// built through [`LabelledGraph::add_edge`], which refuses it.
    pub fn from_proven_lists<I, N>(vertices: usize, edges: usize, lists: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, Label, N)>,
        N: IntoIterator<Item = VertexId>,
    {
        let mut graph = Self::with_capacity(vertices, edges);
        let mut list: Vec<VertexId> = Vec::new();
        let mut arcs = 0;
        for (v, label, neighbours) in lists {
            list.clear();
            list.extend(neighbours);
            arcs += list.len();
            graph.insert_vertex(v, label);
            let slot = graph.slots.last_mut().expect("the slot just pushed");
            debug_assert!(
                slot.id == v && slot.adjacency.is_empty(),
                "{v} listed twice"
            );
            slot.adjacency = graph.lists.list_from(&list);
        }
        graph.edge_count = arcs / 2;
        graph
    }

    /// Add a new vertex with the given label, returning its freshly allocated
    /// id (ids allocated this way are dense and increasing).
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId::new(self.next_id);
        self.insert_vertex(id, label);
        id
    }

    /// Insert a vertex with an explicit id (e.g. when replaying a stream or
    /// loading a file). Returns `true` if the vertex was new, `false` if the
    /// vertex already existed (in which case its label is updated).
    pub fn insert_vertex(&mut self, id: VertexId, label: Label) -> bool {
        // Ids arrive from files and logs: `u64::MAX` must not overflow.
        self.next_id = self.next_id.max(id.raw().saturating_add(1));
        let slot = Slot {
            id,
            label,
            adjacency: List::default(),
            live: true,
        };
        // The slot a new vertex takes: the last vacancy, or a fresh one.
        let s = match self.free_slots.last() {
            Some(&s) => s,
            None => u32::try_from(self.slots.len())
                .ok()
                .filter(|&s| s != u32::MAX)
                .expect("a graph holds fewer than u32::MAX vertex slots"),
        };
        if let Err(held) = self.slot_of.try_insert(id, s) {
            self.slots[held as usize].label = label;
            return false;
        }
        if self.free_slots.pop().is_some() {
            self.slots[s as usize] = slot;
        } else {
            self.slots.push(slot);
        }
        true
    }

    /// The slot of `v`, if it is live.
    #[inline]
    fn slot_index(&self, v: VertexId) -> Option<usize> {
        self.slot_of.get(v).map(|s| s as usize)
    }

    /// The slot of a vertex that must exist to be an edge's endpoint.
    fn endpoint(&self, v: VertexId) -> Result<usize> {
        self.slot_index(v).ok_or(GraphError::MissingVertex(v))
    }

    /// Whether the vertices in slots `sa` and `sb` are adjacent: a scan of
    /// the shorter of the two lists.
    fn slots_adjacent(&self, sa: usize, sb: usize) -> bool {
        let (a, b) = (&self.slots[sa], &self.slots[sb]);
        if a.adjacency.len() <= b.adjacency.len() {
            self.lists.get(a.adjacency).contains(&b.id)
        } else {
            self.lists.get(b.adjacency).contains(&a.id)
        }
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
        let sa = self.endpoint(a)?;
        let sb = self.endpoint(b)?;
        if self.slots_adjacent(sa, sb) {
            return Err(GraphError::DuplicateEdge(a, b));
        }
        self.lists.push(&mut self.slots[sa].adjacency, b);
        self.lists.push(&mut self.slots[sb].adjacency, a);
        self.edge_count += 1;
        Ok(EdgeKey::new(a, b))
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
        let (Some(sa), Some(sb)) = (self.slot_index(a), self.slot_index(b)) else {
            return false;
        };
        let before = self.slots[sa].adjacency.len();
        self.lists.retain_ne(&mut self.slots[sa].adjacency, b);
        if self.slots[sa].adjacency.len() == before {
            return false;
        }
        self.lists.retain_ne(&mut self.slots[sb].adjacency, a);
        // Saturating, for a graph built from unproven lists (see
        // `from_proven_lists`), whose count may undercount its arcs.
        self.edge_count = self.edge_count.saturating_sub(1);
        true
    }

    /// Remove a vertex and all of its incident edges.
    /// Returns `true` if the vertex was present.
    pub fn remove_vertex(&mut self, v: VertexId) -> bool {
        let Some(s) = self.slot_of.remove(v).map(|s| s as usize) else {
            return false;
        };
        let adjacency = self.slots[s].adjacency;
        for i in 0..adjacency.len() {
            // A neighbour is always live — except in a graph built from
            // unproven lists (see `from_proven_lists`), where `v` may name
            // itself or a vertex removed without naming it back.
            let n = self.lists.item(adjacency, i);
            if let Some(sn) = self.slot_index(n) {
                self.lists.retain_ne(&mut self.slots[sn].adjacency, v);
            }
        }
        self.edge_count = self.edge_count.saturating_sub(adjacency.len());
        self.lists.release(adjacency);
        self.slots[s].live = false;
        self.free_slots.push(s as u32);
        true
    }

    fn slot(&self, v: VertexId) -> Option<&Slot> {
        self.slot_index(v).map(|s| &self.slots[s])
    }

    /// Whether the vertex exists.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.slot_of.contains(v)
    }

    /// Whether the undirected edge exists.
    #[inline]
    pub fn contains_edge(&self, a: VertexId, b: VertexId) -> bool {
        match (self.slot_index(a), self.slot_index(b)) {
            (Some(sa), Some(sb)) => self.slots_adjacent(sa, sb),
            _ => false,
        }
    }

    /// The label of a vertex.
    #[inline]
    pub fn label(&self, v: VertexId) -> Option<Label> {
        self.slot(v).map(|slot| slot.label)
    }

    /// Change the label of an existing vertex. Returns the previous label.
    pub fn set_label(&mut self, v: VertexId, label: Label) -> Result<Label> {
        match self.slot_index(v) {
            Some(s) => Ok(std::mem::replace(&mut self.slots[s].label, label)),
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
        self.slot(v)
            .map_or(&[], |slot| self.lists.get(slot.adjacency))
    }

    /// The degree of a vertex (0 if absent).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.slot(v).map_or(0, |slot| slot.adjacency.len())
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.slot_of.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// The live slots, in slot order.
    pub(crate) fn adjacency(&self) -> impl Iterator<Item = (VertexId, Label, &[VertexId])> + '_ {
        self.slots
            .iter()
            .filter(|slot| slot.live)
            .map(|slot| (slot.id, slot.label, self.lists.get(slot.adjacency)))
    }

    /// Every vertex with its label and its neighbours (in
    /// [`LabelledGraph::neighbors`] order), by ascending vertex id — the
    /// `id → slot` index walked in order ([`VertexIndex::ordered`]), one
    /// slot read per vertex and no sort but the index's hashed ids: what a
    /// snapshot builder reads the whole graph through.
    pub fn adjacency_sorted(&self) -> Vec<(VertexId, Label, &[VertexId])> {
        let mut rows = Vec::with_capacity(self.vertex_count());
        rows.extend(self.adjacency_ordered());
        rows
    }

    /// The rows of [`LabelledGraph::adjacency_sorted`], walked rather than
    /// collected: a reader that takes each row once holds no copy of them.
    pub fn adjacency_ordered(&self) -> impl Iterator<Item = (VertexId, Label, &[VertexId])> + '_ {
        self.slot_of.ordered().map(|(v, s)| {
            let slot = &self.slots[s as usize];
            (v, slot.label, self.lists.get(slot.adjacency))
        })
    }

    /// Iterate over all vertex ids (arbitrary order).
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.adjacency().map(|(v, _, _)| v)
    }

    /// All vertex ids, ascending: the `id → slot` index walked in order.
    /// Useful for deterministic iteration.
    pub fn vertices_sorted(&self) -> Vec<VertexId> {
        let mut ids = Vec::with_capacity(self.vertex_count());
        ids.extend(self.vertices_ordered());
        ids
    }

    /// The ids of [`LabelledGraph::vertices_sorted`], walked rather than
    /// collected; no slot is read.
    pub fn vertices_ordered(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.slot_of.ordered().map(|(v, _)| v)
    }

    /// Iterate over all undirected edges (arbitrary order).
    pub fn edges(&self) -> impl Iterator<Item = EdgeKey> + '_ {
        self.adjacency().flat_map(|(v, _, neighbours)| {
            let above = neighbours.iter().filter(move |&&u| v < u);
            above.map(move |&u| EdgeKey::new(v, u))
        })
    }

    /// All edges, sorted lexicographically. Useful for deterministic iteration.
    pub fn edges_sorted(&self) -> Vec<EdgeKey> {
        let mut edges: Vec<_> = self.edges().collect();
        edges.sort_unstable();
        edges
    }

    /// Iterate over `(VertexId, Label)` pairs (arbitrary order).
    pub fn labelled_vertices(&self) -> impl Iterator<Item = (VertexId, Label)> + '_ {
        self.adjacency().map(|(v, label, _)| (v, label))
    }

    /// The maximum degree over all vertices (0 for an empty graph).
    pub(crate) fn max_degree(&self) -> usize {
        self.adjacency()
            .map(|(_, _, neighbours)| neighbours.len())
            .max()
            .unwrap_or(0)
    }

    /// The average degree `2|E| / |V|` (0.0 for an empty graph).
    pub(crate) fn average_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.vertex_count() as f64
        }
    }

    /// Histogram of labels → number of vertices carrying that label.
    pub fn label_histogram(&self) -> FxHashMap<Label, usize> {
        let mut hist = FxHashMap::default();
        for (_, label) in self.labelled_vertices() {
            *hist.entry(label).or_insert(0) += 1;
        }
        hist
    }

    /// The set of distinct labels present in the graph.
    pub(crate) fn distinct_labels(&self) -> Vec<Label> {
        let mut labels: Vec<Label> = self.label_histogram().into_keys().collect();
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    fn from_proven_lists_preserves_neighbour_order() {
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
        let mut rebuilt = LabelledGraph::from_proven_lists(4, 3, lists);
        assert_eq!(rebuilt.vertex_count(), g.vertex_count());
        assert_eq!(rebuilt.edge_count(), g.edge_count());
        for v in g.vertices_sorted() {
            assert_eq!(rebuilt.neighbors(v), g.neighbors(v), "order of {v}");
            assert_eq!(rebuilt.label(v), g.label(v));
        }
        assert_eq!(rebuilt.edges_sorted(), g.edges_sorted());
        // Fresh ids continue after the largest explicit id, and what is
        // built stays a graph: edits land where they would have.
        assert_eq!(rebuilt.add_vertex(Label::new(0)).raw(), 4);
        assert!(rebuilt.remove_vertex(VertexId::new(1)));
        assert_eq!(rebuilt.neighbors(VertexId::new(0)), &[VertexId::new(3)]);
        assert_eq!(rebuilt.edge_count(), 1);
    }

    #[test]
    fn the_trusting_builder_does_not_panic_on_unproven_lists() {
        let v = |i: u64| VertexId::new(i);
        let l = Label::new(0);
        // Lists no sound arena holds still build a graph — and the graph it
        // builds takes every kind of element, in either order
        // of removal, without panicking: it is discarded, never read.
        let cases = [
            (
                "self-loop",
                vec![(v(0), l, vec![v(0), v(1)]), (v(1), l, vec![v(0)])],
            ),
            (
                "repeated neighbour",
                vec![(v(0), l, vec![v(1), v(1)]), (v(1), l, vec![v(0)])],
            ),
            (
                "one-sided edge",
                vec![(v(0), l, vec![v(1)]), (v(1), l, vec![]), (v(2), l, vec![])],
            ),
        ];
        for (case, lists) in cases {
            for first in [v(0), v(1)] {
                let second = VertexId::new(1 - first.raw());
                let mut g = LabelledGraph::from_proven_lists(3, 1, lists.clone());
                for element in [
                    StreamElement::RemoveEdge {
                        source: second,
                        target: first,
                    },
                    StreamElement::RemoveEdge {
                        source: first,
                        target: second,
                    },
                    StreamElement::Relabel {
                        id: first,
                        label: l,
                    },
                    StreamElement::RemoveVertex { id: first },
                    StreamElement::AddEdge {
                        source: second,
                        target: v(2),
                    },
                    StreamElement::RemoveVertex { id: second },
                    StreamElement::AddVertex {
                        id: first,
                        label: l,
                    },
                    StreamElement::RemoveVertex { id: v(2) },
                ] {
                    g.apply(&element);
                }
                assert!(g.contains_vertex(first), "{case}");
            }
            // A removal straight after the build, with the count untouched.
            for id in [v(0), v(1)] {
                let mut g = LabelledGraph::from_proven_lists(3, 1, lists.clone());
                g.apply(&StreamElement::RemoveVertex { id });
                g.apply(&StreamElement::RemoveVertex {
                    id: VertexId::new(1 - id.raw()),
                });
            }
        }
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

    #[test]
    fn the_largest_id_applies_without_overflow() {
        let top = VertexId::new(u64::MAX);
        let mut g = LabelledGraph::new();
        g.apply(&StreamElement::AddVertex {
            id: top,
            label: Label::new(3),
        });
        assert_eq!(g.label(top), Some(Label::new(3)));
        assert_eq!(g.vertices_sorted(), vec![top]);
        g.insert_vertex(VertexId::new(7), Label::new(0));
        g.add_edge(top, VertexId::new(7)).unwrap();
        assert_eq!(g.neighbors(top), &[VertexId::new(7)]);
    }

    #[test]
    fn slots_and_blocks_are_recycled_and_walks_skip_vacancies() {
        let v = VertexId::new;
        let mut g = LabelledGraph::new();
        for i in 0..6 {
            g.insert_vertex(v(i), Label::new(i as u32));
        }
        for i in 1..5 {
            g.add_edge(v(0), v(i)).unwrap();
        }
        g.add_edge(v(4), v(2)).unwrap();
        let (slots, arena) = (g.slots.len(), g.lists.arena_len());
        assert!(g.remove_vertex(v(0)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.vertices().count(), 5);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            vec![EdgeKey::new(v(2), v(4))]
        );
        assert_eq!(g.neighbors(v(4)), &[v(2)]);
        // A new hub takes the vacated slot and the vacated block.
        g.insert_vertex(v(9), Label::new(9));
        for i in 1..5 {
            g.add_edge(v(9), v(i)).unwrap();
        }
        assert_eq!(g.slots.len(), slots);
        assert_eq!(g.lists.arena_len(), arena);
        let rows = g.adjacency_sorted();
        assert_eq!(rows.len(), 6);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(rows[5], (v(9), Label::new(9), g.neighbors(v(9))));
        assert_eq!(g.neighbors(v(9)), &[v(1), v(2), v(3), v(4)]);
    }
}
