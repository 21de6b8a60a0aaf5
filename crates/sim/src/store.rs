//! The reference partitioned graph store.
//!
//! [`PartitionedStore`] couples a data graph with a [`Partitioning`] and
//! answers the questions a distributed query router would: where does a
//! vertex live, what are its neighbours, and does following a given edge stay
//! on the same partition or cross to another one?
//!
//! It answers them from hash maps, the simplest way, and is the tests'
//! reference store: the matcher oracle and the serving and transport parity
//! tests hold every engine against it. The `loom` façade does not build it —
//! its sequential path and its concurrent engines share `loom-serve`'s frozen
//! arena.
//!
//! The per-label vertex index is built **once** at construction —
//! [`PartitionedStore::vertices_with_label`] returns slices into it, because
//! it sits on the query router's hot path (every rooted query starts with a
//! label-index lookup).

use crate::matcher::{PatternStore, TaggedArc};
use loom_graph::fxhash::FxHashMap;
use loom_graph::{Label, LabelledGraph, VertexId};
use loom_partition::partition::{PartitionId, Partitioning};

/// A data graph plus the partitioning that hosts it.
#[derive(Debug, Clone)]
pub struct PartitionedStore {
    graph: LabelledGraph,
    partitioning: Partitioning,
    /// Label → vertices carrying it, sorted by id (the "label index" a graph
    /// database would consult to seed a query).
    by_label: FxHashMap<Label, Vec<VertexId>>,
}

impl PartitionedStore {
    /// Build a store from a graph and a partitioning. Vertices without an
    /// assignment are tolerated (they count as "remote to everyone"), which
    /// lets callers inspect partial/streaming states too.
    ///
    /// Construction materialises the per-label index so every later lookup
    /// is a slice borrow.
    pub fn new(graph: LabelledGraph, partitioning: Partitioning) -> Self {
        let mut by_label: FxHashMap<Label, Vec<VertexId>> = FxHashMap::default();
        for (v, l) in graph.labelled_vertices() {
            by_label.entry(l).or_default().push(v);
        }
        for members in by_label.values_mut() {
            members.sort_unstable();
        }
        Self {
            graph,
            partitioning,
            by_label,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &LabelledGraph {
        &self.graph
    }

    /// The partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The partition hosting a vertex.
    pub fn partition_of(&self, v: VertexId) -> Option<PartitionId> {
        self.partitioning.partition_of(v)
    }

    /// The label of a vertex.
    pub fn label(&self, v: VertexId) -> Option<Label> {
        self.graph.label(v)
    }

    /// Neighbours of a vertex.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.graph.neighbors(v)
    }

    /// All vertices carrying a label, sorted by id. A slice into the label
    /// index built at construction — no per-call allocation.
    pub fn vertices_with_label(&self, label: Label) -> &[VertexId] {
        self.by_label.get(&label).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The hash-map store names vertices by their id: resolving a root is one
/// presence check and the search then asks the graph directly, so building
/// the sequential reference path costs nothing beyond the label index above.
impl PatternStore for PartitionedStore {
    type Handle = VertexId;

    fn resolve(&self, v: VertexId) -> Option<VertexId> {
        self.graph.contains_vertex(v).then_some(v)
    }

    fn vertex_of(&self, h: VertexId) -> VertexId {
        h
    }

    fn label_of(&self, h: VertexId) -> Label {
        self.graph
            .label(h)
            .expect("handles name vertices the graph holds")
    }

    /// Answered from the graph and the partitioning per neighbour — the
    /// probes the search would make anyway; the label filter is exact.
    fn arcs_of(&self, from: VertexId, label: Label) -> impl Iterator<Item = TaggedArc<VertexId>> {
        let home = self.partition_of(from);
        self.graph.neighbors(from).iter().map(move |&to| TaggedArc {
            to,
            // An unassigned endpoint is remote (the worst case).
            remote: home.is_none() || self.partition_of(to) != home,
            may_match: self.graph.label(to) == Some(label),
        })
    }

    fn degree_of(&self, h: VertexId) -> usize {
        self.graph.degree(h)
    }

    fn adjacent(&self, a: VertexId, b: VertexId) -> bool {
        self.graph.contains_edge(a, b)
    }

    fn handles_with_label(&self, label: Label) -> &[VertexId] {
        self.vertices_with_label(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;

    fn store() -> PartitionedStore {
        let g = path_graph(4, &[Label::new(0), Label::new(1)]);
        let vs = g.vertices_sorted();
        let mut part = Partitioning::new(2, 4).unwrap();
        part.assign(vs[0], PartitionId::new(0)).unwrap();
        part.assign(vs[1], PartitionId::new(0)).unwrap();
        part.assign(vs[2], PartitionId::new(1)).unwrap();
        // vs[3] deliberately left unassigned.
        PartitionedStore::new(g, part)
    }

    #[test]
    fn routing_and_lookup() {
        let s = store();
        let vs = s.graph().vertices_sorted();
        assert_eq!(s.partitioning().k(), 2);
        assert_eq!(s.partition_of(vs[0]), Some(PartitionId::new(0)));
        assert_eq!(s.partition_of(vs[3]), None);
        assert_eq!(s.label(vs[1]), Some(Label::new(1)));
        assert_eq!(s.neighbors(vs[0]), &[vs[1]]);
    }

    #[test]
    fn remote_traversal_detection() {
        let s = store();
        let vs = s.graph().vertices_sorted();
        // The remote tag on the arc `from → to`, as the search reads it.
        let remote = |from, to| {
            let mut arcs = s.arcs_of(from, Label::new(0));
            arcs.find(|a| a.to == to).expect("an arc").remote
        };
        assert!(!remote(vs[0], vs[1]));
        assert!(remote(vs[1], vs[2]));
        // Unassigned endpoint counts as remote.
        assert!(remote(vs[2], vs[3]));
    }

    #[test]
    fn label_index() {
        let s = store();
        let with_a = s.vertices_with_label(Label::new(0));
        assert_eq!(with_a.len(), 2);
        assert!(s.vertices_with_label(Label::new(9)).is_empty());
        // Slices are sorted and repeat lookups alias the same index.
        assert!(with_a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            s.vertices_with_label(Label::new(0)).as_ptr(),
            with_a.as_ptr()
        );
    }
}
