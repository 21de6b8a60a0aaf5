//! The graph-stream abstraction.
//!
//! A graph-stream is "an ordering over the elements of a dynamic, growing
//! graph" (paper §1). We model it as a sequence of [`StreamElement`]s:
//! vertex additions carrying the vertex label, edge additions between
//! vertices that have already appeared, and — beyond the paper's insert-only
//! model — vertex/edge **removals** and **relabels**, so the stream can
//! express a graph that churns instead of only growing. Streaming
//! partitioners consume the elements strictly in order and exactly once;
//! mutations referencing vertices the stream never added (or already
//! removed) are no-ops, so any interleaving replays cleanly.

use crate::fxhash::FxHashSet;
use crate::graph::LabelledGraph;
use crate::ids::{EdgeKey, Label, VertexId};
use crate::ordering::StreamOrder;

/// One element of a graph stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamElement {
    /// A new vertex arriving with its label.
    AddVertex {
        /// The vertex id.
        id: VertexId,
        /// The vertex label.
        label: Label,
    },
    /// A new edge arriving between two previously seen vertices.
    AddEdge {
        /// First endpoint (already streamed).
        source: VertexId,
        /// Second endpoint (already streamed).
        target: VertexId,
    },
    /// A previously streamed vertex leaving the graph, taking every incident
    /// edge with it. Removing an unknown vertex is a no-op.
    RemoveVertex {
        /// The vertex to remove.
        id: VertexId,
    },
    /// A previously streamed edge leaving the graph (endpoint order is
    /// irrelevant — edges are undirected). Removing an unknown edge is a
    /// no-op.
    RemoveEdge {
        /// First endpoint.
        source: VertexId,
        /// Second endpoint.
        target: VertexId,
    },
    /// A previously streamed vertex changing its label in place. Relabelling
    /// an unknown vertex is a no-op.
    Relabel {
        /// The vertex to relabel.
        id: VertexId,
        /// Its new label.
        label: Label,
    },
}

impl StreamElement {
    /// Whether this element is a vertex addition.
    pub fn is_vertex(&self) -> bool {
        matches!(self, StreamElement::AddVertex { .. })
    }

    /// Whether this element is an edge addition.
    pub(crate) fn is_edge(&self) -> bool {
        matches!(self, StreamElement::AddEdge { .. })
    }

    /// Whether this element adds to the graph (vertex or edge addition).
    pub(crate) fn is_add(&self) -> bool {
        self.is_vertex() || self.is_edge()
    }

    /// Whether this element mutates existing state instead of adding
    /// (removals and relabels).
    pub fn is_mutation(&self) -> bool {
        !self.is_add()
    }
}

/// An ordered sequence of graph elements, replayable any number of times.
///
/// The vertex/edge counters track **distinct** vertices and edges ever
/// added: a remove followed by a re-add of the same id counts once, and
/// removals/relabels never inflate them — they are capacity hints for
/// materialisation, not a live size (replay the stream for that).
#[derive(Debug, Clone, Default)]
pub struct GraphStream {
    elements: Vec<StreamElement>,
    seen_vertices: FxHashSet<VertexId>,
    seen_edges: FxHashSet<EdgeKey>,
}

impl GraphStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a stream from an explicit element sequence.
    ///
    /// The sequence is taken as-is; callers are responsible for ensuring edges
    /// only reference previously streamed vertices (use
    /// [`GraphStream::from_graph`] for the common case).
    pub fn from_elements(elements: Vec<StreamElement>) -> Self {
        let mut stream = Self::default();
        for element in elements {
            stream.push(element);
        }
        stream
    }

    /// Turn a static graph into a stream under the given vertex ordering.
    ///
    /// Each vertex is emitted in order; immediately after a vertex arrives,
    /// every edge between it and an *earlier* vertex is emitted. This matches
    /// the model used by Stanton & Kliot and Fennel, where a vertex arrives
    /// "with its adjacency list restricted to already-seen vertices".
    pub fn from_graph(graph: &LabelledGraph, order: &StreamOrder) -> Self {
        let vertex_order = order.order(graph);
        Self::from_vertex_order(graph, &vertex_order)
    }

    /// Like [`GraphStream::from_graph`] but with an explicit vertex order.
    pub(crate) fn from_vertex_order(graph: &LabelledGraph, vertex_order: &[VertexId]) -> Self {
        let mut seen = crate::fxhash::FxHashSet::default();
        let mut elements = Vec::with_capacity(graph.vertex_count() + graph.edge_count());
        for &v in vertex_order {
            let label = graph
                .label(v)
                .expect("vertex order must reference graph vertices");
            elements.push(StreamElement::AddVertex { id: v, label });
            seen.insert(v);
            let mut earlier: Vec<VertexId> = graph
                .neighbors(v)
                .iter()
                .copied()
                .filter(|n| seen.contains(n) && *n != v)
                .collect();
            earlier.sort_unstable();
            for n in earlier {
                elements.push(StreamElement::AddEdge {
                    source: v,
                    target: n,
                });
            }
        }
        Self::from_elements(elements)
    }

    /// The elements in order.
    pub fn elements(&self) -> &[StreamElement] {
        &self.elements
    }

    /// Iterate over the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &StreamElement> + '_ {
        self.elements.iter()
    }

    /// Number of elements (vertices + edges).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the stream has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Number of **distinct** vertices ever added by the stream (stable
    /// across remove-then-readd of the same id).
    pub fn vertex_count(&self) -> usize {
        self.seen_vertices.len()
    }

    /// Number of **distinct** edges ever added by the stream (stable across
    /// remove-then-readd of the same endpoints).
    pub fn edge_count(&self) -> usize {
        self.seen_edges.len()
    }

    /// Append an element (used by tests and by incremental/dynamic
    /// scenarios). Removals and relabels never disturb the distinct-add
    /// counters, and re-adding a removed vertex or edge does not double
    /// count it.
    pub fn push(&mut self, element: StreamElement) {
        match element {
            StreamElement::AddVertex { id, .. } => {
                self.seen_vertices.insert(id);
            }
            StreamElement::AddEdge { source, target } => {
                self.seen_edges.insert(EdgeKey::new(source, target));
            }
            StreamElement::RemoveVertex { .. }
            | StreamElement::RemoveEdge { .. }
            | StreamElement::Relabel { .. } => {}
        }
        self.elements.push(element);
    }

    /// Replay the stream into a [`LabelledGraph`]; useful for checking that a
    /// stream faithfully reconstructs its source graph. Mutations apply with
    /// the same no-op-on-missing semantics partitioners use, so any element
    /// interleaving materialises without panicking.
    pub fn materialise(&self) -> LabelledGraph {
        let mut graph = LabelledGraph::with_capacity(self.vertex_count(), self.edge_count());
        for element in &self.elements {
            graph.apply(element);
        }
        graph
    }
}

impl<'a> IntoIterator for &'a GraphStream {
    type Item = &'a StreamElement;
    type IntoIter = std::slice::Iter<'a, StreamElement>;

    fn into_iter(self) -> Self::IntoIter {
        self.elements.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, GeneratorConfig};

    #[test]
    fn stream_from_graph_reconstructs_graph() {
        let g = barabasi_albert(GeneratorConfig::new(200, 4, 3), 2).unwrap();
        for order in [
            StreamOrder::Random { seed: 1 },
            StreamOrder::Bfs,
            StreamOrder::Adversarial,
        ] {
            let stream = GraphStream::from_graph(&g, &order);
            assert_eq!(stream.vertex_count(), g.vertex_count());
            assert_eq!(stream.edge_count(), g.edge_count());
            let rebuilt = stream.materialise();
            assert_eq!(rebuilt.vertex_count(), g.vertex_count());
            assert_eq!(rebuilt.edge_count(), g.edge_count());
            assert_eq!(rebuilt.edges_sorted(), g.edges_sorted());
        }
    }

    #[test]
    fn edges_always_follow_both_endpoints() {
        let g = barabasi_albert(GeneratorConfig::new(100, 4, 9), 2).unwrap();
        let stream = GraphStream::from_graph(&g, &StreamOrder::Random { seed: 2 });
        let mut seen = crate::fxhash::FxHashSet::default();
        for element in &stream {
            match *element {
                StreamElement::AddVertex { id, .. } => {
                    seen.insert(id);
                }
                StreamElement::AddEdge { source, target } => {
                    assert!(seen.contains(&source));
                    assert!(seen.contains(&target));
                }
                _ => unreachable!("from_graph emits additions only"),
            }
        }
    }

    #[test]
    fn push_updates_counters() {
        let mut s = GraphStream::new();
        assert!(s.is_empty());
        s.push(StreamElement::AddVertex {
            id: VertexId::new(0),
            label: Label::new(0),
        });
        s.push(StreamElement::AddVertex {
            id: VertexId::new(1),
            label: Label::new(1),
        });
        s.push(StreamElement::AddEdge {
            source: VertexId::new(1),
            target: VertexId::new(0),
        });
        assert_eq!(s.len(), 3);
        assert_eq!(s.vertex_count(), 2);
        assert_eq!(s.edge_count(), 1);
        let g = s.materialise();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn element_kind_predicates() {
        let v = StreamElement::AddVertex {
            id: VertexId::new(0),
            label: Label::new(0),
        };
        let e = StreamElement::AddEdge {
            source: VertexId::new(0),
            target: VertexId::new(1),
        };
        assert!(v.is_vertex() && !v.is_edge());
        assert!(e.is_edge() && !e.is_vertex());
        assert!(v.is_add() && e.is_add());
        let rv = StreamElement::RemoveVertex {
            id: VertexId::new(0),
        };
        let re = StreamElement::RemoveEdge {
            source: VertexId::new(0),
            target: VertexId::new(1),
        };
        let rl = StreamElement::Relabel {
            id: VertexId::new(0),
            label: Label::new(2),
        };
        assert!(rv.is_mutation() && re.is_mutation() && rl.is_mutation());
        assert!(!rv.is_vertex() && !rv.is_edge() && !rv.is_add());
    }

    #[test]
    fn distinct_counters_survive_remove_then_readd() {
        let mut s = GraphStream::new();
        let v = |i: u64| VertexId::new(i);
        s.push(StreamElement::AddVertex {
            id: v(0),
            label: Label::new(0),
        });
        s.push(StreamElement::AddVertex {
            id: v(1),
            label: Label::new(1),
        });
        s.push(StreamElement::AddEdge {
            source: v(0),
            target: v(1),
        });
        s.push(StreamElement::RemoveEdge {
            source: v(1),
            target: v(0),
        });
        s.push(StreamElement::RemoveVertex { id: v(0) });
        s.push(StreamElement::AddVertex {
            id: v(0),
            label: Label::new(3),
        });
        s.push(StreamElement::AddEdge {
            source: v(0),
            target: v(1),
        });
        s.push(StreamElement::Relabel {
            id: v(1),
            label: Label::new(4),
        });
        assert_eq!(s.vertex_count(), 2, "re-add counts once");
        assert_eq!(s.edge_count(), 1, "re-add counts once");
        assert_eq!(s.len(), 8);
        // from_elements agrees with element-by-element push.
        let rebuilt = GraphStream::from_elements(s.elements().to_vec());
        assert_eq!(rebuilt.vertex_count(), 2);
        assert_eq!(rebuilt.edge_count(), 1);
    }

    #[test]
    fn materialise_applies_mutations_like_the_final_graph() {
        let v = |i: u64| VertexId::new(i);
        let s = GraphStream::from_elements(vec![
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
            StreamElement::Relabel {
                id: v(2),
                label: Label::new(7),
            },
            StreamElement::RemoveEdge {
                source: v(0),
                target: v(1),
            },
            StreamElement::RemoveVertex { id: v(1) },
            // No-ops: already removed / never added.
            StreamElement::RemoveVertex { id: v(1) },
            StreamElement::RemoveEdge {
                source: v(5),
                target: v(6),
            },
            StreamElement::Relabel {
                id: v(9),
                label: Label::new(0),
            },
        ]);
        let g = s.materialise();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.label(v(2)), Some(Label::new(7)));
        assert!(!g.contains_vertex(v(1)));
    }
}
