//! Pattern matching queries.
//!
//! A pattern matching query (paper §2) is a small labelled graph; its answer
//! over a data graph `G` is the set of sub-graphs of `G` isomorphic to it
//! (matching structure *and* labels). This module provides the query type and
//! builders for the query shapes used in the paper and the experiments:
//! label paths, branches (stars), and cycles.

use crate::error::{MotifError, Result};
use loom_graph::prelude::*;

/// Identifier of a query within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct QueryId(pub u32);

impl QueryId {
    /// Create a query id from a raw integer.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// The raw integer value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A sub-graph pattern matching query: a connected labelled graph plus an id.
#[derive(Debug, Clone)]
pub struct PatternQuery {
    id: QueryId,
    graph: LabelledGraph,
}

impl PatternQuery {
    /// Wrap an arbitrary connected labelled graph as a query.
    ///
    /// # Errors
    ///
    /// Returns [`MotifError::InvalidQuery`] if the graph is empty or
    /// disconnected (the paper only considers connected pattern graphs).
    pub fn new(id: QueryId, graph: LabelledGraph) -> Result<Self> {
        if graph.is_empty() {
            return Err(MotifError::InvalidQuery(format!(
                "query {id} has no vertices"
            )));
        }
        if !loom_graph::traversal::is_connected(&graph) {
            return Err(MotifError::InvalidQuery(format!(
                "query {id} is disconnected"
            )));
        }
        Ok(Self { id, graph })
    }

    /// A path query `l0 - l1 - ... - l{n-1}` over the given label sequence.
    ///
    /// # Errors
    ///
    /// Returns [`MotifError::InvalidQuery`] if `labels` is empty.
    pub fn path(id: QueryId, labels: &[Label]) -> Result<Self> {
        if labels.is_empty() {
            return Err(MotifError::InvalidQuery("path query needs labels".into()));
        }
        let mut g = LabelledGraph::with_capacity(labels.len(), labels.len());
        let mut prev = None;
        for &label in labels {
            let v = g.add_vertex(label);
            if let Some(p) = prev {
                g.add_edge(p, v)?;
            }
            prev = Some(v);
        }
        Self::new(id, g)
    }

    /// A cycle query over the given label sequence (requires ≥ 3 labels).
    ///
    /// # Errors
    ///
    /// Returns [`MotifError::InvalidQuery`] for fewer than three labels.
    pub fn cycle(id: QueryId, labels: &[Label]) -> Result<Self> {
        if labels.len() < 3 {
            return Err(MotifError::InvalidQuery(
                "cycle query needs at least three labels".into(),
            ));
        }
        let mut query = Self::path(id, labels)?;
        let ids = query.graph.vertices_sorted();
        query.graph.add_edge(ids[0], ids[ids.len() - 1])?;
        Ok(query)
    }

    /// A branch (star) query: a centre label connected to each leaf label.
    ///
    /// # Errors
    ///
    /// Returns [`MotifError::InvalidQuery`] if there are no leaves.
    pub fn branch(id: QueryId, centre: Label, leaves: &[Label]) -> Result<Self> {
        if leaves.is_empty() {
            return Err(MotifError::InvalidQuery("branch query needs leaves".into()));
        }
        let mut g = LabelledGraph::with_capacity(leaves.len() + 1, leaves.len());
        let hub = g.add_vertex(centre);
        for &leaf in leaves {
            let v = g.add_vertex(leaf);
            g.add_edge(hub, v)?;
        }
        Self::new(id, g)
    }

    /// The query id.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The query's pattern graph.
    pub fn graph(&self) -> &LabelledGraph {
        &self.graph
    }

    /// Number of vertices in the pattern.
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of edges in the pattern.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The multiset of labels used by this query, sorted.
    pub fn label_sequence(&self) -> Vec<Label> {
        let mut labels: Vec<Label> = self
            .graph
            .labelled_vertices()
            .map(|(_, label)| label)
            .collect();
        labels.sort_unstable();
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    #[test]
    fn path_query_structure() {
        let q = PatternQuery::path(QueryId::new(1), &[l(0), l(1), l(2)]).unwrap();
        assert_eq!(q.vertex_count(), 3);
        assert_eq!(q.edge_count(), 2);
        assert_eq!(q.id().to_string(), "q1");
        assert_eq!(q.label_sequence(), vec![l(0), l(1), l(2)]);
    }

    #[test]
    fn cycle_query_structure() {
        let q = PatternQuery::cycle(QueryId::new(2), &[l(0), l(1), l(0), l(1)]).unwrap();
        assert_eq!(q.vertex_count(), 4);
        assert_eq!(q.edge_count(), 4);
        assert!(PatternQuery::cycle(QueryId::new(3), &[l(0), l(1)]).is_err());
    }

    #[test]
    fn branch_query_structure() {
        let q = PatternQuery::branch(QueryId::new(4), l(0), &[l(1), l(2), l(3)]).unwrap();
        assert_eq!(q.vertex_count(), 4);
        assert_eq!(q.edge_count(), 3);
        assert!(PatternQuery::branch(QueryId::new(5), l(0), &[]).is_err());
    }

    #[test]
    fn rejects_empty_and_disconnected_graphs() {
        assert!(PatternQuery::new(QueryId::new(0), LabelledGraph::new()).is_err());
        let mut g = LabelledGraph::new();
        g.add_vertex(l(0));
        g.add_vertex(l(1));
        assert!(PatternQuery::new(QueryId::new(0), g).is_err());
        assert!(PatternQuery::path(QueryId::new(0), &[]).is_err());
    }

    #[test]
    fn single_vertex_query_is_valid() {
        let q = PatternQuery::path(QueryId::new(9), &[l(2)]).unwrap();
        assert_eq!(q.vertex_count(), 1);
        assert_eq!(q.edge_count(), 0);
    }
}
