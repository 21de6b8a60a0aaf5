//! Motif mining — the paper's Algorithm 1.
//!
//! For every query graph in the workload, the miner enumerates its connected
//! sub-graphs co-recursively: starting from each single vertex, it repeatedly
//! adds one incident edge at a time, inserting every intermediate sub-graph
//! into the TPSTry++ and recording a parent → child extension link. Support
//! is added once per (motif, query) pair weighted by the query's frequency,
//! so a node's p-value is "the probability that a query drawn from `Q`
//! contains this motif".
//!
//! The enumeration is exponential in the worst case, but query graphs are
//! small; the miner additionally enforces configurable vertex/edge caps so a
//! pathological workload cannot blow up the trie.

use crate::error::{MotifError, Result};
use crate::query::PatternQuery;
use crate::signature::PrimeTable;
use crate::tpstry::{MotifId, Tpstry};
use crate::workload::Workload;
use loom_graph::fxhash::FxHashSet;
use loom_graph::ids::EdgeKey;
use loom_graph::{LabelledGraph, VertexId};

/// Configuration for the motif miner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotifMiner {
    /// Largest motif (in vertices) that will be inserted into the trie.
    pub max_motif_vertices: usize,
    /// Largest motif (in edges) that will be inserted into the trie.
    pub max_motif_edges: usize,
}

impl Default for MotifMiner {
    fn default() -> Self {
        Self {
            max_motif_vertices: 6,
            max_motif_edges: 8,
        }
    }
}

impl MotifMiner {
    /// Mine a fresh TPSTry++ from a workload. The trie's prime table is sized
    /// to the workload's label alphabet.
    ///
    /// # Errors
    ///
    /// Returns an error for degenerate configurations or if a query uses more
    /// labels than its declared alphabet (impossible for workloads built via
    /// [`Workload`]'s constructors).
    pub fn mine(&self, workload: &Workload) -> Result<Tpstry> {
        let table = PrimeTable::new(workload.label_alphabet_size());
        self.mine_with_table(workload, table)
    }

    /// Mine a TPSTry++ using an explicit prime table (so signatures stay
    /// comparable with other components built against the same table).
    ///
    /// # Errors
    ///
    /// See [`MotifMiner::mine`].
    pub(crate) fn mine_with_table(&self, workload: &Workload, table: PrimeTable) -> Result<Tpstry> {
        if self.max_motif_vertices == 0 {
            return Err(MotifError::InvalidConfig(
                "max_motif_vertices must be positive".into(),
            ));
        }
        let mut trie = Tpstry::new(table);
        for (index, (query, frequency)) in workload.iter().enumerate() {
            let _ = index;
            self.weave(query, frequency, &mut trie)?;
        }
        debug_assert!(trie.check_invariants().is_ok());
        Ok(trie)
    }

    /// Fold a single query into an existing trie (the "continuous summary"
    /// use-case: the workload is observed as a stream of queries).
    ///
    /// # Errors
    ///
    /// Fails if the query's labels exceed the trie's prime table alphabet.
    pub(crate) fn weave(&self, query: &PatternQuery, weight: f64, trie: &mut Tpstry) -> Result<()> {
        trie.record_query_weight(weight);
        let graph = query.graph();
        let mut seen: FxHashSet<SubgraphKey> = FxHashSet::default();

        for start in graph.vertices_sorted() {
            let state = SubgraphState::single(start);
            self.corecurse(graph, query, weight, state, None, trie, &mut seen)?;
        }
        Ok(())
    }

    /// The co-recursive step of Algorithm 1: insert the current sub-graph,
    /// link it to the sub-graph it extends, and recurse into every one-edge
    /// extension.
    #[allow(clippy::too_many_arguments)]
    fn corecurse(
        &self,
        graph: &LabelledGraph,
        query: &PatternQuery,
        weight: f64,
        state: SubgraphState,
        parent: Option<MotifId>,
        trie: &mut Tpstry,
        seen: &mut FxHashSet<SubgraphKey>,
    ) -> Result<()> {
        let key = state.key();
        let already_seen = !seen.insert(key);

        // Insert (or find) the node and record support + the extension link.
        let motif = loom_graph::subgraph::edge_subgraph(graph, &state.vertices, &state.edges);
        let id = trie.insert_motif(&motif)?;
        trie.add_support(id, query.id(), weight);
        if let Some(parent_id) = parent {
            trie.link(parent_id, id);
        }
        if already_seen {
            // The sub-graph (and everything reachable from it) has already
            // been enumerated for this query; only the new link above was
            // worth recording.
            return Ok(());
        }

        // Enumerate one-edge extensions: edges incident to the sub-graph that
        // are not part of it yet.
        if state.edges.len() >= self.max_motif_edges {
            return Ok(());
        }
        let mut extensions: Vec<EdgeKey> = Vec::new();
        for &v in &state.vertices {
            for &n in graph.neighbors(v) {
                let e = EdgeKey::new(v, n);
                if !state.edges.contains(&e) {
                    extensions.push(e);
                }
            }
        }
        extensions.sort_unstable();
        extensions.dedup();

        for e in extensions {
            let adds_vertex = !state.vertices.contains(&e.lo) || !state.vertices.contains(&e.hi);
            if adds_vertex && state.vertices.len() >= self.max_motif_vertices {
                continue;
            }
            let next = state.extend(e);
            self.corecurse(graph, query, weight, next, Some(id), trie, seen)?;
        }
        Ok(())
    }
}

/// Dedup key for a sub-graph during one query's enumeration: the sorted edge
/// list plus sorted vertex list (vertices matter for the single-vertex case).
type SubgraphKey = (Vec<VertexId>, Vec<EdgeKey>);

/// A connected sub-graph of the query graph under construction.
#[derive(Debug, Clone)]
struct SubgraphState {
    vertices: Vec<VertexId>,
    edges: Vec<EdgeKey>,
}

impl SubgraphState {
    fn single(v: VertexId) -> Self {
        Self {
            vertices: vec![v],
            edges: Vec::new(),
        }
    }

    fn extend(&self, e: EdgeKey) -> Self {
        let mut vertices = self.vertices.clone();
        for v in [e.lo, e.hi] {
            if !vertices.contains(&v) {
                vertices.push(v);
            }
        }
        vertices.sort_unstable();
        let mut edges = self.edges.clone();
        edges.push(e);
        edges.sort_unstable();
        Self { vertices, edges }
    }

    fn key(&self) -> SubgraphKey {
        let mut vertices = self.vertices.clone();
        vertices.sort_unstable();
        (vertices, self.edges.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_example_workload;
    use crate::query::QueryId;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::Label;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    #[test]
    fn single_path_query_produces_all_prefix_motifs() {
        // The a-b-c path contains motifs: a, b, c, a-b, b-c, a-b-c.
        let q = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let w = Workload::uniform(vec![q]).unwrap();
        let trie = MotifMiner::default().mine(&w).unwrap();
        assert_eq!(trie.node_count(), 6);
        assert!(trie.check_invariants().is_ok());
        // Every node is supported by the single query, so every p-value is 1.
        for node in trie.nodes() {
            assert!((trie.p_value(node.id()) - 1.0).abs() < 1e-12);
        }
        // Roots exist for each distinct label.
        assert!(trie.root(l(0)).is_some());
        assert!(trie.root(l(1)).is_some());
        assert!(trie.root(l(2)).is_some());
    }

    #[test]
    fn shared_motifs_accumulate_support_across_queries() {
        let q_abc = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let q_abcd = PatternQuery::path(QueryId::new(1), &[l(0), l(1), l(2), l(3)]).unwrap();
        let w = Workload::uniform(vec![q_abc.clone(), q_abcd]).unwrap();
        let trie = MotifMiner::default().mine(&w).unwrap();
        // The a-b-c motif is contained in both queries → p-value 1.0.
        let abc = trie
            .find_isomorphic(&path_graph(3, &[l(0), l(1), l(2)]))
            .expect("abc motif present");
        assert!((trie.p_value(abc) - 1.0).abs() < 1e-12);
        // The a-b-c-d motif occurs only in the second query → p-value 0.5.
        let abcd = trie
            .find_isomorphic(&path_graph(4, &[l(0), l(1), l(2), l(3)]))
            .expect("abcd motif present");
        assert!((trie.p_value(abcd) - 0.5).abs() < 1e-12);
        assert!(trie.check_invariants().is_ok());
    }

    #[test]
    fn paper_example_workload_mines_expected_motifs() {
        let w = paper_example_workload();
        let trie = MotifMiner::default().mine(&w).unwrap();
        assert!(trie.check_invariants().is_ok());
        // Figure 2 of the paper shows (among others) these motifs for the
        // Fig. 1 workload: single labels a, b, c, d; edges a-b, b-c, c-d;
        // paths a-b-c, b-c-d, a-b-c-d; the b-a / a-b square and its
        // sub-paths. Check a representative subset.
        for motif in [
            path_graph(1, &[l(0)]),
            path_graph(2, &[l(0), l(1)]),
            path_graph(3, &[l(0), l(1), l(2)]),
            path_graph(4, &[l(0), l(1), l(2), l(3)]),
        ] {
            assert!(
                trie.find_isomorphic(&motif).is_some(),
                "missing motif with {} vertices",
                motif.vertex_count()
            );
        }
        // The a-b edge occurs in every query → p-value 1.
        let ab = trie.find_isomorphic(&path_graph(2, &[l(0), l(1)])).unwrap();
        assert!((trie.p_value(ab) - 1.0).abs() < 1e-12);
        // The a-b-a-b square occurs only in q1 (frequency 1/3).
        let square = trie
            .find_isomorphic(&loom_graph::generators::regular::cycle_graph(
                4,
                &[l(0), l(1), l(0), l(1)],
            ))
            .expect("square motif present");
        assert!((trie.p_value(square) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn links_form_one_edge_extensions() {
        let q = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let w = Workload::uniform(vec![q]).unwrap();
        let trie = MotifMiner::default().mine(&w).unwrap();
        for node in trie.nodes() {
            for &child in &node.children {
                let child_node = trie.node(child);
                assert_eq!(child_node.edge_count(), node.edge_count() + 1);
                assert!(child_node.vertex_count() <= node.vertex_count() + 1);
            }
        }
    }

    #[test]
    fn size_caps_limit_the_trie() {
        let q = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2), l(3), l(0), l(1)]).unwrap();
        let small = MotifMiner {
            max_motif_vertices: 3,
            max_motif_edges: 2,
        };
        let trie = small
            .mine(&Workload::uniform(vec![q.clone()]).unwrap())
            .unwrap();
        for node in trie.nodes() {
            assert!(node.vertex_count() <= 3);
            assert!(node.edge_count() <= 2);
        }
        let zero = MotifMiner {
            max_motif_vertices: 0,
            max_motif_edges: 0,
        };
        assert!(zero.mine(&Workload::uniform(vec![q]).unwrap()).is_err());
    }

    #[test]
    fn branch_queries_produce_branch_motifs() {
        let q = PatternQuery::branch(QueryId::new(0), l(0), &[l(1), l(2), l(3)]).unwrap();
        let w = Workload::uniform(vec![q]).unwrap();
        let trie = MotifMiner::default().mine(&w).unwrap();
        let star = loom_graph::generators::regular::star_graph(3, &[l(0), l(1), l(2), l(3)]);
        assert!(trie.find_isomorphic(&star).is_some());
        assert!(trie.check_invariants().is_ok());
    }

    #[test]
    fn weaving_queries_incrementally_matches_batch_mining() {
        let q1 = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let q2 = PatternQuery::path(QueryId::new(1), &[l(1), l(2), l(3)]).unwrap();
        let w = Workload::uniform(vec![q1.clone(), q2.clone()]).unwrap();
        let miner = MotifMiner::default();
        let batch = miner.mine(&w).unwrap();

        let table = PrimeTable::new(w.label_alphabet_size());
        let mut incremental = Tpstry::new(table);
        miner.weave(&q1, 0.5, &mut incremental).unwrap();
        miner.weave(&q2, 0.5, &mut incremental).unwrap();

        assert_eq!(batch.node_count(), incremental.node_count());
        for node in batch.nodes() {
            let other = incremental
                .find_isomorphic(node.graph())
                .expect("same motif set");
            assert!((batch.p_value(node.id()) - incremental.p_value(other)).abs() < 1e-9);
        }
    }
}
