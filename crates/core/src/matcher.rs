//! Graph-stream pattern matching against the frequent motifs of a workload.
//!
//! This is the paper's §4.3: as edges arrive inside the stream window, the
//! matcher maintains the set of window sub-graphs that (non-authoritatively,
//! via signatures) match a *frequent motif* of the workload.
//!
//! For every edge `e = (a, b)` whose endpoints are both buffered, the matcher
//!
//! 1. tries to extend each existing match containing `a` or `b` by `e` — the
//!    extension is kept only if the extended signature is itself a frequent
//!    motif signature (the paper's "must match a child of `n`" rule);
//! 2. runs the incremental re-computation of Figure 3: starting from `e`
//!    alone it greedily grows a sub-graph along window edges, keeping an edge
//!    only while the growing signature still *divides* some frequent motif's
//!    signature, and records the largest sub-graph that exactly matches a
//!    motif. This catches matches that share sub-structure with existing
//!    matches (the two overlapping `abc` instances of Figure 3).
//!
//! All bookkeeping is per-window: when vertices are assigned and leave the
//! window, the matches containing them are dropped.

use crate::index::FrequentMotifIndex;
use loom_graph::fxhash::FxHashSet;
use loom_graph::ids::EdgeKey;
use loom_graph::VertexId;
use loom_motif::signature::Signature;
use loom_motif::tpstry::MotifId;
use loom_partition::error::{PartitionError, Result};
use loom_partition::state::{StateReader, StateWriter};
use loom_partition::window::StreamWindow;

/// A sub-graph of the stream window that matches a frequent motif.
#[derive(Debug, Clone)]
pub struct MotifMatch {
    /// The motif matched (a node of the workload's TPSTry++).
    pub motif: MotifId,
    /// The matched vertices, sorted by id.
    pub vertices: Vec<VertexId>,
    /// The edges of the matched sub-graph.
    pub edges: Vec<EdgeKey>,
    /// The signature of the matched sub-graph.
    pub signature: Signature,
}

impl MotifMatch {
    /// Whether the match contains a vertex.
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// Number of vertices in the match.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the match is empty (never true for a constructed match).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Counters the matcher feeds back into [`crate::LoomStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MatcherCounters {
    /// Signatures computed (including rejected growth attempts).
    pub signatures_computed: usize,
    /// Matches discovered (extensions of existing matches are not counted
    /// twice).
    pub matches_found: usize,
    /// Exact-verification checks performed (only when verification is on).
    pub verifications: usize,
    /// Signature matches rejected by exact verification — i.e. signature
    /// collisions / false positives.
    pub false_positives: usize,
}

/// The incremental stream motif matcher.
#[derive(Debug, Clone)]
pub struct StreamMotifMatcher {
    index: FrequentMotifIndex,
    matches: Vec<MotifMatch>,
    counters: MatcherCounters,
    verify: bool,
}

impl StreamMotifMatcher {
    /// Create a matcher over the given frequent-motif index.
    pub fn new(index: FrequentMotifIndex) -> Self {
        Self {
            index,
            matches: Vec::new(),
            counters: MatcherCounters::default(),
            verify: false,
        }
    }

    /// Enable or disable exact verification of signature matches.
    ///
    /// The paper follows Song et al. in treating signature equality as a
    /// *non-authoritative* match and skipping the secondary verification
    /// step, arguing collisions are rare. With verification on, every
    /// candidate match is additionally checked with exact labelled
    /// isomorphism against the motif graph; rejected candidates are counted
    /// in [`MatcherCounters::false_positives`], which is how experiment E-F8
    /// measures the collision rate empirically.
    #[must_use]
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Whether exact verification is enabled.
    pub fn verification_enabled(&self) -> bool {
        self.verify
    }

    /// Exact check that a candidate match really is isomorphic to its motif.
    /// Returns `true` when verification is disabled or no motif graph is
    /// available (non-authoritative mode).
    fn verify_candidate(
        &mut self,
        window: &StreamWindow,
        vertices: &[VertexId],
        edges: &[EdgeKey],
        motif: MotifId,
    ) -> bool {
        if !self.verify {
            return true;
        }
        let Some(motif_graph) = self.index.motif_graph(motif) else {
            return true;
        };
        self.counters.verifications += 1;
        let mut candidate = loom_graph::LabelledGraph::with_capacity(vertices.len(), edges.len());
        for &v in vertices {
            let Some(label) = window.label_of(v) else {
                return false;
            };
            candidate.insert_vertex(v, label);
        }
        for e in edges {
            if candidate.add_edge_idempotent(e.lo, e.hi).is_err() {
                return false;
            }
        }
        let ok = loom_motif::isomorphism::are_isomorphic(&candidate, motif_graph);
        if !ok {
            self.counters.false_positives += 1;
        }
        ok
    }

    /// The index the matcher was built over.
    pub fn index(&self) -> &FrequentMotifIndex {
        &self.index
    }

    /// The currently tracked matches.
    pub fn matches(&self) -> &[MotifMatch] {
        &self.matches
    }

    /// Number of currently tracked matches.
    pub fn match_count(&self) -> usize {
        self.matches.len()
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> MatcherCounters {
        self.counters
    }

    /// Write the tracked matches into a state blob, in order: each one's
    /// vertices and edges. Its signature and motif are not written — both
    /// follow from the labels of its vertices — and neither are the
    /// counters, which LOOM writes with its own.
    pub fn encode(&self, w: &mut StateWriter) {
        w.u64(self.matches.len() as u64);
        for m in &self.matches {
            w.ids(&m.vertices);
            w.u32(m.edges.len() as u32);
            for e in &m.edges {
                w.id(e.lo);
                w.id(e.hi);
            }
        }
    }

    /// Replace the tracked matches and the counters by what
    /// [`StreamMotifMatcher::encode`] wrote over `window`. Each match's
    /// signature is recomputed from the labels of its vertices — one vertex
    /// factor each, one edge factor per edge, as it was grown — and must be
    /// the signature of an indexed motif.
    ///
    /// # Errors
    ///
    /// [`PartitionError::CorruptState`] for a torn list, a match whose
    /// vertices are not sorted and buffered, an edge outside its match, or
    /// a match of no indexed motif.
    pub fn decode(
        &mut self,
        window: &StreamWindow,
        counters: MatcherCounters,
        r: &mut StateReader<'_>,
    ) -> Result<()> {
        let corrupt = |detail: String| PartitionError::CorruptState(detail);
        self.counters = counters;
        self.matches.clear();
        // A vertex list length and an edge count: 8 bytes at least per match.
        for i in 0..r.count(8, "motif matches")? {
            let vertices = r.ids("match vertices")?;
            let mut edges = Vec::new();
            for _ in 0..r.u32("match edge count")? {
                let (lo, hi) = (r.id("match edge")?, r.id("match edge")?);
                edges.push(EdgeKey { lo, hi });
            }
            let sorted = vertices.windows(2).all(|pair| pair[0] <= pair[1]);
            let inside = |v: &VertexId| vertices.binary_search(v).is_ok();
            if edges.is_empty()
                || !sorted
                || edges
                    .iter()
                    .any(|e| e.lo > e.hi || !inside(&e.lo) || !inside(&e.hi))
            {
                return Err(corrupt(format!(
                    "match {i} is not a sorted, edged sub-graph"
                )));
            }
            let table = self.index.prime_table();
            let label = |v: VertexId| {
                window
                    .label_of(v)
                    .ok_or_else(|| corrupt(format!("match {i} holds unbuffered vertex {v}")))
            };
            let mut signature = Signature::empty();
            for &v in &vertices {
                let factor = table.vertex_factor(label(v)?);
                signature.multiply(factor.map_err(|e| corrupt(format!("match {i}: {e}")))?);
            }
            for e in &edges {
                let factor = table.edge_factor(label(e.lo)?, label(e.hi)?);
                signature.multiply(factor.map_err(|e| corrupt(format!("match {i}: {e}")))?);
            }
            let motif = self
                .index
                .motif_for(&signature)
                .ok_or_else(|| corrupt(format!("match {i} is no indexed motif")))?;
            self.matches.push(MotifMatch {
                motif,
                vertices,
                edges,
                signature,
            });
        }
        Ok(())
    }

    /// Handle an edge whose endpoints are both inside the window.
    pub fn on_window_edge(&mut self, window: &StreamWindow, a: VertexId, b: VertexId) {
        if self.index.is_empty() {
            return;
        }
        let Some(label_a) = window.label_of(a) else {
            return;
        };
        let Some(label_b) = window.label_of(b) else {
            return;
        };

        // 1. Try to extend existing matches containing one endpoint by the
        //    new edge (paper: the extended signature must itself be a motif).
        let edge = EdgeKey::new(a, b);
        let edge_factor = match self.index.prime_table().edge_factor(label_a, label_b) {
            Ok(f) => f,
            Err(_) => return, // labels outside the workload alphabet
        };
        for i in 0..self.matches.len() {
            let has_a = self.matches[i].contains(a);
            let has_b = self.matches[i].contains(b);
            if has_a == has_b {
                // Either the edge is internal (both endpoints already matched:
                // handled by the growth pass below) or unrelated to this match.
                continue;
            }
            let newcomer = if has_a { b } else { a };
            let newcomer_label = if has_a { label_b } else { label_a };
            let mut extended = self.matches[i].signature.clone();
            if let Ok(vf) = self.index.prime_table().vertex_factor(newcomer_label) {
                extended.multiply(vf);
            } else {
                continue;
            }
            extended.multiply(edge_factor);
            self.counters.signatures_computed += 1;
            if let Some(motif) = self.index.motif_for(&extended) {
                let mut vertices = self.matches[i].vertices.clone();
                vertices.push(newcomer);
                vertices.sort_unstable();
                let mut edges = self.matches[i].edges.clone();
                edges.push(edge);
                if !self.verify_candidate(window, &vertices, &edges, motif) {
                    continue;
                }
                let m = &mut self.matches[i];
                m.vertices = vertices;
                m.edges = edges;
                m.signature = extended;
                m.motif = motif;
            }
        }

        // 2. Incremental re-computation from the new edge (Figure 3): find the
        //    largest window sub-graph containing `e` that matches a motif.
        if let Some(new_match) = self.grow_from_edge(window, a, b) {
            let duplicate = self
                .matches
                .iter()
                .any(|m| m.vertices == new_match.vertices && m.motif == new_match.motif);
            if !duplicate
                && self.verify_candidate(
                    window,
                    &new_match.vertices,
                    &new_match.edges,
                    new_match.motif,
                )
            {
                self.counters.matches_found += 1;
                self.matches.push(new_match);
            }
        }
    }

    /// Drop every match that involves any of the given vertices (they have
    /// been assigned and left the window).
    pub fn remove_vertices(&mut self, vertices: &[VertexId]) {
        self.matches
            .retain(|m| !vertices.iter().any(|&v| m.contains(v)));
    }

    /// Drop every match whose matched sub-graph uses the edge `(a, b)` — the
    /// edge has been removed from the evolving graph, so those sub-graphs no
    /// longer exist. Surviving sub-structure is rediscovered by later window
    /// edges through the ordinary growth pass.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) {
        let edge = EdgeKey::new(a, b);
        self.matches.retain(|m| !m.edges.contains(&edge));
    }

    /// Drop every match containing `v` after a relabel: their signatures were
    /// computed from the old label and are no longer authoritative. Matches
    /// the new label still supports are rediscovered as further edges arrive.
    pub fn relabel(&mut self, v: VertexId) {
        self.matches.retain(|m| !m.contains(v));
    }

    /// The matches containing a vertex.
    pub fn matches_containing(&self, v: VertexId) -> impl Iterator<Item = &MotifMatch> + '_ {
        self.matches.iter().filter(move |m| m.contains(v))
    }

    /// The motif cluster anchored at `v`: the union of the vertex sets of all
    /// matches containing `v`, transitively closed over overlapping matches
    /// when `merge_overlapping` is true (paper §4.4). Returns an empty set if
    /// `v` belongs to no match.
    pub fn cluster_for(&self, v: VertexId, merge_overlapping: bool) -> FxHashSet<VertexId> {
        let mut cluster: FxHashSet<VertexId> = FxHashSet::default();
        let mut frontier: Vec<usize> = (0..self.matches.len())
            .filter(|&i| self.matches[i].contains(v))
            .collect();
        // Most evicted vertices belong to no match; nothing has been
        // allocated for them at this point.
        if frontier.is_empty() {
            return cluster;
        }
        let mut in_cluster = vec![false; self.matches.len()];
        for &i in &frontier {
            in_cluster[i] = true;
        }
        while let Some(i) = frontier.pop() {
            for &vertex in &self.matches[i].vertices {
                cluster.insert(vertex);
            }
            if !merge_overlapping {
                continue;
            }
            for (j, m) in self.matches.iter().enumerate() {
                if in_cluster[j] {
                    continue;
                }
                if m.vertices.iter().any(|u| cluster.contains(u)) {
                    in_cluster[j] = true;
                    frontier.push(j);
                }
            }
        }
        cluster
    }

    /// Grow the largest motif-matching sub-graph containing the edge
    /// `(a, b)`, walking only window-internal edges.
    fn grow_from_edge(
        &mut self,
        window: &StreamWindow,
        a: VertexId,
        b: VertexId,
    ) -> Option<MotifMatch> {
        let table = self.index.prime_table();
        let label_a = window.label_of(a)?;
        let label_b = window.label_of(b)?;
        let mut signature = Signature::empty();
        signature.multiply(table.vertex_factor(label_a).ok()?);
        signature.multiply(table.vertex_factor(label_b).ok()?);
        signature.multiply(table.edge_factor(label_a, label_b).ok()?);
        self.counters.signatures_computed += 1;

        let mut vertices = vec![a.min(b), a.max(b)];
        let mut edges: Vec<EdgeKey> = vec![EdgeKey::new(a, b)];
        let mut best: Option<MotifMatch> =
            self.index.motif_for(&signature).map(|motif| MotifMatch {
                motif,
                vertices: vertices.clone(),
                edges: edges.clone(),
                signature: signature.clone(),
            });
        if best.is_none() && !self.index.could_grow_into_motif(&signature) {
            return None;
        }

        loop {
            if vertices.len() >= self.index.max_motif_vertices()
                && edges.len() >= self.index.max_motif_edges()
            {
                break;
            }
            // Candidate extensions: window edges incident to the current
            // vertex set that are not yet included.
            let mut candidates: Vec<EdgeKey> = Vec::new();
            for &v in &vertices {
                for &n in window.window_neighbours(v) {
                    let e = EdgeKey::new(v, n);
                    if !edges.contains(&e) {
                        candidates.push(e);
                    }
                }
            }
            candidates.sort_unstable();
            candidates.dedup();

            let mut progressed = false;
            for e in candidates {
                if edges.len() >= self.index.max_motif_edges() {
                    break;
                }
                let newcomer = [e.lo, e.hi].into_iter().find(|v| !vertices.contains(v));
                if newcomer.is_some() && vertices.len() >= self.index.max_motif_vertices() {
                    continue;
                }
                let (Some(ll), Some(lh)) = (window.label_of(e.lo), window.label_of(e.hi)) else {
                    continue;
                };
                let mut tentative = signature.clone();
                if let Some(nv) = newcomer {
                    let Some(nl) = window.label_of(nv) else {
                        continue;
                    };
                    let Ok(vf) = table.vertex_factor(nl) else {
                        continue;
                    };
                    tentative.multiply(vf);
                }
                let Ok(ef) = table.edge_factor(ll, lh) else {
                    continue;
                };
                tentative.multiply(ef);
                self.counters.signatures_computed += 1;

                let exact = self.index.motif_for(&tentative);
                if exact.is_none() && !self.index.could_grow_into_motif(&tentative) {
                    // Paper: "discard the most recent edge, and do not
                    // traverse to its neighbours".
                    continue;
                }
                signature = tentative;
                edges.push(e);
                if let Some(nv) = newcomer {
                    vertices.push(nv);
                    vertices.sort_unstable();
                }
                if let Some(motif) = exact {
                    best = Some(MotifMatch {
                        motif,
                        vertices: vertices.clone(),
                        edges: edges.clone(),
                        signature: signature.clone(),
                    });
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::Label;
    use loom_motif::fixtures::{fig3_stream_graph, paper_example_workload};
    use loom_motif::mining::MotifMiner;
    use loom_motif::query::{PatternQuery, QueryId};
    use loom_motif::workload::Workload;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    fn v(x: u64) -> VertexId {
        VertexId::new(x)
    }

    /// Index over a workload whose only query is the a-b-c path; every
    /// connected sub-graph of it (a-b, b-c, a-b-c) is a frequent motif.
    fn abc_index() -> FrequentMotifIndex {
        let q = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let w = Workload::uniform(vec![q]).unwrap();
        let trie = MotifMiner::default().mine(&w).unwrap();
        FrequentMotifIndex::new(&trie, 0.5)
    }

    fn window_with(vertices: &[(u64, u32)], edges: &[(u64, u64)]) -> StreamWindow {
        let mut w = StreamWindow::new(64);
        for &(id, label) in vertices {
            w.push_vertex(v(id), l(label));
        }
        for &(a, b) in edges {
            w.push_edge(v(a), v(b));
        }
        w
    }

    #[test]
    fn single_edge_match_is_detected() {
        let mut matcher = StreamMotifMatcher::new(abc_index());
        let window = window_with(&[(1, 0), (2, 1)], &[(1, 2)]);
        matcher.on_window_edge(&window, v(1), v(2));
        assert_eq!(matcher.match_count(), 1);
        let m = &matcher.matches()[0];
        assert_eq!(m.vertices, vec![v(1), v(2)]);
        assert!(matcher.counters().matches_found >= 1);
    }

    #[test]
    fn match_grows_as_edges_arrive() {
        let mut matcher = StreamMotifMatcher::new(abc_index());
        let mut window = StreamWindow::new(64);
        window.push_vertex(v(1), l(0));
        window.push_vertex(v(2), l(1));
        window.push_edge(v(1), v(2));
        matcher.on_window_edge(&window, v(1), v(2));
        window.push_vertex(v(3), l(2));
        window.push_edge(v(2), v(3));
        matcher.on_window_edge(&window, v(2), v(3));
        // The a-b match extends to a-b-c; the b-c edge also spawns its own
        // match. At least one match must cover all three vertices.
        assert!(matcher
            .matches()
            .iter()
            .any(|m| m.vertices == vec![v(1), v(2), v(3)]));
    }

    #[test]
    fn irrelevant_labels_produce_no_matches() {
        let mut matcher = StreamMotifMatcher::new(abc_index());
        // d-d edge: label pair not present in any motif.
        let window = window_with(&[(1, 3), (2, 3)], &[(1, 2)]);
        matcher.on_window_edge(&window, v(1), v(2));
        assert_eq!(matcher.match_count(), 0);
    }

    #[test]
    fn fig3_overlapping_matches_are_both_found() {
        // Workload: abc path. Stream the Figure 3 graph: a-b-c1 then b-c2.
        let (graph, [a, b, c1, c2]) = fig3_stream_graph();
        let mut matcher = StreamMotifMatcher::new(abc_index());
        let mut window = StreamWindow::new(64);
        for vertex in [a, b, c1, c2] {
            window.push_vertex(vertex, graph.label(vertex).unwrap());
        }
        for (x, y) in [(a, b), (b, c1), (b, c2)] {
            window.push_edge(x, y);
            matcher.on_window_edge(&window, x, y);
        }
        // Both abc instances must be tracked: {a, b, c1} and {a, b, c2}.
        let sets: Vec<Vec<VertexId>> = matcher
            .matches()
            .iter()
            .filter(|m| m.len() == 3)
            .map(|m| m.vertices.clone())
            .collect();
        assert!(
            sets.contains(&vec![a, b, c1]),
            "missing {{a, b, c1}}: {sets:?}"
        );
        assert!(
            sets.contains(&vec![a, b, c2]),
            "missing {{a, b, c2}}: {sets:?}"
        );
        // The cluster anchored at `a` merges both matches.
        let cluster = matcher.cluster_for(a, true);
        assert_eq!(cluster.len(), 4);
        // Without overlap merging, the cluster still contains every match
        // that includes `a` itself (both abc instances include a).
        let unmerged = matcher.cluster_for(c1, false);
        assert!(unmerged.contains(&a) && unmerged.contains(&b) && unmerged.contains(&c1));
    }

    #[test]
    fn removing_vertices_drops_their_matches() {
        let mut matcher = StreamMotifMatcher::new(abc_index());
        let window = window_with(&[(1, 0), (2, 1), (3, 2)], &[(1, 2), (2, 3)]);
        matcher.on_window_edge(&window, v(1), v(2));
        matcher.on_window_edge(&window, v(2), v(3));
        assert!(matcher.match_count() > 0);
        matcher.remove_vertices(&[v(2)]);
        assert_eq!(matcher.match_count(), 0);
        assert!(matcher.cluster_for(v(1), true).is_empty());
    }

    #[test]
    fn empty_index_short_circuits() {
        let q = PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap();
        let w = Workload::uniform(vec![q]).unwrap();
        let trie = MotifMiner::default().mine(&w).unwrap();
        let empty = FrequentMotifIndex::new(&trie, 1.01); // impossible threshold
        let mut matcher = StreamMotifMatcher::new(empty);
        let window = window_with(&[(1, 0), (2, 1)], &[(1, 2)]);
        matcher.on_window_edge(&window, v(1), v(2));
        assert_eq!(matcher.match_count(), 0);
        assert_eq!(matcher.counters().signatures_computed, 0);
    }

    #[test]
    fn verification_rejects_signature_collisions() {
        // Workload motif: the a-a-a-a path (4 'a' vertices, 3 a-a edges).
        // A star with an 'a' hub and three 'a' leaves has exactly the same
        // factor multiset but is not isomorphic — a signature collision.
        let q = PatternQuery::path(QueryId::new(0), &[l(0), l(0), l(0), l(0)]).unwrap();
        let w = Workload::uniform(vec![q]).unwrap();
        let trie = MotifMiner::default().mine(&w).unwrap();
        let index = FrequentMotifIndex::new(&trie, 0.5);

        let star_window = || {
            let mut w = StreamWindow::new(16);
            for id in 1..=4u64 {
                w.push_vertex(v(id), l(0));
            }
            w
        };
        let run = |mut matcher: StreamMotifMatcher| {
            let mut window = star_window();
            for leaf in [2u64, 3, 4] {
                window.push_edge(v(1), v(leaf));
                matcher.on_window_edge(&window, v(1), v(leaf));
            }
            matcher
        };

        // Without verification the star is (incorrectly but permissibly,
        // per the paper) reported as a 4-vertex match.
        let unverified = run(StreamMotifMatcher::new(index.clone()));
        assert!(unverified.matches().iter().any(|m| m.len() == 4));
        assert_eq!(unverified.counters().false_positives, 0);

        // With verification the 4-vertex star candidate is rejected and the
        // collision is counted.
        let verified = run(StreamMotifMatcher::new(index).with_verification(true));
        assert!(verified.verification_enabled());
        assert!(verified.matches().iter().all(|m| m.len() < 4));
        assert!(verified.counters().false_positives > 0);
        assert!(verified.counters().verifications > 0);
    }

    #[test]
    fn verification_accepts_genuine_matches() {
        let mut matcher = StreamMotifMatcher::new(abc_index()).with_verification(true);
        let window = window_with(&[(1, 0), (2, 1), (3, 2)], &[(1, 2), (2, 3)]);
        matcher.on_window_edge(&window, v(1), v(2));
        matcher.on_window_edge(&window, v(2), v(3));
        assert!(matcher
            .matches()
            .iter()
            .any(|m| m.vertices == vec![v(1), v(2), v(3)]));
        assert_eq!(matcher.counters().false_positives, 0);
        assert!(matcher.counters().verifications > 0);
    }

    #[test]
    fn paper_workload_square_match_is_tracked() {
        // With the full Figure 1 workload at a permissive threshold, the
        // a-b-a-b square is a frequent motif; stream a square and check it is
        // captured as a single 4-vertex match.
        let trie = MotifMiner::default()
            .mine(&paper_example_workload())
            .unwrap();
        let index = FrequentMotifIndex::new(&trie, 0.25);
        let mut matcher = StreamMotifMatcher::new(index);
        let mut window = StreamWindow::new(64);
        // Square 1(a) - 2(b) - 6(a) - 5(b) - 1.
        for (id, label) in [(1u64, 0u32), (2, 1), (6, 0), (5, 1)] {
            window.push_vertex(v(id), l(label));
        }
        for (a, b) in [(1u64, 2u64), (2, 6), (6, 5), (5, 1)] {
            window.push_edge(v(a), v(b));
            matcher.on_window_edge(&window, v(a), v(b));
        }
        assert!(
            matcher.matches().iter().any(|m| m.len() == 4),
            "square match not found; matches: {:?}",
            matcher
                .matches()
                .iter()
                .map(|m| m.vertices.clone())
                .collect::<Vec<_>>()
        );
    }
}
