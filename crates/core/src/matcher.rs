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
//!
//! # Finding matches
//!
//! Matches live in a slab. A per-vertex index maps each buffered vertex to
//! the slab cells of the matches containing it, so an event touches only
//! the matches of the vertices it names: a window edge reads the lists of
//! its two endpoints, an eviction, relabel or vertex removal the list of its
//! vertex, an edge removal the list of one endpoint, and a cluster walk the
//! lists of the vertices it gathers. No event scans every live match. A
//! freed cell keeps its vertex and edge buffers for the next match, and the
//! growth pass and the cluster walk reuse buffers of the matcher's own, so
//! once they have reached the stream's high-water mark no event allocates.
//!
//! # Order is state
//!
//! The live matches also form a list in the order they were found, which a
//! cell's reuse does not change: an extended match keeps its place, a new
//! one goes last, a dropped one leaves the others in order.
//! [`StreamMotifMatcher::encode`] writes the matches in that order and
//! [`StreamMotifMatcher::matches`] reads them in it, so a state blob is the
//! same byte for byte as when the matches were one `Vec` scanned in full.

use crate::index::FrequentMotifIndex;
use loom_graph::fxhash::FxHashMap;
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
pub(crate) struct MatcherCounters {
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

/// The end of the found-order list.
const NIL: u32 = u32::MAX;

/// One slab cell: a match (live or, on the free list, a spent one whose
/// buffers wait for the next), its neighbours in found order, and the last
/// cluster walk that reached it.
#[derive(Debug, Clone)]
struct Cell {
    m: MotifMatch,
    prev: u32,
    next: u32,
    walk: u64,
}

/// The buffers the growth pass and the cluster walk reuse.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Cells an index lookup found, read before any of them changes.
    hits: Vec<u32>,
    /// The sub-graph grown from an edge: vertices and edges in the order
    /// taken, and one round's candidate edges.
    vertices: Vec<VertexId>,
    edges: Vec<EdgeKey>,
    candidates: Vec<EdgeKey>,
    /// A found sub-graph's vertices, sorted.
    found: Vec<VertexId>,
    /// The cluster walk's pending cells and the vertices it gathered.
    frontier: Vec<u32>,
    cluster: Vec<VertexId>,
    walk: u64,
}

/// The incremental stream motif matcher.
#[derive(Debug, Clone)]
pub struct StreamMotifMatcher {
    index: FrequentMotifIndex,
    /// The match slab; live cells are linked in found order from `head` to
    /// `tail`, free ones are on `free`.
    cells: Vec<Cell>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    live: usize,
    /// Buffered vertex → the cells of the live matches containing it.
    by_vertex: FxHashMap<VertexId, Vec<u32>>,
    /// Emptied `by_vertex` lists, kept for the next vertex.
    spare: Vec<Vec<u32>>,
    scratch: Scratch,
    counters: MatcherCounters,
    verify: bool,
}

impl StreamMotifMatcher {
    /// Create a matcher over the given frequent-motif index.
    pub fn new(index: FrequentMotifIndex) -> Self {
        Self {
            index,
            cells: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            live: 0,
            by_vertex: FxHashMap::default(),
            spare: Vec::new(),
            scratch: Scratch::default(),
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
    /// in `MatcherCounters::false_positives`, which is how experiment E-F8
    /// measures the collision rate empirically.
    #[must_use]
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// The index the matcher was built over.
    pub fn index(&self) -> &FrequentMotifIndex {
        &self.index
    }

    /// The currently tracked matches, in the order they were found.
    pub fn matches(&self) -> impl Iterator<Item = &MotifMatch> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let cell = self.cells.get(at as usize)?;
            at = cell.next;
            Some(&cell.m)
        })
    }

    /// Counters accumulated so far.
    pub(crate) fn counters(&self) -> MatcherCounters {
        self.counters
    }

    /// Write the tracked matches into a state blob, in order: each one's
    /// vertices and edges. Its signature and motif are not written — both
    /// follow from the labels of its vertices — and neither are the
    /// counters, which LOOM writes with its own.
    pub fn encode(&self, w: &mut StateWriter) {
        w.u64(self.live as u64);
        for m in self.matches() {
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
    pub(crate) fn decode(
        &mut self,
        window: &StreamWindow,
        counters: MatcherCounters,
        r: &mut StateReader<'_>,
    ) -> Result<()> {
        let corrupt = |detail: String| PartitionError::CorruptState(detail);
        self.counters = counters;
        self.cells.clear();
        self.free.clear();
        self.by_vertex.clear();
        (self.head, self.tail, self.live) = (NIL, NIL, 0);
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
            self.insert(motif, &vertices, &edges, &signature);
        }
        Ok(())
    }

    /// Track a new match, last in found order.
    fn insert(
        &mut self,
        motif: MotifId,
        vertices: &[VertexId],
        edges: &[EdgeKey],
        signature: &Signature,
    ) {
        let c = match self.free.pop() {
            Some(c) => c,
            None => {
                let c = u32::try_from(self.cells.len()).expect("fewer than u32::MAX matches");
                self.cells.push(Cell {
                    m: MotifMatch {
                        motif,
                        vertices: Vec::new(),
                        edges: Vec::new(),
                        signature: Signature::empty(),
                    },
                    prev: NIL,
                    next: NIL,
                    walk: 0,
                });
                c
            }
        };
        let cell = &mut self.cells[c as usize];
        cell.m.motif = motif;
        cell.m.vertices.clear();
        cell.m.vertices.extend_from_slice(vertices);
        cell.m.edges.clear();
        cell.m.edges.extend_from_slice(edges);
        cell.m.signature.clone_from(signature);
        (cell.prev, cell.next) = (self.tail, NIL);
        match self.tail {
            NIL => self.head = c,
            tail => self.cells[tail as usize].next = c,
        }
        self.tail = c;
        self.live += 1;
        // A self-loop grows a match that names its vertex twice; the
        // vertex lists it once.
        for (i, &v) in vertices.iter().enumerate() {
            if i == 0 || vertices[i - 1] != v {
                self.list(v, c);
            }
        }
    }

    /// Note that the match in cell `c` contains `v`.
    fn list(&mut self, v: VertexId, c: u32) {
        let spare = &mut self.spare;
        let cells = self
            .by_vertex
            .entry(v)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        cells.push(c);
    }

    /// Drop the match in cell `c`: out of the found order and out of its
    /// vertices' lists, its buffers kept for the next match.
    fn drop_match(&mut self, c: u32) {
        let Cell { prev, next, .. } = self.cells[c as usize];
        match prev {
            NIL => self.head = next,
            prev => self.cells[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.cells[next as usize].prev = prev,
        }
        for i in 0..self.cells[c as usize].m.vertices.len() {
            let v = self.cells[c as usize].m.vertices[i];
            let Some(cells) = self.by_vertex.get_mut(&v) else {
                continue;
            };
            if let Some(at) = cells.iter().position(|&d| d == c) {
                cells.swap_remove(at);
            }
            if cells.is_empty() {
                let mut emptied = self.by_vertex.remove(&v).expect("just read");
                emptied.clear();
                self.spare.push(emptied);
            }
        }
        self.free.push(c);
        self.live -= 1;
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
        // The matches holding exactly one endpoint, as they were before this
        // edge. A match holding both gets the edge from the growth pass
        // below; each match is extended on its own, so the order they are
        // tried in changes nothing.
        let hits = &mut self.scratch.hits;
        hits.clear();
        for (held, other) in [(a, b), (b, a)] {
            if let Some(cells) = self.by_vertex.get(&held) {
                let cells = cells.iter().copied();
                hits.extend(cells.filter(|&c| !self.cells[c as usize].m.contains(other)));
            }
        }
        for h in 0..self.scratch.hits.len() {
            let c = self.scratch.hits[h];
            let m = &self.cells[c as usize].m;
            let (newcomer, newcomer_label) = if m.contains(a) {
                (b, label_b)
            } else {
                (a, label_a)
            };
            let Ok(vf) = self.index.prime_table().vertex_factor(newcomer_label) else {
                continue;
            };
            let mut extended = m.signature.clone();
            extended.multiply(vf);
            extended.multiply(edge_factor);
            self.counters.signatures_computed += 1;
            let Some(motif) = self.index.motif_for(&extended) else {
                continue;
            };
            let at = m
                .vertices
                .binary_search(&newcomer)
                .expect_err("a hit holds one endpoint, not the newcomer");
            if self.verify {
                let s = &mut self.scratch;
                s.found.clear();
                s.found.extend_from_slice(&m.vertices);
                s.found.insert(at, newcomer);
                s.edges.clear();
                s.edges.extend_from_slice(&m.edges);
                s.edges.push(edge);
                let counters = &mut self.counters;
                if !verify_candidate(&self.index, counters, window, &s.found, &s.edges, motif) {
                    continue;
                }
            }
            let m = &mut self.cells[c as usize].m;
            m.vertices.insert(at, newcomer);
            m.edges.push(edge);
            m.signature = extended;
            m.motif = motif;
            self.list(newcomer, c);
        }

        // 2. Incremental re-computation from the new edge (Figure 3): find the
        //    largest window sub-graph containing `e` that matches a motif.
        if let Some((motif, signature, vertex_count, edge_count)) =
            self.grow_from_edge(window, a, b)
        {
            let s = &mut self.scratch;
            s.found.clear();
            s.found.extend_from_slice(&s.vertices[..vertex_count]);
            s.found.sort_unstable();
            // A duplicate holds the found vertices, the first one included.
            let duplicate = self.by_vertex.get(&s.found[0]).is_some_and(|cells| {
                cells.iter().any(|&c| {
                    let m = &self.cells[c as usize].m;
                    m.vertices == s.found && m.motif == motif
                })
            });
            let edges = &s.edges[..edge_count];
            if !duplicate
                && (!self.verify
                    || verify_candidate(
                        &self.index,
                        &mut self.counters,
                        window,
                        &s.found,
                        edges,
                        motif,
                    ))
            {
                self.counters.matches_found += 1;
                let (found, edges) = (std::mem::take(&mut s.found), std::mem::take(&mut s.edges));
                self.insert(motif, &found, &edges[..edge_count], &signature);
                (self.scratch.found, self.scratch.edges) = (found, edges);
            }
        }
    }

    /// Drop every match that involves any of the given vertices (they have
    /// been assigned and left the window).
    pub(crate) fn remove_vertices(&mut self, vertices: &[VertexId]) {
        // With no match live the index is empty: nothing to probe.
        if self.live == 0 {
            return;
        }
        for &v in vertices {
            // Dropping a match takes it off `v`'s list, and the list's entry
            // goes with its last match.
            while let Some(&c) = self.by_vertex.get(&v).and_then(|cells| cells.last()) {
                self.drop_match(c);
            }
        }
    }

    /// Drop every match whose matched sub-graph uses the edge `(a, b)` — the
    /// edge has been removed from the evolving graph, so those sub-graphs no
    /// longer exist. Surviving sub-structure is rediscovered by later window
    /// edges through the ordinary growth pass.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) {
        let edge = EdgeKey::new(a, b);
        let hits = &mut self.scratch.hits;
        hits.clear();
        // A match using the edge holds both endpoints, `a` among them.
        if let Some(cells) = self.by_vertex.get(&a) {
            let cells = cells.iter().copied();
            hits.extend(cells.filter(|&c| self.cells[c as usize].m.edges.contains(&edge)));
        }
        for h in 0..self.scratch.hits.len() {
            self.drop_match(self.scratch.hits[h]);
        }
    }

    /// Drop every match containing `v` after a relabel: their signatures were
    /// computed from the old label and are no longer authoritative. Matches
    /// the new label still supports are rediscovered as further edges arrive.
    pub fn relabel(&mut self, v: VertexId) {
        self.remove_vertices(&[v]);
    }

    /// The motif cluster anchored at `v`: the union of the vertex sets of all
    /// matches containing `v`, transitively closed over overlapping matches
    /// (paper §4.4), sorted by id. Empty if `v` belongs to no match. The
    /// slice is the matcher's own buffer, overwritten by the next call.
    pub fn cluster_for(&mut self, v: VertexId) -> &[VertexId] {
        let s = &mut self.scratch;
        s.cluster.clear();
        // Most evicted vertices belong to no match, and on most orders most
        // evictions find no match live at all.
        if self.live == 0 {
            return &s.cluster;
        }
        let Some(anchored) = self.by_vertex.get(&v) else {
            return &s.cluster;
        };
        s.walk += 1;
        s.frontier.clear();
        for &c in anchored {
            self.cells[c as usize].walk = s.walk;
            s.frontier.push(c);
        }
        while let Some(c) = s.frontier.pop() {
            for i in 0..self.cells[c as usize].m.vertices.len() {
                let u = self.cells[c as usize].m.vertices[i];
                s.cluster.push(u);
                for &d in self.by_vertex.get(&u).into_iter().flatten() {
                    let cell = &mut self.cells[d as usize];
                    if cell.walk != s.walk {
                        cell.walk = s.walk;
                        s.frontier.push(d);
                    }
                }
            }
        }
        s.cluster.sort_unstable();
        s.cluster.dedup();
        &s.cluster
    }

    /// Grow the largest motif-matching sub-graph containing the edge
    /// `(a, b)`, walking only window-internal edges. The sub-graph is the
    /// first `vertex_count` vertices and `edge_count` edges the scratch
    /// buffers took; returned with its motif and signature.
    fn grow_from_edge(
        &mut self,
        window: &StreamWindow,
        a: VertexId,
        b: VertexId,
    ) -> Option<(MotifId, Signature, usize, usize)> {
        let table = self.index.prime_table();
        let label_a = window.label_of(a)?;
        let label_b = window.label_of(b)?;
        let mut signature = Signature::empty();
        signature.multiply(table.vertex_factor(label_a).ok()?);
        signature.multiply(table.vertex_factor(label_b).ok()?);
        signature.multiply(table.edge_factor(label_a, label_b).ok()?);
        self.counters.signatures_computed += 1;

        let s = &mut self.scratch;
        s.vertices.clear();
        s.vertices.extend([a.min(b), a.max(b)]);
        s.edges.clear();
        s.edges.push(EdgeKey::new(a, b));
        let mut best = self
            .index
            .motif_for(&signature)
            .map(|motif| (motif, signature.clone(), 2, 1));
        if best.is_none() && !self.index.could_grow_into_motif(&signature) {
            return None;
        }

        let (max_vertices, max_edges) = (
            self.index.max_motif_vertices(),
            self.index.max_motif_edges(),
        );
        loop {
            if s.vertices.len() >= max_vertices && s.edges.len() >= max_edges {
                break;
            }
            // Candidate extensions: window edges incident to the current
            // vertex set that are not yet included.
            s.candidates.clear();
            for &v in &s.vertices {
                for &n in window.window_neighbours(v) {
                    let e = EdgeKey::new(v, n);
                    if !s.edges.contains(&e) {
                        s.candidates.push(e);
                    }
                }
            }
            s.candidates.sort_unstable();
            s.candidates.dedup();

            let mut progressed = false;
            for &e in &s.candidates {
                if s.edges.len() >= max_edges {
                    break;
                }
                let newcomer = [e.lo, e.hi].into_iter().find(|v| !s.vertices.contains(v));
                if newcomer.is_some() && s.vertices.len() >= max_vertices {
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
                s.edges.push(e);
                if let Some(nv) = newcomer {
                    s.vertices.push(nv);
                }
                if let Some(motif) = exact {
                    best = Some((motif, signature.clone(), s.vertices.len(), s.edges.len()));
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

/// Exact check that a candidate match really is isomorphic to its motif.
/// Returns `true` when no motif graph is available (non-authoritative
/// mode); callers ask only with verification on.
fn verify_candidate(
    index: &FrequentMotifIndex,
    counters: &mut MatcherCounters,
    window: &StreamWindow,
    vertices: &[VertexId],
    edges: &[EdgeKey],
    motif: MotifId,
) -> bool {
    let Some(motif_graph) = index.motif_graph(motif) else {
        return true;
    };
    counters.verifications += 1;
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
        counters.false_positives += 1;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::fxhash::FxHashSet;
    use loom_graph::Label;
    use loom_motif::fixtures::{fig3_stream_graph, paper_example_workload};
    use loom_motif::mining::MotifMiner;
    use loom_motif::query::{PatternQuery, QueryId};
    use loom_motif::workload::Workload;
    use loom_partition::window::EdgePlacement;

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
        assert_eq!(matcher.live, 1);
        let m = matcher.matches().next().unwrap();
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
            .any(|m| m.vertices == vec![v(1), v(2), v(3)]));
    }

    #[test]
    fn irrelevant_labels_produce_no_matches() {
        let mut matcher = StreamMotifMatcher::new(abc_index());
        // d-d edge: label pair not present in any motif.
        let window = window_with(&[(1, 3), (2, 3)], &[(1, 2)]);
        matcher.on_window_edge(&window, v(1), v(2));
        assert_eq!(matcher.live, 0);
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
        let cluster = matcher.cluster_for(a);
        assert_eq!(cluster.len(), 4);
    }

    #[test]
    fn removing_vertices_drops_their_matches() {
        let mut matcher = StreamMotifMatcher::new(abc_index());
        let window = window_with(&[(1, 0), (2, 1), (3, 2)], &[(1, 2), (2, 3)]);
        matcher.on_window_edge(&window, v(1), v(2));
        matcher.on_window_edge(&window, v(2), v(3));
        assert!(matcher.live > 0);
        matcher.remove_vertices(&[v(2)]);
        assert_eq!(matcher.live, 0);
        assert!(matcher.cluster_for(v(1)).is_empty());
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
        assert_eq!(matcher.live, 0);
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
        assert!(unverified.matches().any(|m| m.len() == 4));
        assert_eq!(unverified.counters().false_positives, 0);

        // With verification the 4-vertex star candidate is rejected and the
        // collision is counted.
        let verified = run(StreamMotifMatcher::new(index).with_verification(true));
        assert!(verified.verify);
        assert!(verified.matches().all(|m| m.len() < 4));
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
            matcher.matches().any(|m| m.len() == 4),
            "square match not found; matches: {:?}",
            matcher
                .matches()
                .map(|m| m.vertices.clone())
                .collect::<Vec<_>>()
        );
    }

    /// The matcher as it was before the slab: one `Vec` of matches, every
    /// event a scan over all of them, the cluster walk a rescan per merged
    /// match. Kept as the reference the slab matcher must equal.
    struct LinearMatcher {
        index: FrequentMotifIndex,
        matches: Vec<MotifMatch>,
        counters: MatcherCounters,
        verify: bool,
    }

    impl LinearMatcher {
        fn new(index: FrequentMotifIndex, verify: bool) -> Self {
            Self {
                index,
                matches: Vec::new(),
                counters: MatcherCounters::default(),
                verify,
            }
        }

        fn verified(
            &mut self,
            window: &StreamWindow,
            vertices: &[VertexId],
            edges: &[EdgeKey],
            motif: MotifId,
        ) -> bool {
            !self.verify
                || verify_candidate(
                    &self.index,
                    &mut self.counters,
                    window,
                    vertices,
                    edges,
                    motif,
                )
        }

        fn on_window_edge(&mut self, window: &StreamWindow, a: VertexId, b: VertexId) {
            if self.index.is_empty() {
                return;
            }
            let (Some(label_a), Some(label_b)) = (window.label_of(a), window.label_of(b)) else {
                return;
            };
            let edge = EdgeKey::new(a, b);
            let Ok(edge_factor) = self.index.prime_table().edge_factor(label_a, label_b) else {
                return;
            };
            for i in 0..self.matches.len() {
                let has_a = self.matches[i].contains(a);
                let has_b = self.matches[i].contains(b);
                if has_a == has_b {
                    continue;
                }
                let newcomer = if has_a { b } else { a };
                let newcomer_label = if has_a { label_b } else { label_a };
                let mut extended = self.matches[i].signature.clone();
                let Ok(vf) = self.index.prime_table().vertex_factor(newcomer_label) else {
                    continue;
                };
                extended.multiply(vf);
                extended.multiply(edge_factor);
                self.counters.signatures_computed += 1;
                if let Some(motif) = self.index.motif_for(&extended) {
                    let mut vertices = self.matches[i].vertices.clone();
                    vertices.push(newcomer);
                    vertices.sort_unstable();
                    let mut edges = self.matches[i].edges.clone();
                    edges.push(edge);
                    if !self.verified(window, &vertices, &edges, motif) {
                        continue;
                    }
                    self.matches[i] = MotifMatch {
                        motif,
                        vertices,
                        edges,
                        signature: extended,
                    };
                }
            }
            if let Some(found) = self.grow_from_edge(window, a, b) {
                let duplicate = self
                    .matches
                    .iter()
                    .any(|m| m.vertices == found.vertices && m.motif == found.motif);
                if !duplicate && self.verified(window, &found.vertices, &found.edges, found.motif) {
                    self.counters.matches_found += 1;
                    self.matches.push(found);
                }
            }
        }

        fn grow_from_edge(
            &mut self,
            window: &StreamWindow,
            a: VertexId,
            b: VertexId,
        ) -> Option<MotifMatch> {
            let table = self.index.prime_table();
            let (label_a, label_b) = (window.label_of(a)?, window.label_of(b)?);
            let mut signature = Signature::empty();
            signature.multiply(table.vertex_factor(label_a).ok()?);
            signature.multiply(table.vertex_factor(label_b).ok()?);
            signature.multiply(table.edge_factor(label_a, label_b).ok()?);
            self.counters.signatures_computed += 1;
            let mut vertices = vec![a.min(b), a.max(b)];
            let mut edges = vec![EdgeKey::new(a, b)];
            let found =
                |motif, vertices: &Vec<VertexId>, edges: &Vec<EdgeKey>, signature| MotifMatch {
                    motif,
                    vertices: vertices.clone(),
                    edges: edges.clone(),
                    signature,
                };
            let mut best = self
                .index
                .motif_for(&signature)
                .map(|motif| found(motif, &vertices, &edges, signature.clone()));
            if best.is_none() && !self.index.could_grow_into_motif(&signature) {
                return None;
            }
            let (max_vertices, max_edges) = (
                self.index.max_motif_vertices(),
                self.index.max_motif_edges(),
            );
            while vertices.len() < max_vertices || edges.len() < max_edges {
                let mut candidates = Vec::new();
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
                    if edges.len() >= max_edges {
                        break;
                    }
                    let newcomer = [e.lo, e.hi].into_iter().find(|v| !vertices.contains(v));
                    if newcomer.is_some() && vertices.len() >= max_vertices {
                        continue;
                    }
                    let (Some(ll), Some(lh)) = (window.label_of(e.lo), window.label_of(e.hi))
                    else {
                        continue;
                    };
                    let mut tentative = signature.clone();
                    if let Some(nv) = newcomer {
                        let Some(Ok(vf)) = window.label_of(nv).map(|nl| table.vertex_factor(nl))
                        else {
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
                        continue;
                    }
                    signature = tentative;
                    edges.push(e);
                    if let Some(nv) = newcomer {
                        vertices.push(nv);
                        vertices.sort_unstable();
                    }
                    if let Some(motif) = exact {
                        best = Some(found(motif, &vertices, &edges, signature.clone()));
                    }
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
            best
        }

        fn remove_vertices(&mut self, vertices: &[VertexId]) {
            self.matches
                .retain(|m| !vertices.iter().any(|&v| m.contains(v)));
        }

        fn remove_edge(&mut self, a: VertexId, b: VertexId) {
            let edge = EdgeKey::new(a, b);
            self.matches.retain(|m| !m.edges.contains(&edge));
        }

        fn cluster_for(&self, v: VertexId) -> Vec<VertexId> {
            let mut in_cluster: Vec<bool> = self.matches.iter().map(|m| m.contains(v)).collect();
            let mut frontier: Vec<usize> =
                (0..self.matches.len()).filter(|&i| in_cluster[i]).collect();
            let mut cluster = FxHashSet::default();
            while let Some(i) = frontier.pop() {
                cluster.extend(self.matches[i].vertices.iter().copied());
                for (j, m) in self.matches.iter().enumerate() {
                    if !in_cluster[j] && m.vertices.iter().any(|u| cluster.contains(u)) {
                        in_cluster[j] = true;
                        frontier.push(j);
                    }
                }
            }
            let mut cluster: Vec<VertexId> = cluster.into_iter().collect();
            cluster.sort_unstable();
            cluster
        }

        fn encode(&self) -> Vec<u8> {
            let part = loom_partition::partition::Partitioning::new(1, 1).unwrap();
            let mut w = StateWriter::new("matcher", &[], &part);
            w.u64(self.matches.len() as u64);
            for m in &self.matches {
                w.ids(&m.vertices);
                w.u32(m.edges.len() as u32);
                for e in &m.edges {
                    w.id(e.lo);
                    w.id(e.hi);
                }
            }
            w.finish()
        }
    }

    fn encoded(matcher: &StreamMotifMatcher) -> Vec<u8> {
        let part = loom_partition::partition::Partitioning::new(1, 1).unwrap();
        let mut w = StateWriter::new("matcher", &[], &part);
        matcher.encode(&mut w);
        w.finish()
    }

    /// A match as the reference compares it.
    fn seen(m: &MotifMatch) -> (MotifId, Vec<VertexId>, Vec<EdgeKey>, Vec<u64>) {
        (
            m.motif,
            m.vertices.clone(),
            m.edges.clone(),
            m.signature.factors().to_vec(),
        )
    }

    /// Seeded interleavings of window edges, evictions and removals of one
    /// to three buffered vertices, edge removals and relabels, over the
    /// `abc` index and the paper workload's, with verification off and on.
    /// After every event the slab matcher equals [`LinearMatcher`]: the same
    /// matches in the same order, the same counters, the same `encode`
    /// bytes, and the same `cluster_for` set for every buffered vertex.
    #[test]
    fn the_slab_matcher_equals_a_linear_scan_in_matches_order_and_clusters() {
        let paper = {
            let trie = MotifMiner::default()
                .mine(&paper_example_workload())
                .unwrap();
            FrequentMotifIndex::new(&trie, 0.25)
        };
        let (mut events, mut most_live, mut merged_beyond, mut found, mut false_positives) =
            (0, 0, 0, 0, 0);
        // The a-a-a-a path: one label, so stars collide with it (the
        // verification test) and matches overlap everywhere.
        let aaaa = {
            let q = PatternQuery::path(QueryId::new(0), &[l(0), l(0), l(0), l(0)]).unwrap();
            let trie = MotifMiner::default()
                .mine(&Workload::uniform(vec![q]).unwrap())
                .unwrap();
            FrequentMotifIndex::new(&trie, 0.5)
        };
        for (index, labels) in [(abc_index(), 3u64), (paper, 3), (aaaa, 1)] {
            for verify in [false, true] {
                for seed in 0..12u64 {
                    // SplitMix64: the test owns its randomness.
                    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                    let mut draw = move |n: u64| {
                        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let mut z = state;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                        (z ^ (z >> 31)) % n
                    };
                    let mut window = StreamWindow::new(12);
                    let mut slab = StreamMotifMatcher::new(index.clone()).with_verification(verify);
                    let mut linear = LinearMatcher::new(index.clone(), verify);
                    for step in 0..500 {
                        let at = format!("verify {verify} seed {seed} step {step}");
                        let buffered: Vec<VertexId> = window.vertices().collect();
                        let pick = |r: u64| buffered[r as usize % buffered.len().max(1)];
                        match draw(16) {
                            0..=3 => {
                                let id = v(draw(20));
                                let label = l(draw(labels) as u32);
                                if window.label_of(id).is_some() {
                                    window.relabel(id, label);
                                    slab.relabel(id);
                                    linear.remove_vertices(&[id]);
                                    continue;
                                }
                                while window.is_full() {
                                    let oldest = window.oldest().unwrap();
                                    window.remove(oldest);
                                    slab.remove_vertices(&[oldest]);
                                    linear.remove_vertices(&[oldest]);
                                }
                                window.push_vertex(id, label);
                            }
                            4..=11 if !buffered.is_empty() => {
                                // Self-loops too: the window keeps them.
                                let (a, b) = (pick(draw(64)), pick(draw(64)));
                                if window.push_edge(a, b) == EdgePlacement::BothInWindow {
                                    slab.on_window_edge(&window, a, b);
                                    linear.on_window_edge(&window, a, b);
                                }
                            }
                            12 if !buffered.is_empty() => {
                                let mut gone: Vec<VertexId> =
                                    (0..1 + draw(3)).map(|_| pick(draw(64))).collect();
                                gone.sort_unstable();
                                gone.dedup();
                                for &u in &gone {
                                    window.remove(u);
                                }
                                slab.remove_vertices(&gone);
                                linear.remove_vertices(&gone);
                            }
                            13 | 14 if !buffered.is_empty() => {
                                let (a, b) = (pick(draw(64)), pick(draw(64)));
                                window.remove_edge(a, b);
                                slab.remove_edge(a, b);
                                linear.remove_edge(a, b);
                            }
                            _ => continue,
                        }
                        events += 1;
                        most_live = most_live.max(slab.live);
                        let slab_matches: Vec<_> = slab.matches().map(seen).collect();
                        let linear_matches: Vec<_> = linear.matches.iter().map(seen).collect();
                        assert_eq!(slab_matches, linear_matches, "{at}");
                        assert_eq!(slab.live, linear.matches.len(), "{at}");
                        let (c, r) = (slab.counters(), linear.counters);
                        assert_eq!(
                            (c.signatures_computed, c.matches_found),
                            (r.signatures_computed, r.matches_found),
                            "{at}"
                        );
                        assert_eq!(
                            (c.verifications, c.false_positives),
                            (r.verifications, r.false_positives),
                            "{at}"
                        );
                        assert_eq!(encoded(&slab), linear.encode(), "{at}");
                        for u in window.vertices().collect::<Vec<_>>() {
                            // The matches holding `u` itself, before merging.
                            let mut alone: Vec<VertexId> = linear
                                .matches
                                .iter()
                                .filter(|m| m.contains(u))
                                .flat_map(|m| m.vertices.iter().copied())
                                .collect();
                            alone.sort_unstable();
                            alone.dedup();
                            let merged = linear.cluster_for(u);
                            merged_beyond += usize::from(merged.len() > alone.len());
                            assert_eq!(slab.cluster_for(u), merged, "{u}, {at}");
                        }
                    }
                    found += slab.counters().matches_found;
                    false_positives += slab.counters().false_positives;
                }
            }
        }
        // The interleavings reach what the index is for: many live matches,
        // clusters that merge, collisions that verification rejects.
        assert!(events > 20_000, "{events} events");
        assert!(
            most_live >= 10 && found > 1_000,
            "{most_live} live, {found} found"
        );
        assert!(merged_beyond > 0 && false_positives > 0);
    }
}
