//! Compile-once query planning.
//!
//! The paper's premise is that the workload `Q` is known up front, so the
//! cost of deciding *how* to match each query — which label anchors the
//! search, in what order the pattern vertices bind — should be paid **once
//! per workload**, not once per execution. This module is that compilation
//! step:
//!
//! * [`GraphStatistics`] — the summary the planner costs candidates against:
//!   label cardinalities (the label index sizes) and the degree
//!   distribution ([`DegreeStats::from_histogram`]), summarised from a
//!   graph or read off a frozen store's label index and slots;
//! * [`QueryPlanner`] — turns a [`PatternQuery`] into an immutable
//!   [`QueryPlan`]: it enumerates one connectivity-respecting vertex
//!   ordering per candidate root and keeps the cheapest under a selectivity
//!   cost model ([`PlanStrategy::CostRanked`]), or reproduces the historical
//!   single-heuristic ordering bit-for-bit ([`PlanStrategy::Legacy`]);
//! * [`QueryPlan`] — the compiled artefact: the matching order plus
//!   everything the matcher used to re-derive per execution (root label,
//!   per-position labels/degrees, binding edges), so executing a plan does
//!   **zero** ordering work;
//! * [`PlanCache`] — the per-workload table of compiled plans, keyed by
//!   [`QueryId`] and shared via `Arc` by the router, the sequential run
//!   and every serving worker, with hit/miss counters that make
//!   the reuse observable.

use crate::matcher::matching_order;
use loom_graph::fxhash::FxHashMap;
use loom_graph::stats::{degree_histogram, DegreeStats};
use loom_graph::{Label, LabelledGraph, VertexId};
use loom_motif::query::{PatternQuery, QueryId};
use loom_motif::workload::Workload;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Graph summary the planner costs candidate orderings against.
///
/// Built once per data graph (a single pass over vertices); every plan
/// compilation afterwards is pure arithmetic over these numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStatistics {
    label_counts: FxHashMap<Label, usize>,
    vertex_count: usize,
    degree: DegreeStats,
}

impl GraphStatistics {
    /// Summarise a data graph: label histogram plus degree statistics.
    pub fn from_graph(graph: &LabelledGraph) -> Self {
        Self::from_histograms(graph.label_histogram(), &degree_histogram(graph))
    }

    /// The summary of a graph whose vertices `label_counts` counts by label
    /// (no label counted zero times) and `degrees` by degree
    /// (`degrees[d]` = vertices of degree `d`, as
    /// [`loom_graph::stats::degree_histogram`] counts them) — the one
    /// constructor, whether the counts come from a graph or from a frozen
    /// store.
    pub fn from_histograms(label_counts: FxHashMap<Label, usize>, degrees: &[usize]) -> Self {
        Self {
            label_counts,
            vertex_count: degrees.iter().sum(),
            degree: DegreeStats::from_histogram(degrees),
        }
    }

    /// Number of vertices carrying `label` (the label-index cardinality).
    pub fn label_count(&self, label: Label) -> usize {
        self.label_counts.get(&label).copied().unwrap_or(0)
    }

    /// Fraction of vertices carrying `label` (0.0 for an empty graph).
    pub(crate) fn label_selectivity(&self, label: Label) -> f64 {
        if self.vertex_count == 0 {
            0.0
        } else {
            self.label_count(label) as f64 / self.vertex_count as f64
        }
    }

    /// Total vertices in the summarised graph.
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Degree distribution of the summarised graph.
    pub fn degree(&self) -> &DegreeStats {
        &self.degree
    }
}

/// How the planner picks the matching order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanStrategy {
    /// The historical single heuristic: greedy
    /// (connectivity, degree, lowest-id) order anchored at the
    /// highest-degree pattern vertex — bit-identical to the pre-planner
    /// execution path, which is what the parity suite pins.
    Legacy,
    /// Cost-ranked: one candidate ordering per possible root vertex, each
    /// priced against the [`GraphStatistics`] selectivity model; the legacy
    /// ordering is the incumbent and is only displaced by a strictly
    /// cheaper candidate, so uniform-statistics graphs plan identically to
    /// [`PlanStrategy::Legacy`].
    #[default]
    CostRanked,
}

/// Stable fingerprint of a compiled plan: query id + chosen order.
///
/// Carried by [`crate::executor::ExecutionMetrics`] as provenance, so a
/// metrics row can always be traced back to the exact plan that produced it
/// (and rows produced under different plans refuse to blend into a
/// single-plan identity when merged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct PlanId(pub u64);

impl fmt::Display for PlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan-{:016x}", self.0)
    }
}

fn fingerprint(query: QueryId, order: &[VertexId], labels: &[Label]) -> PlanId {
    // FNV-1a over the query id, the order and its labels; stable across
    // processes. Labels are mixed in so two plans over identically-numbered
    // but differently-labelled patterns (an id collision resolved to a
    // legacy fallback) can never share a provenance id.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        hash ^= x;
        hash = hash.wrapping_mul(0x1_0000_0000_01b3);
    };
    mix(u64::from(query.raw()));
    for v in order {
        mix(v.raw());
    }
    for label in labels {
        mix(u64::from(label.raw()) + 1);
    }
    PlanId(hash)
}

/// Sentinel root label for plans over empty patterns: no vertex carries it,
/// so root resolution yields no candidates and an execution is a graceful
/// no-op (exactly the legacy empty-query behaviour).
const EMPTY_ROOT: Label = Label::new(u32::MAX);

/// An immutable compiled execution plan for one pattern query.
///
/// Everything the matcher previously derived per execution is materialised
/// here once: the vertex order, the root label the first binding anchors
/// on, and for every later position the pattern label, pattern degree and
/// *binding edges* (the earlier positions it must connect to, in the
/// pattern's stable adjacency order — the first one is the expansion
/// anchor). Executing a plan therefore performs no ordering work at all.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    query: QueryId,
    id: PlanId,
    order: Vec<VertexId>,
    root_label: Label,
    labels: Vec<Label>,
    degrees: Vec<usize>,
    binding_edges: Vec<Vec<usize>>,
    pattern_edges: usize,
    est_cost: f64,
    strategy: PlanStrategy,
}

impl QueryPlan {
    fn from_order(
        query: &PatternQuery,
        order: Vec<VertexId>,
        est_cost: f64,
        strategy: PlanStrategy,
    ) -> Self {
        let pattern = query.graph();
        let position_of: FxHashMap<VertexId, usize> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let labels: Vec<Label> = order
            .iter()
            .map(|&v| pattern.label(v).expect("pattern vertices are labelled"))
            .collect();
        let degrees: Vec<usize> = order.iter().map(|&v| pattern.degree(v)).collect();
        // Binding edges preserve the pattern's adjacency iteration order so
        // the anchor choice — and therefore every traversal metric — is
        // identical to deriving the matched neighbours during the search.
        let binding_edges: Vec<Vec<usize>> = order
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                pattern
                    .neighbors(v)
                    .iter()
                    .filter_map(|n| position_of.get(n).copied())
                    .filter(|&j| j < i)
                    .collect()
            })
            .collect();
        Self {
            query: query.id(),
            id: fingerprint(query.id(), &order, &labels),
            root_label: labels.first().copied().unwrap_or(EMPTY_ROOT),
            order,
            labels,
            degrees,
            binding_edges,
            pattern_edges: query.edge_count(),
            est_cost,
            strategy,
        }
    }

    /// Compile the historical ordering without graph statistics — the
    /// fallback every entry point uses when no [`PlanCache`] is wired in.
    /// Bit-identical execution to the pre-planner path; `est_cost` is NaN
    /// (not estimated).
    pub fn legacy(query: &PatternQuery) -> Self {
        let order = matching_order(query.graph());
        Self::from_order(query, order, f64::NAN, PlanStrategy::Legacy)
    }

    /// The query this plan compiles.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// The plan's stable fingerprint.
    pub fn id(&self) -> PlanId {
        self.id
    }

    /// The matching order over pattern vertices.
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// The label the search roots on (label of `order[0]`).
    pub fn root_label(&self) -> Label {
        self.root_label
    }

    /// Number of pattern vertices.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the plan binds no vertices (never true for a plan compiled
    /// from a validated [`PatternQuery`]).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Pattern label at an order position.
    pub fn label_at(&self, position: usize) -> Label {
        self.labels[position]
    }

    /// Pattern degree at an order position.
    pub(crate) fn degree_at(&self, position: usize) -> usize {
        self.degrees[position]
    }

    /// Earlier order positions the vertex at `position` must connect to, in
    /// the pattern's stable adjacency order (the first is the anchor).
    pub(crate) fn bindings(&self, position: usize) -> &[usize] {
        &self.binding_edges[position]
    }

    /// Whether this plan structurally fits `query`: same id, vertex count,
    /// edge count and label multiset. A cheap guard against executing a
    /// cached plan for a *different* pattern that happens to reuse a query
    /// id (a foreign workload with colliding ids) — engines fall back to a
    /// legacy plan when it fails. Runs once per distinct query per run, not
    /// per execution.
    pub(crate) fn matches_query(&self, query: &PatternQuery) -> bool {
        if self.query != query.id()
            || self.order.len() != query.vertex_count()
            || self.pattern_edges != query.edge_count()
        {
            return false;
        }
        let mut plan_labels = self.labels.clone();
        plan_labels.sort_unstable();
        plan_labels == query.label_sequence()
    }

    /// The planner's cost estimate for this order (NaN when compiled
    /// without statistics via [`QueryPlan::legacy`]).
    pub fn est_cost(&self) -> f64 {
        self.est_cost
    }

    /// The strategy that produced this plan.
    pub fn strategy(&self) -> PlanStrategy {
        self.strategy
    }
}

/// The query planner: compiles [`PatternQuery`]s into [`QueryPlan`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryPlanner {
    strategy: PlanStrategy,
}

/// Greedy connectivity order seeded at `start`: after the seed, repeatedly
/// take the unplaced vertex maximising (edges into the placed set, degree,
/// lowest id). [`matching_order`] is exactly this rule seeded at the
/// highest-degree vertex — it delegates here, so the selection logic the
/// legacy-parity guarantee depends on lives in one place.
pub(crate) fn greedy_order_from(pattern: &LabelledGraph, start: VertexId) -> Vec<VertexId> {
    let vertices = pattern.vertices_sorted();
    let mut order = Vec::with_capacity(vertices.len());
    let mut placed: loom_graph::fxhash::FxHashSet<VertexId> =
        loom_graph::fxhash::FxHashSet::default();
    order.push(start);
    placed.insert(start);
    while order.len() < vertices.len() {
        let next = vertices
            .iter()
            .copied()
            .filter(|v| !placed.contains(v))
            .max_by_key(|&v| {
                let connectivity = pattern
                    .neighbors(v)
                    .iter()
                    .filter(|n| placed.contains(n))
                    .count();
                (connectivity, pattern.degree(v), std::cmp::Reverse(v.raw()))
            })
            .expect("unplaced vertex exists");
        order.push(next);
        placed.insert(next);
    }
    order
}

impl QueryPlanner {
    /// A planner using the given strategy.
    pub fn new(strategy: PlanStrategy) -> Self {
        Self { strategy }
    }

    /// The planner's strategy.
    pub fn strategy(&self) -> PlanStrategy {
        self.strategy
    }

    /// Estimated enumeration cost of matching `order` against a graph with
    /// the given statistics.
    ///
    /// A selectivity model in the FDB/worst-case-ordering tradition: the
    /// root contributes its label-index cardinality; every later position
    /// charges one adjacency scan per surviving partial match (`frontier ×
    /// mean degree` — exactly the traversals the executor meters) and then
    /// shrinks the frontier by the position's label selectivity and by an
    /// edge-probability factor per extra binding edge.
    pub(crate) fn estimate_cost(
        &self,
        pattern: &LabelledGraph,
        order: &[VertexId],
        stats: &GraphStatistics,
    ) -> f64 {
        if order.is_empty() {
            return 0.0;
        }
        let n = stats.vertex_count().max(1) as f64;
        let mean_degree = stats.degree().mean;
        let edge_probability = (mean_degree / n).min(1.0);
        let position_of: FxHashMap<VertexId, usize> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let label = |v: VertexId| pattern.label(v).expect("pattern vertices are labelled");

        let mut frontier = stats.label_count(label(order[0])) as f64;
        let mut cost = frontier;
        for (i, &v) in order.iter().enumerate().skip(1) {
            let bindings = pattern
                .neighbors(v)
                .iter()
                .filter(|n| position_of.get(n).copied().unwrap_or(usize::MAX) < i)
                .count();
            if bindings == 0 {
                // Disconnected component: costless re-seed from the label
                // index, like the matcher does.
                let reseed = stats.label_count(label(v)) as f64;
                cost += frontier * reseed;
                frontier *= reseed;
                continue;
            }
            // One adjacency scan per partial match — the metered traversals.
            cost += frontier * mean_degree;
            let mut expand = mean_degree * stats.label_selectivity(label(v));
            for _ in 1..bindings {
                expand *= edge_probability;
            }
            frontier *= expand;
        }
        cost
    }

    /// Compile one query against the graph statistics.
    ///
    /// Under [`PlanStrategy::Legacy`] the order is exactly
    /// [`matching_order`]'s (but its cost is still estimated, so legacy
    /// plans are comparable). Under [`PlanStrategy::CostRanked`] every
    /// pattern vertex is tried as the root; the legacy order is the
    /// incumbent and a candidate replaces it only when strictly cheaper, so
    /// the choice is deterministic and never worse than the legacy
    /// heuristic under the model.
    pub fn plan(&self, query: &PatternQuery, stats: &GraphStatistics) -> QueryPlan {
        let pattern = query.graph();
        if pattern.is_empty() {
            // A validated PatternQuery is never empty, but deserialized or
            // hand-built ones may be: plan them as graceful no-ops.
            return QueryPlan::from_order(query, Vec::new(), 0.0, self.strategy);
        }
        let legacy_order = matching_order(pattern);
        let legacy_cost = self.estimate_cost(pattern, &legacy_order, stats);
        if self.strategy == PlanStrategy::Legacy {
            return QueryPlan::from_order(query, legacy_order, legacy_cost, PlanStrategy::Legacy);
        }
        let legacy_root = legacy_order[0];
        let mut best_order = legacy_order;
        let mut best_cost = legacy_cost;
        for root in pattern.vertices_sorted() {
            if root == legacy_root {
                continue;
            }
            let candidate = greedy_order_from(pattern, root);
            let cost = self.estimate_cost(pattern, &candidate, stats);
            // Strict improvement only: ties keep the legacy incumbent.
            if cost < best_cost * (1.0 - 1e-9) {
                best_order = candidate;
                best_cost = cost;
            }
        }
        QueryPlan::from_order(query, best_order, best_cost, PlanStrategy::CostRanked)
    }
}

/// The per-workload table of compiled plans, shared via `Arc` by every
/// layer that executes or routes queries.
///
/// Exactly one [`QueryPlan`] is compiled per [`QueryId`]
/// ([`PlanCache::compile`] runs once, when the workload and graph meet);
/// [`PlanCache::get`] hands out `Arc` clones of that single instance and
/// counts hits and misses so the compile-once contract is observable in
/// tests and benches.
pub struct PlanCache {
    strategy: PlanStrategy,
    plans: FxHashMap<QueryId, Arc<QueryPlan>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("strategy", &self.strategy)
            .field("plans", &self.plans.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl PlanCache {
    /// Compile every workload query once against the graph statistics.
    pub fn compile(planner: &QueryPlanner, workload: &Workload, stats: &GraphStatistics) -> Self {
        let plans = workload
            .queries()
            .iter()
            .map(|q| (q.id(), Arc::new(planner.plan(q, stats))))
            .collect();
        Self {
            strategy: planner.strategy(),
            plans,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// The compiled plan for a query, counting a hit (or a miss for a query
    /// id the workload never contained).
    pub fn get(&self, query: QueryId) -> Option<Arc<QueryPlan>> {
        match self.plans.get(&query) {
            Some(plan) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(plan))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The strategy the cache was compiled with.
    pub fn strategy(&self) -> PlanStrategy {
        self.strategy
    }

    /// Number of compiled plans (one per workload query).
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Lookups that found a compiled plan.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups for query ids the cache never compiled.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Iterate over the compiled plans in no particular order.
    pub fn plans(&self) -> impl Iterator<Item = &Arc<QueryPlan>> + '_ {
        self.plans.values()
    }
}

/// The plan an engine executes `query` under: the cached instance when the
/// cache holds a structurally matching one (`QueryPlan::matches_query`),
/// otherwise a legacy plan compiled on the spot. The shared resolution
/// every engine (sequential, sharded, adaptive) performs once per distinct
/// query per run.
pub(crate) fn resolve_plan(cache: Option<&Arc<PlanCache>>, query: &PatternQuery) -> Arc<QueryPlan> {
    cache
        .and_then(|c| c.get(query.id()))
        .filter(|plan| plan.matches_query(query))
        .unwrap_or_else(|| Arc::new(QueryPlan::legacy(query)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::{path_graph, star_graph};
    use loom_motif::fixtures::{paper_example_graph, paper_example_workload};

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    #[test]
    fn legacy_plan_reproduces_matching_order() {
        let workload = paper_example_workload();
        for (query, _) in workload.iter() {
            let plan = QueryPlan::legacy(query);
            assert_eq!(plan.order(), matching_order(query.graph()).as_slice());
            assert_eq!(plan.query(), query.id());
            assert_eq!(
                plan.root_label(),
                query.graph().label(plan.order()[0]).unwrap()
            );
            assert!(plan.est_cost().is_nan());
            // Every non-root position binds to at least one earlier one
            // (patterns are connected) and the anchor is the first binding.
            for i in 1..plan.len() {
                assert!(!plan.bindings(i).is_empty());
                assert!(plan.bindings(i).iter().all(|&j| j < i));
            }
        }
    }

    #[test]
    fn planner_legacy_strategy_orders_match_but_costs_are_estimated() {
        let graph = paper_example_graph();
        let stats = GraphStatistics::from_graph(&graph);
        let planner = QueryPlanner::new(PlanStrategy::Legacy);
        for (query, _) in paper_example_workload().iter() {
            let plan = planner.plan(query, &stats);
            assert_eq!(plan.order(), matching_order(query.graph()).as_slice());
            assert!(plan.est_cost().is_finite());
            assert_eq!(plan.strategy(), PlanStrategy::Legacy);
        }
    }

    #[test]
    fn cost_ranked_never_exceeds_legacy_cost() {
        let graph = paper_example_graph();
        let stats = GraphStatistics::from_graph(&graph);
        let ranked = QueryPlanner::new(PlanStrategy::CostRanked);
        let legacy = QueryPlanner::new(PlanStrategy::Legacy);
        for (query, _) in paper_example_workload().iter() {
            let a = ranked.plan(query, &stats);
            let b = legacy.plan(query, &stats);
            assert!(
                a.est_cost() <= b.est_cost() + 1e-9,
                "{}: ranked {} > legacy {}",
                query.id(),
                a.est_cost(),
                b.est_cost()
            );
        }
    }

    #[test]
    fn cost_ranked_roots_on_the_rarest_label() {
        // A graph with one scarce hub label and a sea of leaf labels: the
        // branch query should root on the scarce label even though the
        // legacy heuristic would as well (hub has max degree) — so build
        // the opposite: a *path* query whose low-degree endpoint is scarce.
        let mut graph = star_graph(40, &[l(0)]);
        // Attach a single l(2) vertex to one leaf: l(2) is the rarest label.
        let leaf = graph.vertices_sorted()[1];
        let rare = graph.add_vertex(l(2));
        graph.add_edge(leaf, rare).unwrap();
        // Relabel the hub's leaves to l(1).
        for v in graph.vertices_sorted() {
            if graph.degree(v) <= 2
                && graph.label(v) == Some(l(0))
                && v != graph.vertices_sorted()[0]
            {
                graph.set_label(v, l(1)).unwrap();
            }
        }
        let stats = GraphStatistics::from_graph(&graph);
        let query = PatternQuery::path(QueryId::new(7), &[l(1), l(2)]).unwrap();
        let plan = QueryPlanner::default().plan(&query, &stats);
        // 1 vertex carries l(2) vs ~39 carrying l(1): root on l(2).
        assert_eq!(plan.root_label(), l(2));
        assert!(stats.label_count(l(2)) < stats.label_count(l(1)));
    }

    #[test]
    fn plan_ids_fingerprint_query_and_order() {
        let q1 = PatternQuery::path(QueryId::new(1), &[l(0), l(1), l(2)]).unwrap();
        let q2 = PatternQuery::path(QueryId::new(2), &[l(0), l(1), l(2)]).unwrap();
        let a = QueryPlan::legacy(&q1);
        let b = QueryPlan::legacy(&q1);
        let c = QueryPlan::legacy(&q2);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id(), "query id feeds the fingerprint");
        assert!(a.id().to_string().starts_with("plan-"));
    }

    #[test]
    fn plan_cache_compiles_once_and_counts_hits() {
        let graph = paper_example_graph();
        let workload = paper_example_workload();
        let stats = GraphStatistics::from_graph(&graph);
        let cache = PlanCache::compile(&QueryPlanner::default(), &workload, &stats);
        assert_eq!(cache.len(), workload.len());
        assert!(!cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));

        let first = workload.queries()[0].id();
        let a = cache.get(first).expect("compiled");
        let b = cache.get(first).expect("compiled");
        // The same single instance is handed out, not a recompilation.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 2);
        assert!(cache.get(QueryId::new(999)).is_none());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.plans().count(), workload.len());
    }

    #[test]
    fn resolve_plan_rejects_structurally_foreign_queries() {
        let graph = paper_example_graph();
        let workload = paper_example_workload();
        let stats = GraphStatistics::from_graph(&graph);
        let cache = Arc::new(PlanCache::compile(
            &QueryPlanner::default(),
            &workload,
            &stats,
        ));
        // The genuine query gets the cached instance.
        let own = &workload.queries()[0];
        let cached = resolve_plan(Some(&cache), own);
        assert!(cached.matches_query(own));
        assert!(Arc::ptr_eq(&cached, &cache.get(own.id()).unwrap()));
        // A *different* pattern reusing the same id must not execute the
        // cached plan — it falls back to its own legacy plan.
        let foreign = PatternQuery::path(own.id(), &[l(0), l(1), l(2), l(3), l(0), l(1)]).unwrap();
        assert!(!cached.matches_query(&foreign));
        let fallback = resolve_plan(Some(&cache), &foreign);
        assert_eq!(fallback.len(), foreign.vertex_count());
        assert_eq!(fallback.order(), matching_order(foreign.graph()).as_slice());
        // Same id and same shape but different labels is still foreign.
        let relabelled = PatternQuery::new(own.id(), {
            let mut g = own.graph().clone();
            for v in g.vertices_sorted() {
                g.set_label(v, l(7)).unwrap();
            }
            g
        })
        .unwrap();
        assert!(!cached.matches_query(&relabelled));
        // No cache at all: always a legacy plan.
        let bare = resolve_plan(None, own);
        assert_eq!(bare.order(), matching_order(own.graph()).as_slice());
    }

    #[test]
    fn statistics_summarise_labels_and_degrees() {
        let graph = path_graph(4, &[l(0), l(1)]);
        let stats = GraphStatistics::from_graph(&graph);
        assert_eq!(stats.vertex_count(), 4);
        assert_eq!(stats.label_count(l(0)), 2);
        assert_eq!(stats.label_count(l(9)), 0);
        assert!((stats.label_selectivity(l(1)) - 0.5).abs() < 1e-12);
        assert_eq!(stats.degree().max, 2);
        let empty = GraphStatistics::from_graph(&LabelledGraph::new());
        assert_eq!(empty.label_selectivity(l(0)), 0.0);
    }
}
