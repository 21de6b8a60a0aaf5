//! The reusable, instrumented backtracking pattern matcher.
//!
//! The sequential reference run and the concurrent `loom-serve` worker
//! shards execute rooted pattern queries with exactly the same search; this module is that search, written once against the
//! [`PatternStore`] abstraction and monomorphised per store.
//!
//! The search runs in the store's own **handle space**. A store names its
//! vertices by a cheap `Copy` [`PatternStore::Handle`] — the hash-map
//! [`PartitionedStore`](crate::store::PartitionedStore) uses the
//! [`VertexId`] itself, the CSR `loom_serve::ShardedStore` uses the vertex's
//! `u32` arena position — and every question the inner loop asks (label,
//! live degree, adjacency, edge membership, partition crossing) is keyed by
//! handle. Roots come out of the store's label index **as handles**
//! ([`PatternStore::handles_with_label`]); only the explicit roots of
//! [`execute_plan_with_roots`], which arrive as ids, are resolved. From
//! there neighbours arrive as handles, the partial mapping holds handles,
//! and ids reappear only when an [`Embedding`] is collected.
//!
//! **The arc answers for its target.** Every neighbour of an anchor is one
//! metered traversal, but only the few carrying the wanted label become
//! candidates. The expansion loop therefore reads a vertex's adjacency as
//! [`TaggedArc`]s ([`PatternStore::arcs_of`]): each arc says whether
//! following it is remote and whether its target *may* carry the label the
//! plan wants at this depth. A store that keeps those two facts beside its
//! adjacency (the arena keeps one byte per arc) lets the loop meter an
//! off-label neighbour without touching the neighbour's own record; only a
//! neighbour whose arc passes the filter is looked at.
//!
//! The search is **plan-driven**: [`execute_plan`] consumes a pre-compiled
//! [`QueryPlan`] — matching order, root label, per-position labels/degrees
//! and binding edges all materialised at compile time — so an execution
//! performs zero ordering work. Callers without a plan cache compile a
//! [`QueryPlan::legacy`] themselves.
//!
//! The search itself is a VF2-style backtracking enumeration (the same
//! semantics as `loom_motif::isomorphism`) instrumented to record every
//! *traversal* it performs: each expansion from a matched vertex to a
//! candidate neighbour either stays on the local partition or hops to a
//! remote one. The remote fraction is exactly the "probability of
//! inter-partition traversals" the paper optimises.

use crate::context::{CancelToken, RequestContext};
use crate::executor::{ExecutionMetrics, QueryMode};
use crate::plan::QueryPlan;
use loom_graph::{Label, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// How many traversals the search performs between wall-clock deadline
/// checks. `Instant::now()` is far cheaper than a remote hop but not free;
/// polling every traversal would tax the no-deadline hot path for nothing,
/// while a stride of 64 bounds the overshoot past a deadline to a few
/// microseconds of extra expansion.
const DEADLINE_CHECK_STRIDE: u32 = 64;

/// Storage abstraction the matcher runs against, keyed by the store's own
/// vertex [`Handle`](PatternStore::Handle).
///
/// A handle names one **live** vertex of the store. Handles come from
/// [`resolve`](PatternStore::resolve),
/// [`handles_with_label`](PatternStore::handles_with_label) or
/// [`arcs_of`](PatternStore::arcs_of) and are only meaningful for the store
/// (snapshot) that issued them.
///
/// Implementations must agree on semantics: `arcs_of` walks the live
/// adjacency in the data graph's stable iteration order and is symmetric
/// (`a` has an arc to `b` exactly when `adjacent(a, b)` and `adjacent(b, a)`
/// — edges are undirected, and the search relies on it to skip re-checking
/// the edge it arrived by), `handles_with_label` returns the live label
/// index ordered by vertex id, and an arc to or from a vertex without a
/// partition assignment is remote. Two stores presenting the same graph and
/// partitioning produce **identical** [`ExecutionMetrics`] for the same
/// `(plan, mode, seed)` — the property the serving-engine parity tests
/// assert.
pub trait PatternStore {
    /// The store's name for a vertex inside the search.
    type Handle: Copy + Eq;

    /// The handle of a vertex id; `None` if the vertex is absent or
    /// tombstoned.
    fn resolve(&self, v: VertexId) -> Option<Self::Handle>;

    /// The vertex id a handle names.
    fn vertex_of(&self, h: Self::Handle) -> VertexId;

    /// The label of a vertex.
    fn label_of(&self, h: Self::Handle) -> Label;

    /// The live arcs out of `from`, in the store's stable iteration order,
    /// each answering for its target against `label` (see [`TaggedArc`]).
    fn arcs_of(
        &self,
        from: Self::Handle,
        label: Label,
    ) -> impl Iterator<Item = TaggedArc<Self::Handle>>;

    /// Live degree: the number of arcs `arcs_of(h, _)` walks.
    fn degree_of(&self, h: Self::Handle) -> usize;

    /// Whether the undirected edge `a – b` exists.
    fn adjacent(&self, a: Self::Handle, b: Self::Handle) -> bool;

    /// All live vertices carrying `label`, ordered by vertex id.
    fn handles_with_label(&self, label: Label) -> &[Self::Handle];
}

/// One live arc out of an anchor, as [`PatternStore::arcs_of`] reports it
/// for the label the search wants next: what the expansion loop needs to
/// meter the neighbour, and to decide whether to look at it at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedArc<H> {
    /// The neighbour the arc leads to.
    pub to: H,
    /// Whether following the arc crosses a partition boundary. **Exact**: it
    /// is what the paper's metric counts.
    pub remote: bool,
    /// A filter on the target's label. `false` only when the target
    /// certainly does not carry the asked label — **never a false negative**;
    /// `true` promises nothing (a store may compare a few bits of the
    /// label), and the search checks [`PatternStore::label_of`] itself.
    pub may_match: bool,
}

/// Order pattern vertices so each one (after the first) touches an earlier
/// one — identical to the ordering used by `loom_motif::isomorphism`. This is
/// the *legacy* single-heuristic ordering; the
/// [`QueryPlanner`](crate::plan::QueryPlanner) cost-ranks one such ordering
/// per candidate root and compiles the winner into a reusable plan.
pub fn matching_order(pattern: &loom_graph::LabelledGraph) -> Vec<VertexId> {
    // Seed at the (degree, lowest-id)-maximal vertex — with nothing placed
    // yet, that is exactly what the greedy rule picks first — then let the
    // shared greedy selection in `plan` finish the order.
    let Some(start) = pattern
        .vertices_sorted()
        .into_iter()
        .max_by_key(|&v| (pattern.degree(v), std::cmp::Reverse(v.raw())))
    else {
        return Vec::new();
    };
    crate::plan::greedy_order_from(pattern, start)
}

/// The root vertices an execution of `plan` is anchored on, as store
/// handles, taken from the label index under the plan's pre-compiled root
/// label — no ordering derivation, no id → handle resolution.
///
/// In [`QueryMode::FullEnumeration`] this is every vertex carrying the root
/// label; in [`QueryMode::Rooted`] it is `seed_count` vertices drawn
/// deterministically from `root_seed` (in vertex-id order, de-duplicated) —
/// the seeds an index lookup would hand a graph database. The serving-engine
/// router uses the same function to decide a query's home shard.
///
/// The function keeps no list of its own: a full enumeration's roots are the
/// store's label index itself, a rooted execution's are drawn into `buffer`,
/// which a caller routing or executing query after query hands back each
/// time.
pub fn plan_roots<'a, S: PatternStore + ?Sized>(
    store: &'a S,
    plan: &QueryPlan,
    mode: QueryMode,
    root_seed: u64,
    buffer: &'a mut Vec<S::Handle>,
) -> &'a [S::Handle] {
    let candidates = store.handles_with_label(plan.root_label());
    match mode {
        QueryMode::FullEnumeration => candidates,
        QueryMode::Rooted { seed_count } => {
            buffer.clear();
            if !candidates.is_empty() {
                let mut rng = StdRng::seed_from_u64(root_seed);
                for _ in 0..seed_count.max(1) {
                    buffer.push(candidates[rng.random_range(0..candidates.len())]);
                }
                // Enumeration order is vertex-id order, whatever order the
                // store's handles have among themselves.
                buffer.sort_unstable_by_key(|&h| store.vertex_of(h));
                buffer.dedup();
            }
            buffer
        }
    }
}

/// One concrete match: the assignment of pattern vertices to data vertices,
/// sorted by pattern vertex id. Serde-serializable so a match can cross a
/// shard-transport boundary inside a result message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Embedding {
    pairs: Vec<(VertexId, VertexId)>,
}

impl Embedding {
    fn new(mut pairs: Vec<(VertexId, VertexId)>) -> Self {
        pairs.sort_unstable_by_key(|&(pattern, _)| pattern);
        Self { pairs }
    }

    /// Iterate over `(pattern vertex, data vertex)` pairs, sorted by
    /// pattern vertex id.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.pairs.iter().copied()
    }

    /// Number of bound pattern vertices.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the embedding binds no vertices.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Per-execution options for [`execute_plan`].
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Root selection mode.
    pub mode: QueryMode,
    /// Cap on embeddings enumerated (the search stops early at the cap).
    pub match_limit: usize,
    /// Optional cap on total traversals; the search stops expanding once it
    /// is reached (and the metrics flag the run as limited).
    pub traversal_budget: Option<usize>,
    /// Deterministic seed for rooted-mode root selection.
    pub root_seed: u64,
    /// Whether to materialise the concrete embeddings (bounded by
    /// `match_limit`) for a `MatchCursor`; metrics are collected either way.
    pub collect: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            mode: QueryMode::FullEnumeration,
            match_limit: 10_000,
            traversal_budget: None,
            root_seed: 0,
            collect: false,
        }
    }
}

/// What one plan execution produced: the instrumented metrics plus the
/// collected embeddings (empty unless [`ExecOptions::collect`] was set).
#[derive(Debug, Clone)]
pub struct PlanExecution {
    /// Instrumented execution metrics, with plan provenance attached.
    pub metrics: ExecutionMetrics,
    /// Concrete match embeddings, in enumeration order.
    pub embeddings: Vec<Embedding>,
}

/// The buffers a plan execution works in — the drawn roots and the
/// partial mapping — kept by a caller that executes query after query
/// (`H` is its store's [`PatternStore::Handle`]). Once they have grown to
/// the largest root set and plan seen, an execution whose matches are
/// counted, not collected, allocates nothing.
#[derive(Debug)]
pub struct MatchScratch<H> {
    roots: Vec<H>,
    mapping: Vec<H>,
}

impl<H> Default for MatchScratch<H> {
    fn default() -> Self {
        Self {
            roots: Vec::new(),
            mapping: Vec::new(),
        }
    }
}

/// Execute a pre-compiled plan against a store.
///
/// This is the single code path behind the sequential reference run, the
/// concurrent serving engine and adaptive serving: root selection per
/// [`plan_roots`], then an instrumented backtracking search from each root
/// driven entirely by the plan's pre-compiled binding edges, with
/// `match_limit` (and the optional traversal budget) stopping the search
/// early. Identical `(store, plan, options)` always produce identical
/// results, whichever engine executes them.
pub fn execute_plan<S: PatternStore + ?Sized>(
    store: &S,
    plan: &QueryPlan,
    opts: &ExecOptions,
) -> PlanExecution {
    run_plan(store, plan, opts, None, None, &mut MatchScratch::default())
}

/// Execute a pre-compiled plan under a [`RequestContext`]: identical to
/// [`execute_plan`] for an unbounded context, but an expired deadline or a
/// fired cancellation token cooperatively unwinds the backtracking search at
/// its next traversal check and flags the partial metrics
/// (`deadline_exceeded` / `cancelled`). A context that is already expired or
/// cancelled on entry performs **zero** traversals. The search works in the
/// caller's [`MatchScratch`], which the engines keep across the executions
/// of a request or a run.
pub fn execute_plan_ctx<S: PatternStore + ?Sized>(
    store: &S,
    plan: &QueryPlan,
    opts: &ExecOptions,
    ctx: &RequestContext,
    scratch: &mut MatchScratch<S::Handle>,
) -> PlanExecution {
    run_plan(store, plan, opts, Some(ctx), None, scratch)
}

/// Execute a pre-compiled plan anchored at an explicit root set instead of
/// resolving [`plan_roots`]: roots named by id, as they would arrive from
/// another process. The oracle suite anchors searches this way, and a
/// continuation that ships a bound prefix to the shard owning its next
/// vertex would enter here too. Roots are executed in slice order; callers
/// wanting parity with [`execute_plan_ctx`] pass a sorted, de-duplicated
/// subset of that execution's root candidates. A root the store cannot
/// [`resolve`](PatternStore::resolve) — an unknown id, a tombstone — anchors
/// nothing and costs no traversal.
pub fn execute_plan_with_roots<S: PatternStore + ?Sized>(
    store: &S,
    plan: &QueryPlan,
    opts: &ExecOptions,
    ctx: &RequestContext,
    roots: &[VertexId],
) -> PlanExecution {
    run_plan(
        store,
        plan,
        opts,
        Some(ctx),
        Some(roots),
        &mut MatchScratch::default(),
    )
}

fn run_plan<S: PatternStore + ?Sized>(
    store: &S,
    plan: &QueryPlan,
    opts: &ExecOptions,
    ctx: Option<&RequestContext>,
    roots: Option<&[VertexId]>,
    scratch: &mut MatchScratch<S::Handle>,
) -> PlanExecution {
    let mut metrics = ExecutionMetrics {
        queries_executed: 1,
        plan: Some(plan.id()),
        ..ExecutionMetrics::default()
    };
    let mut embeddings = Vec::new();
    if plan.is_empty() {
        metrics.local_only_queries = 1;
        return PlanExecution {
            metrics,
            embeddings,
        };
    }
    // No clamping: a zero limit is a no-op probe, exactly as the pre-plan
    // search behaved (engine builders clamp their own defaults to >= 1).
    let match_limit = opts.match_limit;
    let traversal_budget = opts.traversal_budget.unwrap_or(usize::MAX);

    // Pre-flight: a context that is already cancelled or past its deadline
    // does no work at all — zero traversals, honestly flagged.
    if let Some(ctx) = ctx {
        if ctx.is_cancelled() {
            metrics.cancelled = true;
        } else if ctx.is_expired() {
            metrics.deadline_exceeded = true;
        }
    }

    if !(metrics.cancelled || metrics.deadline_exceeded) {
        let MatchScratch {
            roots: root_buffer,
            mapping,
        } = scratch;
        let mut search = PlanSearch {
            store,
            plan,
            mapping,
            metrics: &mut metrics,
            match_limit,
            traversal_budget,
            deadline: ctx.and_then(|c| c.deadline),
            cancel: ctx.map(|c| &c.cancel),
            deadline_ticks: 0,
            out: if opts.collect {
                Some(&mut embeddings)
            } else {
                None
            },
        };
        match roots {
            // Explicit roots arrive as ids: the one place an id is
            // resolved. A root the store does not hold live (unknown id,
            // tombstone) anchors nothing.
            Some(explicit) => search.run(explicit.iter().filter_map(|&v| store.resolve(v))),
            None => {
                let roots = plan_roots(store, plan, opts.mode, opts.root_seed, root_buffer);
                search.run(roots.iter().copied());
            }
        }
    }

    if metrics.remote_traversals == 0 {
        metrics.local_only_queries = 1;
    }
    metrics.matches_limited = metrics.matches_found >= match_limit
        || metrics.total_traversals >= traversal_budget
        || metrics.deadline_exceeded
        || metrics.cancelled;
    PlanExecution {
        metrics,
        embeddings,
    }
}

struct PlanSearch<'a, S: PatternStore + ?Sized> {
    store: &'a S,
    plan: &'a QueryPlan,
    /// Data vertex bound at each order position, as a store handle;
    /// positions `< depth` are valid and double as the "already used" set
    /// (patterns are a handful of vertices, so a scan beats any hash set).
    mapping: &'a mut Vec<S::Handle>,
    metrics: &'a mut ExecutionMetrics,
    match_limit: usize,
    traversal_budget: usize,
    /// Wall-clock cut-off, polled every [`DEADLINE_CHECK_STRIDE`] traversals.
    deadline: Option<Instant>,
    /// Cooperative cancellation token, polled on every traversal (one
    /// relaxed atomic load). `None` when executing without a context — and
    /// then there is no deadline either, so nothing is polled at all.
    cancel: Option<&'a CancelToken>,
    deadline_ticks: u32,
    out: Option<&'a mut Vec<Embedding>>,
}

impl<S: PatternStore + ?Sized> PlanSearch<'_, S> {
    fn exhausted(&self) -> bool {
        self.metrics.matches_found >= self.match_limit
            || self.metrics.total_traversals >= self.traversal_budget
            || self.metrics.deadline_exceeded
            || self.metrics.cancelled
    }

    /// Poll the request context; `true` when it has fired. Rides the same
    /// early-exit machinery as the traversal budget: a set flag makes
    /// [`Self::exhausted`] true and the search unwinds, keeping whatever
    /// partial metrics it accumulated so far.
    #[inline]
    fn context_fired(&mut self, cancel: &CancelToken) -> bool {
        if cancel.is_cancelled() {
            self.metrics.cancelled = true;
            return true;
        }
        if let Some(deadline) = self.deadline {
            self.deadline_ticks += 1;
            if self.deadline_ticks >= DEADLINE_CHECK_STRIDE {
                self.deadline_ticks = 0;
                if Instant::now() >= deadline {
                    self.metrics.deadline_exceeded = true;
                    return true;
                }
            }
        }
        false
    }

    /// Anchor the search on each root in turn until it is exhausted.
    fn run(&mut self, roots: impl Iterator<Item = S::Handle>) {
        for root in roots {
            // Routing the query to the partition hosting the seed vertex is
            // free; expansion from there is what costs traversals.
            self.mapping.clear();
            self.mapping.resize(self.plan.len(), root);
            self.extend(1);
            if self.exhausted() {
                break;
            }
        }
    }

    fn extend(&mut self, depth: usize) {
        if self.exhausted() {
            return;
        }
        let store = self.store;
        if depth == self.plan.len() {
            self.metrics.matches_found += 1;
            if let Some(out) = self.out.as_deref_mut() {
                // The only place handles turn back into vertex ids.
                out.push(Embedding::new(
                    self.plan
                        .order()
                        .iter()
                        .copied()
                        .zip(self.mapping.iter().map(|&h| store.vertex_of(h)))
                        .collect(),
                ));
            }
            return;
        }
        let label = self.plan.label_at(depth);
        // Expansion anchor: the first already-matched pattern neighbour. The
        // distributed engine fetches the anchor's adjacency list and follows
        // each candidate edge — that is the traversal we meter.
        let Some(&anchor_position) = self.plan.bindings(depth).first() else {
            // Disconnected pattern component: re-seed from the label index
            // (costless routing, like the root seed).
            for &tv in store.handles_with_label(label) {
                self.try_candidate(depth, tv);
                if self.exhausted() {
                    return;
                }
            }
            return;
        };
        for arc in store.arcs_of(self.mapping[anchor_position], label) {
            // Following the edge anchor → neighbour is one traversal, local
            // or remote depending on where the two vertices live — metered
            // from the arc, whatever label the neighbour carries.
            self.metrics.total_traversals += 1;
            self.metrics.remote_traversals += usize::from(arc.remote);
            if let Some(cancel) = self.cancel {
                if self.context_fired(cancel) {
                    return;
                }
            }
            if arc.may_match {
                self.try_candidate(depth, arc.to);
                if self.exhausted() {
                    return;
                }
            } else if self.metrics.total_traversals >= self.traversal_budget {
                // An off-label neighbour moved nothing but the traversal
                // count (and the context flags, checked above).
                return;
            }
        }
    }

    #[inline]
    fn try_candidate(&mut self, depth: usize, tv: S::Handle) {
        if self.mapping[..depth].contains(&tv) {
            return;
        }
        // Exact, whatever the arc's filter let through.
        if self.store.label_of(tv) != self.plan.label_at(depth) {
            return;
        }
        if self.store.degree_of(tv) < self.plan.degree_at(depth) {
            return;
        }
        // The first binding is the anchor, and the candidate came out of the
        // anchor's adjacency: that edge holds by the store's symmetry
        // contract. Only the other bindings need an edge-membership check
        // (a re-seeded candidate has no bindings at all).
        let consistent = self
            .plan
            .bindings(depth)
            .iter()
            .skip(1)
            .all(|&position| self.store.adjacent(tv, self.mapping[position]));
        if !consistent {
            return;
        }
        self.mapping[depth] = tv;
        self.extend(depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PartitionedStore;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::LabelledGraph;
    use loom_motif::query::{PatternQuery, QueryId};
    use loom_partition::partition::{PartitionId, Partitioning};

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    fn path_store() -> PartitionedStore {
        let g = path_graph(3, &[l(0), l(1), l(2)]);
        let vs = g.vertices_sorted();
        let mut part = Partitioning::new(2, 3).unwrap();
        part.assign(vs[0], PartitionId::new(0)).unwrap();
        part.assign(vs[1], PartitionId::new(0)).unwrap();
        part.assign(vs[2], PartitionId::new(1)).unwrap();
        PartitionedStore::new(g, part)
    }

    fn legacy_roots(
        store: &PartitionedStore,
        query: &PatternQuery,
        mode: QueryMode,
        seed: u64,
    ) -> Vec<VertexId> {
        plan_roots(
            store,
            &QueryPlan::legacy(query),
            mode,
            seed,
            &mut Vec::new(),
        )
        .to_vec()
    }

    #[test]
    fn execute_query_counts_matches_and_traversals() {
        let store = path_store();
        let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let plan = QueryPlan::legacy(&query);
        let run = execute_plan(&store, &plan, &ExecOptions::default());
        let metrics = run.metrics;
        assert_eq!(metrics.matches_found, 1);
        assert!(metrics.total_traversals >= 2);
        assert!(metrics.remote_traversals >= 1);
        assert!(!metrics.matches_limited);
        assert_eq!(metrics.plan, Some(plan.id()));
        assert!(run.embeddings.is_empty(), "collect defaults off");
    }

    #[test]
    fn execute_plan_matches_the_legacy_wrapper_exactly() {
        // `QueryPlan::legacy` is the compile-on-the-spot wrapper callers
        // without a plan cache use; a Legacy-strategy planner compiles the
        // same plan, and explicit roots equal to the resolved ones change
        // nothing — for every mode and seed.
        let store = path_store();
        let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let stats = crate::plan::GraphStatistics::from_graph(store.graph());
        let planned =
            crate::plan::QueryPlanner::new(crate::plan::PlanStrategy::Legacy).plan(&query, &stats);
        let wrapper = QueryPlan::legacy(&query);
        for mode in [
            QueryMode::FullEnumeration,
            QueryMode::Rooted { seed_count: 2 },
        ] {
            for seed in 0..5u64 {
                let opts = ExecOptions {
                    mode,
                    root_seed: seed,
                    ..ExecOptions::default()
                };
                let wrapped = execute_plan(&store, &wrapper, &opts);
                let run = execute_plan(&store, &planned, &opts);
                assert_eq!(wrapped.metrics, run.metrics, "mode {mode:?} seed {seed}");
                assert!(run.embeddings.is_empty(), "collect defaults off");
                let rooted = execute_plan_with_roots(
                    &store,
                    &wrapper,
                    &opts,
                    &RequestContext::unbounded(),
                    &legacy_roots(&store, &query, mode, seed),
                );
                assert_eq!(wrapped.metrics, rooted.metrics, "mode {mode:?} seed {seed}");
            }
        }
    }

    #[test]
    fn collected_embeddings_are_real_matches() {
        let store = path_store();
        let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let plan = QueryPlan::legacy(&query);
        let run = execute_plan(
            &store,
            &plan,
            &ExecOptions {
                collect: true,
                ..ExecOptions::default()
            },
        );
        assert_eq!(run.embeddings.len(), run.metrics.matches_found);
        for embedding in &run.embeddings {
            assert_eq!(embedding.len(), query.vertex_count());
            for (pattern_v, data_v) in embedding.iter() {
                assert_eq!(
                    store.label(data_v),
                    query.graph().label(pattern_v),
                    "labels must line up"
                );
            }
            assert!(!embedding.is_empty());
        }
    }

    #[test]
    fn traversal_budget_stops_the_search_and_flags_the_run() {
        // A hub with many leaves explodes in traversals; a budget of 3 cuts
        // the scan short and the metrics say so.
        let mut g = LabelledGraph::new();
        let hub = g.add_vertex(l(0));
        for _ in 0..50 {
            let leaf = g.add_vertex(l(1));
            g.add_edge(hub, leaf).unwrap();
        }
        let mut part = Partitioning::new(1, 64).unwrap();
        for v in g.vertices_sorted() {
            part.assign(v, PartitionId::new(0)).unwrap();
        }
        let store = PartitionedStore::new(g, part);
        let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap();
        let plan = QueryPlan::legacy(&query);
        let unlimited = execute_plan(&store, &plan, &ExecOptions::default());
        let budgeted = execute_plan(
            &store,
            &plan,
            &ExecOptions {
                traversal_budget: Some(3),
                ..ExecOptions::default()
            },
        );
        assert_eq!(budgeted.metrics.total_traversals, 3);
        assert!(budgeted.metrics.matches_limited);
        assert!(budgeted.metrics.total_traversals < unlimited.metrics.total_traversals);
        assert!(!unlimited.metrics.matches_limited);
    }

    #[test]
    fn zero_match_limit_is_a_no_op_probe() {
        // A zero limit never expands anything — no matches, no traversals.
        let store = path_store();
        let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap();
        let metrics = execute_plan(
            &store,
            &QueryPlan::legacy(&query),
            &ExecOptions {
                match_limit: 0,
                ..ExecOptions::default()
            },
        )
        .metrics;
        assert_eq!(metrics.matches_found, 0);
        assert_eq!(metrics.total_traversals, 0);
        assert!(metrics.matches_limited, "a zero-limit run is limited");
    }

    #[test]
    fn root_candidates_full_mode_covers_the_label_index() {
        let store = path_store();
        let query = PatternQuery::path(QueryId::new(0), &[l(1), l(2)]).unwrap();
        let roots = legacy_roots(&store, &query, QueryMode::FullEnumeration, 0);
        // The matching order anchors on the higher-degree l(1) vertex.
        assert_eq!(roots.len(), 1);
        assert_eq!(store.label(roots[0]), Some(l(1)));
        assert_eq!(roots, store.vertices_with_label(l(1)));
    }

    #[test]
    fn root_candidates_rooted_mode_is_deterministic_per_seed() {
        let store = path_store();
        let query = PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap();
        let mode = QueryMode::Rooted { seed_count: 2 };
        let a = legacy_roots(&store, &query, mode, 9);
        let b = legacy_roots(&store, &query, mode, 9);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn missing_root_label_yields_no_candidates() {
        let store = path_store();
        let query = PatternQuery::path(QueryId::new(0), &[l(9), l(1)]).unwrap();
        assert!(legacy_roots(&store, &query, QueryMode::FullEnumeration, 0).is_empty());
        assert!(legacy_roots(&store, &query, QueryMode::Rooted { seed_count: 3 }, 0).is_empty());
    }
}
