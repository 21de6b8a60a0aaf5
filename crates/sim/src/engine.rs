//! The unified query-engine API: one request/response contract for every
//! execution layer.
//!
//! A [`QueryRequest`] names what to run (one workload query or the sampled
//! workload mix) and carries the per-request options — execution mode,
//! match limit, traversal budget, whether to materialise embeddings. A
//! [`QueryResponse`] returns the instrumented [`ExecutionMetrics`] (with
//! plan provenance and the limited flag) plus a [`MatchCursor`]: a
//! pull-based iterator over the concrete match embeddings, populated when
//! the request asked for them.
//!
//! [`QueryEngine`] is the trait tying the layers together; the `loom`
//! façade's sequential `Serving` handle, the sharded `loom-serve` engine and
//! adaptive `loom-adapt` serving all implement it over one `loom-serve`
//! `ServeEngine` — its mode, match limit and *same* compiled [`PlanCache`] —
//! which is what makes their answers comparable. This module holds what
//! every engine shares: the request, the response, the schedule a request
//! expands to ([`request_schedule`]) and its plans
//! ([`resolve_schedule_plans`]).

use crate::context::RequestContext;
use crate::executor::{ExecutionMetrics, QueryMode};
use crate::matcher::Embedding;
use crate::plan::{resolve_plan, PlanCache, QueryPlan};
use loom_motif::query::QueryId;
use loom_motif::workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a [`QueryRequest`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryTarget {
    /// Sample queries from the engine's workload according to its
    /// frequencies (the default).
    #[default]
    Workload,
    /// Execute one specific workload query on every sample.
    Query(QueryId),
}

/// One request against a [`QueryEngine`]: the target plus per-request
/// options. Options left `None` fall back to the engine's configuration, so
/// `QueryRequest::workload(n)` alone reproduces the legacy entry points
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRequest {
    /// What to execute.
    pub target: QueryTarget,
    /// Number of query executions.
    pub samples: usize,
    /// Deterministic seed: workload sampling and per-execution root seeds
    /// (`seed + i + 1`, the scheme every engine shares) derive from it.
    pub seed: u64,
    /// Override of the engine's execution mode.
    pub mode: Option<QueryMode>,
    /// Override of the engine's per-execution match limit.
    pub match_limit: Option<usize>,
    /// Per-execution traversal budget; the search stops expanding once it
    /// is reached and the metrics are flagged as limited.
    pub traversal_budget: Option<usize>,
    /// Materialise concrete embeddings for the response's [`MatchCursor`]
    /// (bounded per execution by the match limit). Off by default: metrics
    /// are collected either way.
    pub collect_matches: bool,
    /// Wall-clock deadline for the whole request. Executions past it unwind
    /// cooperatively and the response metrics are flagged
    /// `deadline_exceeded`; `None` (the default) is unbounded. Engines
    /// combine this with any [`RequestContext`] deadline by taking the
    /// earlier of the two.
    pub deadline: Option<Instant>,
}

impl Default for QueryRequest {
    fn default() -> Self {
        Self {
            target: QueryTarget::Workload,
            samples: 1,
            seed: 0,
            mode: None,
            match_limit: None,
            traversal_budget: None,
            collect_matches: false,
            deadline: None,
        }
    }
}

impl QueryRequest {
    /// A request sampling `samples` executions from the engine's workload.
    pub fn workload(samples: usize) -> Self {
        Self {
            samples,
            ..Self::default()
        }
    }

    /// A request executing one specific workload query once.
    pub fn query(id: QueryId) -> Self {
        Self {
            target: QueryTarget::Query(id),
            ..Self::default()
        }
    }

    /// Builder-style sample count.
    #[must_use]
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Builder-style deterministic seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style execution-mode override.
    #[must_use]
    pub fn with_mode(mut self, mode: QueryMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Builder-style match-limit override (minimum 1).
    #[must_use]
    pub fn with_match_limit(mut self, limit: usize) -> Self {
        self.match_limit = Some(limit.max(1));
        self
    }

    /// Builder-style traversal budget.
    #[must_use]
    pub fn with_traversal_budget(mut self, budget: usize) -> Self {
        self.traversal_budget = Some(budget);
        self
    }

    /// Builder-style embedding collection toggle.
    #[must_use]
    pub fn collect_matches(mut self, collect: bool) -> Self {
        self.collect_matches = collect;
        self
    }

    /// Builder-style absolute wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder-style relative deadline (`now + timeout`).
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }
}

/// A pull-based cursor over the concrete match embeddings one request
/// produced, in deterministic enumeration order (task order, then the
/// search's discovery order — identical across engines and worker counts).
///
/// The cursor is a plain [`Iterator`]; the *early termination* happens in
/// the search itself: a match limit or traversal budget stops enumeration
/// the moment it is hit, so a limited run's cursor is cheap to produce, not
/// merely cheap to consume.
#[derive(Debug)]
pub struct MatchCursor {
    inner: std::vec::IntoIter<Embedding>,
}

impl MatchCursor {
    /// Embeddings remaining in the cursor.
    pub fn remaining(&self) -> usize {
        self.inner.len()
    }
}

impl Iterator for MatchCursor {
    type Item = Embedding;

    fn next(&mut self) -> Option<Embedding> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for MatchCursor {}

/// What one request produced: the aggregate metrics plus the match cursor.
#[derive(Debug)]
pub struct QueryResponse {
    /// Aggregate execution metrics over the request's samples, with plan
    /// provenance and the matches-limited flag.
    pub metrics: ExecutionMetrics,
    cursor: MatchCursor,
}

impl QueryResponse {
    /// Assemble a response from an engine implementation's raw parts (the
    /// `loom-serve` engine's sequential and sharded runs, and the façade's
    /// workload-less handles). `embeddings` must be
    /// in deterministic enumeration order; a request that did not ask for
    /// them hands an empty list, so an empty cursor means "not
    /// materialised" as often as "no matches" — the metrics' match count
    /// tells which.
    pub fn from_engine(metrics: ExecutionMetrics, embeddings: Vec<Embedding>) -> Self {
        let inner = embeddings.into_iter();
        Self {
            metrics,
            cursor: MatchCursor { inner },
        }
    }

    /// Whether any execution stopped early at a limit or budget.
    pub fn matches_limited(&self) -> bool {
        self.metrics.matches_limited
    }

    /// Consume the response into its match cursor.
    pub fn into_cursor(self) -> MatchCursor {
        self.cursor
    }

    /// Split the response into metrics and cursor.
    pub fn into_parts(self) -> (ExecutionMetrics, MatchCursor) {
        (self.metrics, self.cursor)
    }
}

/// A query execution engine bound to a graph, a partitioning and a
/// workload.
///
/// # Parity guarantee
///
/// Every implementation executes requests through the same compiled
/// [`QueryPlan`]s and the same instrumented matcher
/// ([`crate::matcher::execute_plan`]). Two engines presenting the same
/// graph, the same partition assignment and the same plan cache therefore
/// return **identical** [`ExecutionMetrics`] — and identical cursor
/// contents in identical order — for the same [`QueryRequest`], regardless
/// of how the engine parallelises the work (sequential loop, sharded
/// worker pool, or epoch-pinned adaptive serving). The cross-engine parity
/// suite in `tests/query_plan.rs` pins this contract.
pub trait QueryEngine {
    /// Execute one request under an explicit [`RequestContext`]: the
    /// context's deadline is tightened by the request's own (the earlier of
    /// the two wins) and its cancellation token can unwind every execution
    /// of the request mid-run. An unbounded context reproduces [`Self::run`]
    /// exactly.
    fn run_ctx(&self, request: QueryRequest, ctx: &RequestContext) -> QueryResponse;

    /// Execute one request and return its metrics and match cursor. The
    /// request's own deadline (if any) still applies; cancellation requires
    /// [`Self::run_ctx`].
    fn run(&self, request: QueryRequest) -> QueryResponse {
        self.run_ctx(request, &RequestContext::unbounded())
    }

    /// The compiled plan cache the engine executes from, when it has one.
    fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        None
    }
}

/// Expand a request into its execution schedule: one `(workload query
/// index, root seed)` per sample, in admission order.
///
/// Every engine shares this single expansion — workload targets consume the
/// rng once per sample, with root seed `seed + i + 1`; single-query targets
/// repeat that query with the same seed scheme; and an unknown query id
/// expands to nothing — so cross-engine parity can never drift on sampling.
pub fn request_schedule(workload: &Workload, request: &QueryRequest) -> Vec<(usize, u64)> {
    match request.target {
        QueryTarget::Workload => {
            let mut rng = StdRng::seed_from_u64(request.seed);
            (0..request.samples)
                .map(|i| {
                    (
                        workload.sample_index(&mut rng),
                        request.seed.wrapping_add(i as u64 + 1),
                    )
                })
                .collect()
        }
        QueryTarget::Query(id) => workload
            .queries()
            .iter()
            .position(|q| q.id() == id)
            .map(|index| {
                (0..request.samples)
                    .map(|i| (index, request.seed.wrapping_add(i as u64 + 1)))
                    .collect()
            })
            // An unknown query id executes nothing: zero metrics, empty
            // cursor — mirrored by every engine.
            .unwrap_or_default(),
    }
}

/// Resolve each scheduled query's plan exactly once: the one-resolution-
/// per-distinct-query contract every engine shares (so cache hit counters
/// behave identically whichever engine runs a request). Unscheduled
/// workload slots stay `None`.
pub fn resolve_schedule_plans(
    cache: Option<&Arc<PlanCache>>,
    workload: &Workload,
    schedule: &[(usize, u64)],
) -> Vec<Option<Arc<QueryPlan>>> {
    let mut plans: Vec<Option<Arc<QueryPlan>>> = vec![None; workload.len()];
    for &(index, _) in schedule {
        if plans[index].is_none() {
            plans[index] = Some(resolve_plan(cache, &workload.queries()[index]));
        }
    }
    plans
}
