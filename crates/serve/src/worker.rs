//! The shard worker: one independent event loop per worker shard.
//!
//! A worker owns no shared serving state. It pins its snapshot at spawn,
//! then reacts purely to [`ShardMsg`]s arriving over its transport
//! endpoint: routed queries execute against the pinned snapshot under the
//! request's [`RequestContext`] (deadline + cancellation threaded down into
//! the matcher's traversal checks), epoch-publication notices trigger a
//! re-pin, sub-query handoffs execute borrowed roots on behalf of another
//! worker's query, and `Finish` flushes a final shard report before the
//! loop exits. The loop takes `&dyn ShardTransport` — it compiles against
//! the trait object, which is the object-safety proof that a socket-backed
//! transport drops in without touching this file.

use crate::engine::{RunOptions, Source};
use crate::shard::ShardedStore;
use crate::transport::{
    QueryDoneMsg, QueryTaskMsg, RecvError, ShardMsg, ShardReportMsg, ShardTransport, SubQueryMsg,
};
use loom_graph::VertexId;
use loom_obs::{Histogram, SpanTimer};
use loom_sim::context::{CancelToken, RequestContext};
use loom_sim::executor::ExecutionMetrics;
use loom_sim::matcher::{
    execute_plan_ctx, execute_plan_with_roots, plan_roots, Embedding, ExecOptions, MatchScratch,
    PatternStore,
};
use loom_sim::plan::QueryPlan;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a worker is handed at spawn. Deliberately snapshot-free
/// beyond the `Source` it pins from: queries, deadlines and epoch changes
/// all arrive as messages.
pub(crate) struct WorkerSetup<'a> {
    /// This worker's index.
    pub worker: u32,
    /// Total workers in the run (for the shard→worker mapping of handoffs).
    pub workers: u32,
    /// Effective run options (engine config + request overrides).
    pub options: RunOptions,
    /// Whether halo-crossing roots are handed off to their owning worker
    /// instead of being traversed via replicated halo state.
    pub handoff: bool,
    /// The run's resolved plans, indexed by workload query.
    pub plans: &'a [Option<Arc<QueryPlan>>],
    /// The instant message deadlines (`deadline_us`) are relative to.
    pub run_start: Instant,
    /// The run's cancellation token (shared with the coordinator; a
    /// `ShardMsg::Cancel` fires it too, for transports where the two sides
    /// do not share memory).
    pub cancel: CancelToken,
    /// `serve.execute{shard}` histogram each query execution's wall clock is
    /// charged into; `None` (telemetry off) skips even the clock read.
    pub exec_hist: Option<Arc<Histogram>>,
    /// `serve.halo_handoff{shard}` histogram for borrowed-root sub-query
    /// executions this worker runs on another query's behalf.
    pub halo_hist: Option<Arc<Histogram>>,
}

impl WorkerSetup<'_> {
    /// The absolute deadline a run-relative one stands for.
    fn deadline(&self, deadline_us: Option<u64>) -> Option<Instant> {
        deadline_us.map(|us| self.run_start + Duration::from_micros(us))
    }

    fn exec_options(&self, root_seed: u64) -> ExecOptions {
        ExecOptions {
            mode: self.options.mode,
            match_limit: self.options.match_limit,
            traversal_budget: self.options.traversal_budget,
            root_seed,
            collect: self.options.collect,
        }
    }
}

/// Run one worker until `Finish` arrives (or the link drops).
pub(crate) fn worker_loop(
    transport: &dyn ShardTransport,
    source: &Source<'_>,
    setup: WorkerSetup<'_>,
) {
    // Pin once at spawn; re-pin only when an epoch-publication notice says
    // something newer exists. Queries never peek at shared state.
    let mut snapshot = source.pin();
    let mut executed = 0usize;
    // What every execution of the run shares: one request context — the
    // run's cancel token, each query's deadline written in — and one
    // matcher scratch.
    let mut ctx = RequestContext::unbounded().with_cancel(setup.cancel.clone());
    let mut scratch = MatchScratch::default();
    loop {
        let msg = match transport.recv(None) {
            Ok(msg) => msg,
            Err(RecvError::Timeout) => continue,
            Err(RecvError::Disconnected) => break,
        };
        match msg {
            ShardMsg::Query(task) => {
                executed += 1;
                let span = SpanTimer::start(setup.exec_hist.as_deref());
                ctx.deadline = setup.deadline(task.deadline_us);
                let done = execute_query(transport, &snapshot, &setup, &task, &ctx, &mut scratch);
                drop(span);
                let _ = transport.send(ShardMsg::Done(done), None);
            }
            ShardMsg::SubQuery(sub) => {
                let span = SpanTimer::start(setup.halo_hist.as_deref());
                ctx.deadline = setup.deadline(sub.deadline_us);
                let done = execute_subquery(&snapshot, &setup, &sub, &ctx);
                drop(span);
                let _ = transport.send(ShardMsg::Done(done), None);
            }
            ShardMsg::EpochPublished { .. } => {
                snapshot = source.pin();
            }
            ShardMsg::Cancel => setup.cancel.cancel(),
            ShardMsg::Finish => {
                let stats = transport.stats();
                let _ = transport.send(
                    ShardMsg::Report(ShardReportMsg {
                        worker: setup.worker,
                        queries: executed,
                        queue_wait_p50_us: stats.queue_wait_p50_us,
                        queue_wait_p99_us: stats.queue_wait_p99_us,
                        max_inbox_depth: stats.max_recv_depth,
                    }),
                    None,
                );
                break;
            }
            // Done/Report travel worker → coordinator only; a worker that
            // receives one ignores it rather than wedging the loop.
            ShardMsg::Done(_) | ShardMsg::Report(_) => {}
        }
    }
}

/// Execute one routed query on this worker, possibly handing off
/// halo-crossing roots, and build its `Done` message.
fn execute_query(
    transport: &dyn ShardTransport,
    snapshot: &Arc<ShardedStore>,
    setup: &WorkerSetup<'_>,
    task: &QueryTaskMsg,
    ctx: &RequestContext,
    scratch: &mut MatchScratch<u32>,
) -> QueryDoneMsg {
    let plan = setup.plans[task.query as usize]
        .as_ref()
        .expect("scheduled plan");
    let opts = setup.exec_options(task.root_seed);

    if setup.handoff {
        let mut drawn = Vec::new();
        let roots = plan_roots(
            snapshot.as_ref(),
            plan,
            opts.mode,
            opts.root_seed,
            &mut drawn,
        );
        let (local, remote) = split_roots(snapshot, roots, setup.workers, setup.worker);
        if !remote.is_empty() {
            // Ship the roots other workers own before doing local work, so
            // the borrowed executions overlap with ours. Blocking send is
            // safe: the coordinator relay drains its inbox while it routes.
            let handoffs = remote.len() as u32;
            for (target, group) in remote {
                let _ = transport.send(
                    ShardMsg::SubQuery(SubQueryMsg {
                        seq: task.seq,
                        query: task.query,
                        target_worker: target,
                        origin_worker: setup.worker,
                        roots: group,
                        deadline_us: task.deadline_us,
                    }),
                    None,
                );
            }
            let (metrics, embeddings) = execute_ranked(snapshot, plan, &opts, ctx, &local);
            return QueryDoneMsg {
                worker: setup.worker,
                seq: task.seq,
                epoch: snapshot.epoch(),
                partial: false,
                handoffs,
                metrics,
                embeddings,
            };
        }
        // All roots are local: fall through to the plain single-execution
        // path, which is bit-identical to handoff-disabled serving.
    }

    let exec = execute_plan_ctx(snapshot.as_ref(), plan, &opts, ctx, scratch);
    QueryDoneMsg {
        worker: setup.worker,
        seq: task.seq,
        epoch: snapshot.epoch(),
        partial: false,
        handoffs: 0,
        metrics: exec.metrics,
        embeddings: exec
            .embeddings
            .into_iter()
            .enumerate()
            .map(|(i, e)| (i as u64, e))
            .collect(),
    }
}

/// Execute borrowed roots on behalf of another worker's query.
fn execute_subquery(
    snapshot: &Arc<ShardedStore>,
    setup: &WorkerSetup<'_>,
    sub: &SubQueryMsg,
    ctx: &RequestContext,
) -> QueryDoneMsg {
    let plan = setup.plans[sub.query as usize]
        .as_ref()
        .expect("scheduled plan");
    let opts = setup.exec_options(0);
    let (metrics, embeddings) = execute_ranked(snapshot, plan, &opts, ctx, &sub.roots);
    QueryDoneMsg {
        worker: setup.worker,
        seq: sub.seq,
        epoch: snapshot.epoch(),
        partial: true,
        handoffs: 0,
        metrics,
        embeddings,
    }
}

/// Anchor roots tagged with their enumeration rank.
type RankedRoots = Vec<(u32, VertexId)>;

/// Partition a query's anchor roots (arena positions) by owning worker:
/// `(rank, root id)` pairs this worker keeps, and per-target groups to hand
/// off — ids, because they cross the transport. Roots with no home shard
/// (halo-only or unassigned) stay local.
fn split_roots(
    snapshot: &ShardedStore,
    roots: &[u32],
    workers: u32,
    me: u32,
) -> (RankedRoots, BTreeMap<u32, RankedRoots>) {
    let mut local = Vec::new();
    let mut remote: BTreeMap<u32, RankedRoots> = BTreeMap::new();
    for (rank, &root) in roots.iter().enumerate() {
        let target = snapshot
            .home_of(root)
            .map(|p| (p.index() as u32) % workers.max(1))
            .unwrap_or(me);
        let root = snapshot.vertex_of(root);
        if target == me {
            local.push((rank as u32, root));
        } else {
            remote.entry(target).or_default().push((rank as u32, root));
        }
    }
    (local, remote)
}

/// Execute a set of ranked roots one by one, merging metrics and tagging
/// each embedding with `(rank << 32) | discovery_index` so the coordinator
/// reassembles the cursor in exact enumeration order.
fn execute_ranked(
    snapshot: &Arc<ShardedStore>,
    plan: &QueryPlan,
    opts: &ExecOptions,
    ctx: &RequestContext,
    roots: &[(u32, VertexId)],
) -> (ExecutionMetrics, Vec<(u64, Embedding)>) {
    let mut metrics = ExecutionMetrics::default();
    let mut embeddings = Vec::new();
    for &(rank, root) in roots {
        let exec = execute_plan_with_roots(snapshot.as_ref(), plan, opts, ctx, &[root]);
        metrics.merge(&exec.metrics);
        embeddings.extend(
            exec.embeddings
                .into_iter()
                .enumerate()
                .map(|(i, e)| ((u64::from(rank) << 32) | (i as u64 & 0xffff_ffff), e)),
        );
    }
    (metrics, embeddings)
}
