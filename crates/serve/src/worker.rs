//! The shard worker: one independent event loop per worker shard.
//!
//! A worker owns no shared serving state. It pins its snapshot at spawn,
//! then reacts purely to [`ShardMsg`]s arriving over its transport
//! endpoint: routed queries execute against the pinned snapshot under the
//! request's [`RequestContext`] (deadline + cancellation threaded down into
//! the matcher's traversal checks), each as one matcher run whose result
//! goes back as one `Done`; epoch-publication notices trigger a re-pin, and
//! `Finish` flushes a final shard report before the loop exits. The loop
//! takes `&dyn ShardTransport` — it compiles against the trait object, which
//! is the object-safety proof that a socket-backed transport drops in
//! without touching this file.

use crate::engine::{RunOptions, Source};
use crate::transport::{QueryDoneMsg, RecvError, ShardMsg, ShardReportMsg, ShardTransport};
use loom_obs::{Histogram, SpanTimer};
use loom_sim::context::{CancelToken, RequestContext};
use loom_sim::matcher::{execute_plan_ctx, ExecOptions, MatchScratch};
use loom_sim::plan::QueryPlan;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a worker is handed at spawn. Deliberately snapshot-free
/// beyond the `Source` it pins from: queries, deadlines and epoch changes
/// all arrive as messages.
pub(crate) struct WorkerSetup<'a> {
    /// This worker's index.
    pub worker: u32,
    /// Effective run options (engine config + request overrides).
    pub options: RunOptions,
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
                ctx.deadline = task
                    .deadline_us
                    .map(|us| setup.run_start + Duration::from_micros(us));
                let plan = setup.plans[task.query as usize]
                    .as_ref()
                    .expect("scheduled plan");
                let opts = ExecOptions {
                    mode: setup.options.mode,
                    match_limit: setup.options.match_limit,
                    traversal_budget: setup.options.traversal_budget,
                    root_seed: task.root_seed,
                    collect: setup.options.collect,
                };
                let exec = execute_plan_ctx(snapshot.as_ref(), plan, &opts, &ctx, &mut scratch);
                drop(span);
                let done = QueryDoneMsg {
                    worker: setup.worker,
                    seq: task.seq,
                    epoch: snapshot.epoch(),
                    metrics: exec.metrics,
                    embeddings: exec.embeddings,
                };
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
