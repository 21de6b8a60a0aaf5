//! The shard worker: one independent event loop per threaded worker shard,
//! and the execution step it shares with the coordinator, which serves
//! shard 0 of a closed-loop run on the calling thread ([`ShardExecutor`]).
//!
//! A worker owns no shared serving state. It pins its snapshot at spawn,
//! then reacts purely to [`ShardMsg`]s arriving over its transport
//! endpoint: routed queries execute against the pinned snapshot under the
//! request's [`RequestContext`] (deadline + cancellation threaded down into
//! the matcher's traversal checks), each as one matcher run;
//! epoch-publication notices trigger a re-pin, and `Finish` flushes a final
//! shard report before the loop exits. The loop takes `&dyn ShardTransport`
//! — it compiles against the trait object, which is the object-safety proof
//! that a socket-backed transport drops in without touching this file.
//!
//! Messages move in runs. The worker takes its whole inbox in one receive
//! and handles it in order; the `Done`s of a run go back as one group, sent
//! right after the worker has taken its next run. That order is the
//! protocol's credit: the coordinator reads a group of completions as room
//! in this worker's inbox, and the take that made the room comes first. A
//! worker that finds its inbox empty sends its group before it parks, so a
//! completion never waits on the next query, and a group that has grown to
//! `GROUP_TRAVERSALS` of work goes back at once, so a run of long queries
//! is heard from long before the coordinator would take it for a dead
//! worker.
//!
//! A `Done` covers a stretch of the group, not one query: each execution is
//! folded into the group's last `Done` with [`ExecutionMetrics::merge`]
//! (associative and commutative, and its `plan` stays `Some` only while
//! every folded execution shares it), and the coordinator charges
//! `metrics.queries_executed` completions for it. A new `Done` starts
//! wherever a fact about one query must reach the coordinator by name:
//!
//! * the execution collected embeddings (the cursor orders them by `seq`);
//! * it came back flagged `deadline_exceeded` or `cancelled` (each is counted
//!   in `deadline_expired` and named in the flight recorder);
//! * it ran on another epoch than the last `Done` (`epochs_observed`);
//! * the run times completions (an open-loop run: one `Completion` a `seq`).
//!
//! Such a `Done` holds its one execution: nothing folds into it.

use crate::engine::Source;
use crate::shard::ShardedStore;
use crate::transport::{
    QueryDoneMsg, QueryTaskMsg, RecvError, ShardMsg, ShardReportMsg, ShardTransport,
};
use loom_obs::{Histogram, SpanTimer};
use loom_sim::context::{CancelToken, RequestContext};
use loom_sim::executor::ExecutionMetrics;
use loom_sim::matcher::{execute_plan_ctx, Embedding, ExecOptions, MatchScratch};
use loom_sim::plan::QueryPlan;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Matching work, in traversals, after which a worker sends the completions
/// it holds without waiting for the end of its run: about 15–40 ms at this
/// matcher's 13–36 ns a traversal. A run of long queries thereby reports
/// progress far inside the coordinator's 30 s stall limit, while a run of
/// short ones (tens of traversals each) still goes back as one group.
const GROUP_TRAVERSALS: usize = 1 << 20;

/// Whether a completion carries nothing the coordinator must hear per query:
/// no embeddings, and neither a blown deadline nor a cancellation.
fn unnamed(metrics: &ExecutionMetrics, embeddings: &[Embedding]) -> bool {
    embeddings.is_empty() && !metrics.deadline_exceeded && !metrics.cancelled
}

/// Everything a shard's executions are handed: a worker's at spawn, the
/// calling thread's shard 0 at the run's start. Deliberately snapshot-free:
/// queries, deadlines and epoch changes all arrive as messages (or, on the
/// calling thread, with the routing snapshot).
pub(crate) struct WorkerSetup<'a> {
    /// This worker's index.
    pub worker: u32,
    /// The request's matcher options (engine config + request overrides);
    /// each execution fills in its task's `root_seed`.
    pub options: ExecOptions,
    /// Whether the coordinator timestamps each completion (open-loop runs):
    /// then every execution goes back as a `Done` of its own.
    pub time_completions: bool,
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

/// One shard's executions, on whichever thread runs them: a worker's, or the
/// coordinator's for the shard a closed-loop run serves on the calling
/// thread. It holds what every execution of the run shares — one request
/// context (the run's cancel token, each query's deadline written in) and
/// one matcher scratch — and the completions not yet handed back, folded as
/// the module docs say.
pub(crate) struct ShardExecutor<'a> {
    setup: WorkerSetup<'a>,
    ctx: RequestContext,
    scratch: MatchScratch<u32>,
    /// Completions not yet handed back: kept for the whole run, so a
    /// hand-off allocates nothing once it has grown to an inbox's worth.
    pub done: VecDeque<ShardMsg>,
    /// Queries executed so far.
    executed: usize,
}

impl<'a> ShardExecutor<'a> {
    pub(crate) fn new(setup: WorkerSetup<'a>) -> Self {
        Self {
            ctx: RequestContext::unbounded().with_cancel(setup.cancel.clone()),
            setup,
            scratch: MatchScratch::default(),
            done: VecDeque::new(),
            executed: 0,
        }
    }

    /// Execute one routed query on `snapshot` and fold its completion into
    /// [`ShardExecutor::done`]. Returns the traversals it took.
    pub(crate) fn execute(&mut self, snapshot: &ShardedStore, task: &QueryTaskMsg) -> usize {
        self.executed += 1;
        let setup = &self.setup;
        let span = SpanTimer::start(setup.exec_hist.as_deref());
        self.ctx.deadline = task
            .deadline_us
            .map(|us| setup.run_start + Duration::from_micros(us));
        let plan = setup.plans[task.query as usize]
            .as_ref()
            .expect("scheduled plan");
        let opts = ExecOptions {
            root_seed: task.root_seed,
            ..setup.options
        };
        let exec = execute_plan_ctx(snapshot, plan, &opts, &self.ctx, &mut self.scratch);
        drop(span);
        let traversals = exec.metrics.total_traversals;
        let epoch = snapshot.epoch();
        let foldable = !setup.time_completions && unnamed(&exec.metrics, &exec.embeddings);
        match self.done.back_mut() {
            Some(ShardMsg::Done(last))
                if foldable && last.epoch == epoch && unnamed(&last.metrics, &last.embeddings) =>
            {
                last.metrics.merge(&exec.metrics);
            }
            _ => self.done.push_back(ShardMsg::Done(QueryDoneMsg {
                worker: setup.worker,
                seq: task.seq,
                epoch,
                metrics: exec.metrics,
                embeddings: exec.embeddings,
            })),
        }
        traversals
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
    let mut shard = ShardExecutor::new(setup);
    // The run taken off the inbox and not yet handled: kept for the whole
    // run, as the completions are.
    let mut run = VecDeque::new();
    // Traversals behind the completions not yet sent.
    let mut held = 0usize;
    loop {
        let Some(msg) = run.pop_front() else {
            // Take the next run before reporting the last one, then park
            // only with nothing left to report.
            let took = transport.try_recv_all(&mut run);
            if !shard.done.is_empty() {
                let _ = transport.send_all(&mut shard.done, None);
                shard.done.clear();
                held = 0;
            }
            if !took {
                match transport.recv_all(&mut run, None) {
                    Ok(()) | Err(RecvError::Timeout) => {}
                    Err(RecvError::Disconnected) => break,
                }
            }
            continue;
        };
        match msg {
            ShardMsg::Query(task) => {
                held += shard.execute(&snapshot, &task);
                if held >= GROUP_TRAVERSALS {
                    let _ = transport.send_all(&mut shard.done, None);
                    shard.done.clear();
                    held = 0;
                }
            }
            ShardMsg::EpochPublished { .. } => {
                snapshot = source.pin();
            }
            ShardMsg::Cancel => shard.setup.cancel.cancel(),
            ShardMsg::Finish => {
                let _ = transport.send_all(&mut shard.done, None);
                let stats = transport.stats();
                let _ = transport.send(
                    ShardMsg::Report(ShardReportMsg {
                        worker: shard.setup.worker,
                        queries: shard.executed,
                        queue_wait_p50_us: stats.queue_wait_p50_us,
                        queue_wait_p99_us: stats.queue_wait_p99_us,
                        max_inbox_depth: stats.max_recv_depth,
                        runs: stats.recv_runs,
                        wake_ups: stats.recv_wake_ups,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochStore;
    use crate::transport::TransportError;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::{Label, LabelledGraph};
    use loom_motif::query::{PatternQuery, QueryId};
    use loom_motif::workload::Workload;
    use loom_partition::partition::{PartitionId, Partitioning};
    use loom_sim::engine::resolve_schedule_plans;
    use loom_sim::executor::QueryMode;
    use std::sync::Mutex;

    /// A transport that hands the worker one scripted run per take, logs
    /// every hand-off in order and keeps every `Done` it was sent. A run
    /// that holds an epoch notice is preceded by `publish`, as a notice
    /// follows a publication.
    #[derive(Default)]
    struct Scripted {
        runs: Mutex<VecDeque<Vec<ShardMsg>>>,
        log: Mutex<Vec<String>>,
        dones: Mutex<Vec<QueryDoneMsg>>,
        publish: Option<Box<dyn Fn() + Send + Sync>>,
    }

    impl Scripted {
        fn new(runs: impl IntoIterator<Item = Vec<ShardMsg>>) -> Self {
            Self {
                runs: Mutex::new(runs.into_iter().collect()),
                ..Self::default()
            }
        }

        fn take(&self, into: &mut VecDeque<ShardMsg>) -> bool {
            let run = self.runs.lock().unwrap().pop_front().unwrap_or_default();
            if let Some(publish) = &self.publish {
                if run
                    .iter()
                    .any(|msg| matches!(msg, ShardMsg::EpochPublished { .. }))
                {
                    publish();
                }
            }
            self.log.lock().unwrap().push(format!("take {}", run.len()));
            into.extend(run);
            !into.is_empty()
        }
    }

    impl ShardTransport for Scripted {
        fn send(&self, msg: ShardMsg, _: Option<Instant>) -> Result<(), TransportError> {
            let what = match msg {
                ShardMsg::Report(report) => format!("report {}", report.queries),
                other => format!("send {other:?}"),
            };
            self.log.lock().unwrap().push(what);
            Ok(())
        }

        fn recv(&self, _: Option<Instant>) -> Result<ShardMsg, RecvError> {
            unreachable!("the worker takes whole runs")
        }

        fn recv_all(
            &self,
            into: &mut VecDeque<ShardMsg>,
            _: Option<Instant>,
        ) -> Result<(), RecvError> {
            if self.take(into) {
                Ok(())
            } else {
                Err(RecvError::Disconnected)
            }
        }

        fn try_recv_all(&self, into: &mut VecDeque<ShardMsg>) -> bool {
            self.take(into)
        }

        fn send_all(
            &self,
            run: &mut VecDeque<ShardMsg>,
            _: Option<Instant>,
        ) -> Result<(), TransportError> {
            if !run.is_empty() {
                self.log
                    .lock()
                    .unwrap()
                    .push(format!("group {}", run.len()));
                self.dones
                    .lock()
                    .unwrap()
                    .extend(run.drain(..).filter_map(|msg| match msg {
                        ShardMsg::Done(done) => Some(done),
                        _ => None,
                    }));
            }
            Ok(())
        }

        fn shutdown(&self) {}
    }

    /// A 6-vertex a-b path on one partition.
    fn one_shard() -> (LabelledGraph, Partitioning) {
        let l = Label::new;
        let graph = path_graph(6, &[l(0), l(1)]);
        let mut partitioning = Partitioning::new(1, 6).unwrap();
        for v in graph.vertices_sorted() {
            partitioning.assign(v, PartitionId::new(0)).unwrap();
        }
        (graph, partitioning)
    }

    /// Query `query` as admission `seq`, its deadline `deadline_us` after
    /// the run's start.
    fn task(seq: u64, query: u32, deadline_us: Option<u64>) -> ShardMsg {
        ShardMsg::Query(QueryTaskMsg {
            seq,
            query,
            root_seed: seq,
            deadline_us,
        })
    }

    /// Run one worker over `transport` until its `Finish`.
    fn run_worker(
        transport: &Scripted,
        source: Source<'_>,
        plans: &[Option<Arc<QueryPlan>>],
        collect: bool,
    ) {
        worker_loop(
            transport,
            &source,
            WorkerSetup {
                worker: 0,
                options: ExecOptions {
                    mode: QueryMode::FullEnumeration,
                    match_limit: 100,
                    collect,
                    ..ExecOptions::default()
                },
                time_completions: false,
                plans,
                run_start: Instant::now(),
                cancel: CancelToken::new(),
                exec_hist: None,
            },
        );
    }

    /// The protocol's credit: a worker takes its next run *before* it sends
    /// back the completions of the last one, so the coordinator that reads
    /// the group as room in the inbox finds the room already made.
    #[test]
    fn a_worker_takes_its_next_run_before_it_reports_the_last() {
        let l = Label::new;
        let (graph, partitioning) = one_shard();
        let store = Arc::new(ShardedStore::from_parts(&graph, &partitioning));
        let workload = Workload::uniform(vec![
            PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap()
        ])
        .unwrap();
        let plans = resolve_schedule_plans(None, &workload, &[(0, 1)]);
        let transport = Scripted::new([
            vec![task(0, 0, None), task(1, 0, None)],
            vec![task(2, 0, None)],
            vec![ShardMsg::Finish],
        ]);
        run_worker(&transport, Source::Pinned(&store), &plans, false);
        // Each group is one `Done`: its run's two counted queries fold.
        assert_eq!(
            transport.log.into_inner().unwrap(),
            ["take 2", "take 1", "group 1", "take 1", "group 1", "report 3"]
        );
        let covered: Vec<(u64, usize)> = (transport.dones.into_inner().unwrap().iter())
            .map(|done| (done.seq, done.metrics.queries_executed))
            .collect();
        assert_eq!(covered, [(0, 2), (2, 1)]);
    }

    /// One `Done` covers a stretch of counted executions, folded with
    /// `ExecutionMetrics::merge`; a new one starts at every execution the
    /// coordinator must hear of by `seq` — one that collected embeddings,
    /// one past its deadline — and when the worker has re-pinned to another
    /// epoch. Those hold their one execution.
    #[test]
    fn a_group_of_completions_is_one_done_split_where_a_query_must_be_named() {
        let l = Label::new;
        let (graph, partitioning) = one_shard();
        let epochs = Arc::new(EpochStore::new(ShardedStore::from_parts(
            &graph,
            &partitioning,
        )));
        // Query 0 finds a-b edges (so collects them); query 1 walks the
        // path and finds no b-b edge (so collects nothing).
        let workload = Workload::uniform(vec![
            PatternQuery::path(QueryId::new(0), &[l(0), l(1)]).unwrap(),
            PatternQuery::path(QueryId::new(1), &[l(1), l(1)]).unwrap(),
        ])
        .unwrap();
        let plans = resolve_schedule_plans(None, &workload, &[(0, 1), (1, 1)]);
        let run = vec![
            task(0, 1, None),
            task(1, 1, None),
            task(2, 0, None),
            task(3, 1, None),
            task(4, 1, Some(0)),
            task(5, 1, None),
            ShardMsg::EpochPublished { epoch: 2 },
            task(6, 1, None),
            task(7, 1, None),
        ];
        let mut transport = Scripted::new([run, vec![ShardMsg::Finish]]);
        let publisher = Arc::clone(&epochs);
        transport.publish = Some(Box::new(move || {
            let (graph, partitioning) = one_shard();
            publisher.publish(ShardedStore::from_parts(&graph, &partitioning));
        }));
        run_worker(&transport, Source::Epochs(&epochs), &plans, true);
        assert_eq!(
            transport.log.into_inner().unwrap(),
            ["take 9", "take 1", "group 6", "report 8"]
        );
        let dones = transport.dones.into_inner().unwrap();
        let shape: Vec<(u64, usize, u64, bool, bool)> = dones
            .iter()
            .map(|d| {
                (
                    d.seq,
                    d.metrics.queries_executed,
                    d.epoch,
                    !d.embeddings.is_empty(),
                    d.metrics.deadline_exceeded,
                )
            })
            .collect();
        assert_eq!(
            shape,
            [
                (0, 2, 1, false, false),
                (2, 1, 1, true, false),
                (3, 1, 1, false, false),
                (4, 1, 1, false, true),
                (5, 1, 1, false, false),
                (6, 2, 2, false, false),
            ]
        );
        // The counted stretches walked the path; the expired one did not.
        assert!(dones[0].metrics.total_traversals > 0);
        assert_eq!(dones[3].metrics.total_traversals, 0);
        assert_eq!(dones[1].metrics.matches_found, dones[1].embeddings.len());
        assert_eq!(dones[0].metrics.plan, plans[1].as_ref().map(|p| p.id()));
    }
}
