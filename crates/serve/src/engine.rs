//! The concurrent serving engine: a message-passing coordinator over
//! independent shard workers.
//!
//! There are exactly two ways to run load, and both are thin drivers over
//! one private run scaffold:
//!
//! * [`ServeEngine::run`] — **closed-loop**: executes a [`QueryRequest`]
//!   against a [`Source`] and returns the [`ServeReport`] plus the request's
//!   [`QueryResponse`]. The source is either one pinned snapshot
//!   (`engine.run(&store, ..)`, an `&Arc<ShardedStore>`) or an
//!   [`EpochStore`] (`engine.run(&epochs, ..)`), in which case workers re-pin
//!   on epoch publication notices so ingestion can keep publishing new
//!   snapshots mid-run. Admission waits out a full worker inbox
//!   (backpressure) until the request's deadline — see *Admission* below.
//! * [`ServeEngine::open_loop`] — the caller's driver decides *when* each
//!   pre-scheduled arrival is issued through an [`OpenLoopInjector`];
//!   admission never blocks.
//!
//! The scaffold both share:
//!
//! * every workload query's compiled [`QueryPlan`] is resolved **once per
//!   run** from the shared [`PlanCache`] (or compiled as a legacy plan when
//!   no cache is wired in) — the router and every worker execute the same
//!   instance, with zero per-call ordering derivation;
//! * the coordinator (this thread) routes each query to its home shard
//!   (`QueryRouter::home_shard_planned`) against the snapshot current at
//!   admission and **sends it as a message** over that worker's
//!   [`ShardTransport`] endpoint — closed-loop admission stages a worker's
//!   queries and sends them in runs, with deadline-aware backpressure: a
//!   full worker inbox holds the request back until the request's deadline
//!   and then rejects it (counted per shard) instead of wedging forever;
//! * one worker per shard (a `std::thread::scope` thread running the
//!   private worker event loop) pins its snapshot at spawn, takes its whole
//!   inbox in one receive, executes each routed query with the shared
//!   instrumented matcher under the request's [`RequestContext`] as one
//!   matcher run — the exact code path of [`ServeEngine::run_sequential`], so
//!   aggregate metrics and the match cursor are bit-identical to a
//!   sequential run for every request without a deadline or cancellation —
//!   and sends the run's completions back as one group, in which one `Done`
//!   covers a stretch of executions (a new one starts at each execution that
//!   collected embeddings, was flagged `deadline_exceeded` or `cancelled`,
//!   or ran on another epoch, and at every execution of an open-loop run);
//! * except shard 0 of a closed-loop run, which the coordinator serves on
//!   the calling thread: it has no thread and no inbox, and the coordinator
//!   executes its staged runs itself — after each offer to the other
//!   workers, before each wait for their credit and at the end of the
//!   schedule — on the routing snapshot, through the same matcher call,
//!   scratch, request context and folding, charging each group to shard 0
//!   as a `Done` would be. So W workers start W − 1 threads (none at
//!   W = 1), and the caller's thread matches instead of parking. An
//!   open-loop run keeps every worker on a thread of its own: its driver's
//!   thread must keep pacing injection, and a run executed there would hold
//!   the next arrival back;
//! * the coordinator owns **only transport endpoints**: results, per-shard
//!   reports and epoch notices all arrive as messages on its inbox, never
//!   through shared memory;
//! * the coordinator folds each `Done` into the [`ServeReport`], charging
//!   it the `queries_executed` its metrics say: per-shard execution metrics
//!   and remote-hop fraction, queue depth, queue-wait p99, rejects, and the
//!   run's wall clock.
//!
//! # Admission: runs in, groups back, and the completion is the credit
//!
//! Hand-offs move in runs, because every push or pop is a lock the other
//! thread also takes and every push to a parked peer is a wake-up. A
//! closed-loop query routed to a worker joins that worker's *staged*
//! queries, which the coordinator holds. Each time they fill another run
//! (an inbox's worth, `queue_capacity`), the coordinator offers every
//! worker's staged queries, each as one push of as much as its inbox has
//! room for, and goes on routing whether or not they went in. A worker takes
//! its whole inbox in one receive and only then sends back the completions
//! of the run it finished, as one group. So the group the coordinator
//! receives is the credit for the room the take made, and that room exists
//! before the credit arrives. Open-loop arrivals are paced by their driver
//! and go in one push each.
//!
//! The coordinator waits in one place. When `STAGED_RUNS` (4) runs are
//! staged for one worker, it offers them, and while that many are still
//! staged it checks the request's deadline and then receives on its **own**
//! inbox until `min(deadline, now + ADMIT_SLICE)`, handles what arrives (and
//! whatever else is already there), and offers again. Every staged run is
//! offered before each wait, so no worker idles behind the one being waited
//! for, and a worker a run or two behind holds up no routing: when the
//! coordinator waited as soon as one run was staged, each worker's wait for
//! credit stopped the routing of every other's queries. The end of the
//! schedule admits what is still staged the same way. While it waits it is
//! consuming results, which is what keeps the protocol deadlock-free:
//! workers never stay blocked on a full coordinator inbox. It is also the
//! only thing a coordinator whose links are sockets could wait on.
//! `ADMIT_SLICE` is just the retry bound: a slot that came free *without* a
//! completion (the full inbox held an epoch or cancel notice) is noticed at
//! the next group or when the slice ends, whichever is first. An admission's
//! whole slice that ends with nothing received is
//! counted per shard ([`ShardServeMetrics::admit_stalls`],
//! `serve.admit_stalls{shard}` on observed runs; a slice the deadline cut
//! short is not): the coordinator used to block in the *worker's* queue,
//! where no completion could reach it, and a run spent one such millisecond
//! per `workers × (queue_capacity + 2)` completions — 66 or 132 at the
//! defaults, which capped two workers near 100 k queries/s whatever a query
//! cost. `Finish` is sent the same way (its waits are not admissions and
//! are not counted).
//!
//! Nothing on this path allocates or grows per counted request: the router
//! and each worker's matcher work in buffers kept for the run, as do the
//! staged runs and the groups of completions, a refused offer leaves its
//! run where it was, both ends take an inbox by trading buffers with the
//! queue, and queue waits go into fixed-size histograms
//! (`tests/serve_allocs.rs` holds the line). Each shard's report says how
//! the hand-offs went: the runs its worker took
//! ([`ShardServeMetrics::runs`]) and the wake-ups its pushes cost
//! ([`ShardServeMetrics::wake_ups`]).

use crate::epoch::EpochStore;
use crate::metrics::{ErrorBudget, ServeReport, ShardServeMetrics};
use crate::queue::PushError;
use crate::router::QueryRouter;
use crate::shard::ShardedStore;
use crate::transport::{
    InProcEndpoint, InProcTransport, QueryDoneMsg, QueryTaskMsg, RecvError, ShardMsg,
    ShardReportMsg, ShardTransport, TransportError,
};
use crate::worker::{worker_loop, ShardExecutor, WorkerSetup};
use loom_motif::workload::Workload;
use loom_obs::{stage, Counter, FlightKind, Telemetry};
use loom_sim::context::{CancelToken, RequestContext};
use loom_sim::engine::{request_schedule, resolve_schedule_plans, QueryRequest, QueryResponse};
use loom_sim::executor::{ExecutionMetrics, QueryMode};
use loom_sim::matcher::{execute_plan_ctx, Embedding, ExecOptions, MatchScratch, PatternStore};
use loom_sim::plan::{PlanCache, QueryPlan};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The retry bound of a refused admission: how long the coordinator waits on
/// its own inbox for a completion before it offers the task again anyway.
/// A completion normally arrives long before; the bound only matters when a
/// slot came free without one (the full inbox held a notice, not a query).
const ADMIT_SLICE: Duration = Duration::from_millis(1);

/// Runs of queries the coordinator holds staged for one worker before it
/// waits for that worker's credit. Below it, a run that fills is offered and
/// routing goes on whether or not it went in, so one busy worker does not
/// hold back the queries routed to the others.
const STAGED_RUNS: usize = 4;

/// Receive slice while awaiting completions (bounds the latency of
/// cancellation broadcasts).
const PUMP_SLICE: Duration = Duration::from_millis(10);

/// Give up waiting for worker progress after this long with no message —
/// converts a crashed worker into a loud join panic instead of a hang.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// Configuration for a [`ServeEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker shards. Partitions map onto workers round-robin, so any worker
    /// count from 1 to the partition count makes sense (more workers than
    /// partitions leaves the excess idle).
    pub workers: usize,
    /// Bound on each worker's transport inbox; a full inbox holds admission
    /// back (backpressure) until the request's deadline instead of growing
    /// an unbounded backlog.
    pub queue_capacity: usize,
    /// Query execution mode (rooted is the online mode the paper targets).
    pub mode: QueryMode,
    /// Cap on embeddings enumerated per query execution.
    pub match_limit: usize,
}

impl ServeConfig {
    /// A config with `workers` worker shards, the default query mode
    /// ([`QueryMode::default`], the full enumeration a default `Session`
    /// also runs), a match limit of 10 000 and queue capacity 64.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            queue_capacity: 64,
            mode: QueryMode::default(),
            match_limit: 10_000,
        }
    }

    /// Builder-style query execution mode.
    #[must_use]
    pub fn with_mode(mut self, mode: QueryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder-style per-query match limit.
    #[must_use]
    pub fn with_match_limit(mut self, limit: usize) -> Self {
        self.match_limit = limit.max(1);
        self
    }

    /// Builder-style queue capacity (minimum 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new(4)
    }
}

/// What a run serves from — and where its workers pin their snapshots.
/// Built by `.into()` from the two things a caller can hold:
/// `engine.run(&store, ..)` or `engine.run(&epochs, ..)`.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// One snapshot for the whole run.
    Pinned(&'a Arc<ShardedStore>),
    /// The epoch store; workers pin at spawn and re-pin on publication
    /// notices, and the router re-pins whenever a newer epoch is current at
    /// admission — a query observes exactly one epoch end-to-end (no torn
    /// reads) and the report lists every epoch the run touched.
    Epochs(&'a EpochStore),
}

impl<'a> From<&'a Arc<ShardedStore>> for Source<'a> {
    fn from(store: &'a Arc<ShardedStore>) -> Self {
        Source::Pinned(store)
    }
}

impl<'a> From<&'a EpochStore> for Source<'a> {
    fn from(epochs: &'a EpochStore) -> Self {
        Source::Epochs(epochs)
    }
}

impl Source<'_> {
    pub(crate) fn pin(&self) -> Arc<ShardedStore> {
        match self {
            Source::Pinned(store) => Arc::clone(store),
            Source::Epochs(epochs) => epochs.load(),
        }
    }
}

/// What the coordinator accumulated for one worker shard, built entirely
/// from `Done` messages (plus admission rejections it issued itself).
#[derive(Debug, Default)]
struct CoordLog {
    queries: usize,
    execution: ExecutionMetrics,
    epochs: Vec<u64>,
    rejected: usize,
    /// Completed executions flagged `deadline_exceeded` (disjoint from
    /// `rejected`, which never reach a worker).
    deadline_expired: usize,
    /// Admission waits for this worker's inbox that ran a whole
    /// `ADMIT_SLICE` without anything arriving on the coordinator's inbox.
    admit_stalls: usize,
}

impl CoordLog {
    /// Charge one `Done`: `metrics.queries_executed` executions on `epoch`.
    /// A flagged `Done` holds one execution, so it is one expiry.
    fn record(&mut self, metrics: ExecutionMetrics, epoch: u64) {
        self.queries += metrics.queries_executed;
        if metrics.deadline_exceeded {
            self.deadline_expired += 1;
        }
        self.execution.merge(&metrics);
        if self.epochs.last() != Some(&epoch) {
            self.epochs.push(epoch);
        }
    }
}

/// Outcome of one open-loop injection attempt (see
/// [`OpenLoopInjector::inject_next`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request was enqueued on its home worker's inbox.
    Admitted {
        /// The request's run-global sequence number.
        seq: u64,
        /// The worker shard it was routed to.
        shard: usize,
    },
    /// The home worker's inbox was full; the request was rejected on the
    /// spot (counted in the shard's `rejected`, never retried).
    Rejected {
        /// The request's run-global sequence number.
        seq: u64,
        /// The worker shard it was routed to.
        shard: usize,
    },
    /// The scheduled load is exhausted — nothing left to inject.
    Exhausted,
}

/// One completed request as observed by the open-loop coordinator: when the
/// `Done` message was consumed, which is the client-visible completion time.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The request's run-global sequence number (admission order).
    pub seq: u64,
    /// When the coordinator consumed the completion.
    pub at: Instant,
    /// Whether the execution came back flagged `deadline_exceeded`.
    pub deadline_exceeded: bool,
}

/// A routed query the coordinator holds until its home worker's inbox has
/// room for it.
struct Staged {
    task: QueryTaskMsg,
    /// The epoch it was routed against.
    epoch: u64,
    /// When it was routed, on observed runs: a rejection reports how long
    /// it stayed refused.
    at: Option<Instant>,
}

/// The run coordinator: owns the coordinator-side transport endpoints and
/// every piece of run state; all worker interaction is messages. On a
/// closed-loop run it also serves shard 0 itself.
struct Coordinator<'a> {
    /// One link per threaded worker, in worker order: every worker but the
    /// local one.
    links: &'a [InProcEndpoint],
    /// The shard this thread serves itself (shard 0 of a closed-loop run):
    /// it has no thread and no inbox, and its staged runs are executed here
    /// between the offers to the other workers. `None` on an open-loop run,
    /// where every worker has a thread of its own.
    local: Option<ShardExecutor<'a>>,
    /// The snapshot queries are routed against: fixed for a pinned source,
    /// re-pinned for an epoch source whenever a newer epoch is current at
    /// admission. The local shard executes on it.
    snapshot: Arc<ShardedStore>,
    /// Per worker, the closed-loop queries routed to it and not yet in its
    /// inbox, in admission order. Fewer than `STAGED_RUNS × run_len` stay
    /// staged once an admission returns.
    staged: Vec<VecDeque<Staged>>,
    /// The longest staged run: one inbox's worth (`queue_capacity`).
    run_len: usize,
    /// Messages taken off the coordinator's inbox as one run and not yet
    /// handled.
    inbox: VecDeque<ShardMsg>,
    plans: &'a [Option<Arc<QueryPlan>>],
    cancel: &'a CancelToken,
    /// Observability for the run, `None` on unobserved runs (whose code
    /// path — including clock reads — is then identical to pre-telemetry).
    telemetry: Option<&'a Telemetry>,
    /// Pre-resolved `serve.admitted{shard}` counters (empty when
    /// unobserved).
    admitted_ctr: Vec<Counter>,
    /// Pre-resolved `serve.rejected{shard}` counters (empty when
    /// unobserved).
    rejected_ctr: Vec<Counter>,
    /// Pre-resolved `serve.admit_stalls{shard}` counters (empty when
    /// unobserved).
    stall_ctr: Vec<Counter>,
    /// Completions that came back `deadline_exceeded` since the last
    /// [`Coordinator::drain`], awaiting one flight-recorder write and one
    /// latched dump for the batch (observed runs only).
    deadline_events: Vec<FlightKind>,
    logs: Vec<CoordLog>,
    /// Collected embeddings tagged with their query's admission `seq`.
    embeddings: Vec<(u64, Embedding)>,
    reports: Vec<Option<ShardReportMsg>>,
    outstanding: usize,
    forwarded_epoch: u64,
    cancel_sent: bool,
    /// Completion sink, present only on open-loop runs: every consumed
    /// `Done` is timestamped here for the driver to drain. `None` keeps the
    /// closed-loop paths free of per-completion clock reads.
    completions: Option<Vec<Completion>>,
}

impl<'a> Coordinator<'a> {
    fn new(
        links: &'a [InProcEndpoint],
        local: Option<ShardExecutor<'a>>,
        snapshot: Arc<ShardedStore>,
        run_len: usize,
        plans: &'a [Option<Arc<QueryPlan>>],
        cancel: &'a CancelToken,
        telemetry: Option<&'a Telemetry>,
    ) -> Self {
        let workers = usize::from(local.is_some()) + links.len();
        let per_shard = |name: &'static str| -> Vec<Counter> {
            telemetry.map_or_else(Vec::new, |t| {
                (0..workers)
                    .map(|w| t.registry().counter(name, &[("shard", w.to_string())]))
                    .collect()
            })
        };
        Self {
            links,
            local,
            snapshot,
            staged: (0..workers).map(|_| VecDeque::new()).collect(),
            run_len: run_len.max(1),
            inbox: VecDeque::new(),
            plans,
            cancel,
            telemetry,
            admitted_ctr: per_shard("serve.admitted"),
            rejected_ctr: per_shard("serve.rejected"),
            stall_ctr: per_shard("serve.admit_stalls"),
            deadline_events: Vec::new(),
            logs: (0..workers).map(|_| CoordLog::default()).collect(),
            embeddings: Vec::new(),
            reports: vec![None; workers],
            outstanding: 0,
            forwarded_epoch: 0,
            cancel_sent: false,
            completions: None,
        }
    }

    /// Send one routed query to its home worker **without blocking**: a full
    /// inbox rejects the request immediately (same accounting as a
    /// deadline-expired admission) instead of applying backpressure. This is
    /// the open-loop admission primitive — injection timing never depends on
    /// the engine keeping up. Returns whether the request was enqueued.
    fn admit_open(&mut self, worker: usize, task: QueryTaskMsg, epoch: u64) -> bool {
        debug_assert!(self.local.is_none(), "open-loop workers all have threads");
        if let Some(t) = self.telemetry {
            t.flight().record(FlightKind::Admitted {
                request: task.seq,
                shard: worker as u32,
                epoch,
            });
        }
        match self.link(worker).try_send_query(task) {
            Ok(()) => {
                self.admitted(worker, 1);
                true
            }
            Err(refused) => {
                self.reject_admission(worker, &refused.into_inner(), epoch);
                false
            }
        }
    }

    /// The first worker with a thread of its own: 1 when this thread
    /// serves shard 0, else 0.
    fn first_threaded(&self) -> usize {
        usize::from(self.local.is_some())
    }

    /// The link to threaded `worker`: the links start after the local shard.
    fn link(&self, worker: usize) -> &'a InProcEndpoint {
        &self.links[worker - self.first_threaded()]
    }

    fn admitted(&mut self, worker: usize, count: usize) {
        self.outstanding += count;
        if let Some(ctr) = self.admitted_ctr.get(worker) {
            ctr.add(count as u64);
        }
    }

    /// Closed-loop admission of one routed query, with backpressure. The
    /// task joins its home worker's staged queries. Each time they fill
    /// another run (an inbox's worth), every staged run is offered without
    /// waiting; once `STAGED_RUNS` runs are staged for the worker, they are
    /// admitted ([`Coordinator::admit_staged`]) down to less than that, so
    /// the coordinator waits only when a worker is that many runs behind.
    fn admit(&mut self, worker: usize, task: QueryTaskMsg, deadline: Option<Instant>, epoch: u64) {
        // On observed runs, flight-record the admission and remember when it
        // started (one clock read for both) so a rejection can say how long
        // the task stayed refused. Unobserved runs skip even this read.
        let at = self.telemetry.map(|t| {
            let now = Instant::now();
            t.flight().record_at(
                now,
                FlightKind::Admitted {
                    request: task.seq,
                    shard: worker as u32,
                    epoch,
                },
            );
            now
        });
        self.staged[worker].push_back(Staged { task, epoch, at });
        let staged = self.staged[worker].len();
        let limit = STAGED_RUNS * self.run_len;
        if staged >= limit {
            self.admit_staged(worker, limit - 1, deadline);
        } else if staged.is_multiple_of(self.run_len) {
            self.poll_cancel();
            self.offer_staged();
        }
    }

    /// Offer every threaded worker's staged run to its inbox, one push
    /// each, as far as the inbox has room: a worker's credit is admitted in
    /// one push. Then execute the local shard's staged run, while the
    /// others work on theirs.
    fn offer_staged(&mut self) {
        for worker in self.first_threaded()..self.staged.len() {
            if self.staged[worker].is_empty() {
                continue;
            }
            match self
                .link(worker)
                .try_send_run(&mut self.staged[worker], |staged| {
                    ShardMsg::Query(staged.task)
                }) {
                Ok(sent) => self.admitted(worker, sent),
                Err(PushError::Timeout(())) => {}
                // The transport only closes during teardown, after admission.
                Err(PushError::Closed(())) => self.staged[worker].clear(),
            }
        }
        self.serve_local();
    }

    /// Execute the local shard's staged queries on this thread, on the
    /// routing snapshot, through the matcher call, scratch, request context
    /// and folding a worker uses, and charge the completions to `logs[0]`
    /// exactly as a worker's group would be charged. Nothing is queued, so
    /// nothing is refused: a query past its deadline is executed as one,
    /// and counts as `deadline_expired`, never as `rejected`.
    fn serve_local(&mut self) {
        let Some(local) = self.local.as_mut() else {
            return;
        };
        let count = self.staged[0].len();
        if count == 0 {
            return;
        }
        for Staged { task, .. } in self.staged[0].drain(..) {
            local.execute(&self.snapshot, &task);
        }
        // The group is handled as a worker's would be; its buffer goes back
        // for the next run.
        let mut group = std::mem::take(&mut local.done);
        self.admitted(0, count);
        for msg in group.drain(..) {
            if let ShardMsg::Done(done) = msg {
                self.complete(done);
            }
        }
        if let Some(local) = self.local.as_mut() {
            local.done = group;
        }
        self.flush_deadline_events();
    }

    /// Admit `worker`'s staged run until at most `keep` queries of it are
    /// left staged. Every staged run is offered; while `worker`'s is still
    /// longer than `keep`, the coordinator waits out its full inbox on its
    /// **own** inbox ([`Coordinator::await_credit`]) and offers again. Every
    /// other worker's run was offered before the wait, so none idles behind
    /// the one being waited for. With a deadline, a wait that would start
    /// past it rejects what is still staged for `worker` (each recorded as
    /// `deadline_exceeded` with zero traversals, and counted in the shard's
    /// `rejected`).
    fn admit_staged(&mut self, worker: usize, keep: usize, deadline: Option<Instant>) {
        loop {
            self.poll_cancel();
            self.offer_staged();
            if self.staged[worker].len() <= keep {
                return;
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                self.reject_staged(worker, now);
                return;
            }
            // A wait the deadline cuts short is not a stall: only a whole
            // slice with nothing received is.
            let slice = now + ADMIT_SLICE;
            let until = deadline.map_or(slice, |d| d.min(slice));
            if !self.await_credit(until, (until == slice).then_some(worker)) {
                return;
            }
        }
    }

    /// The end of a closed-loop schedule: admit every staged query.
    fn admit_all_staged(&mut self, deadline: Option<Instant>) {
        for worker in 0..self.staged.len() {
            self.admit_staged(worker, 0, deadline);
        }
    }

    /// The one place the coordinator waits for room in a worker's inbox: on
    /// its own inbox, until `until`. A worker takes its whole inbox before
    /// it reports the run it finished — the completions are the credit — so
    /// whatever arrives is handled, the rest of the inbox with it, and the
    /// caller offers its staged runs again. (It is also the only thing a
    /// coordinator with sockets for links could wait on.) A wait that runs
    /// out with nothing received is counted as a stall against `stalled`,
    /// the worker an admission waited a whole slice for (`None`: the wait
    /// was shorter, or not an admission's). Returns `false` if the
    /// coordinator's inbox is gone.
    fn await_credit(&mut self, until: Instant, stalled: Option<usize>) -> bool {
        match self.links[0].recv_all(&mut self.inbox, Some(until)) {
            Ok(()) => {}
            Err(RecvError::Timeout) => {
                if let Some(worker) = stalled {
                    self.logs[worker].admit_stalls += 1;
                    if let Some(ctr) = self.stall_ctr.get(worker) {
                        ctr.inc();
                    }
                }
            }
            Err(RecvError::Disconnected) => return false,
        }
        self.drain();
        true
    }

    /// `worker`'s staged queries stayed refused past the deadline: flight
    /// record how long each waited, then reject it.
    fn reject_staged(&mut self, worker: usize, now: Instant) {
        while let Some(Staged { task, epoch, at }) = self.staged[worker].pop_front() {
            if let (Some(t), Some(started)) = (self.telemetry, at) {
                t.flight().record_at(
                    now,
                    FlightKind::QueueWait {
                        request: task.seq,
                        shard: worker as u32,
                        waited_us: now.duration_since(started).as_micros() as u64,
                    },
                );
            }
            self.reject_admission(worker, &task, epoch);
        }
    }

    /// An admission push was refused: account it, flight-record it, and latch
    /// — rejection is a trigger, dumping the timeline leading up to it.
    fn reject_admission(&mut self, worker: usize, task: &QueryTaskMsg, epoch: u64) {
        self.reject(worker, task, epoch);
        if let Some(t) = self.telemetry {
            t.flight().record(FlightKind::Rejected {
                request: task.seq,
                shard: worker as u32,
                epoch,
            });
            t.flight().latch("admission rejected");
        }
    }

    /// Account an admission rejection: the request still appears in the
    /// aggregate — one executed query, zero traversals, `deadline_exceeded`
    /// — exactly the shape the matcher's pre-flight check produces, but the
    /// shard's `rejected` counter says the queue, not the matcher, spent
    /// the budget.
    fn reject(&mut self, worker: usize, task: &QueryTaskMsg, epoch: u64) {
        let metrics = ExecutionMetrics {
            queries_executed: 1,
            local_only_queries: 1,
            matches_limited: true,
            deadline_exceeded: true,
            plan: self.plans[task.query as usize].as_ref().map(|p| p.id()),
            ..ExecutionMetrics::default()
        };
        let log = &mut self.logs[worker];
        log.rejected += 1;
        log.execution.merge(&metrics);
        if log.epochs.last() != Some(&epoch) {
            log.epochs.push(epoch);
        }
        if let Some(ctr) = self.rejected_ctr.get(worker) {
            ctr.inc();
        }
    }

    /// Broadcast a cancellation notice once the run's token fires. In-proc
    /// workers share the token and unwind without it; the message keeps the
    /// protocol complete for transports without shared memory.
    fn poll_cancel(&mut self) {
        if !self.cancel_sent && self.cancel.is_cancelled() {
            self.cancel_sent = true;
            for link in self.links {
                let _ = link.try_send(ShardMsg::Cancel);
            }
        }
    }

    /// Handle the run taken off the inbox and every run still arriving,
    /// then write out what the batch owes the flight recorder. Every receive
    /// is followed by a drain.
    fn drain(&mut self) {
        loop {
            while let Some(msg) = self.inbox.pop_front() {
                self.handle(msg);
            }
            if !self.links[0].try_recv_all(&mut self.inbox) {
                break;
            }
        }
        self.flush_deadline_events();
    }

    /// Flight-record the batch's blown deadlines under one lock and latch
    /// one dump for them — the other automatic trigger besides admission
    /// rejection.
    fn flush_deadline_events(&mut self) {
        if let (Some(t), false) = (self.telemetry, self.deadline_events.is_empty()) {
            t.flight().record_all(self.deadline_events.drain(..));
            t.flight().latch("deadline exceeded");
        }
    }

    fn handle(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Done(done) => self.complete(done),
            ShardMsg::EpochPublished { epoch } => {
                if epoch > self.forwarded_epoch {
                    self.forwarded_epoch = epoch;
                    if let Some(t) = self.telemetry {
                        t.flight().record(FlightKind::EpochPublished { epoch });
                    }
                    // Best effort: a worker with a full inbox misses this
                    // notice but catches the next one.
                    for link in self.links {
                        let _ = link.try_send(ShardMsg::EpochPublished { epoch });
                    }
                }
            }
            ShardMsg::Report(report) => {
                let worker = report.worker as usize;
                if worker < self.reports.len() {
                    self.reports[worker] = Some(report);
                }
            }
            // Coordinator-bound traffic only; these go the other way.
            ShardMsg::Query(_) | ShardMsg::Cancel | ShardMsg::Finish => {}
        }
    }

    /// A `Done` came back: `metrics.queries_executed` admitted queries are
    /// complete. Keep its embeddings, note a blown deadline for the flight
    /// recorder (written at the end of the drain), timestamp the completion
    /// for an open-loop driver, and charge the shard that ran them. Every
    /// per-query fact arrives in a `Done` of its own, so `seq` names it.
    fn complete(&mut self, done: QueryDoneMsg) {
        let QueryDoneMsg {
            worker,
            seq,
            epoch,
            metrics,
            embeddings,
        } = done;
        self.embeddings
            .extend(embeddings.into_iter().map(|e| (seq, e)));
        if self.telemetry.is_some() && metrics.deadline_exceeded {
            self.deadline_events.push(FlightKind::DeadlineExceeded {
                request: seq,
                shard: worker,
                epoch,
            });
        }
        if let Some(sink) = self.completions.as_mut() {
            sink.push(Completion {
                seq,
                at: Instant::now(),
                deadline_exceeded: metrics.deadline_exceeded,
            });
        }
        self.outstanding -= metrics.queries_executed;
        self.logs[worker as usize].record(metrics, epoch);
    }

    /// Pump the inbox until every admitted query has completed.
    fn await_completion(&mut self) {
        let mut last_progress = Instant::now();
        while self.outstanding > 0 {
            self.poll_cancel();
            match self.links[0].recv_all(&mut self.inbox, Some(Instant::now() + PUMP_SLICE)) {
                Ok(()) => {
                    last_progress = Instant::now();
                    self.drain();
                }
                Err(RecvError::Timeout) => {
                    if last_progress.elapsed() > STALL_LIMIT {
                        break;
                    }
                }
                Err(RecvError::Disconnected) => break,
            }
        }
    }

    /// Tell every threaded worker the run is over and collect their shard
    /// reports. `Finish` is offered and a full inbox waited out exactly as
    /// in [`Coordinator::admit_staged`].
    fn finish(&mut self) {
        for link in self.links {
            let mut msg = ShardMsg::Finish;
            loop {
                match link.try_send(msg) {
                    Ok(()) => break,
                    Err(TransportError::Timeout(refused)) => {
                        msg = *refused;
                        if !self.await_credit(Instant::now() + ADMIT_SLICE, None) {
                            break;
                        }
                    }
                    Err(TransportError::Closed(_)) => break,
                }
            }
        }
        let threaded = self.first_threaded();
        let mut last_progress = Instant::now();
        while self.reports[threaded..].iter().any(Option::is_none) {
            match self.links[0].recv_all(&mut self.inbox, Some(Instant::now() + PUMP_SLICE)) {
                Ok(()) => {
                    last_progress = Instant::now();
                    self.drain();
                }
                Err(RecvError::Timeout) => {
                    if last_progress.elapsed() > STALL_LIMIT {
                        break;
                    }
                }
                Err(RecvError::Disconnected) => break,
            }
        }
    }
}

/// Driver-side handle for one run's pre-scheduled load. The schedule is
/// expanded up front; a driver issues it one arrival at a time. The
/// closed-loop driver behind [`ServeEngine::run`] admits with backpressure;
/// an open-loop driver (see [`ServeEngine::open_loop`]) injects with
/// **non-blocking** admission ([`OpenLoopInjector::inject_next`]), so
/// injection timing is a pure function of the driver's clock — never of the
/// engine keeping up. A full inbox rejects on the spot; a late arrival can
/// be shed ([`OpenLoopInjector::shed_next`]); both land in the same
/// per-shard `rejected` accounting the blocking path uses, so every issued
/// request appears in the final [`ServeReport`].
pub struct OpenLoopInjector<'a> {
    coordinator: Coordinator<'a>,
    router: QueryRouter,
    source: Source<'a>,
    tasks: &'a [QueryTaskMsg],
    /// The run's effective deadline, bounding closed-loop admission.
    deadline: Option<Instant>,
    workers: usize,
    next: usize,
    query_counts: Vec<usize>,
    run_start: Instant,
}

impl OpenLoopInjector<'_> {
    /// When the run (and its relative-µs deadline clock) started.
    pub fn run_start(&self) -> Instant {
        self.run_start
    }

    /// Scheduled arrivals not yet issued.
    pub fn remaining(&self) -> usize {
        self.tasks.len() - self.next
    }

    /// Requests issued so far (admitted + rejected + shed).
    pub fn issued(&self) -> usize {
        self.next
    }

    /// Admitted requests whose completion has not been consumed yet — the
    /// open-loop in-flight count (queued plus executing).
    pub fn outstanding(&self) -> usize {
        self.coordinator.outstanding
    }

    /// Take the next scheduled arrival, count it as issued, and route it to
    /// its home worker against the snapshot current at admission. For an
    /// epoch source that costs one `Acquire` load per arrival; the snapshot
    /// is re-pinned only when a newer epoch has been published. With one
    /// worker every arrival is that worker's: nothing is routed.
    fn next_routed(&mut self) -> Option<(usize, QueryTaskMsg)> {
        let task = self.tasks.get(self.next)?.clone();
        self.next += 1;
        self.query_counts[task.query as usize] += 1;
        let coordinator = &mut self.coordinator;
        if let Source::Epochs(epochs) = self.source {
            if epochs.current_epoch() != coordinator.snapshot.epoch() {
                coordinator.snapshot = epochs.load();
            }
        }
        if self.workers == 1 {
            return Some((0, task));
        }
        let plan = coordinator.plans[task.query as usize]
            .as_ref()
            .expect("scheduled plan");
        let shard = self
            .router
            .home_shard_planned(&coordinator.snapshot, plan, task.root_seed);
        Some((shard.index() % self.workers, task))
    }

    /// The epoch of the routing snapshot.
    fn epoch(&self) -> u64 {
        self.coordinator.snapshot.epoch()
    }

    /// Closed-loop admission of the next scheduled arrival: a full home
    /// inbox blocks (backpressure) until the run's deadline, then rejects.
    /// Returns `false` once the schedule is exhausted.
    fn admit_next(&mut self) -> bool {
        let Some((worker, task)) = self.next_routed() else {
            return false;
        };
        let epoch = self.epoch();
        self.coordinator.admit(worker, task, self.deadline, epoch);
        true
    }

    /// Issue the next scheduled arrival with non-blocking admission. An
    /// explicit `deadline` overrides the request-level one for this arrival
    /// (the natural choice is `arrival + SLO timeout`). Never blocks: a full
    /// home-worker inbox means [`Admission::Rejected`], charged to that
    /// shard's error budget.
    pub fn inject_next(&mut self, deadline: Option<Instant>) -> Admission {
        let Some((shard, mut task)) = self.next_routed() else {
            return Admission::Exhausted;
        };
        if let Some(d) = deadline {
            task.deadline_us = Some(d.saturating_duration_since(self.run_start).as_micros() as u64);
        }
        let seq = task.seq;
        let epoch = self.epoch();
        if self.coordinator.admit_open(shard, task, epoch) {
            Admission::Admitted { seq, shard }
        } else {
            Admission::Rejected { seq, shard }
        }
    }

    /// Drop the next scheduled arrival without offering it to its worker —
    /// the driver's move when an arrival is already hopelessly late (an
    /// open-loop generator sheds, it never retries). Accounted exactly like
    /// an admission rejection on the arrival's home shard. Returns the shed
    /// sequence number, or `None` when the schedule is exhausted.
    pub fn shed_next(&mut self) -> Option<u64> {
        let (worker, task) = self.next_routed()?;
        let epoch = self.epoch();
        self.coordinator.reject(worker, &task, epoch);
        Some(task.seq)
    }

    /// Consume inbox messages until `deadline` — this is how the driver
    /// paces arrivals: sleep-with-work until the next scheduled injection
    /// instant, timestamping completions as they land.
    pub fn pump_until(&mut self, deadline: Instant) {
        loop {
            self.coordinator.poll_cancel();
            let coordinator = &mut self.coordinator;
            match coordinator.links[0].recv_all(&mut coordinator.inbox, Some(deadline)) {
                Ok(()) => coordinator.drain(),
                Err(RecvError::Timeout) | Err(RecvError::Disconnected) => return,
            }
        }
    }

    /// Take every completion consumed since the last call, in consumption
    /// order, each timestamped at the instant the coordinator observed it.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        self.coordinator
            .completions
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

/// The concurrent sharded serving engine.
#[derive(Debug, Clone, Default)]
pub struct ServeEngine {
    config: ServeConfig,
    plans: Option<Arc<PlanCache>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl ServeEngine {
    /// Create an engine from a config.
    pub fn new(config: ServeConfig) -> Self {
        Self {
            config,
            plans: None,
            telemetry: None,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Builder-style worker count (minimum 1): the same mode, match limit,
    /// plans and telemetry over `workers` worker shards.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Builder-style telemetry: runs charge stage histograms
    /// (`serve.execute`, `serve.queue_wait`), keep
    /// per-shard admitted/rejected counters and queue-depth gauges, and
    /// flight-record the admission/rejection/deadline/epoch timeline — with
    /// an automatic [`loom_obs::FlightDump`] latched on deadline-exceeded or
    /// admission rejection. The [`ServeReport`] itself is assembled the same
    /// way observed or not, so it differs only in this process's timings.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached telemetry bundle, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Builder-style plan cache: the router and every worker execute the
    /// cache's compiled plans instead of re-deriving matching orders per
    /// run.
    #[must_use]
    pub fn with_plan_cache(mut self, plans: Arc<PlanCache>) -> Self {
        self.plans = Some(plans);
        self
    }

    /// The shared plan cache, if one is wired in.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plans.as_ref()
    }

    /// Execute a [`QueryRequest`] **closed-loop** against `source` — one
    /// pinned snapshot (`engine.run(&store, ..)`) or an [`EpochStore`]
    /// (`engine.run(&epochs, ..)`) — under `ctx`, and return both the serving
    /// report and the request's [`QueryResponse`] (metrics + match cursor).
    ///
    /// The sampled load, the per-query root seeds and the matcher options
    /// are exactly those of [`ServeEngine::run_sequential`], and each query
    /// runs the same compiled plan through the same matcher, so the
    /// report's aggregate [`ExecutionMetrics`] equal a sequential run's —
    /// the parity the serving tests assert. The effective deadline is the
    /// earlier of the context's and the request's, and firing the context's
    /// cancel token cooperatively unwinds every in-flight worker execution.
    ///
    /// The calling thread serves shard 0 itself and starts a thread only for
    /// each other worker (none with one worker): shard 0 reports no runs, no
    /// wake-ups and no queue depth, and its queries past their deadline are
    /// executed as such and count as `deadline_expired`, never as
    /// admission rejections.
    pub fn run<'a>(
        &self,
        source: impl Into<Source<'a>>,
        workload: &Workload,
        request: QueryRequest,
        ctx: &RequestContext,
    ) -> (ServeReport, QueryResponse) {
        let (report, response, ()) =
            self.drive(source.into(), workload, request, ctx, false, |injector| {
                while injector.admit_next() {}
            });
        (report, response)
    }

    /// Run an **open-loop** load against one pinned snapshot: the engine
    /// spins up the workers, router, and transport of [`ServeEngine::run`],
    /// but every worker, shard 0 included, on a thread of its own, and
    /// hands control to `driver`, which
    /// owns *when* each pre-scheduled arrival is issued via the
    /// [`OpenLoopInjector`]. Admission never blocks — a full inbox rejects
    /// immediately — so the driver's injection timing is independent of the
    /// engine's completion timing; that independence is what makes measured
    /// saturation honest (a closed-loop driver self-throttles at the knee).
    ///
    /// The request's sampled load and root seeds are exactly those of the
    /// closed-loop path; arrivals the driver never issues are simply not
    /// run. After `driver` returns, the engine awaits outstanding
    /// completions, tears the run down, and returns the [`ServeReport`]
    /// (whose [`ErrorBudget`] covers every
    /// issued request) alongside the driver's own result.
    pub fn open_loop<R>(
        &self,
        store: &Arc<ShardedStore>,
        workload: &Workload,
        request: QueryRequest,
        driver: impl FnOnce(&mut OpenLoopInjector<'_>) -> R,
    ) -> (ServeReport, R) {
        let ctx = RequestContext::unbounded();
        let (report, _, value) =
            self.drive(Source::Pinned(store), workload, request, &ctx, true, driver);
        (report, value)
    }

    /// The matcher options one request runs under: the engine config with
    /// the request's overrides applied raw (no clamping). The one place a
    /// request is resolved, so the sequential reference and every sharded
    /// run execute under the same options; each execution fills in only its
    /// `root_seed`.
    fn options_for(&self, request: &QueryRequest) -> ExecOptions {
        ExecOptions {
            mode: request.mode.unwrap_or(self.config.mode),
            match_limit: request.match_limit.unwrap_or(self.config.match_limit),
            traversal_budget: request.traversal_budget,
            root_seed: 0,
            collect: request.collect_matches,
        }
    }

    /// Run a request sequentially on the calling thread over any
    /// [`PatternStore`] under `ctx` — the reference every concurrent run is
    /// parity-tested against: the `loom` façade's `Serving` handle runs it
    /// over its frozen arena, the tests over the hash-map
    /// [`PartitionedStore`](loom_sim::store::PartitionedStore). It shares
    /// the schedule, the plans and the one resolution of the request's
    /// overrides with [`ServeEngine::run`]; the engine's worker count,
    /// queue capacity and telemetry play no part. Every scheduled execution
    /// observes the context's deadline (tightened by the request's own) and
    /// cancellation token; executions scheduled after the cut are
    /// pre-flighted away at zero traversal cost, so they still count in
    /// `queries_executed` but do no work.
    pub fn run_sequential<S: PatternStore + ?Sized>(
        &self,
        store: &S,
        workload: &Workload,
        request: QueryRequest,
        ctx: &RequestContext,
    ) -> QueryResponse {
        let options = self.options_for(&request);
        let ctx = ctx.tightened_by(request.deadline);
        let schedule = request_schedule(workload, &request);
        let plans = resolve_schedule_plans(self.plans.as_ref(), workload, &schedule);
        let mut metrics = ExecutionMetrics::default();
        let mut embeddings = Vec::new();
        // One scratch for the request: its executions share a root list and a
        // mapping instead of allocating a pair each.
        let mut scratch = MatchScratch::default();
        for (index, root_seed) in schedule {
            let plan = plans[index].as_ref().expect("scheduled plan resolved");
            let opts = ExecOptions {
                root_seed,
                ..options
            };
            let run = execute_plan_ctx(store, plan, &opts, &ctx, &mut scratch);
            metrics.merge(&run.metrics);
            embeddings.extend(run.embeddings);
        }
        QueryResponse::from_engine(metrics, embeddings)
    }

    /// The one run scaffold: expand the schedule, resolve plans, stand up
    /// the transport hub and a worker thread per threaded shard (all of them
    /// on an open-loop run, all but shard 0 otherwise), hand the injector to
    /// `driver`, then await completions, tear down and assemble the report.
    /// Only open-loop runs `time_completions`; closed-loop runs keep the
    /// sink off, read no per-completion clock, and get their completions
    /// back in groups.
    fn drive<R>(
        &self,
        source: Source<'_>,
        workload: &Workload,
        request: QueryRequest,
        ctx: &RequestContext,
        time_completions: bool,
        driver: impl FnOnce(&mut OpenLoopInjector<'_>) -> R,
    ) -> (ServeReport, QueryResponse, R) {
        let started = Instant::now();
        let options = self.options_for(&request);
        let workers = self.config.workers.max(1);
        let effective = ctx.tightened_by(request.deadline);
        // `Instant`s do not cross the transport; per-task deadlines ride as
        // microseconds relative to the run start both sides hold.
        let deadline_us = effective
            .deadline
            .map(|d| d.saturating_duration_since(started).as_micros() as u64);

        // Expand the load up front through the engine-shared schedule (the
        // exact sampling and root-seed scheme of the sequential run).
        let schedule = request_schedule(workload, &request);
        let tasks: Vec<QueryTaskMsg> = schedule
            .iter()
            .enumerate()
            .map(|(seq, &(query, root_seed))| QueryTaskMsg {
                seq: seq as u64,
                query: query as u32,
                root_seed,
                deadline_us,
            })
            .collect();

        // One plan resolution per *distinct* scheduled query for the whole
        // run — the router and every worker share these instances (and the
        // structural guard in `resolve_plan` rejects id collisions).
        let plans = resolve_schedule_plans(self.plans.as_ref(), workload, &schedule);

        // A closed-loop run serves shard 0 on this thread, between its offers
        // to the other workers, so only those get a thread and an inbox. An
        // open-loop run keeps every worker on a thread of its own: its
        // driver's thread must keep pacing injection.
        let local = !time_completions;
        let threaded = usize::from(local)..workers;
        let hub = InProcTransport::hub_observed(
            threaded.clone(),
            self.config.queue_capacity,
            self.telemetry.as_deref(),
        );
        // Epoch publications reach workers as broadcast messages: the store
        // notifies the coordinator's inbox, the coordinator relays. The local
        // shard needs none: it executes on the routing snapshot.
        let subscription = match source {
            Source::Epochs(epochs) if !hub.workers.is_empty() => {
                Some((epochs, epochs.subscribe(hub.notice_sink())))
            }
            _ => None,
        };
        let setup = |w: usize| WorkerSetup {
            worker: w as u32,
            options,
            time_completions,
            plans: &plans,
            run_start: started,
            cancel: effective.cancel.clone(),
            exec_hist: self
                .telemetry
                .as_ref()
                .map(|t| t.shard_histogram(stage::SERVE_EXECUTE, w as u32)),
        };

        let (coordinator, issued, query_counts, value) = std::thread::scope(|scope| {
            // Closing every inbox when this closure ends — by returning, or
            // by a panic on this thread, which runs the matcher too —
            // wakes every parked worker, so the scope can join them and a
            // panic reaches the caller instead of hanging the run.
            let _closing = hub.close_on_drop();
            for (endpoint, w) in hub.workers.iter().zip(threaded) {
                let source = &source;
                let setup = setup(w);
                scope.spawn(move || worker_loop(endpoint, source, setup));
            }

            let mut injector = OpenLoopInjector {
                coordinator: Coordinator::new(
                    &hub.coordinator,
                    local.then(|| ShardExecutor::new(setup(0))),
                    source.pin(),
                    self.config.queue_capacity,
                    &plans,
                    &effective.cancel,
                    self.telemetry.as_deref(),
                ),
                router: QueryRouter::new(options.mode),
                source,
                tasks: &tasks,
                deadline: effective.deadline,
                workers,
                next: 0,
                query_counts: vec![0usize; workload.len()],
                run_start: started,
            };
            injector.coordinator.completions = time_completions.then(Vec::new);
            let value = driver(&mut injector);
            let OpenLoopInjector {
                mut coordinator,
                next: issued,
                query_counts,
                deadline,
                ..
            } = injector;
            coordinator.admit_all_staged(deadline);
            coordinator.await_completion();
            coordinator.finish();
            (coordinator, issued, query_counts, value)
        });

        if let Some((epochs, id)) = subscription {
            epochs.unsubscribe(id);
        }

        // The local shard has no inbox: its depth is 0.
        let depths: Vec<usize> = std::iter::repeat_n(0, usize::from(local))
            .chain(hub.coordinator.iter().map(InProcEndpoint::peer_inbox_depth))
            .collect();
        let (report, response) = self.assemble(coordinator, depths, issued, query_counts, started);
        (report, response, value)
    }

    fn assemble(
        &self,
        run: Coordinator<'_>,
        depths: Vec<usize>,
        samples: usize,
        query_counts: Vec<usize>,
        started: Instant,
    ) -> (ServeReport, QueryResponse) {
        let Coordinator {
            logs,
            reports,
            mut embeddings,
            ..
        } = run;
        let mut aggregate = ExecutionMetrics::default();
        let mut epochs_observed: Vec<u64> = Vec::new();
        let mut shards = Vec::with_capacity(logs.len());
        for (w, log) in logs.into_iter().enumerate() {
            aggregate.merge(&log.execution);
            epochs_observed.extend_from_slice(&log.epochs);
            let report = reports.get(w).and_then(Option::as_ref);
            shards.push(ShardServeMetrics {
                shard: w as u32,
                queries: log.queries,
                execution: log.execution,
                max_queue_depth: depths.get(w).copied().unwrap_or(0),
                queue_wait_p99_us: report.map_or(0.0, |r| r.queue_wait_p99_us),
                admit_stalls: log.admit_stalls,
                runs: report.map_or(0, |r| r.runs),
                wake_ups: report.map_or(0, |r| r.wake_ups),
                rejected: log.rejected,
                deadline_expired: log.deadline_expired,
                epoch_seq: log.epochs.iter().copied().max(),
            });
        }
        if let Some(t) = self.telemetry.as_ref() {
            for (w, depth) in depths.iter().enumerate() {
                t.registry()
                    .gauge("serve.queue_depth", &[("shard", w.to_string())])
                    .raise(*depth as i64);
            }
        }
        epochs_observed.sort_unstable();
        epochs_observed.dedup();
        // Deterministic cursor order: admission order, then enumeration
        // order within one execution (the sort is stable and each query's
        // embeddings arrive in one message) — identical to a sequential run.
        embeddings.sort_by_key(|&(seq, _)| seq);
        let error_budget = ErrorBudget {
            requests: samples,
            rejected: shards.iter().map(|s| s.rejected).sum(),
            deadline_expired: shards.iter().map(|s| s.deadline_expired).sum(),
        };
        let wall_clock_us = started.elapsed().as_secs_f64() * 1e6;
        let report = ServeReport {
            shards,
            aggregate,
            queries: samples,
            wall_clock_us,
            epochs_observed,
            query_counts,
            error_budget,
        };
        let response =
            QueryResponse::from_engine(aggregate, embeddings.into_iter().map(|(_, e)| e).collect());
        (report, response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_graph::generators::regular::path_graph;
    use loom_graph::generators::{barabasi_albert, GeneratorConfig};
    use loom_graph::{Label, VertexId};
    use loom_motif::fixtures::{paper_example_graph, paper_example_workload};
    use loom_motif::query::{PatternQuery, QueryId};
    use loom_partition::partition::{PartitionId, Partitioning};
    use loom_sim::matcher::execute_plan;
    use loom_sim::plan::{GraphStatistics, QueryPlanner};
    use loom_sim::store::PartitionedStore;

    fn l(x: u32) -> Label {
        Label::new(x)
    }

    /// `workers` shards serving rooted queries anchored at 4 seeds: the mode
    /// these tests were written for.
    fn rooted(workers: usize) -> ServeConfig {
        ServeConfig::new(workers).with_mode(QueryMode::Rooted { seed_count: 4 })
    }

    /// The 12-vertex abc path over 4 partitions, vertex `i` on `shard_of(i)`.
    fn path_store(shard_of: impl Fn(usize) -> u32) -> ShardedStore {
        let g = path_graph(12, &[l(0), l(1), l(2)]);
        let mut part = Partitioning::new(4, 12).unwrap();
        for (i, v) in g.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new(shard_of(i))).unwrap();
        }
        ShardedStore::from_parts(&g, &part)
    }

    fn fixture() -> (Arc<ShardedStore>, Workload) {
        let store = Arc::new(path_store(|i| (i / 3) as u32));
        let workload = Workload::uniform(vec![
            PatternQuery::path(QueryId::new(0), &[l(0), l(1), l(2)]).unwrap(),
            PatternQuery::path(QueryId::new(1), &[l(1), l(2)]).unwrap(),
        ])
        .unwrap();
        (store, workload)
    }

    /// `samples` workload queries from `seed`, closed-loop and unbounded.
    fn serve(
        engine: &ServeEngine,
        store: &Arc<ShardedStore>,
        workload: &Workload,
        samples: usize,
        seed: u64,
    ) -> ServeReport {
        let request = QueryRequest::workload(samples).with_seed(seed);
        engine
            .run(store, workload, request, &RequestContext::unbounded())
            .0
    }

    #[test]
    fn serve_batch_executes_every_sample() {
        let (store, workload) = fixture();
        let engine = ServeEngine::new(rooted(4));
        let report = serve(&engine, &store, &workload, 50, 9);
        assert_eq!(report.queries, 50);
        assert_eq!(report.aggregate.queries_executed, 50);
        assert_eq!(report.shards.len(), 4);
        assert_eq!(report.shards.iter().map(|s| s.queries).sum::<usize>(), 50);
        assert!(report.wall_clock_us > 0.0);
        assert_eq!(report.epochs_observed, vec![0]);
        // Unbounded requests are never rejected at admission.
        assert!(report.shards.iter().all(|s| s.rejected == 0));
    }

    #[test]
    fn serving_is_deterministic_per_seed_modulo_worker_count() {
        let (store, workload) = fixture();
        let one = serve(&ServeEngine::new(rooted(1)), &store, &workload, 40, 3);
        let four = serve(&ServeEngine::new(rooted(4)), &store, &workload, 40, 3);
        // The aggregate execution metrics do not depend on the worker count.
        assert_eq!(one.aggregate, four.aggregate);
    }

    #[test]
    fn idle_shards_report_zero_metrics_and_do_not_skew_the_makespan() {
        // 2 partitions served by 4 workers: workers 2 and 3 never receive a
        // query. Their metrics must be all-zero and pinned to no epoch.
        let g = path_graph(8, &[l(0), l(1), l(2)]);
        let mut part = Partitioning::new(2, 8).unwrap();
        for (i, v) in g.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new((i / 4) as u32)).unwrap();
        }
        let store = Arc::new(ShardedStore::from_parts(&g, &part));
        let workload = Workload::uniform(vec![PatternQuery::path(
            QueryId::new(0),
            &[l(0), l(1), l(2)],
        )
        .unwrap()])
        .unwrap();
        let report = serve(&ServeEngine::new(rooted(4)), &store, &workload, 60, 11);
        assert_eq!(report.queries, 60);
        let idle: Vec<_> = report.shards.iter().filter(|s| s.queries == 0).collect();
        assert!(!idle.is_empty(), "expected idle workers beyond shard count");
        for shard in idle {
            assert_eq!(shard.execution, ExecutionMetrics::default());
            assert_eq!(shard.epoch_seq, None);
        }
    }

    #[test]
    fn report_records_the_observed_query_mix() {
        let (store, workload) = fixture();
        let report = serve(&ServeEngine::new(rooted(2)), &store, &workload, 80, 7);
        assert_eq!(report.query_counts.len(), workload.len());
        assert_eq!(report.query_counts.iter().sum::<usize>(), 80);
        // A uniform 2-query workload: both queries appear.
        assert!(report.query_counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn zero_samples_produce_an_empty_report() {
        let (store, workload) = fixture();
        let report = serve(&ServeEngine::default(), &store, &workload, 0, 1);
        assert_eq!(report.queries, 0);
        assert_eq!(report.aggregate, ExecutionMetrics::default());
        assert_eq!(report.wall_clock_qps(), 0.0);
    }

    #[test]
    fn backpressure_keeps_queue_depth_bounded() {
        let (store, workload) = fixture();
        let config = rooted(2).with_queue_capacity(4);
        let report = serve(&ServeEngine::new(config), &store, &workload, 100, 2);
        for shard in &report.shards {
            assert!(shard.max_queue_depth <= 4);
        }
        assert_eq!(report.aggregate.queries_executed, 100);
    }

    /// Closed-loop admission stages each worker's queries and admits them
    /// in runs of up to an inbox's worth: at every capacity, down to one,
    /// every query is admitted once, no inbox outgrows its bound, and the
    /// metrics and the cursor are those of the sequential engine. (One
    /// worker runs on the calling thread behind no queue, so the queues are
    /// exercised from two workers up.)
    #[test]
    fn staged_runs_admit_every_query_once_at_every_capacity() {
        let (store, workload) = fixture();
        let request = QueryRequest::workload(90)
            .with_seed(6)
            .collect_matches(true);
        let ctx = RequestContext::unbounded();
        let reference =
            ServeEngine::new(rooted(1)).run_sequential(&*store, &workload, request, &ctx);
        let (reference, cursor) = reference.into_parts();
        let cursor: Vec<_> = cursor.collect();
        assert!(!cursor.is_empty());
        for capacity in [1, 2, 3, 64] {
            for workers in [2, 3] {
                let config = rooted(workers).with_queue_capacity(capacity);
                let (report, response) =
                    ServeEngine::new(config).run(&store, &workload, request, &ctx);
                assert_eq!(report.aggregate, reference);
                assert_eq!(report.error_budget.dropped(), 0);
                assert_eq!(report.shards.iter().map(|s| s.queries).sum::<usize>(), 90);
                for shard in &report.shards {
                    assert!(shard.max_queue_depth <= capacity, "{shard:?}");
                }
                let got: Vec<_> = response.into_cursor().collect();
                assert_eq!(got, cursor, "capacity {capacity} x {workers} workers");
            }
        }
    }

    /// Completions come back in groups, and nothing the report counts moves.
    /// Over a seeded mix — counted, collecting, past its deadline, cancelled
    /// — on one to three workers behind inboxes one and 64 deep, each request
    /// reads the sequential engine's aggregate and cursor, every shard
    /// accounts once for each query routed to it (executed or rejected),
    /// every expired execution is one `deadline_expired` or one `rejected`
    /// (never a `rejected` on shard 0, which the calling thread serves),
    /// and every shard that ran a query observed the one epoch.
    #[test]
    fn grouped_completions_keep_every_count_of_a_request_mix() {
        let graph = path_graph(12, &[l(0), l(1), l(2)]);
        let mut part = Partitioning::new(4, 12).unwrap();
        for (i, v) in graph.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new((i % 4) as u32)).unwrap();
        }
        let store = Arc::new(ShardedStore::from_parts(&graph, &part));
        let sequential_store = PartitionedStore::new(graph, part);
        let (_, workload) = fixture();
        let mode = QueryMode::Rooted { seed_count: 2 };
        let counted = QueryRequest::workload(150).with_seed(12).with_mode(mode);
        let expired = Instant::now() - Duration::from_secs(1);
        let cancelled = RequestContext::unbounded();
        cancelled.cancel.cancel();
        let unbounded = RequestContext::unbounded();
        let mix = [
            (counted, &unbounded),
            (counted.collect_matches(true), &unbounded),
            (counted.with_deadline(expired), &unbounded),
            (counted.with_seed(13), &cancelled),
        ];
        for (request, ctx) in mix {
            let reference =
                ServeEngine::default().run_sequential(&sequential_store, &workload, request, ctx);
            let schedule = request_schedule(&workload, &request);
            let plans = resolve_schedule_plans(None, &workload, &schedule);
            let mut router = QueryRouter::new(mode);
            let homes: Vec<usize> = schedule
                .iter()
                .map(|&(query, seed)| {
                    let plan = plans[query].as_ref().unwrap();
                    router.home_shard_planned(&store, plan, seed).index()
                })
                .collect();
            let expired = request.deadline.is_some();
            let (metrics, cursor) = reference.into_parts();
            let cursor: Vec<_> = cursor.collect();
            assert_eq!(cursor.is_empty(), !request.collect_matches);
            for workers in [1, 2, 3] {
                for capacity in [1, 64] {
                    let config = rooted(workers).with_queue_capacity(capacity);
                    let (report, response) =
                        ServeEngine::new(config).run(&store, &workload, request, ctx);
                    let case = format!("{request:?} on {workers} x {capacity}");
                    assert_eq!(report.aggregate, metrics, "{case}");
                    assert_eq!(response.metrics, metrics, "{case}");
                    assert_eq!(report.epochs_observed, [0], "{case}");
                    for shard in &report.shards {
                        let w = shard.shard as usize;
                        let routed = homes.iter().filter(|&&h| h % workers == w).count();
                        assert_eq!(shard.queries + shard.rejected, routed, "{case}");
                        assert_eq!(shard.execution.queries_executed, routed, "{case}");
                        let dropped = if expired { routed } else { 0 };
                        assert_eq!(shard.deadline_expired + shard.rejected, dropped, "{case}");
                        // Shard 0 runs on the calling thread behind no
                        // queue: its late queries are executed, never
                        // refused.
                        if w == 0 {
                            assert_eq!(shard.rejected, 0, "{case}");
                        }
                        assert_eq!(shard.epoch_seq, (routed > 0).then_some(0), "{case}");
                    }
                    if !expired {
                        assert_eq!(report.error_budget.rejected, 0, "{case}");
                    }
                    let got: Vec<_> = response.into_cursor().collect();
                    assert_eq!(got, cursor, "{case}");
                }
            }
        }
    }

    #[test]
    fn plan_cache_is_shared_by_router_and_workers() {
        let (store, workload) = fixture();
        // Same graph the fixture shards.
        let stats = GraphStatistics::from_graph(&path_graph(12, &[l(0), l(1), l(2)]));
        let cache = Arc::new(PlanCache::compile(
            &QueryPlanner::default(),
            &workload,
            &stats,
        ));
        let engine = ServeEngine::new(rooted(2)).with_plan_cache(Arc::clone(&cache));
        assert!(engine.plan_cache().is_some());
        let uncached = ServeEngine::new(rooted(2));
        let a = serve(&engine, &store, &workload, 60, 5);
        let b = serve(&uncached, &store, &workload, 60, 5);
        // One lookup per workload query per run, not per sample.
        assert_eq!(cache.hits(), workload.len());
        assert_eq!(cache.misses(), 0);
        // Cached and legacy plans agree on these symmetric-statistics
        // queries, so the metrics line up apart from plan provenance.
        assert_eq!(a.aggregate.total_traversals, b.aggregate.total_traversals);
        assert_eq!(a.aggregate.matches_found, b.aggregate.matches_found);
    }

    #[test]
    fn run_request_collects_embeddings_deterministically_across_workers() {
        let (store, workload) = fixture();
        let request = QueryRequest::workload(30)
            .with_seed(9)
            .collect_matches(true);
        let (_, one) = ServeEngine::new(rooted(1)).run(
            &store,
            &workload,
            request,
            &RequestContext::unbounded(),
        );
        let (_, four) = ServeEngine::new(rooted(4)).run(
            &store,
            &workload,
            request,
            &RequestContext::unbounded(),
        );
        assert_eq!(one.metrics, four.metrics);
        let a: Vec<_> = one.into_cursor().collect();
        let b: Vec<_> = four.into_cursor().collect();
        assert_eq!(a, b, "cursor order must not depend on the worker count");
        assert!(!a.is_empty());
    }

    #[test]
    fn single_query_requests_run_only_that_query() {
        let (store, workload) = fixture();
        let engine = ServeEngine::new(rooted(2));
        let (report, response) = engine.run(
            &store,
            &workload,
            QueryRequest::query(QueryId::new(1))
                .with_samples(20)
                .with_seed(3),
            &RequestContext::unbounded(),
        );
        assert_eq!(report.queries, 20);
        assert_eq!(report.query_counts, vec![0, 20]);
        assert_eq!(response.metrics.queries_executed, 20);
        // Unknown ids run nothing.
        let (empty, _) = engine.run(
            &store,
            &workload,
            QueryRequest::query(QueryId::new(42)).with_samples(5),
            &RequestContext::unbounded(),
        );
        assert_eq!(empty.queries, 0);
        assert_eq!(empty.aggregate, ExecutionMetrics::default());
    }

    #[test]
    fn expired_deadlines_reject_or_short_circuit_without_traversals() {
        let (store, workload) = fixture();
        let engine = ServeEngine::new(rooted(2));
        let request = QueryRequest::workload(20)
            .with_seed(4)
            .with_deadline(Instant::now() - Duration::from_secs(1));
        let (report, response) =
            engine.run(&store, &workload, request, &RequestContext::unbounded());
        assert_eq!(report.queries, 20);
        assert_eq!(report.aggregate.queries_executed, 20);
        assert_eq!(report.aggregate.total_traversals, 0);
        assert!(report.aggregate.deadline_exceeded);
        assert!(report.aggregate.matches_limited);
        assert!(response.metrics.deadline_exceeded);
        assert_eq!(response.metrics.matches_found, 0);
    }

    #[test]
    fn cancelled_context_unwinds_and_flags_the_report() {
        let (store, workload) = fixture();
        let engine = ServeEngine::new(rooted(2));
        let ctx = RequestContext::unbounded();
        ctx.cancel.cancel();
        let (report, response) = engine.run(
            &store,
            &workload,
            QueryRequest::workload(15).with_seed(6),
            &ctx,
        );
        assert_eq!(report.aggregate.queries_executed, 15);
        assert_eq!(report.aggregate.total_traversals, 0);
        assert!(report.aggregate.cancelled);
        assert!(response.metrics.cancelled);
    }

    #[test]
    fn observed_runs_populate_telemetry_without_changing_aggregates() {
        let (store, workload) = fixture();
        let telemetry = Telemetry::new();
        let observed = ServeEngine::new(rooted(2)).with_telemetry(Arc::clone(&telemetry));
        let plain = ServeEngine::new(rooted(2));
        let a = serve(&observed, &store, &workload, 40, 3);
        let b = serve(&plain, &store, &workload, 40, 3);
        // Instrumentation changes nothing but this process's timings.
        let untimed = |report: &ServeReport| {
            let mut r = report.clone();
            r.wall_clock_us = 0.0;
            for shard in &mut r.shards {
                shard.queue_wait_p99_us = 0.0;
                shard.admit_stalls = 0;
                shard.max_queue_depth = 0;
                shard.runs = 0;
                shard.wake_ups = 0;
            }
            r
        };
        assert_eq!(untimed(&a), untimed(&b));
        let snap = telemetry.snapshot();
        let hist_count = |name: &str| {
            snap.registry
                .histograms
                .iter()
                .filter(|(k, _)| k.name == name)
                .map(|(_, h)| h.count)
                .sum::<u64>()
        };
        assert_eq!(hist_count(stage::SERVE_EXECUTE), 40);
        assert!(hist_count(stage::SERVE_QUEUE_WAIT) > 0);
        let admitted: u64 = snap
            .registry
            .counters
            .iter()
            .filter(|(k, _)| k.name == "serve.admitted")
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(admitted, 40);
        // No trigger fired: nothing latched.
        assert!(telemetry.flight().last_dump().is_none());
    }

    #[test]
    fn open_loop_never_blocks_and_accounts_rejections() {
        // Queries that cost real time: every a-b-a path of a Barabási–Albert
        // graph, enumerated in full. One execution outlasts the whole burst
        // of 30 back-to-back injections, so one worker behind a 2-deep queue
        // must reject most arrivals immediately instead of blocking the
        // driver.
        let graph = barabasi_albert(
            GeneratorConfig {
                vertices: 600,
                label_count: 2,
                seed: 11,
            },
            3,
        )
        .unwrap();
        let mut part = Partitioning::new(4, graph.vertex_count()).unwrap();
        for (i, v) in graph.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new((i % 4) as u32)).unwrap();
        }
        let store = Arc::new(ShardedStore::from_parts(&graph, &part));
        let workload = Workload::uniform(vec![PatternQuery::path(
            QueryId::new(0),
            &[l(0), l(1), l(0)],
        )
        .unwrap()])
        .unwrap();
        let config = ServeConfig::new(1)
            .with_queue_capacity(2)
            .with_mode(QueryMode::FullEnumeration);
        let engine = ServeEngine::new(config);
        let request = QueryRequest::workload(30).with_seed(5);
        let (report, admitted) = engine.open_loop(&store, &workload, request, |inj| {
            let mut admitted = 0usize;
            loop {
                match inj.inject_next(None) {
                    Admission::Admitted { .. } => admitted += 1,
                    Admission::Rejected { .. } => {}
                    Admission::Exhausted => break,
                }
            }
            admitted
        });
        assert_eq!(report.queries, 30);
        assert_eq!(report.error_budget.requests, 30);
        assert_eq!(report.error_budget.rejected, 30 - admitted);
        // Every issued request appears in the aggregate, executed or not.
        assert_eq!(report.aggregate.queries_executed, 30);
        assert!(
            report.error_budget.rejected > 0,
            "a 2-deep queue must reject under a 30-request burst"
        );
        // Throughput is goodput: the rejected arrivals were issued, not
        // served.
        let issued_qps = report.queries as f64 / (report.wall_clock_us / 1e6);
        assert!(report.wall_clock_qps() < issued_qps);
    }

    #[test]
    fn open_loop_completions_and_shed_accounting() {
        let (store, workload) = fixture();
        let engine = ServeEngine::new(rooted(2));
        let request = QueryRequest::workload(20).with_seed(7);
        let (report, (completed, shed)) = engine.open_loop(&store, &workload, request, |inj| {
            for _ in 0..10 {
                assert!(matches!(inj.inject_next(None), Admission::Admitted { .. }));
            }
            let mut shed = 0usize;
            while inj.shed_next().is_some() {
                shed += 1;
            }
            assert!(matches!(inj.inject_next(None), Admission::Exhausted));
            while inj.outstanding() > 0 {
                inj.pump_until(Instant::now() + Duration::from_millis(5));
            }
            let mut completed: Vec<u64> = inj.drain_completions().iter().map(|c| c.seq).collect();
            completed.sort_unstable();
            (completed, shed)
        });
        assert_eq!(shed, 10);
        // One `Completion` per admitted `seq`: an open-loop run's
        // completions are never grouped.
        assert_eq!(completed, (0..10).collect::<Vec<u64>>());
        assert_eq!(report.queries, 20);
        assert_eq!(report.error_budget.requests, 20);
        assert_eq!(report.error_budget.rejected, 10);
        assert_eq!(report.aggregate.queries_executed, 20);
        assert_eq!(report.query_counts.iter().sum::<usize>(), 20);
    }

    #[test]
    fn open_loop_and_closed_loop_drivers_agree() {
        let (store, workload) = fixture();
        let modes = [
            QueryMode::Rooted { seed_count: 4 },
            QueryMode::FullEnumeration,
        ];
        for mode in modes {
            for workers in [1, 4] {
                // The queue holds the whole load, so back-to-back
                // non-blocking injection never rejects.
                let config = ServeConfig::new(workers)
                    .with_mode(mode)
                    .with_queue_capacity(64);
                let engine = ServeEngine::new(config);
                let request = QueryRequest::workload(40)
                    .with_seed(8)
                    .collect_matches(true);
                let ctx = RequestContext::unbounded();
                let inject_all = |inj: &mut OpenLoopInjector<'_>| {
                    while inj.inject_next(None) != Admission::Exhausted {}
                };
                let (closed, response) = engine.run(&store, &workload, request, &ctx);
                let (open, ()) = engine.open_loop(&store, &workload, request, inject_all);
                let (_, open_response, ()) = engine.drive(
                    Source::Pinned(&store),
                    &workload,
                    request,
                    &ctx,
                    true,
                    inject_all,
                );
                assert_eq!(closed.aggregate, open.aggregate);
                assert_eq!(closed.query_counts, open.query_counts);
                assert_eq!(closed.error_budget, open.error_budget);
                assert_eq!(closed.error_budget.rejected, 0);
                let per_shard = |r: &ServeReport| -> Vec<usize> {
                    r.shards.iter().map(|s| s.queries).collect()
                };
                assert_eq!(per_shard(&closed), per_shard(&open));
                assert_eq!(response.metrics, open_response.metrics);
                let a: Vec<_> = response.into_cursor().collect();
                let b: Vec<_> = open_response.into_cursor().collect();
                assert_eq!(a, b, "{mode:?} x {workers}: cursor contents");
                assert!(!a.is_empty());
            }
        }
    }

    #[test]
    fn epoch_runs_route_and_execute_on_the_epoch_current_at_admission() {
        let (_, workload) = fixture();
        let epochs = EpochStore::new(path_store(|i| (i / 3) as u32));
        let engine = ServeEngine::new(rooted(4));
        let request = QueryRequest::workload(60).with_seed(5);
        let ctx = RequestContext::unbounded();
        let (first, _) = engine.run(&epochs, &workload, request, &ctx);
        assert_eq!(first.epochs_observed, vec![1]);
        // Publish a scattered placement: the next run must route against it
        // (per-shard counts equal a pinned run on the new snapshot) and
        // execute on it, with no re-pin cadence to tune.
        let published = epochs.publish(path_store(|i| (i % 4) as u32));
        let (second, _) = engine.run(&epochs, &workload, request, &ctx);
        assert_eq!(second.epochs_observed, vec![published]);
        let (pinned, _) = engine.run(&epochs.load(), &workload, request, &ctx);
        assert_eq!(second.aggregate, pinned.aggregate);
        let per_shard =
            |r: &ServeReport| -> Vec<usize> { r.shards.iter().map(|s| s.queries).collect() };
        assert_eq!(per_shard(&second), per_shard(&pinned));
        assert_ne!(first.aggregate, second.aggregate);
    }

    #[test]
    fn report_carries_wall_clock_qps() {
        let (store, workload) = fixture();
        let report = serve(&ServeEngine::new(rooted(2)), &store, &workload, 30, 1);
        assert!(report.wall_clock_qps() > 0.0);
        let derived = report.queries as f64 / (report.wall_clock_us / 1e6);
        assert!((report.wall_clock_qps() - derived).abs() < 1e-9);
    }

    /// A closed-loop run serves shard 0 on the calling thread and starts a
    /// thread only for the others. At every worker count, from a pinned
    /// snapshot and from an epoch store, the aggregate and the cursor are
    /// the sequential engine's; shard 0 executed queries without a hand-off
    /// (no run taken, no wake-up, no inbox); and an open-loop run of the
    /// same request, whose driver's thread paces injection, still hands
    /// shard 0 its queries on a thread of its own.
    #[test]
    fn the_calling_thread_serves_shard_0_on_closed_loop_runs() {
        let (store, workload) = fixture();
        let epochs = EpochStore::new(path_store(|i| (i / 3) as u32));
        let graph = path_graph(12, &[l(0), l(1), l(2)]);
        let mut part = Partitioning::new(4, 12).unwrap();
        for (i, v) in graph.vertices_sorted().into_iter().enumerate() {
            part.assign(v, PartitionId::new((i / 3) as u32)).unwrap();
        }
        let sequential_store = PartitionedStore::new(graph, part);
        let request = QueryRequest::workload(120)
            .with_seed(17)
            .collect_matches(true);
        let ctx = RequestContext::unbounded();
        for workers in [1, 2, 3, 4] {
            // Inboxes that hold the whole load: back-to-back open-loop
            // injection never rejects.
            let engine = ServeEngine::new(rooted(workers).with_queue_capacity(120));
            let (metrics, cursor) = engine
                .run_sequential(&sequential_store, &workload, request, &ctx)
                .into_parts();
            let cursor: Vec<_> = cursor.collect();
            assert!(!cursor.is_empty());
            let runs = [
                engine.run(&store, &workload, request, &ctx),
                engine.run(&epochs, &workload, request, &ctx),
            ];
            for (source, (report, response)) in ["pinned", "epochs"].into_iter().zip(runs) {
                let case = format!("{workers} workers, {source}");
                assert_eq!(report.aggregate, metrics, "{case}");
                assert_eq!(response.into_cursor().collect::<Vec<_>>(), cursor, "{case}");
                let shard = &report.shards[0];
                assert!(shard.queries > 0, "{case}: {shard:?}");
                assert_eq!(
                    (shard.runs, shard.wake_ups, shard.max_queue_depth),
                    (0, 0, 0),
                    "{case}: {shard:?}"
                );
            }
            let (open, ()) = engine.open_loop(&store, &workload, request, |inj| {
                while inj.inject_next(None) != Admission::Exhausted {}
            });
            assert_eq!(open.error_budget.rejected, 0);
            assert_eq!(open.aggregate, metrics, "{workers} workers, open loop");
            let shard = &open.shards[0];
            assert!(
                shard.queries > 0 && shard.runs > 0,
                "{workers} workers: {shard:?}"
            );
        }
    }

    /// A panic on the calling thread — which runs the matcher, and the
    /// driver — reaches the caller: the workers it started are not left
    /// parked on their inboxes while the scope waits to join them.
    #[test]
    fn a_panic_on_the_calling_thread_reaches_the_caller() {
        let (store, workload) = fixture();
        let (sender, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let engine = ServeEngine::new(rooted(3));
            let request = QueryRequest::workload(40).with_seed(2);
            let ctx = RequestContext::unbounded();
            let unwound = std::panic::catch_unwind(|| {
                engine.drive(
                    Source::Pinned(&store),
                    &workload,
                    request,
                    &ctx,
                    false,
                    |inj| {
                        for _ in 0..20 {
                            inj.admit_next();
                        }
                        panic!("the driver fails mid-run");
                    },
                )
            });
            let _ = sender.send(unwound.is_err());
        });
        let unwound = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("the run hung instead of unwinding");
        assert!(unwound, "the panic must reach the caller");
    }

    /// The paper example on a 2-partition split behind a sequential
    /// full-enumeration engine, with or without a plan cache.
    fn sequential_fixture(cache: bool) -> (ServeEngine, PartitionedStore, Workload) {
        let graph = paper_example_graph();
        let workload = paper_example_workload();
        let mut part = Partitioning::new(2, 8).unwrap();
        for v in 1..=8u64 {
            part.assign(VertexId::new(v), PartitionId::new((v % 2) as u32))
                .unwrap();
        }
        let config = ServeConfig::new(1).with_mode(QueryMode::FullEnumeration);
        let mut engine = ServeEngine::new(config);
        if cache {
            let stats = GraphStatistics::from_graph(&graph);
            engine = engine.with_plan_cache(Arc::new(PlanCache::compile(
                &QueryPlanner::default(),
                &workload,
                &stats,
            )));
        }
        (engine, PartitionedStore::new(graph, part), workload)
    }

    fn run_sequential(
        (engine, store, workload): &(ServeEngine, PartitionedStore, Workload),
        request: QueryRequest,
    ) -> QueryResponse {
        engine.run_sequential(store, workload, request, &RequestContext::unbounded())
    }

    #[test]
    fn workload_requests_match_the_legacy_executor_exactly() {
        let engine = sequential_fixture(false);
        let request = QueryRequest::workload(40).with_seed(3);
        let response = run_sequential(&engine, request);
        // The legacy executor: each scheduled sample through its query's
        // legacy plan, one matcher run at a time.
        let (_, store, workload) = &engine;
        let mut legacy = ExecutionMetrics::default();
        for (index, root_seed) in request_schedule(workload, &request) {
            let plan = QueryPlan::legacy(&workload.queries()[index]);
            let opts = ExecOptions {
                root_seed,
                ..ExecOptions::default()
            };
            legacy.merge(&execute_plan(store, &plan, &opts).metrics);
        }
        assert_eq!(response.metrics, legacy);
        assert_eq!(response.into_cursor().remaining(), 0);
    }

    #[test]
    fn single_query_requests_collect_embeddings() {
        let engine = sequential_fixture(true);
        let id = engine.2.queries()[0].id();
        let response = run_sequential(&engine, QueryRequest::query(id).collect_matches(true));
        assert_eq!(response.metrics.queries_executed, 1);
        let found = response.metrics.matches_found;
        assert!(found > 0);
        let cursor = response.into_cursor();
        assert_eq!(cursor.remaining(), found);
        assert_eq!(cursor.len(), found);
        assert_eq!(cursor.count(), found);
    }

    #[test]
    fn unknown_query_ids_execute_nothing() {
        let engine = sequential_fixture(true);
        let response = run_sequential(
            &engine,
            QueryRequest::query(QueryId::new(404)).collect_matches(true),
        );
        assert_eq!(response.metrics, ExecutionMetrics::default());
        let cursor = response.into_cursor();
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn request_overrides_mode_and_limit() {
        let engine = sequential_fixture(true);
        let id = engine.2.queries()[0].id();
        let full = run_sequential(&engine, QueryRequest::query(id));
        let limited = run_sequential(&engine, QueryRequest::query(id).with_match_limit(1));
        assert_eq!(limited.metrics.matches_found, 1);
        assert!(limited.matches_limited());
        assert!(limited.metrics.total_traversals < full.metrics.total_traversals);
        let rooted = run_sequential(
            &engine,
            QueryRequest::query(id)
                .with_mode(QueryMode::Rooted { seed_count: 1 })
                .with_seed(5),
        );
        assert!(rooted.metrics.total_traversals <= full.metrics.total_traversals);
        // Budgets flag the run.
        let budgeted = run_sequential(&engine, QueryRequest::query(id).with_traversal_budget(1));
        assert!(budgeted.matches_limited());
    }

    #[test]
    fn plan_cache_is_exposed_and_reused() {
        let engine = sequential_fixture(true);
        let cache = engine.0.plan_cache().expect("cache wired in").clone();
        let hits_before = cache.hits();
        run_sequential(&engine, QueryRequest::workload(10).with_seed(1));
        // One resolution per *distinct* sampled query per run, not per
        // sample — the amortized contract every engine shares.
        let first_run = cache.hits() - hits_before;
        assert!(first_run >= 1 && first_run <= engine.2.len());
        run_sequential(&engine, QueryRequest::workload(10).with_seed(1));
        assert_eq!(cache.hits(), hits_before + 2 * first_run, "deterministic");
    }
}
