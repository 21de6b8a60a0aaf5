//! The shard transport: message-passing between the serving coordinator and
//! its shard workers.
//!
//! Before this layer existed, "distributed" serving was a rewrite: workers
//! shared one address space, reached into shared queues and peeked at a
//! shared `RwLock` for epoch swaps. [`ShardTransport`] puts a wire-shaped
//! boundary in between. Everything that crosses it is a [`ShardMsg`] — a
//! routed query request, its result, a per-shard metric report, an
//! epoch-publication notice — and every payload is plain owned data
//! (serialising it is the socket transport's job when it lands): seeds,
//! metric structs, embeddings, relative deadlines in microseconds. **No
//! `Arc<ShardedStore>` or any other shared-memory handle crosses the
//! trait**; a worker's snapshot is handed
//! to it at spawn and refreshed when an [`ShardMsg::EpochPublished`] notice
//! arrives, never by dereferencing shared state mid-run. Swapping the
//! in-process implementation ([`InProcTransport`]) for a socket is a
//! transport change, not an engine rewrite — which is the whole point.
//!
//! The in-process implementation is a hub: one bounded `ShardQueue` per
//! threaded worker (coordinator → worker; shard 0 of a closed-loop run is
//! served on the coordinator's thread and has none) plus one shared inbox
//! every worker sends into (worker → coordinator). Sends are deadline-aware
//! — backpressure can reject instead of wedging admission. Nothing on the
//! per-message path allocates or grows: every queue buffer, and the buffer
//! each end trades with it, is allocated whole when the hub is built, on the
//! thread that builds it.
//!
//! **Hand-offs move in runs.** Every lock acquisition on a queue, and every
//! wake-up of a parked peer, is paid per hand-off, not per message, so the
//! trait moves runs: [`ShardTransport::send_all`] appends as much of a run
//! as the peer's inbox has room for in one push, and
//! [`ShardTransport::recv_all`] takes a whole inbox in one pop, trading
//! buffers with the queue. A worker takes its whole inbox, runs it, and
//! sends its completions back as one group; the coordinator admits a
//! worker's staged queries as one run and takes its inbox whole. A group's
//! [`ShardMsg::Done`]s are fewer than its queries: one [`QueryDoneMsg`]
//! covers a stretch of executions (its `metrics.queries_executed` says how
//! many), and a new one starts only at an execution the coordinator must
//! hear of by `seq` — one that collected embeddings or came back
//! `deadline_exceeded` or `cancelled`, one on another epoch, or any
//! execution of an open-loop run, whose completions are timed one by one.
//!
//! Wait accounting follows the run: a message's queue wait ends when its
//! endpoint hands it to the receiver — for a run, at the one clock read
//! that hands over the whole run — and the per-shard `queue_wait_p99`
//! figure is those waits, in a fixed-size histogram, on the worker ends.
//! Every message of one push carries that push's one stamp, so they all
//! waited alike: a take charges each push once, with
//! [`Histogram::record_n`] and the number of messages it carried, which
//! reads exactly as one record per message. The coordinator's end measures
//! nothing, so its messages are not even time-stamped. `queue_capacity`
//! bounds each worker's inbox; a worker holds at most one inbox more, the
//! run it took.
//!
//! Admission goes through the concrete [`InProcEndpoint`], not the trait:
//! `InProcEndpoint::try_send_run` (closed loop, a staged run) and
//! `InProcEndpoint::try_send_query` (open loop, one arrival) never wait,
//! and a refusal leaves the run where it was or hands the task back by
//! value, so a refused offer costs neither an allocation nor a system call.
//! A socket transport would provide its own pair; everything else the
//! engine and the workers do goes through [`ShardTransport`].

use crate::epoch::EpochSink;
use crate::queue::{PopError, PushError, ShardQueue};
use loom_obs::{stage, Histogram, Telemetry};
use loom_sim::executor::ExecutionMetrics;
use loom_sim::matcher::Embedding;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One routed query execution: coordinator → home worker.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTaskMsg {
    /// Position in the run's admission order; results are re-assembled (and
    /// the match cursor ordered) by this sequence number.
    pub seq: u64,
    /// Index into the workload's query list (both sides hold the same
    /// compiled plan table for the run).
    pub query: u32,
    /// Deterministic root seed (`run_seed + seq + 1`, the scheme every
    /// engine shares).
    pub root_seed: u64,
    /// Request deadline as microseconds since the run's start instant, or
    /// `None` for unbounded. `Instant`s do not serialise; a run-relative
    /// offset survives a wire hop and both ends reconstruct the absolute
    /// deadline from their copy of the run start.
    pub deadline_us: Option<u64>,
}

/// Finished executions: worker → coordinator. One message covers
/// `metrics.queries_executed` executions of one worker's run, on one epoch;
/// an execution with embeddings or a deadline or cancellation flag is one
/// message of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDoneMsg {
    /// Worker that executed the queries.
    pub worker: u32,
    /// Admission sequence of the first query covered (the only one, when
    /// the message carries embeddings or a flag).
    pub seq: u64,
    /// Epoch of the snapshot the queries executed against.
    pub epoch: u64,
    /// Metrics of the executions, merged.
    pub metrics: ExecutionMetrics,
    /// Collected embeddings in enumeration order (empty unless the request
    /// collects); the coordinator orders the cursor by `seq`.
    pub embeddings: Vec<Embedding>,
}

/// End-of-run shard summary: worker → coordinator, in reply to
/// [`ShardMsg::Finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReportMsg {
    /// Reporting worker.
    pub worker: u32,
    /// Queries the worker executed.
    pub queries: usize,
    /// Median wall-clock time messages sat in this worker's inbox, µs.
    pub queue_wait_p50_us: f64,
    /// 99th-percentile wall-clock inbox wait, µs.
    pub queue_wait_p99_us: f64,
    /// Deepest the worker's inbox got.
    pub max_inbox_depth: usize,
    /// Receives that took at least one message off the worker's inbox.
    pub runs: usize,
    /// Sends into the worker's inbox that woke it from a park.
    pub wake_ups: usize,
}

/// Everything that crosses a [`ShardTransport`]: plain serialisable data,
/// never a shared-memory handle.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardMsg {
    /// Coordinator → worker: execute one routed query.
    Query(QueryTaskMsg),
    /// Worker → coordinator: queries finished.
    Done(QueryDoneMsg),
    /// Worker → coordinator: final shard summary, in reply to `Finish`.
    Report(ShardReportMsg),
    /// Broadcast: a new snapshot epoch is loadable. Workers re-pin on this
    /// notice instead of peeking at shared state.
    EpochPublished {
        /// The freshly published epoch number.
        epoch: u64,
    },
    /// Coordinator → worker: cooperatively cancel the current run's
    /// in-flight executions.
    Cancel,
    /// Coordinator → worker: no more work is coming; reply with `Report`
    /// and exit.
    Finish,
}

/// Why a send was refused; the undelivered message is handed back (boxed,
/// so the error stays pointer-sized on the happy path).
#[derive(Debug)]
pub enum TransportError {
    /// The peer's inbox stayed full past the send deadline (backpressure).
    Timeout(Box<ShardMsg>),
    /// The endpoint (or its peer) has shut down.
    Closed(Box<ShardMsg>),
}

/// Why a receive returned empty-handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// Nothing arrived before the deadline; the endpoint is still live.
    Timeout,
    /// The endpoint has shut down and its backlog is drained.
    Disconnected,
}

/// Counters and queue-wait quantiles one endpoint observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransportStats {
    /// Messages sent through this endpoint.
    pub sent: usize,
    /// Messages received by this endpoint.
    pub received: usize,
    /// Receives that took at least one message: `received / recv_runs` is
    /// the mean run.
    pub recv_runs: usize,
    /// Sends into this endpoint's receive queue that woke a parked receiver.
    pub recv_wake_ups: usize,
    /// Deepest this endpoint's receive queue got.
    pub max_recv_depth: usize,
    /// Median wall-clock time received messages spent queued, µs.
    pub queue_wait_p50_us: f64,
    /// 99th-percentile wall-clock time received messages spent queued, µs.
    pub queue_wait_p99_us: f64,
}

/// An object-safe, duplex message channel between the serving coordinator
/// and one shard worker.
///
/// The contract is deliberately wire-shaped: every [`ShardMsg`] payload is
/// plain owned data (serialising it is the socket transport's job when it
/// lands), deadlines are explicit per call, and the only shared state
/// between the two ends of a conversation is whatever the implementation
/// carries *inside* itself. An implementation backed by a
/// socket pair satisfies the same trait; the in-process one is
/// [`InProcTransport`].
pub trait ShardTransport: Send + Sync {
    /// Send a message, blocking under backpressure until `deadline`
    /// (`None` blocks indefinitely).
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] if the peer's inbox stayed full past the
    /// deadline, [`TransportError::Closed`] if the link is down; both hand
    /// the message back.
    fn send(&self, msg: ShardMsg, deadline: Option<Instant>) -> Result<(), TransportError>;

    /// Receive the next message, blocking until `deadline` (`None` blocks
    /// indefinitely).
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] if nothing arrived in time,
    /// [`RecvError::Disconnected`] once the link is down and drained.
    fn recv(&self, deadline: Option<Instant>) -> Result<ShardMsg, RecvError>;

    /// Receive every message that is waiting, as one run appended to `into`
    /// in arrival order, blocking until at least one arrives or `deadline`
    /// passes (`None` blocks indefinitely). The default takes one message;
    /// an implementation that can hand a whole inbox over at once should.
    ///
    /// # Errors
    ///
    /// As [`ShardTransport::recv`]; `into` is unchanged then.
    fn recv_all(
        &self,
        into: &mut VecDeque<ShardMsg>,
        deadline: Option<Instant>,
    ) -> Result<(), RecvError> {
        into.push_back(self.recv(deadline)?);
        Ok(())
    }

    /// [`ShardTransport::recv_all`] without waiting: whether anything was
    /// there to append.
    fn try_recv_all(&self, into: &mut VecDeque<ShardMsg>) -> bool {
        self.recv_all(into, Some(Instant::now())).is_ok()
    }

    /// Send `run`, in order, in as few hand-offs as the peer's inbox allows,
    /// blocking under backpressure until `deadline` (`None` blocks
    /// indefinitely). `run` is left empty.
    ///
    /// # Errors
    ///
    /// As [`ShardTransport::send`], at the first message refused: that one
    /// is handed back in the error and the rest stay in `run`, in order.
    fn send_all(
        &self,
        run: &mut VecDeque<ShardMsg>,
        deadline: Option<Instant>,
    ) -> Result<(), TransportError> {
        while let Some(msg) = run.pop_front() {
            self.send(msg, deadline)?;
        }
        Ok(())
    }

    /// Non-blocking send: deliver only if the peer's inbox has room right
    /// now. Used for notices that are safe to drop (epoch publications,
    /// cancellation nudges whose state also travels out-of-band).
    ///
    /// # Errors
    ///
    /// Same as [`ShardTransport::send`] with an immediate deadline.
    fn try_send(&self, msg: ShardMsg) -> Result<(), TransportError> {
        self.send(msg, Some(Instant::now()))
    }

    /// Tear down this endpoint's receive side: pending messages are still
    /// drained, further sends *to* this endpoint fail, and blocked receivers
    /// wake up.
    fn shutdown(&self);

    /// Counters and queue-wait quantiles this endpoint observed. The
    /// default is all-zero for implementations that do not measure.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// A queued message plus, when the receiving end measures queue wait, its
/// enqueue instant. The envelope is in-process plumbing, not part of the
/// wire shape — a socket implementation would timestamp on receipt instead.
#[derive(Debug)]
struct Envelope {
    msg: ShardMsg,
    enqueued: Option<Instant>,
}

/// The receive side's wait accounting, present on the ends whose waits are
/// reported (worker ends, and both ends of a [`InProcTransport::pair`]).
#[derive(Debug)]
struct WaitStats {
    /// This run's waits in nanoseconds: fixed size, nothing kept per sample.
    run: Histogram,
    /// Live telemetry: each wait also lands, in µs, in the shared
    /// `serve.queue_wait{shard}` histogram, so the series is scrapable
    /// mid-run instead of only in the end-of-run report.
    live: Option<Arc<Histogram>>,
}

impl WaitStats {
    fn new(live: Option<Arc<Histogram>>) -> Self {
        Self {
            run: Histogram::new(),
            live,
        }
    }

    /// Charge `n` messages stamped `enqueued` and handed over at `now`: one
    /// wait, recorded once with its count.
    fn charge(&self, now: Instant, enqueued: Instant, n: u64) {
        let waited = now.saturating_duration_since(enqueued);
        self.run.record_n(waited.as_nanos() as u64, n);
        if let Some(live) = &self.live {
            // Whole microseconds, rounded to the nearest.
            let us = (waited.as_secs_f64() * 1e6).round() as u64;
            live.record_n(us, n);
        }
    }

    /// Charge a run handed over at `now`. The envelopes of one push carry
    /// one stamp and lie side by side in the queue, so each push's wait is
    /// recorded once, with the number of messages it carried.
    fn charge_run<'e>(&self, now: Instant, run: impl IntoIterator<Item = &'e Envelope>) {
        let mut stamps = run.into_iter().filter_map(|envelope| envelope.enqueued);
        let Some(mut stamp) = stamps.next() else {
            return;
        };
        let mut n = 1;
        for next in stamps {
            if next == stamp {
                n += 1;
            } else {
                self.charge(now, stamp, n);
                (stamp, n) = (next, 1);
            }
        }
        self.charge(now, stamp, n);
    }
}

/// One end of an in-process shard link: a pair of bounded `ShardQueue`s
/// (send side and receive side) plus receive-wait accounting.
#[derive(Debug)]
pub struct InProcEndpoint {
    tx: Arc<ShardQueue<Envelope>>,
    rx: Arc<ShardQueue<Envelope>>,
    /// The buffer a whole-inbox receive trades with `rx`'s. Empty between
    /// receives, and taken out of its mutex for a wait, so the lock is never
    /// held across one. Allocated whole with the endpoint, as `rx`'s own
    /// buffer is with the queue: the two trade places for the whole run, so
    /// neither is grown by the thread that happens to push into it (a buffer
    /// a worker grows lives in that worker's malloc arena and is freed by
    /// the coordinator).
    spare: parking_lot::Mutex<VecDeque<Envelope>>,
    sent: AtomicUsize,
    received: AtomicUsize,
    recv_runs: AtomicUsize,
    /// Whether the peer measures queue wait, i.e. whether sends are stamped.
    stamp_sends: bool,
    waits: Option<WaitStats>,
}

impl InProcEndpoint {
    fn new(
        tx: Arc<ShardQueue<Envelope>>,
        rx: Arc<ShardQueue<Envelope>>,
        stamp_sends: bool,
        waits: Option<WaitStats>,
    ) -> Self {
        let spare = parking_lot::Mutex::new(VecDeque::with_capacity(rx.capacity()));
        Self {
            tx,
            rx,
            spare,
            sent: AtomicUsize::new(0),
            received: AtomicUsize::new(0),
            recv_runs: AtomicUsize::new(0),
            stamp_sends,
            waits,
        }
    }

    /// Deepest the *send-side* queue (the peer's inbox) got — the
    /// coordinator reads this per worker for the serving report.
    pub(crate) fn peer_inbox_depth(&self) -> usize {
        self.tx.max_depth()
    }

    /// The enqueue stamp of a send made now: one clock read, and only when
    /// the peer measures waits.
    fn stamp(&self) -> Option<Instant> {
        self.stamp_sends.then(Instant::now)
    }

    fn envelope(&self, msg: ShardMsg) -> Envelope {
        Envelope {
            msg,
            enqueued: self.stamp(),
        }
    }

    /// Offer one routed query to the peer without blocking — open-loop
    /// admission's primitive. Unlike [`ShardTransport::try_send`] a refusal
    /// hands the task back unboxed: an open-loop driver past the knee is
    /// refused about once per arrival and must not pay an allocation for it.
    ///
    /// # Errors
    ///
    /// [`PushError::Timeout`] when the peer's inbox is full,
    /// [`PushError::Closed`] when the link is down; both return the task.
    pub(crate) fn try_send_query(&self, task: QueryTaskMsg) -> Result<(), PushError<QueryTaskMsg>> {
        self.tx
            .try_push(self.envelope(ShardMsg::Query(task)))
            .map(|()| {
                self.sent.fetch_add(1, Ordering::Relaxed);
            })
            .map_err(|refused| {
                refused.map(|envelope| match envelope.msg {
                    ShardMsg::Query(task) => task,
                    _ => unreachable!("the queue hands back the envelope it was offered"),
                })
            })
    }

    /// Offer the front of `run` to the peer without blocking — closed-loop
    /// admission's primitive: as many items as the peer's inbox has room
    /// for, each made a message by `msg`, in one push stamped by one clock
    /// read. How many went; what did not fit stays at the front of `run`.
    ///
    /// # Errors
    ///
    /// [`PushError::Timeout`] when the peer's inbox is full,
    /// [`PushError::Closed`] when the link is down; `run` is untouched.
    pub(crate) fn try_send_run<S>(
        &self,
        run: &mut VecDeque<S>,
        mut msg: impl FnMut(S) -> ShardMsg,
    ) -> Result<usize, PushError<()>> {
        let enqueued = self.stamp();
        let sent = self.tx.try_push_run(run, |item| Envelope {
            msg: msg(item),
            enqueued,
        })?;
        self.sent.fetch_add(sent, Ordering::Relaxed);
        Ok(sent)
    }

    /// Take the receive queue's whole backlog — waiting for it until
    /// `deadline` when `wait` is set — and hand it to `into` as one run.
    fn take_all(
        &self,
        into: &mut VecDeque<ShardMsg>,
        wait: Option<Option<Instant>>,
    ) -> Result<(), RecvError> {
        let mut run = std::mem::take(&mut *self.spare.lock());
        let taken = match wait {
            None => {
                if self.rx.try_pop_all(&mut run) {
                    Ok(())
                } else {
                    Err(RecvError::Timeout)
                }
            }
            Some(deadline) => {
                self.rx
                    .pop_all_deadline(&mut run, deadline)
                    .map_err(|err| match err {
                        PopError::Timeout => RecvError::Timeout,
                        PopError::Closed => RecvError::Disconnected,
                    })
            }
        };
        if taken.is_ok() {
            self.received.fetch_add(run.len(), Ordering::Relaxed);
            self.recv_runs.fetch_add(1, Ordering::Relaxed);
            // One clock read hands the whole run over.
            if let Some(waits) = &self.waits {
                waits.charge_run(Instant::now(), &run);
            }
            into.extend(run.drain(..).map(|envelope| envelope.msg));
        }
        *self.spare.lock() = run;
        taken
    }
}

impl ShardTransport for InProcEndpoint {
    fn send(&self, msg: ShardMsg, deadline: Option<Instant>) -> Result<(), TransportError> {
        match self.tx.push_deadline(self.envelope(msg), deadline) {
            Ok(()) => {
                self.sent.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(PushError::Timeout(envelope)) => {
                Err(TransportError::Timeout(Box::new(envelope.msg)))
            }
            Err(PushError::Closed(envelope)) => Err(TransportError::Closed(Box::new(envelope.msg))),
        }
    }

    fn send_all(
        &self,
        run: &mut VecDeque<ShardMsg>,
        deadline: Option<Instant>,
    ) -> Result<(), TransportError> {
        while !run.is_empty() {
            let enqueued = self.stamp();
            match self
                .tx
                .push_run(run, |msg| Envelope { msg, enqueued }, deadline)
            {
                Ok(sent) => {
                    self.sent.fetch_add(sent, Ordering::Relaxed);
                }
                Err(refused) => {
                    let msg = Box::new(run.pop_front().expect("a refused run is left untouched"));
                    return Err(match refused {
                        PushError::Timeout(()) => TransportError::Timeout(msg),
                        PushError::Closed(()) => TransportError::Closed(msg),
                    });
                }
            }
        }
        Ok(())
    }

    fn recv(&self, deadline: Option<Instant>) -> Result<ShardMsg, RecvError> {
        let envelope = self.rx.pop_deadline(deadline).map_err(|err| match err {
            PopError::Timeout => RecvError::Timeout,
            PopError::Closed => RecvError::Disconnected,
        })?;
        self.received.fetch_add(1, Ordering::Relaxed);
        self.recv_runs.fetch_add(1, Ordering::Relaxed);
        if let Some(waits) = &self.waits {
            waits.charge_run(Instant::now(), [&envelope]);
        }
        Ok(envelope.msg)
    }

    fn recv_all(
        &self,
        into: &mut VecDeque<ShardMsg>,
        deadline: Option<Instant>,
    ) -> Result<(), RecvError> {
        self.take_all(into, Some(deadline))
    }

    fn try_recv_all(&self, into: &mut VecDeque<ShardMsg>) -> bool {
        self.take_all(into, None).is_ok()
    }

    fn shutdown(&self) {
        self.rx.close();
    }

    fn stats(&self) -> TransportStats {
        // Nearest rank to the histogram's 1/32; an endpoint that received
        // (or measured) nothing reports 0.
        let waits = self.waits.as_ref().map(|w| w.run.snapshot());
        let quantile_us = |q: f64| waits.as_ref().map_or(0.0, |w| w.quantile(q) as f64 / 1e3);
        TransportStats {
            sent: self.sent.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            recv_runs: self.recv_runs.load(Ordering::Relaxed),
            recv_wake_ups: self.rx.consumer_wake_ups(),
            max_recv_depth: self.rx.max_depth(),
            queue_wait_p50_us: quantile_us(0.50),
            queue_wait_p99_us: quantile_us(0.99),
        }
    }
}

/// An [`EpochSink`] that turns each publication into a non-blocking
/// [`ShardMsg::EpochPublished`] notice on the coordinator's inbox. Dropped
/// when the inbox is full or closed — a notice only says "something newer
/// exists" and is superseded by the next publish.
#[derive(Debug)]
pub(crate) struct InboxNoticeSink {
    inbox: Arc<ShardQueue<Envelope>>,
}

impl EpochSink for InboxNoticeSink {
    fn notify(&self, epoch: u64) {
        // The coordinator's end measures no waits: no stamp, no clock.
        let _ = self.inbox.try_push(Envelope {
            msg: ShardMsg::EpochPublished { epoch },
            enqueued: None,
        });
    }
}

/// The wired-up in-process transport for one serving run: one coordinator
/// endpoint per threaded worker plus the matching worker endpoints. All
/// worker→coordinator traffic lands in a single shared inbox (the
/// [`ShardQueue`] is multi-producer), which every coordinator endpoint
/// receives from.
#[derive(Debug)]
pub(crate) struct InProcHub {
    /// Coordinator-side endpoints, one per threaded worker in worker order:
    /// each sends to its worker's inbox and receives from the shared
    /// coordinator inbox (the engine receives on the first; any would do).
    pub coordinator: Vec<InProcEndpoint>,
    /// Worker-side endpoints, in the same order: each receives from its own
    /// inbox and sends to the shared coordinator inbox.
    pub workers: Vec<InProcEndpoint>,
    inbox: Arc<ShardQueue<Envelope>>,
}

impl InProcHub {
    /// An [`EpochSink`] feeding epoch-publication notices into the
    /// coordinator's inbox.
    pub(crate) fn notice_sink(&self) -> Arc<InboxNoticeSink> {
        Arc::new(InboxNoticeSink {
            inbox: Arc::clone(&self.inbox),
        })
    }

    /// A guard that closes every queue of the hub when it is dropped: each
    /// worker's inbox and the coordinator's. A worker parked on its inbox
    /// wakes, takes what is left and exits, and a worker's send into the
    /// coordinator's inbox fails instead of waiting for room. Dropped at the
    /// end of a run, or by the unwinding of a panic on the coordinator's
    /// thread, it lets the scope that spawned the workers join them.
    pub(crate) fn close_on_drop(&self) -> impl Drop + '_ {
        struct Closing<'h>(&'h InProcHub);
        impl Drop for Closing<'_> {
            fn drop(&mut self) {
                self.0.inbox.close();
                for link in &self.0.coordinator {
                    link.tx.close();
                }
            }
        }
        Closing(self)
    }
}

/// Factory for the in-process [`ShardTransport`] implementation.
#[derive(Debug, Clone, Copy)]
pub struct InProcTransport;

impl InProcTransport {
    /// Build a coordinator↔workers hub for the workers in `threaded` (the
    /// ones that run on threads of their own): one bounded inbox of
    /// `capacity` entries each, plus a shared coordinator inbox sized so
    /// workers returning results rarely wait for a coordinator that is
    /// momentarily busy routing. With `telemetry`, each worker endpoint's
    /// receives charge their queue wait into that shard's
    /// `serve.queue_wait{shard}` histogram; `None` builds the
    /// uninstrumented hub.
    pub(crate) fn hub_observed(
        threaded: Range<usize>,
        capacity: usize,
        telemetry: Option<&Telemetry>,
    ) -> InProcHub {
        let capacity = capacity.max(1);
        // Room for every worker's whole inbox's worth of results plus a
        // report, so a worker's group of completions (at most the inbox it
        // took) goes in one push past a coordinator that is busy routing.
        // Liveness does not rest on the size: a worker blocked on a full
        // coordinator inbox stops taking queries, its own inbox fills, and a
        // coordinator refused there waits on — and so empties — this one.
        let inbox = Arc::new(ShardQueue::new(threaded.len() * (capacity + 2)));
        let mut coordinator = Vec::with_capacity(threaded.len());
        let mut worker_ends = Vec::with_capacity(threaded.len());
        for w in threaded {
            let worker_inbox = Arc::new(ShardQueue::new(capacity));
            coordinator.push(InProcEndpoint::new(
                Arc::clone(&worker_inbox),
                Arc::clone(&inbox),
                true,
                None,
            ));
            let live = telemetry.map(|t| t.shard_histogram(stage::SERVE_QUEUE_WAIT, w as u32));
            worker_ends.push(InProcEndpoint::new(
                Arc::clone(&inbox),
                worker_inbox,
                false,
                Some(WaitStats::new(live)),
            ));
        }
        InProcHub {
            coordinator,
            workers: worker_ends,
            inbox,
        }
    }

    /// A simple duplex endpoint pair (a ↔ b) for tests and tools.
    pub fn pair(capacity: usize) -> (InProcEndpoint, InProcEndpoint) {
        let ab = Arc::new(ShardQueue::new(capacity.max(1)));
        let ba = Arc::new(ShardQueue::new(capacity.max(1)));
        let waits = || Some(WaitStats::new(None));
        (
            InProcEndpoint::new(Arc::clone(&ab), Arc::clone(&ba), true, waits()),
            InProcEndpoint::new(ba, ab, true, waits()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The trait must stay object-safe: the worker loop takes
    /// `&dyn ShardTransport`.
    #[test]
    fn shard_transport_is_object_safe() {
        let (a, _b) = InProcTransport::pair(2);
        let dynamic: &dyn ShardTransport = &a;
        dynamic.send(ShardMsg::Finish, None).unwrap();
        let _: Option<Box<dyn ShardTransport>> = None;
    }

    #[test]
    fn pair_roundtrips_messages_in_order() {
        let (a, b) = InProcTransport::pair(4);
        a.send(ShardMsg::EpochPublished { epoch: 7 }, None).unwrap();
        a.send(ShardMsg::Cancel, None).unwrap();
        assert_eq!(b.recv(None), Ok(ShardMsg::EpochPublished { epoch: 7 }));
        assert_eq!(b.recv(None), Ok(ShardMsg::Cancel));
        let stats = b.stats();
        assert_eq!(stats.received, 2);
        assert!(stats.queue_wait_p99_us >= stats.queue_wait_p50_us);
        assert_eq!(a.stats().sent, 2);
    }

    #[test]
    fn sends_time_out_under_backpressure_and_fail_after_shutdown() {
        let (a, b) = InProcTransport::pair(1);
        a.send(ShardMsg::Finish, None).unwrap();
        let deadline = Instant::now() + Duration::from_millis(5);
        match a.send(ShardMsg::Cancel, Some(deadline)) {
            Err(TransportError::Timeout(msg)) => assert_eq!(*msg, ShardMsg::Cancel),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(matches!(
            a.try_send(ShardMsg::Cancel),
            Err(TransportError::Timeout(_))
        ));
        // Shutdown closes b's receive side: the backlog drains, then sends
        // to b fail as Closed.
        b.shutdown();
        assert_eq!(b.recv(None), Ok(ShardMsg::Finish));
        assert_eq!(b.recv(None), Err(RecvError::Disconnected));
        match a.send(ShardMsg::Cancel, None) {
            Err(TransportError::Closed(msg)) => {
                assert_eq!(*msg, ShardMsg::Cancel);
            }
            other => panic!("expected closed, got {other:?}"),
        }
    }

    #[test]
    fn recv_deadline_distinguishes_timeout_from_disconnect() {
        let (a, b) = InProcTransport::pair(2);
        let deadline = Instant::now() + Duration::from_millis(5);
        assert_eq!(b.recv(Some(deadline)), Err(RecvError::Timeout));
        a.send(ShardMsg::Finish, None).unwrap();
        assert_eq!(
            b.recv(Some(Instant::now() + Duration::from_secs(5))),
            Ok(ShardMsg::Finish)
        );
    }

    #[test]
    fn hub_routes_worker_traffic_into_one_coordinator_inbox() {
        let hub = InProcTransport::hub_observed(0..3, 4, None);
        assert_eq!(hub.coordinator.len(), 3);
        assert_eq!(hub.workers.len(), 3);
        for (w, endpoint) in hub.workers.iter().enumerate() {
            endpoint
                .send(
                    ShardMsg::Report(ShardReportMsg {
                        worker: w as u32,
                        queries: w,
                        queue_wait_p50_us: 0.0,
                        queue_wait_p99_us: 0.0,
                        max_inbox_depth: 0,
                        runs: 0,
                        wake_ups: 0,
                    }),
                    None,
                )
                .unwrap();
        }
        // Any coordinator endpoint receives from the shared inbox.
        let mut seen = Vec::new();
        for _ in 0..3 {
            match hub.coordinator[0].recv(None) {
                Ok(ShardMsg::Report(report)) => seen.push(report.worker),
                other => panic!("unexpected {other:?}"),
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        // Coordinator → worker links are private per worker.
        hub.coordinator[1].send(ShardMsg::Finish, None).unwrap();
        assert_eq!(hub.workers[1].recv(None), Ok(ShardMsg::Finish));
        assert_eq!(
            hub.workers[0].recv(Some(Instant::now())),
            Err(RecvError::Timeout)
        );
        assert!(hub.coordinator[1].peer_inbox_depth() >= 1);
    }

    fn task(seq: u64) -> QueryTaskMsg {
        QueryTaskMsg {
            seq,
            query: 0,
            root_seed: seq,
            deadline_us: None,
        }
    }

    #[test]
    fn refused_queries_come_back_unboxed_and_try_recv_never_waits() {
        let hub = InProcTransport::hub_observed(0..1, 1, None);
        let (coordinator, worker) = (&hub.coordinator[0], &hub.workers[0]);
        let mut got = VecDeque::new();
        assert_eq!(coordinator.try_send_query(task(1)), Ok(()));
        assert_eq!(
            coordinator.try_send_query(task(2)),
            Err(PushError::Timeout(task(2)))
        );
        assert!(!coordinator.try_recv_all(&mut got));
        assert!(worker.try_recv_all(&mut got));
        assert_eq!(
            got.drain(..).collect::<Vec<_>>(),
            [ShardMsg::Query(task(1))]
        );
        assert!(!worker.try_recv_all(&mut got));
        worker.send(ShardMsg::Finish, None).unwrap();
        assert!(coordinator.try_recv_all(&mut got));
        assert_eq!(got.drain(..).collect::<Vec<_>>(), [ShardMsg::Finish]);
        // Only the worker's end keeps waits, so only its messages carried a
        // stamp.
        assert!(worker.waits.as_ref().is_some_and(|w| w.run.count() == 1));
        assert!(coordinator.waits.is_none());
        assert_eq!(coordinator.stats().queue_wait_p99_us, 0.0);
        worker.shutdown();
        assert_eq!(
            coordinator.try_send_query(task(3)),
            Err(PushError::Closed(task(3)))
        );
    }

    /// `queue_capacity` bounds a worker's inbox, and a worker's end takes
    /// the whole inbox in one receive: the room comes back all at once, and
    /// a staged run goes in as far as it fits, in order, the rest kept.
    #[test]
    fn a_worker_end_takes_its_whole_inbox_in_one_receive() {
        let hub = InProcTransport::hub_observed(0..1, 3, None);
        let (coordinator, worker) = (&hub.coordinator[0], &hub.workers[0]);
        let mut staged: VecDeque<QueryTaskMsg> = (1..=5).map(task).collect();
        assert_eq!(
            coordinator.try_send_run(&mut staged, ShardMsg::Query),
            Ok(3)
        );
        assert_eq!(staged.iter().map(|t| t.seq).collect::<Vec<_>>(), [4, 5]);
        assert_eq!(
            coordinator.try_send_run(&mut staged, ShardMsg::Query),
            Err(PushError::Timeout(()))
        );
        assert_eq!(staged.len(), 2, "a refused run is left where it was");
        let mut run = VecDeque::new();
        worker.recv_all(&mut run, None).unwrap();
        assert_eq!(
            run.drain(..).collect::<Vec<_>>(),
            (1..=3)
                .map(|seq| ShardMsg::Query(task(seq)))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            coordinator.try_send_run(&mut staged, ShardMsg::Query),
            Ok(2)
        );
        assert!(staged.is_empty());
        assert_eq!(
            coordinator.try_send_run(&mut staged, ShardMsg::Query),
            Ok(0)
        );
        worker.recv_all(&mut run, None).unwrap();
        assert_eq!(run.len(), 2);
        assert_eq!(coordinator.peer_inbox_depth(), 3);
        // Every message taken had its wait charged, one clock read a run.
        let stats = worker.stats();
        assert_eq!(stats.received, 5);
        assert_eq!(coordinator.stats().sent, 5);
        assert!(worker.waits.as_ref().is_some_and(|w| w.run.count() == 5));
    }

    /// A group of completions goes back in as few pushes as the shared inbox
    /// allows, in order; a full inbox past the deadline hands back the first
    /// message it refused and keeps the rest.
    #[test]
    fn completions_go_back_as_one_group() {
        let (a, b) = InProcTransport::pair(2);
        let mut group: VecDeque<ShardMsg> = (0..3)
            .map(|epoch| ShardMsg::EpochPublished { epoch })
            .collect();
        match a.send_all(&mut group, Some(Instant::now())) {
            Err(TransportError::Timeout(msg)) => {
                assert_eq!(*msg, ShardMsg::EpochPublished { epoch: 2 })
            }
            other => panic!("expected a timeout on the third message, got {other:?}"),
        }
        assert!(group.is_empty());
        let mut got = VecDeque::new();
        b.recv_all(&mut got, None).unwrap();
        assert_eq!(got.len(), 2);
        let mut group: VecDeque<ShardMsg> = (3..5)
            .map(|epoch| ShardMsg::EpochPublished { epoch })
            .collect();
        a.send_all(&mut group, None).unwrap();
        b.recv_all(&mut got, None).unwrap();
        let epochs: Vec<u64> = got
            .iter()
            .map(|m| match m {
                ShardMsg::EpochPublished { epoch } => *epoch,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(epochs, [0, 1, 3, 4]);
        b.shutdown();
        assert_eq!(
            b.recv_all(&mut got, Some(Instant::now())),
            Err(RecvError::Disconnected)
        );
        assert!(matches!(
            a.send_all(&mut VecDeque::from([ShardMsg::Cancel]), None),
            Err(TransportError::Closed(_))
        ));
    }

    #[test]
    fn observed_hub_charges_queue_waits_into_the_shard_histogram() {
        let telemetry = Telemetry::new();
        let hub = InProcTransport::hub_observed(0..2, 4, Some(&telemetry));
        hub.coordinator[1].send(ShardMsg::Finish, None).unwrap();
        assert_eq!(hub.workers[1].recv(None), Ok(ShardMsg::Finish));
        let waits = telemetry.shard_histogram(stage::SERVE_QUEUE_WAIT, 1);
        assert_eq!(waits.count(), 1);
        // The other shard received nothing; its series stays empty.
        let idle = telemetry.shard_histogram(stage::SERVE_QUEUE_WAIT, 0);
        assert_eq!(idle.count(), 0);
    }

    /// A push's messages share a stamp and a take hands them over at one
    /// clock read, so each push is charged once, with its count. On a run
    /// of fixed stamps the run histogram and the live one read exactly what
    /// one record per message made: the same buckets, so the same p50 / p99.
    #[test]
    fn a_push_is_charged_once_with_its_count() {
        let start = Instant::now();
        let at = |us: u64| start + Duration::from_micros(us);
        let now = at(5_000);
        // Three pushes of 4, 1 and 3 messages, and an unstamped notice.
        let run: Vec<Envelope> = [0, 0, 0, 0, 1_234, 4_000, 4_000, 4_000]
            .into_iter()
            .map(|us| Envelope {
                msg: ShardMsg::Cancel,
                enqueued: Some(at(us)),
            })
            .chain([Envelope {
                msg: ShardMsg::Finish,
                enqueued: None,
            }])
            .collect();
        let (batched, single) = (
            WaitStats::new(Some(Arc::new(Histogram::new()))),
            WaitStats::new(Some(Arc::new(Histogram::new()))),
        );
        batched.charge_run(now, &run);
        for enqueued in run.iter().filter_map(|e| e.enqueued) {
            let waited = now.saturating_duration_since(enqueued);
            single.run.record(waited.as_nanos() as u64);
            single
                .live
                .as_ref()
                .unwrap()
                .record_f64(waited.as_secs_f64() * 1e6);
        }
        assert_eq!(batched.run.snapshot(), single.run.snapshot());
        let live = |w: &WaitStats| w.live.as_ref().unwrap().snapshot();
        assert_eq!(live(&batched), live(&single));
        assert_eq!(batched.run.count(), 8);
        assert_eq!(batched.run.snapshot().buckets.len(), 3);
        for q in [0.5, 0.99] {
            assert_eq!(batched.run.quantile(q), single.run.quantile(q));
        }
    }

    #[test]
    fn notice_sink_drops_when_the_inbox_is_full() {
        let hub = InProcTransport::hub_observed(0..1, 1, None);
        let sink = hub.notice_sink();
        // Capacity of the shared inbox for one worker at capacity 1 is 3.
        for epoch in 0..10 {
            crate::epoch::EpochSink::notify(&*sink, epoch);
        }
        let mut got = 0;
        while hub.coordinator[0].recv(Some(Instant::now())).is_ok() {
            got += 1;
        }
        assert!((1..=3).contains(&got), "bounded, drop-on-full: got {got}");
    }
}
