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
//! The in-process implementation is a hub: one bounded [`ShardQueue`] per
//! worker (coordinator → worker) plus one shared inbox every worker sends
//! into (worker → coordinator). Sends are deadline-aware — backpressure can
//! reject instead of wedging admission. Nothing on the per-message path
//! allocates or grows. A worker's end takes one message per receive, so its
//! inbox — the queue `queue_capacity` bounds and `max_queue_depth` reports —
//! holds every admitted query that has not started, and it measures the
//! wall-clock time each message waited there into a fixed-size histogram,
//! which is where the per-shard `queue_wait_p99` figure comes from. The
//! coordinator's end, which consumes in bursts (everything that is there,
//! each time admission is refused), takes its inbox's whole backlog under
//! one lock acquisition and hands it out message by message; nobody reads
//! its waits, so it measures nothing and its messages are not even
//! time-stamped.
//!
//! Closed-loop admission goes through the concrete [`InProcEndpoint`], not
//! the trait: [`InProcEndpoint::try_send_query`] (a refusal returns the task
//! by value) and [`InProcEndpoint::try_recv`] (no clock read) are what make
//! a refused offer and a drained completion free of allocation and system
//! calls. A socket transport would provide its own pair; everything else the
//! engine and the workers do goes through [`ShardTransport`].

use crate::epoch::EpochSink;
use crate::queue::{PopError, PushError, ShardQueue};
use loom_obs::{stage, Histogram, Telemetry};
use loom_sim::executor::ExecutionMetrics;
use loom_sim::matcher::Embedding;
use std::collections::VecDeque;
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

/// One finished execution: worker → coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDoneMsg {
    /// Worker that executed the query.
    pub worker: u32,
    /// Admission sequence of the query.
    pub seq: u64,
    /// Epoch of the snapshot the query executed against.
    pub epoch: u64,
    /// Metrics of the execution.
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
}

/// Everything that crosses a [`ShardTransport`]: plain serialisable data,
/// never a shared-memory handle.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardMsg {
    /// Coordinator → worker: execute one routed query.
    Query(QueryTaskMsg),
    /// Worker → coordinator: a query finished.
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

impl TransportError {
    /// Recover the message the transport refused to carry.
    pub fn into_msg(self) -> ShardMsg {
        match self {
            TransportError::Timeout(msg) | TransportError::Closed(msg) => *msg,
        }
    }
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
}

/// One end of an in-process shard link: a pair of bounded [`ShardQueue`]s
/// (send side and receive side) plus receive-wait accounting.
#[derive(Debug)]
pub struct InProcEndpoint {
    tx: Arc<ShardQueue<Envelope>>,
    rx: Arc<ShardQueue<Envelope>>,
    /// On an end that receives in batches (the coordinator's): messages
    /// already off `rx` — a whole backlog per lock acquisition, the buffer
    /// trading places with the queue's — and not yet handed out. Never held
    /// across a wait. `None` on an end that takes one message per receive.
    backlog: Option<parking_lot::Mutex<VecDeque<Envelope>>>,
    sent: AtomicUsize,
    received: AtomicUsize,
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
        batch_receives: bool,
    ) -> Self {
        Self {
            tx,
            rx,
            backlog: batch_receives.then(Default::default),
            sent: AtomicUsize::new(0),
            received: AtomicUsize::new(0),
            stamp_sends,
            waits,
        }
    }

    /// Deepest the *send-side* queue (the peer's inbox) got — the
    /// coordinator reads this per worker for the serving report.
    pub fn peer_inbox_depth(&self) -> usize {
        self.tx.max_depth()
    }

    fn envelope(&self, msg: ShardMsg) -> Envelope {
        Envelope {
            msg,
            enqueued: self.stamp_sends.then(Instant::now),
        }
    }

    /// Offer one routed query to the peer without blocking — the admission
    /// primitive. Unlike [`ShardTransport::try_send`] a refusal hands the
    /// task back unboxed: closed-loop admission is refused about once per
    /// request whenever the workers are the bottleneck, and must not pay an
    /// allocation for it.
    ///
    /// # Errors
    ///
    /// [`PushError::Timeout`] when the peer's inbox is full,
    /// [`PushError::Closed`] when the link is down; both return the task.
    pub fn try_send_query(&self, task: QueryTaskMsg) -> Result<(), PushError<QueryTaskMsg>> {
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

    /// Receive the next message if one is already here: never blocks and
    /// never reads the clock to find out.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] when nothing is waiting (a closed link
    /// reports the same; the blocking [`ShardTransport::recv`] tells them
    /// apart).
    pub fn try_recv(&self) -> Result<ShardMsg, RecvError> {
        let ready = match &self.backlog {
            None => self.rx.try_pop(),
            Some(backlog) => {
                let mut backlog = backlog.lock();
                if backlog.is_empty() {
                    self.rx.try_pop_all(&mut backlog);
                }
                backlog.pop_front()
            }
        };
        ready
            .map(|envelope| self.deliver(envelope))
            .ok_or(RecvError::Timeout)
    }

    /// Count a received message and charge its wait where waits are kept.
    fn deliver(&self, envelope: Envelope) -> ShardMsg {
        self.received.fetch_add(1, Ordering::Relaxed);
        if let (Some(waits), Some(enqueued)) = (&self.waits, envelope.enqueued) {
            let waited = enqueued.elapsed();
            waits.run.record(waited.as_nanos() as u64);
            if let Some(live) = &waits.live {
                live.record_f64(waited.as_secs_f64() * 1e6);
            }
        }
        envelope.msg
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

    fn recv(&self, deadline: Option<Instant>) -> Result<ShardMsg, RecvError> {
        // What is already here first (a batching end's backlog is older
        // than anything still queued), then one message off the queue.
        self.try_recv().or_else(|_| {
            self.rx
                .pop_deadline(deadline)
                .map(|envelope| self.deliver(envelope))
                .map_err(|err| match err {
                    PopError::Timeout => RecvError::Timeout,
                    PopError::Closed => RecvError::Disconnected,
                })
        })
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
pub struct InboxNoticeSink {
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
/// endpoint per worker plus the matching worker endpoints. All
/// worker→coordinator traffic lands in a single shared inbox (the
/// [`ShardQueue`] is multi-producer), which every coordinator endpoint
/// receives from.
#[derive(Debug)]
pub struct InProcHub {
    /// Coordinator-side endpoints, indexed by worker: endpoint `i` sends to
    /// worker `i`'s inbox and receives from the shared coordinator inbox.
    /// Receive on **one** of them (the engine uses endpoint 0): a
    /// non-blocking receive takes the inbox's whole backlog into that
    /// endpoint.
    pub coordinator: Vec<InProcEndpoint>,
    /// Worker-side endpoints, indexed by worker: endpoint `i` receives from
    /// its own inbox and sends to the shared coordinator inbox.
    pub workers: Vec<InProcEndpoint>,
    inbox: Arc<ShardQueue<Envelope>>,
}

impl InProcHub {
    /// An [`EpochSink`] feeding epoch-publication notices into the
    /// coordinator's inbox.
    pub fn notice_sink(&self) -> Arc<InboxNoticeSink> {
        Arc::new(InboxNoticeSink {
            inbox: Arc::clone(&self.inbox),
        })
    }
}

/// Factory for the in-process [`ShardTransport`] implementation.
#[derive(Debug, Clone, Copy)]
pub struct InProcTransport;

impl InProcTransport {
    /// Build a coordinator↔workers hub: `workers` bounded per-worker inboxes
    /// of `capacity` entries each, plus a shared coordinator inbox sized so
    /// workers returning results rarely wait for a coordinator that is
    /// momentarily busy routing.
    pub fn hub(workers: usize, capacity: usize) -> InProcHub {
        Self::hub_observed(workers, capacity, None)
    }

    /// Like [`InProcTransport::hub`], with live telemetry: each worker
    /// endpoint's receives charge their queue wait into that shard's
    /// `serve.queue_wait{shard}` histogram. `None` builds the exact
    /// uninstrumented hub.
    pub fn hub_observed(
        workers: usize,
        capacity: usize,
        telemetry: Option<&Telemetry>,
    ) -> InProcHub {
        let workers = workers.max(1);
        let capacity = capacity.max(1);
        // Room for every worker's whole inbox's worth of results plus a
        // report, so workers run ahead of a coordinator that is busy
        // routing. Liveness does not rest on the size: a worker blocked on
        // a full coordinator inbox stops taking queries, its own inbox
        // fills, and a coordinator refused there waits on — and so empties
        // — this one.
        let inbox = Arc::new(ShardQueue::new(workers * (capacity + 2)));
        let mut coordinator = Vec::with_capacity(workers);
        let mut worker_ends = Vec::with_capacity(workers);
        for w in 0..workers {
            let worker_inbox = Arc::new(ShardQueue::new(capacity));
            coordinator.push(InProcEndpoint::new(
                Arc::clone(&worker_inbox),
                Arc::clone(&inbox),
                true,
                None,
                true,
            ));
            let live = telemetry.map(|t| t.shard_histogram(stage::SERVE_QUEUE_WAIT, w as u32));
            worker_ends.push(InProcEndpoint::new(
                Arc::clone(&inbox),
                worker_inbox,
                false,
                Some(WaitStats::new(live)),
                false,
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
            InProcEndpoint::new(Arc::clone(&ab), Arc::clone(&ba), true, waits(), false),
            InProcEndpoint::new(ba, ab, true, waits(), false),
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
                assert_eq!(TransportError::Closed(msg).into_msg(), ShardMsg::Cancel);
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
        let hub = InProcTransport::hub(3, 4);
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

    #[test]
    fn refused_queries_come_back_unboxed_and_try_recv_never_waits() {
        let hub = InProcTransport::hub(1, 1);
        let task = |seq: u64| QueryTaskMsg {
            seq,
            query: 0,
            root_seed: seq,
            deadline_us: None,
        };
        let (coordinator, worker) = (&hub.coordinator[0], &hub.workers[0]);
        assert_eq!(coordinator.try_send_query(task(1)), Ok(()));
        assert_eq!(
            coordinator.try_send_query(task(2)),
            Err(PushError::Timeout(task(2)))
        );
        assert_eq!(coordinator.try_recv(), Err(RecvError::Timeout));
        assert_eq!(worker.try_recv(), Ok(ShardMsg::Query(task(1))));
        assert_eq!(worker.try_recv(), Err(RecvError::Timeout));
        worker.send(ShardMsg::Finish, None).unwrap();
        assert_eq!(coordinator.try_recv(), Ok(ShardMsg::Finish));
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

    /// `queue_capacity` bounds every admitted query that has not started: a
    /// worker's end takes one message per receive and holds none back.
    #[test]
    fn a_worker_end_frees_one_slot_per_receive() {
        let hub = InProcTransport::hub(1, 2);
        let task = |seq: u64| QueryTaskMsg {
            seq,
            query: 0,
            root_seed: seq,
            deadline_us: None,
        };
        let (coordinator, worker) = (&hub.coordinator[0], &hub.workers[0]);
        assert_eq!(coordinator.try_send_query(task(1)), Ok(()));
        assert_eq!(coordinator.try_send_query(task(2)), Ok(()));
        assert!(coordinator.try_send_query(task(3)).is_err());
        assert_eq!(worker.recv(None), Ok(ShardMsg::Query(task(1))));
        assert_eq!(coordinator.try_send_query(task(3)), Ok(()));
        assert!(coordinator.try_send_query(task(4)).is_err());
        assert_eq!(coordinator.peer_inbox_depth(), 2);
    }

    #[test]
    fn observed_hub_charges_queue_waits_into_the_shard_histogram() {
        let telemetry = Telemetry::new();
        let hub = InProcTransport::hub_observed(2, 4, Some(&telemetry));
        hub.coordinator[1].send(ShardMsg::Finish, None).unwrap();
        assert_eq!(hub.workers[1].recv(None), Ok(ShardMsg::Finish));
        let waits = telemetry.shard_histogram(stage::SERVE_QUEUE_WAIT, 1);
        assert_eq!(waits.count(), 1);
        // The other shard received nothing; its series stays empty.
        let idle = telemetry.shard_histogram(stage::SERVE_QUEUE_WAIT, 0);
        assert_eq!(idle.count(), 0);
    }

    #[test]
    fn notice_sink_drops_when_the_inbox_is_full() {
        let hub = InProcTransport::hub(1, 1);
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
