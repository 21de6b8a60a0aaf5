//! Bounded per-shard work queues with blocking backpressure.
//!
//! Each worker shard owns one `ShardQueue`; the router pushes routed query
//! tasks into it and blocks when the queue is full (the backpressure policy:
//! a slow shard slows admission instead of growing an unbounded backlog).
//! Workers block on pop until a task arrives or the queue is closed and
//! drained. The queue also records the maximum depth it reached, which the
//! serving report surfaces per shard.
//!
//! There is one push and one pop. Every public entry point names how long
//! that push or pop may park and how much it moves — one item, or a run:
//! `ShardQueue::push_run` appends as much of a caller's run as there is
//! room for, `ShardQueue::pop_all_deadline` takes the whole backlog — so
//! the waiter accounting below exists once per direction, and a run costs
//! one lock acquisition and at most one wake-up however long it is.
//!
//! **A wake-up is only sent to a sleeper.** `Condvar::notify_one` is a
//! `futex_wake` system call whether or not anybody waits, and a serving run
//! pushes and pops millions of times with nobody parked. A thread about to
//! park counts itself in the queue state under the lock; a push or pop reads
//! the opposite count under the same lock and notifies — after unlocking, so
//! the woken thread does not run straight into the mutex — only when it is
//! non-zero. A waiter raises its count before `Condvar::wait` releases the
//! lock, so whoever changes the queue afterwards sees it: no wake-up is
//! lost. `ShardQueue::close` notifies everybody unconditionally.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Why a push was refused. The rejected item is handed back in both cases,
/// so callers can re-route or account for it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// The queue stayed full for as long as the push was allowed to wait
    /// (backpressure held the whole time) — the admission-control signal a
    /// stuck worker produces instead of wedging the router forever.
    Timeout(T),
    /// The queue has been closed.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recover the item the queue refused.
    pub(crate) fn into_inner(self) -> T {
        match self {
            PushError::Timeout(item) | PushError::Closed(item) => item,
        }
    }

    /// The same refusal about a converted item.
    pub fn map<U>(self, convert: impl FnOnce(T) -> U) -> PushError<U> {
        match self {
            PushError::Timeout(item) => PushError::Timeout(convert(item)),
            PushError::Closed(item) => PushError::Closed(convert(item)),
        }
    }
}

/// Why a deadline-aware pop returned empty-handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PopError {
    /// Nothing arrived before the deadline; the queue is still open.
    Timeout,
    /// The queue is closed *and* drained — no item will ever arrive.
    Closed,
}

/// How long a push or pop may park when the queue cannot serve it.
#[derive(Debug, Clone, Copy)]
enum Park {
    /// Not at all (and without reading the clock to find that out).
    Never,
    Until(Instant),
    Forever,
}

impl From<Option<Instant>> for Park {
    fn from(deadline: Option<Instant>) -> Self {
        deadline.map_or(Park::Forever, Park::Until)
    }
}

/// A bounded multi-producer / multi-consumer FIFO queue.
///
/// Built directly on `std::sync` (a condvar must pair with the mutex that
/// produced its guard, and the real `parking_lot` has its own condvar type);
/// lock poisoning is recovered the same way the vendored `parking_lot`
/// recovers it, so a panicking worker never wedges the queue.
#[derive(Debug)]
pub(crate) struct ShardQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    max_depth: usize,
    /// Threads parked on `not_empty` right now.
    parked_consumers: usize,
    /// Threads parked on `not_full` right now.
    parked_producers: usize,
    /// Parked consumers the pushes so far have woken.
    consumer_wake_ups: usize,
}

/// Park on `condvar` as one of the waiters `parked` counts, until notified
/// or out of time. `None` means the wait was refused or ran out: the guard
/// is gone and the caller gives up. A `Some` guard promises nothing about
/// the queue — callers re-check their condition.
fn park<'a, T>(
    condvar: &Condvar,
    mut state: MutexGuard<'a, State<T>>,
    parked: fn(&mut State<T>) -> &mut usize,
    how_long: Park,
) -> Option<MutexGuard<'a, State<T>>> {
    let timeout = match how_long {
        Park::Never => return None,
        Park::Forever => None,
        Park::Until(deadline) => Some(
            deadline
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())?,
        ),
    };
    *parked(&mut state) += 1;
    let mut state = match timeout {
        None => condvar.wait(state).unwrap_or_else(PoisonError::into_inner),
        Some(left) => {
            condvar
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0
        }
    };
    *parked(&mut state) -= 1;
    Some(state)
}

/// Wake `count` of the threads parked on `condvar`: nobody, one, or all of
/// them (a waiter that finds nothing for it re-checks and parks again).
fn wake_up(condvar: &Condvar, count: usize) {
    match count {
        0 => {}
        1 => condvar.notify_one(),
        _ => condvar.notify_all(),
    }
}

impl<T> ShardQueue<T> {
    /// Create a queue admitting at most `capacity` queued items (minimum 1).
    /// Its buffer is allocated whole here, on the creating thread, so no
    /// push grows it on the pushing thread.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                max_depth: 0,
                parked_consumers: 0,
                parked_producers: 0,
                consumer_wake_ups: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// The queue's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one push: wait for room as long as `how_long` allows, let `put`
    /// append at most `room` items, wake as many parked consumers as items
    /// arrived. A refusal says why nothing was put (`put` is not called).
    fn push_parking(
        &self,
        how_long: Park,
        put: impl FnOnce(&mut VecDeque<T>, usize),
    ) -> Result<(), PushError<()>> {
        let mut state = self.lock();
        while state.items.len() >= self.capacity && !state.closed {
            match park(&self.not_full, state, |s| &mut s.parked_producers, how_long) {
                Some(guard) => state = guard,
                None => return Err(PushError::Timeout(())),
            }
        }
        if state.closed {
            return Err(PushError::Closed(()));
        }
        let before = state.items.len();
        put(&mut state.items, self.capacity - before);
        state.max_depth = state.max_depth.max(state.items.len());
        let wake = state.parked_consumers.min(state.items.len() - before);
        state.consumer_wake_ups += wake;
        drop(state);
        wake_up(&self.not_empty, wake);
        Ok(())
    }

    /// One item through the one push; a refusal hands it back.
    fn push_one(&self, item: T, how_long: Park) -> Result<(), PushError<T>> {
        let mut item = Some(item);
        self.push_parking(how_long, |items, _| items.extend(item.take()))
            .map_err(|refused| {
                refused.map(|()| item.take().expect("a refused push keeps its item"))
            })
    }

    /// The front of `run`, converted, through the one push: as much as
    /// there is room for. How many items moved.
    fn push_run_parking<S>(
        &self,
        run: &mut VecDeque<S>,
        convert: impl FnMut(S) -> T,
        how_long: Park,
    ) -> Result<usize, PushError<()>> {
        if run.is_empty() {
            return Ok(0);
        }
        let mut moved = 0;
        self.push_parking(how_long, |items, room| {
            moved = room.min(run.len());
            items.extend(run.drain(..moved).map(convert));
        })
        .map(|()| moved)
    }

    /// The one pop: wait for an item as long as `how_long` allows, let
    /// `take` remove what it wants from the non-empty queue, wake as many
    /// parked producers as slots came free.
    fn pop_parking<R>(
        &self,
        how_long: Park,
        take: impl FnOnce(&mut VecDeque<T>) -> R,
    ) -> Result<R, PopError> {
        let mut state = self.lock();
        loop {
            if !state.items.is_empty() {
                let before = state.items.len();
                let taken = take(&mut state.items);
                let wake = state.parked_producers.min(before - state.items.len());
                drop(state);
                wake_up(&self.not_full, wake);
                return Ok(taken);
            }
            if state.closed {
                return Err(PopError::Closed);
            }
            state = park(
                &self.not_empty,
                state,
                |s| &mut s.parked_consumers,
                how_long,
            )
            .ok_or(PopError::Timeout)?;
        }
    }

    /// Push an item, blocking while the queue is full (backpressure) but
    /// only until `deadline` (`None` blocks indefinitely).
    ///
    /// This is the backpressure fix for admission control: a stuck or slow
    /// consumer used to wedge a blocking push forever; a deadline-aware
    /// producer gets the item back as [`PushError::Timeout`] and can reject
    /// the request instead.
    ///
    /// # Errors
    ///
    /// [`PushError::Timeout`] when the queue stayed full until the deadline,
    /// [`PushError::Closed`] when the queue has been closed; both return the
    /// item.
    pub(crate) fn push_deadline(
        &self,
        item: T,
        deadline: Option<Instant>,
    ) -> Result<(), PushError<T>> {
        self.push_one(item, deadline.into())
    }

    /// Push an item only if there is room right now: never parks and never
    /// reads the clock.
    ///
    /// # Errors
    ///
    /// [`PushError::Timeout`] when the queue is full, [`PushError::Closed`]
    /// when it has been closed; both return the item.
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        self.push_one(item, Park::Never)
    }

    /// Move items off the front of `run` onto the queue, each converted by
    /// `convert`, as many as there is room for, under one lock acquisition
    /// and with at most one wake-up: how many moved. Waits only while the
    /// queue has no room at all, and only until `deadline` (`None` blocks
    /// indefinitely); what did not fit stays at the front of `run`, in
    /// order, for the caller to offer again.
    ///
    /// # Errors
    ///
    /// [`PushError::Timeout`] when the queue stayed full until the deadline,
    /// [`PushError::Closed`] when it has been closed; `run` is untouched.
    pub(crate) fn push_run<S>(
        &self,
        run: &mut VecDeque<S>,
        convert: impl FnMut(S) -> T,
        deadline: Option<Instant>,
    ) -> Result<usize, PushError<()>> {
        self.push_run_parking(run, convert, deadline.into())
    }

    /// [`ShardQueue::push_run`] without waiting: moves what fits right now,
    /// never parks and never reads the clock.
    ///
    /// # Errors
    ///
    /// [`PushError::Timeout`] when the queue is full, [`PushError::Closed`]
    /// when it has been closed; `run` is untouched.
    pub(crate) fn try_push_run<S>(
        &self,
        run: &mut VecDeque<S>,
        convert: impl FnMut(S) -> T,
    ) -> Result<usize, PushError<()>> {
        self.push_run_parking(run, convert, Park::Never)
    }

    /// Pop the next item, blocking while the queue is empty but only until
    /// `deadline` (`None` blocks indefinitely).
    ///
    /// # Errors
    ///
    /// [`PopError::Timeout`] when nothing arrived by the deadline,
    /// [`PopError::Closed`] once the queue is closed and drained.
    pub(crate) fn pop_deadline(&self, deadline: Option<Instant>) -> Result<T, PopError> {
        self.pop_parking(deadline.into(), |items| {
            items
                .pop_front()
                .expect("pop_parking takes from a non-empty queue")
        })
    }

    /// Take the whole backlog under one lock acquisition, without waiting or
    /// reading the clock: whether anything was queued (an empty queue leaves
    /// `into` empty, closed or not). `into` must be empty: it trades places
    /// with the queue's buffer, so a caller that keeps handing the same
    /// `into` back moves items without allocating.
    pub(crate) fn try_pop_all(&self, into: &mut VecDeque<T>) -> bool {
        self.pop_all_parking(into, Park::Never).is_ok()
    }

    /// Take the whole backlog under one lock acquisition, waiting while the
    /// queue is empty but only until `deadline` (`None` blocks
    /// indefinitely). `into` must be empty and trades places with the
    /// queue's buffer, as in [`ShardQueue::try_pop_all`].
    ///
    /// # Errors
    ///
    /// [`PopError::Timeout`] when nothing arrived by the deadline,
    /// [`PopError::Closed`] once the queue is closed and drained.
    pub(crate) fn pop_all_deadline(
        &self,
        into: &mut VecDeque<T>,
        deadline: Option<Instant>,
    ) -> Result<(), PopError> {
        self.pop_all_parking(into, deadline.into())
    }

    fn pop_all_parking(&self, into: &mut VecDeque<T>, how_long: Park) -> Result<(), PopError> {
        assert!(
            into.is_empty(),
            "a whole-backlog pop trades buffers with an empty one"
        );
        self.pop_parking(how_long, |items| std::mem::swap(items, into))
    }

    /// Close the queue: pending items remain poppable, further pushes fail,
    /// and blocked consumers wake up once the backlog drains.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// The maximum depth the queue reached so far.
    pub(crate) fn max_depth(&self) -> usize {
        self.lock().max_depth
    }

    /// How many parked consumers pushes have woken so far: the system calls
    /// a consumer that keeps up with its producers costs them.
    pub(crate) fn consumer_wake_ups(&self) -> usize {
        self.lock().consumer_wake_ups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
    use std::time::Duration;

    fn push<T>(q: &ShardQueue<T>, item: T) -> Result<(), PushError<T>> {
        q.push_deadline(item, None)
    }

    fn pop<T>(q: &ShardQueue<T>) -> Option<T> {
        q.pop_deadline(None).ok()
    }

    #[test]
    fn fifo_push_pop() {
        let q = ShardQueue::new(4);
        push(&q, 1).unwrap();
        push(&q, 2).unwrap();
        assert_eq!(q.lock().items.len(), 2);
        assert_eq!(pop(&q), Some(1));
        assert_eq!(pop(&q), Some(2));
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = ShardQueue::new(4);
        push(&q, "a").unwrap();
        q.close();
        assert_eq!(push(&q, "b"), Err(PushError::Closed("b")));
        assert_eq!(pop(&q), Some("a"));
        assert_eq!(pop(&q), None);
    }

    #[test]
    fn capacity_backpressure_blocks_producers() {
        let q = ShardQueue::new(2);
        let produced = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100 {
                    push(&q, i).unwrap();
                    produced.fetch_add(1, Ordering::SeqCst);
                }
                q.close();
            });
            let mut got = Vec::new();
            while let Some(item) = pop(&q) {
                got.push(item);
            }
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        });
        assert_eq!(produced.load(Ordering::SeqCst), 100);
        // The bounded queue never grew beyond its capacity.
        assert!(q.max_depth() <= 2);
    }

    #[test]
    fn timed_push_rejects_when_backpressure_holds_past_the_deadline() {
        let q = ShardQueue::new(1);
        push(&q, 1).unwrap();
        // Full queue + already-expired deadline: immediate rejection, item
        // handed back.
        let expired = Instant::now() - Duration::from_millis(1);
        match q.push_deadline(2, Some(expired)) {
            Err(PushError::Timeout(item)) => assert_eq!(item, 2),
            other => panic!("expected timeout, got {other:?}"),
        }
        // So does a push that may not wait at all.
        assert_eq!(q.try_push(2), Err(PushError::Timeout(2)));
        // A short future deadline also times out while nobody consumes.
        let soon = Instant::now() + Duration::from_millis(5);
        assert_eq!(q.push_deadline(3, Some(soon)), Err(PushError::Timeout(3)));
        // Space frees up: the timed push succeeds within its deadline.
        assert_eq!(pop(&q), Some(1));
        let ample = Instant::now() + Duration::from_secs(5);
        assert_eq!(q.push_deadline(4, Some(ample)), Ok(()));
        assert_eq!(pop(&q), Some(4));
        assert_eq!(q.try_push(6), Ok(()));
        assert_eq!(pop(&q), Some(6));
        // Closed queues report Closed, not Timeout.
        q.close();
        assert_eq!(q.push_deadline(5, Some(ample)), Err(PushError::Closed(5)));
        assert_eq!(q.try_push(5), Err(PushError::Closed(5)));
        assert_eq!(PushError::Closed(5).into_inner(), 5);
    }

    #[test]
    fn timed_pop_distinguishes_timeout_from_closed() {
        let q: ShardQueue<u32> = ShardQueue::new(2);
        let soon = Instant::now() + Duration::from_millis(5);
        assert_eq!(q.pop_deadline(Some(soon)), Err(PopError::Timeout));
        push(&q, 9).unwrap();
        assert_eq!(q.pop_deadline(Some(soon)), Ok(9));
        q.close();
        assert_eq!(q.pop_deadline(Some(soon)), Err(PopError::Closed));
        // `None` deadline behaves the same on a closed queue.
        assert_eq!(q.pop_deadline(None), Err(PopError::Closed));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q: ShardQueue<u32> = ShardQueue::new(0);
        assert_eq!(q.capacity(), 1);
        push(&q, 7).unwrap();
        assert_eq!(pop(&q), Some(7));
    }

    #[test]
    fn try_pops_take_one_or_the_backlog_in_order_and_trade_buffers() {
        let q = ShardQueue::new(4);
        let now = || Some(Instant::now());
        let mut buffer = VecDeque::new();
        assert!(!q.try_pop_all(&mut buffer));
        assert_eq!(q.pop_deadline(now()), Err(PopError::Timeout));
        for i in 0..4 {
            push(&q, i).unwrap();
        }
        assert_eq!(q.try_push(4), Err(PushError::Timeout(4)));
        assert_eq!(q.pop_deadline(now()), Ok(0));
        assert!(q.try_pop_all(&mut buffer));
        assert_eq!(buffer.drain(..).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(q.lock().items.len(), 0);
        // The emptied buffer goes back in; the queue hands out the one it
        // was given last time.
        push(&q, 9).unwrap();
        assert!(q.try_pop_all(&mut buffer));
        assert_eq!(buffer.pop_front(), Some(9));
        q.close();
        assert!(!q.try_pop_all(&mut buffer));
        assert_eq!(q.pop_deadline(now()), Err(PopError::Closed));
    }

    /// Wake-ups go only to counted sleepers, so a miscounted sleeper would
    /// park forever: at capacity 1 every push and every pop of this run has
    /// a peer to wake. The test ends only if none is missed.
    #[test]
    fn no_wake_up_is_lost_at_capacity_one() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const ITEMS: usize = 50_000;
        let q: ShardQueue<usize> = ShardQueue::new(1);
        let seen: Vec<AtomicU8> = (0..PRODUCERS * ITEMS).map(|_| AtomicU8::new(0)).collect();
        std::thread::scope(|consumers| {
            for _ in 0..CONSUMERS {
                consumers.spawn(|| {
                    while let Some(item) = pop(&q) {
                        seen[item].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            std::thread::scope(|producers| {
                for p in 0..PRODUCERS {
                    let q = &q;
                    producers.spawn(move || {
                        for i in 0..ITEMS {
                            push(q, p * ITEMS + i).unwrap();
                        }
                    });
                }
            });
            q.close();
        });
        assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        assert_eq!(q.max_depth(), 1);
    }

    #[test]
    fn a_run_goes_in_as_far_as_it_fits_and_the_rest_keeps_its_order() {
        let q = ShardQueue::new(3);
        let mut run: VecDeque<u32> = (1..=5).collect();
        assert_eq!(q.try_push_run(&mut run, |x| x * 10), Ok(3));
        assert_eq!(run, [4, 5]);
        assert_eq!(
            q.try_push_run(&mut run, |x| x * 10),
            Err(PushError::Timeout(()))
        );
        let soon = Instant::now() + Duration::from_millis(5);
        assert_eq!(
            q.push_run(&mut run, |x| x * 10, Some(soon)),
            Err(PushError::Timeout(()))
        );
        assert_eq!(run, [4, 5], "a refused run is left untouched");
        assert_eq!(pop(&q), Some(10));
        // Room for one: one moves, the other waits its turn.
        assert_eq!(q.push_run(&mut run, |x| x * 10, None), Ok(1));
        assert_eq!(run, [5]);
        let mut all = VecDeque::new();
        assert_eq!(q.pop_all_deadline(&mut all, None), Ok(()));
        assert_eq!(all.drain(..).collect::<Vec<_>>(), [20, 30, 40]);
        assert_eq!(q.try_push_run(&mut VecDeque::new(), |x: u32| x), Ok(0));
        assert_eq!(q.max_depth(), 3);
        q.close();
        assert_eq!(q.try_push_run(&mut run, |x| x), Err(PushError::Closed(())));
        assert_eq!(
            q.push_run(&mut run, |x| x, None),
            Err(PushError::Closed(()))
        );
        assert_eq!(run, [5]);
    }

    #[test]
    fn a_whole_backlog_pop_waits_for_the_first_item_only() {
        let q: ShardQueue<u32> = ShardQueue::new(4);
        let mut into = VecDeque::new();
        let soon = Instant::now() + Duration::from_millis(5);
        assert_eq!(
            q.pop_all_deadline(&mut into, Some(soon)),
            Err(PopError::Timeout)
        );
        std::thread::scope(|s| {
            let taker = s.spawn(|| {
                let mut into = VecDeque::new();
                q.pop_all_deadline(&mut into, None).map(|()| into)
            });
            while q.lock().parked_consumers == 0 {
                std::thread::yield_now();
            }
            let mut run: VecDeque<u32> = VecDeque::from([7, 8]);
            assert_eq!(q.push_run(&mut run, |x| x, None), Ok(2));
            // Both went in under one lock, so the woken taker finds both.
            assert_eq!(taker.join().unwrap(), Ok(VecDeque::from([7, 8])));
        });
        q.close();
        assert_eq!(q.pop_all_deadline(&mut into, None), Err(PopError::Closed));
    }

    /// The same count with runs both ways: producers push runs into a
    /// 3-slot queue, consumers take the whole backlog. A push of several
    /// items wakes as many parked consumers, a pop that frees several slots
    /// as many parked producers; the test ends only if none is missed, and
    /// every item arrives once, each producer's in order.
    #[test]
    fn no_wake_up_is_lost_when_runs_move_both_ways() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const ITEMS: usize = 30_000;
        let q: ShardQueue<usize> = ShardQueue::new(3);
        let seen: Vec<AtomicU8> = (0..PRODUCERS * ITEMS).map(|_| AtomicU8::new(0)).collect();
        std::thread::scope(|consumers| {
            for _ in 0..CONSUMERS {
                consumers.spawn(|| {
                    let mut run = VecDeque::new();
                    let mut last = [None; PRODUCERS];
                    while q.pop_all_deadline(&mut run, None).is_ok() {
                        for item in run.drain(..) {
                            seen[item].fetch_add(1, Ordering::Relaxed);
                            let (p, i) = (item / ITEMS, item % ITEMS);
                            assert!(last[p].is_none_or(|l| l < i), "producer {p} reordered");
                            last[p] = Some(i);
                        }
                    }
                });
            }
            std::thread::scope(|producers| {
                for p in 0..PRODUCERS {
                    let q = &q;
                    producers.spawn(move || {
                        let mut run = VecDeque::new();
                        for chunk in (0..ITEMS).collect::<Vec<_>>().chunks(5) {
                            run.extend(chunk.iter().map(|i| p * ITEMS + i));
                            while !run.is_empty() {
                                q.push_run(&mut run, |x| x, None).unwrap();
                            }
                        }
                    });
                }
            });
            q.close();
        });
        assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        assert!(q.max_depth() <= 3);
    }

    #[test]
    fn close_wakes_a_parked_push_and_a_parked_pop() {
        let full = ShardQueue::new(1);
        push(&full, 1).unwrap();
        let empty: ShardQueue<u32> = ShardQueue::new(1);
        std::thread::scope(|s| {
            let pusher = s.spawn(|| push(&full, 2));
            let popper = s.spawn(|| empty.pop_deadline(None));
            // Close only once both are counted as parked: the counts are the
            // same ones a push or pop would consult before waking them.
            while full.lock().parked_producers == 0 || empty.lock().parked_consumers == 0 {
                std::thread::yield_now();
            }
            full.close();
            empty.close();
            assert_eq!(pusher.join().unwrap(), Err(PushError::Closed(2)));
            assert_eq!(popper.join().unwrap(), Err(PopError::Closed));
        });
        assert_eq!(full.lock().parked_producers, 0);
        assert_eq!(empty.lock().parked_consumers, 0);
    }
}
