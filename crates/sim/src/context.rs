//! Per-request deadlines and cooperative cancellation.
//!
//! Heavy mixed traffic needs two controls the traversal budget alone cannot
//! provide: a **wall-clock deadline** (the caller stops caring about the
//! answer after some instant, however cheap the remaining work is) and a
//! **cancellation token** (an external event — a dropped connection, an
//! adaptation pass about to migrate the placement — invalidates the request
//! mid-flight). Both are *cooperative*: the matcher polls them inside its
//! existing traversal-budget check and unwinds the backtracking search at the
//! next candidate expansion, returning the partial metrics it collected so
//! far flagged `deadline_exceeded` / `cancelled` in
//! [`ExecutionMetrics`](crate::executor::ExecutionMetrics).
//!
//! [`RequestContext`] bundles the two and rides alongside a
//! [`QueryRequest`](crate::engine::QueryRequest) through every engine:
//! router, shard workers and matcher all observe the same context. A default
//! context is unbounded — no deadline, a token nobody fires — and adds one
//! relaxed atomic load per traversal, so the no-deadline path keeps its
//! bit-identical cross-engine parity.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cooperative cancellation token.
///
/// Clones share one flag: firing any clone cancels every holder. The flag is
/// one-way — there is no reset; contexts that outlive a cancellation swap in
/// a fresh token instead (see the adaptive loop's round token).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fire the token: every clone observes the cancellation from now on.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Release);
    }

    /// Whether the token has been fired.
    ///
    /// A relaxed load — the matcher calls this on its hot path, and the only
    /// consequence of observing the flag one traversal late is one extra
    /// candidate expansion.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// Whether `other` shares this token's flag (clones are linked; fresh
    /// tokens are not).
    pub fn is_linked_to(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.fired, &other.fired)
    }
}

/// The per-request execution context threaded from the engine entry point
/// down into the matcher: an optional wall-clock deadline plus a
/// cancellation token.
#[derive(Debug, Clone, Default)]
pub struct RequestContext {
    /// The instant after which the request's executions cooperatively
    /// unwind and report `deadline_exceeded`. `None` means unbounded.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation token; firing it unwinds every execution
    /// running under this context at its next traversal check.
    pub cancel: CancelToken,
}

impl RequestContext {
    /// An unbounded context: no deadline, a token nobody fires.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Builder-style absolute deadline.
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

    /// Builder-style cancellation token (replacing the default one).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The context tightened by a request's own deadline: the effective
    /// deadline is the earlier of the two, the token is shared.
    #[must_use]
    pub fn tightened_by(&self, request_deadline: Option<Instant>) -> Self {
        let deadline = match (self.deadline, request_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Self {
            deadline,
            cancel: self.cancel.clone(),
        }
    }

    /// Whether the deadline (if any) has already passed.
    pub(crate) fn is_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the cancellation token has been fired.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Time remaining until the deadline (`None` when unbounded, zero when
    /// already expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_share_their_flag_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(token.is_linked_to(&clone));
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(!token.is_linked_to(&CancelToken::new()));
    }

    #[test]
    fn unbounded_context_never_expires() {
        let ctx = RequestContext::unbounded();
        assert!(!ctx.is_expired());
        assert!(!ctx.is_cancelled());
        assert_eq!(ctx.remaining(), None);
    }

    #[test]
    fn expired_deadline_is_observed() {
        let ctx =
            RequestContext::unbounded().with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(ctx.is_expired());
        assert_eq!(ctx.remaining(), Some(Duration::ZERO));
        let future = RequestContext::unbounded().with_timeout(Duration::from_secs(3600));
        assert!(!future.is_expired());
        assert!(future.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn tightening_takes_the_earlier_deadline_and_keeps_the_token() {
        let near = Instant::now() + Duration::from_millis(1);
        let far = Instant::now() + Duration::from_secs(60);
        let ctx = RequestContext::unbounded().with_deadline(far);
        let tightened = ctx.tightened_by(Some(near));
        assert_eq!(tightened.deadline, Some(near));
        assert!(tightened.cancel.is_linked_to(&ctx.cancel));
        // Either side being None defers to the other.
        assert_eq!(ctx.tightened_by(None).deadline, Some(far));
        assert_eq!(
            RequestContext::unbounded()
                .tightened_by(Some(near))
                .deadline,
            Some(near)
        );
    }
}
