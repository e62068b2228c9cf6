//! Cooperative cancellation for long-running sweeps.
//!
//! A [`CancelToken`] is a cheap, thread-safe flag (optionally armed
//! with a wall-clock deadline) that sweep engines poll at chunk
//! boundaries. Cancellation is *cooperative*: nothing is interrupted
//! mid-chunk, no partial results are ever produced, and the simulated
//! results themselves are unaffected — a cancelled run returns
//! [`Cancelled`] instead of a report vector, and a run that completes
//! is byte-identical whether or not a token was attached.
//!
//! The polling points are the chunk loops of
//! [`RunMemo::replay`](crate::memo::RunMemo::replay) (one check per
//! filtered chunk, built or replayed, i.e. every
//! [`STREAM_CHUNK`](crate::stream::STREAM_CHUNK) references per lane
//! group), so abort latency is bounded by one chunk of simulation per
//! worker, not by the full sweep. A worker waiting for another worker's
//! build of the same run notices the trip once that build finishes.
//!
//! # Examples
//!
//! ```
//! use moca_sim::cancel::CancelToken;
//!
//! let token = CancelToken::new();
//! assert!(!token.is_cancelled());
//! token.cancel();
//! assert!(token.is_cancelled());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A shared cancellation flag, optionally armed with a deadline.
///
/// Cloneable by reference (`&CancelToken` is `Sync`); wrap in an
/// [`std::sync::Arc`] to share ownership across threads. The token
/// trips when [`CancelToken::cancel`] is called *or* when the armed
/// deadline passes — both are observed by the same
/// [`CancelToken::is_cancelled`] poll.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; trips only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally trips once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
        }
    }

    /// A token whose deadline is `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Trips the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// `true` once the token is tripped (explicitly or by deadline).
    ///
    /// A tripped token stays tripped: once the explicit flag is set or
    /// the deadline has passed, every subsequent poll returns `true`.
    pub fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch the deadline so later polls skip the clock read.
                self.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// The armed deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// The error returned by `try_*` sweep entry points when their
/// [`CancelToken`] tripped before the run completed.
///
/// Carries no partial results by design: a cancelled sweep produced
/// nothing observable, so a retry (or a checkpoint replay) starts from
/// a clean slate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("sweep cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn cancel_trips_and_latches() {
        let t = CancelToken::new();
        t.cancel();
        assert!(t.is_cancelled());
        assert!(t.is_cancelled());
    }

    #[test]
    fn past_deadline_trips() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(t.is_cancelled());
        // Latched: still cancelled on re-poll.
        assert!(t.is_cancelled());
    }

    #[test]
    fn far_deadline_does_not_trip() {
        let t = CancelToken::after(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_some());
    }

    #[test]
    fn cancelled_renders() {
        assert!(Cancelled.to_string().contains("cancelled"));
    }
}
