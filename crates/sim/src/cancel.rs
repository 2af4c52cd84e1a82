//! Cooperative cancellation for the simulation event loop.
//!
//! A [`CancelToken`] is a cheaply cloneable handle (an [`Arc`] around one
//! atomic flag plus an optional wall-clock deadline) that callers install on a
//! [`SimWorkspace`](crate::SimWorkspace) before running a cell. The loop
//! polls it at event-loop iteration boundaries and bail out with
//! [`SimError::Cancelled`](crate::SimError::Cancelled) once it fires — so a
//! request deadline turns an unbounded simulation into a structured timeout
//! instead of a hung worker.
//!
//! Design constraints:
//!
//! * **Zero cost when absent.** A workspace without a token skips every check
//!   (one `Option` test per loop iteration); simulated results are
//!   bit-identical with or without a token that never fires, because
//!   cancellation only ever *aborts* a run — it never perturbs the float
//!   path.
//! * **Coarse polling.** The explicit flag is one relaxed atomic load per
//!   iteration; the deadline clock is only consulted every
//!   [`DEADLINE_POLL_MASK`]+1 iterations, keeping `Instant::now()` off the
//!   per-event hot path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll the wall clock only when `iteration & DEADLINE_POLL_MASK == 0`:
/// every 64th event-loop iteration.
pub const DEADLINE_POLL_MASK: u64 = 63;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cooperative cancellation handle shared between a requester and the
/// engine event loops.
///
/// Cloning is cheap and every clone observes the same state. A token fires
/// either explicitly ([`CancelToken::cancel`]) or implicitly once its
/// deadline passes.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only fires on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that fires `timeout` from now (or on an explicit cancel,
    /// whichever comes first).
    pub fn with_timeout(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(timeout),
            }),
        }
    }

    /// Fires the token: every subsequent [`CancelToken::is_cancelled`] (on
    /// any clone) returns `true`.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once the token has fired — explicitly, or because a past
    /// deadline was observed by [`CancelToken::deadline_passed`].
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Consults the wall clock: `true` (and latches the cancelled flag) when
    /// the deadline has passed. Tokens without a deadline always return
    /// `false`. Engines call this every [`DEADLINE_POLL_MASK`]+1 iterations;
    /// latching means the other clones (and cheaper flag-only polls) observe
    /// the expiry without their own clock read.
    pub fn deadline_passed(&self) -> bool {
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The combined engine-side poll for iteration `iteration`: the flag every
    /// call, the deadline clock every [`DEADLINE_POLL_MASK`]+1 calls.
    #[inline]
    pub fn should_stop(&self, iteration: u64) -> bool {
        self.is_cancelled() || (iteration & DEADLINE_POLL_MASK == 0 && self.deadline_passed())
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tokens_are_live() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(!token.deadline_passed());
        assert!(!token.should_stop(0));
    }

    #[test]
    fn cancel_fires_every_clone() {
        let token = CancelToken::new();
        let clone = token.clone();
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.should_stop(17));
    }

    #[test]
    fn expired_deadlines_latch_the_flag() {
        let token = CancelToken::with_timeout(Duration::ZERO);
        // The deadline is in the past, but only a clock poll observes it.
        assert!(token.deadline_passed());
        // ... after which the cheap flag-only poll sees it too.
        assert!(token.is_cancelled());
        assert!(token.should_stop(1));
    }

    #[test]
    fn distant_deadlines_do_not_fire() {
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!token.deadline_passed());
        assert!(!token.should_stop(0));
        assert!(!token.should_stop(64));
    }

    #[test]
    fn off_mask_iterations_skip_the_clock() {
        let token = CancelToken::with_timeout(Duration::ZERO);
        // Iteration 1 is off the poll mask: the expired deadline is not yet
        // observed through `should_stop`.
        assert!(!token.should_stop(1));
        // Iteration 64 hits the mask and latches it.
        assert!(token.should_stop(64));
        assert!(token.should_stop(1));
    }
}
