//! Cooperative cancellation: an ambient per-thread deadline that long
//! loops can poll cheaply.
//!
//! Rust threads cannot be preempted, so a deadline checked only after a
//! job returns would let a runaway simulation hold its worker until it
//! finished on its own. This module closes that gap cooperatively: the
//! code that *owns* a deadline (the executor) [`arm`]s a [`CancelToken`]
//! on the worker thread before invoking the job, and the simulator hot
//! loop polls the token every `check_every` iterations — one
//! thread-local read at loop entry, one `Instant::now()` per check
//! window, zero allocations. When the deadline has passed the loop calls
//! [`fire`], which panics with a recognizable sentinel message; the
//! caller's existing `catch_unwind` isolation converts that panic into a
//! structured timeout and the worker thread is released immediately.
//!
//! The token is carried in a thread-local so deeply nested code (the
//! pipeline simulator, several crates below the executor) needs no
//! plumbed-through parameter, and an unarmed thread pays only the
//! thread-local read.

use std::cell::Cell;
use std::time::Instant;

/// Sentinel prefix on panics raised by [`fire`]; callers that
/// `catch_unwind` a cancelled job match on it (via [`is_cancel_panic`])
/// to report a timeout rather than a crash.
pub const CANCEL_PANIC_PREFIX: &str = "cestim-cancel: deadline exceeded";

/// Default poll interval, in loop iterations, for code that checks the
/// token periodically (~65k simulated cycles between wall-clock reads).
pub const DEFAULT_CHECK_EVERY: u64 = 1 << 16;

/// An armed cooperative deadline for the current thread.
#[derive(Debug, Clone, Copy)]
pub struct CancelToken {
    /// Wall-clock instant after which the work should abandon itself.
    pub deadline: Instant,
    /// How many loop iterations a poller should run between wall-clock
    /// checks (always ≥ 1).
    pub check_every: u64,
}

impl CancelToken {
    /// True once the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }
}

thread_local! {
    static TOKEN: Cell<Option<CancelToken>> = const { Cell::new(None) };
}

/// Arms a cooperative deadline on the current thread until the returned
/// guard drops (the guard restores the previously armed token, so
/// nested scopes compose; it also restores during unwinding, so a
/// [`fire`] panic leaves no stale token behind).
#[must_use = "the deadline is disarmed when the guard drops"]
pub fn arm(deadline: Instant, check_every: u64) -> CancelGuard {
    let prev = TOKEN.with(|t| {
        t.replace(Some(CancelToken {
            deadline,
            check_every: check_every.max(1),
        }))
    });
    CancelGuard { prev }
}

/// The cooperative deadline armed on this thread, if any.
pub fn current() -> Option<CancelToken> {
    TOKEN.with(Cell::get)
}

/// Aborts the current unit of work by panicking with the cancellation
/// sentinel. Callers are expected to run cancellable work under
/// `catch_unwind` and translate the sentinel into a structured timeout.
pub fn fire() -> ! {
    panic!("{CANCEL_PANIC_PREFIX}");
}

/// True when a caught panic message came from [`fire`].
pub fn is_cancel_panic(message: &str) -> bool {
    message.starts_with(CANCEL_PANIC_PREFIX)
}

/// Extracts a readable message from a caught panic payload: the payload
/// itself when it is a string, otherwise "non-string panic payload".
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// RAII guard returned by [`arm`]; restores the prior token on drop.
#[derive(Debug)]
pub struct CancelGuard {
    prev: Option<CancelToken>,
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        TOKEN.with(|t| t.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unarmed_thread_has_no_token() {
        assert!(current().is_none());
    }

    #[test]
    fn arm_scopes_nest_and_restore() {
        let far = Instant::now() + Duration::from_secs(60);
        let near = Instant::now() + Duration::from_millis(1);
        {
            let _outer = arm(far, 100);
            assert_eq!(current().unwrap().check_every, 100);
            assert!(!current().unwrap().expired());
            {
                let _inner = arm(near, 0);
                // check_every clamps to 1; inner token shadows outer.
                assert_eq!(current().unwrap().check_every, 1);
            }
            assert_eq!(current().unwrap().check_every, 100, "outer restored");
        }
        assert!(current().is_none(), "fully disarmed");
    }

    #[test]
    fn fire_panics_with_the_sentinel_and_guard_survives_unwind() {
        let _g = arm(Instant::now(), 1);
        let caught = std::panic::catch_unwind(|| fire()).unwrap_err();
        let msg = payload_message(caught.as_ref());
        assert!(is_cancel_panic(&msg), "{msg}");
        assert!(!is_cancel_panic("some other panic"));
        // Token is still armed here (guard not yet dropped).
        assert!(current().unwrap().expired());
    }

    #[test]
    fn expired_tracks_the_wall_clock() {
        let _g = arm(Instant::now() + Duration::from_secs(60), 4);
        assert!(!current().unwrap().expired());
        let _g2 = arm(Instant::now() - Duration::from_millis(1), 4);
        assert!(current().unwrap().expired());
    }
}
