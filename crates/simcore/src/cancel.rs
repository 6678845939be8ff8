//! Cooperative cancellation for simulation runs.
//!
//! A [`CancelToken`] is a cheap, cloneable handle that a supervisor (the
//! campaign worker pool, a test harness) shares with the code it wants to
//! be able to stop. The engine checks the token inside its event loop, so
//! a wedged simulation — a timer storm that never quiesces, an unbounded
//! retry loop — is actually *stopped* at the next event boundary instead
//! of leaking its worker thread until process exit.
//!
//! Tokens trip in two ways:
//!
//! * **explicitly** — [`CancelToken::cancel`], from any thread;
//! * **by deadline** — [`CancelToken::with_deadline`] arms a wall-clock
//!   budget; the first [`CancelToken::check`] at or past the deadline
//!   latches the token.
//!
//! Like the telemetry recorder, the token travels **ambiently**: the
//! supervisor runs the worker's code under [`scoped`], and every
//! [`crate::Engine`] constructed inside adopts the token without any
//! driver cooperation. This matters because experiment drivers build
//! their engines (and whole clusters of them) many layers below the
//! campaign loop. Installation is per-thread, and the scope restores the
//! token it replaced when it ends, also on a panic, as
//! [`crate::reference_paths::scoped`] does.
//!
//! Cancellation is *cooperative*: only code that checks the token stops.
//! The engine checks once per delivered event (an atomic load) and
//! consults the wall clock every [`DEADLINE_CHECK_STRIDE`] events, so a
//! spin outside the engine (a driver busy-loop that never touches the
//! event loop) is out of scope.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many engine events may elapse between wall-clock deadline checks.
/// The flag itself is checked on every event; only the `Instant::now()`
/// syscall is rate-limited.
pub const DEADLINE_CHECK_STRIDE: u64 = 64;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// Shared cancellation handle. Clones observe the same state.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only trips on an explicit [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally trips once `budget` of wall-clock time
    /// has elapsed (measured from now).
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
            }),
        }
    }

    /// Trip the token explicitly. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True when the token has tripped (explicitly or by a past deadline
    /// check). Never consults the clock — this is the cheap fast path.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Full check: tripped flag, or the armed deadline has passed (which
    /// latches the flag so later [`CancelToken::is_cancelled`] calls agree).
    pub fn check(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.cancel();
                true
            }
            _ => false,
        }
    }

    /// True when a deadline was armed at construction.
    pub fn has_deadline(&self) -> bool {
        self.inner.deadline.is_some()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

thread_local! {
    /// The ambient token adopted by engines constructed on this thread.
    static TOKEN: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// The currently installed ambient token, if any.
pub fn current() -> Option<CancelToken> {
    TOKEN.with(|t| t.borrow().clone())
}

/// Restores the previous token when dropped, including during a panic.
struct Restore(Option<CancelToken>);

impl Drop for Restore {
    fn drop(&mut self) {
        // `try_with`: a drop must not panic, even during thread teardown.
        let _ = TOKEN.try_with(|t| *t.borrow_mut() = self.0.take());
    }
}

/// Run `f` with `token` installed on this thread, then restore the previous
/// ambient token — also when `f` panics.
pub fn scoped<R>(token: CancelToken, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(TOKEN.with(|t| t.replace(Some(token))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_trips_all_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.check());
        b.cancel();
        assert!(a.is_cancelled());
        assert!(a.check());
    }

    #[test]
    fn zero_deadline_trips_on_first_check() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        // The flag is not set until a full check consults the clock.
        assert!(!t.is_cancelled());
        assert!(t.check(), "deadline already passed");
        // …and the check latches it for the fast path.
        assert!(t.is_cancelled());
        assert!(t.has_deadline());
    }

    #[test]
    fn far_deadline_does_not_trip() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.check());
        assert!(!t.is_cancelled());
    }

    #[test]
    fn ambient_install_clear_roundtrip() {
        assert!(current().is_none());
        let t = CancelToken::new();
        scoped(t.clone(), || {
            let got = current().expect("installed");
            t.cancel();
            assert!(got.is_cancelled(), "clones share state");
        });
        assert!(current().is_none());
    }

    #[test]
    fn scoped_restores_previous_token() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        scoped(outer.clone(), || {
            scoped(inner.clone(), || {
                current().expect("inner installed").cancel();
            });
            assert!(inner.is_cancelled());
            assert!(!outer.is_cancelled());
            assert!(!current().expect("outer token restored").is_cancelled());
        });
        assert!(current().is_none());
    }

    #[test]
    fn scoped_restores_previous_token_on_unwind() {
        let outer = CancelToken::new();
        scoped(outer.clone(), || {
            let caught = std::panic::catch_unwind(|| {
                scoped(CancelToken::new(), || panic!("injected panic"))
            });
            assert!(caught.is_err());
            current().expect("outer token restored").cancel();
        });
        assert!(outer.is_cancelled(), "the restored token is the outer one");
        assert!(current().is_none());
    }
}
