//! The crash-proof retry policy every experiment repetition goes through.
//!
//! A campaign is a sequence of seeded repetitions of one measurement, and a
//! single unlucky one (exhausted rendezvous retries, a wedged engine, a
//! genuine bug tripped by a rare schedule) must not throw away every other
//! repetition's data. This module holds the one policy for that: run an
//! attempt under [`std::panic::catch_unwind`] ([`guarded`]), retry a failed
//! attempt **once** on a freshly derived seed ([`retry_seed`],
//! [`with_retry`]), and otherwise report a structured [`RunStatus`] so the
//! campaign still produces its median/decile bands from the survivors.
//!
//! The campaign engine ([`crate::campaign`]) applies it to every sweep
//! point; the faulted ping-pong
//! ([`crate::experiments::faulted_pingpong`]) applies it again to each
//! repetition inside its points.
//!
//! Panics raised inside a guarded attempt are silenced (no backtrace spam on
//! stderr) via a process-global hook that defers to the previous hook
//! unless the current thread is inside a guarded attempt.

use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// How one repetition of a campaign ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// First attempt completed.
    Completed,
    /// First attempt failed; the retry with a fresh seed completed.
    Recovered {
        /// Seed of the failed first attempt.
        failed_seed: u64,
        /// Error text of the failed first attempt.
        error: String,
    },
    /// Both attempts failed; no data from this rep.
    Failed {
        /// Error text of the last attempt.
        error: String,
    },
    /// The attempt blew its wall-clock deadline and was cooperatively
    /// cancelled (see [`simcore::cancel`]). Terminal: a timed-out attempt
    /// is not retried — the retry would spend the same budget wedging the
    /// same way, doubling the campaign's worst-case wall time.
    TimedOut {
        /// Error text of the cancelled attempt (names the deadline and the
        /// engine's stall diagnostic).
        error: String,
    },
}

impl RunStatus {
    /// Short status label used in exports
    /// ("ok" / "recovered" / "failed" / "timeout").
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Completed => "ok",
            RunStatus::Recovered { .. } => "recovered",
            RunStatus::Failed { .. } => "failed",
            RunStatus::TimedOut { .. } => "timeout",
        }
    }

    /// Error text, if any attempt failed.
    pub fn error(&self) -> Option<&str> {
        match self {
            RunStatus::Completed => None,
            RunStatus::Recovered { error, .. }
            | RunStatus::Failed { error }
            | RunStatus::TimedOut { error } => Some(error),
        }
    }

    /// True when the repetition produced no data (failed or timed out).
    pub fn is_lost(&self) -> bool {
        matches!(self, RunStatus::Failed { .. } | RunStatus::TimedOut { .. })
    }
}

thread_local! {
    static GUARDED: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Install (once, process-wide) a panic hook that stays silent while the
/// current thread runs a guarded repetition and defers to the previously
/// installed hook everywhere else.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !GUARDED.with(|g| g.get()) {
                prev(info);
            }
        }));
    });
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` with panics caught and silenced; an `Err` return and a panic
/// both come back as the error string. Nests: the campaign engine guards
/// whole sweep points while the faulted ping-pong guards individual
/// repetitions inside them, so the guard flag is saved and restored rather
/// than reset.
pub fn guarded<R, E: fmt::Display>(f: impl FnOnce() -> Result<R, E>) -> Result<R, String> {
    install_quiet_hook();
    let prev = GUARDED.with(|g| g.replace(true));
    let caught = panic::catch_unwind(AssertUnwindSafe(f));
    GUARDED.with(|g| g.set(prev));
    match caught {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!("panic: {}", panic_message(payload))),
    }
}

/// Derive the retry seed for a failed repetition. SplitMix64-style mix of
/// the original seed and the rep index — deterministic, but disjoint from
/// every first-attempt seed the campaign uses.
pub fn retry_seed(seed: u64, rep: u32) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rep as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The one retry policy, shared by the campaign engine's sweep points and
/// the faulted ping-pong's repetitions: run `attempt` on `seed` and, if it
/// fails, once more on `retry`.
///
/// `attempt` reports a failure as `Err(RunStatus::Failed { .. })`, or as
/// `Err(RunStatus::TimedOut { .. })` when it was cancelled at its deadline —
/// terminal, since a retry would spend the same budget wedging the same
/// way. Returns the seed of the last attempt, the repetition's status and
/// the value when an attempt succeeded. Callers pick the retry seed, so
/// each keeps its own seeding convention.
pub fn with_retry<R>(
    seed: u64,
    retry: u64,
    mut attempt: impl FnMut(u64) -> Result<R, RunStatus>,
) -> (u64, RunStatus, Option<R>) {
    let first_error = match attempt(seed) {
        Ok(v) => return (seed, RunStatus::Completed, Some(v)),
        Err(RunStatus::Failed { error }) => error,
        Err(lost) => return (seed, lost, None),
    };
    match attempt(retry) {
        Ok(v) => (
            retry,
            RunStatus::Recovered {
                failed_seed: seed,
                error: first_error,
            },
            Some(v),
        ),
        Err(lost) => (retry, lost, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one scripted attempt does.
    #[derive(Clone, Copy)]
    enum Attempt {
        Succeed,
        Panic(&'static str),
        Error(&'static str),
        /// Fails, and the caller classifies the failure as a deadline hit.
        TimeOut(&'static str),
    }

    #[test]
    fn with_retry_over_guarded_attempts() {
        use Attempt::*;
        const SEED: u64 = 7;
        let retry = retry_seed(SEED, 1);
        // (first attempt, retry, final seed, status, attempts that ran)
        let cases = [
            (Succeed, Panic("never runs"), SEED, RunStatus::Completed, 1),
            (
                Panic("injected crash"),
                Succeed,
                retry,
                RunStatus::Recovered {
                    failed_seed: SEED,
                    error: "panic: injected crash".into(),
                },
                2,
            ),
            (
                Error("transfer failed after 9 retries"),
                Error("fabric black-out"),
                retry,
                RunStatus::Failed {
                    error: "fabric black-out".into(),
                },
                2,
            ),
            (
                TimeOut("cancelled at its deadline"),
                Succeed,
                SEED,
                RunStatus::TimedOut {
                    error: "cancelled at its deadline".into(),
                },
                1,
            ),
        ];
        for (first, second, want_seed, want_status, want_attempts) in cases {
            let mut seeds = Vec::new();
            let (seed, status, value) = with_retry(SEED, retry, |seed| {
                seeds.push(seed);
                let step = if seed == SEED { first } else { second };
                guarded(|| match step {
                    Succeed => Ok(seed),
                    Panic(msg) => panic!("{}", msg),
                    Error(e) | TimeOut(e) => Err(e),
                })
                .map_err(|error| match step {
                    TimeOut(_) => RunStatus::TimedOut { error },
                    _ => RunStatus::Failed { error },
                })
            });
            assert_eq!((seed, &status), (want_seed, &want_status));
            assert_eq!(seeds, [SEED, retry][..want_attempts], "{:?}", status);
            // The value is the seed of the attempt that produced it.
            assert_eq!(value, (!status.is_lost()).then_some(seed), "{:?}", status);
        }
    }

    #[test]
    fn retry_seeds_are_disjoint_from_first_attempt_seeds() {
        let base = 0xC0FFEE;
        for rep in 0..32 {
            let fresh = retry_seed(base, rep);
            for r2 in 0..32u64 {
                assert_ne!(fresh, base + r2);
            }
        }
    }
}
