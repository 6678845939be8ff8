//! Which retained reference implementations a simulation runs on.
//!
//! Two layers keep a slower reference twin as the differential oracle for
//! their fast path: the from-scratch fluid solver
//! ([`crate::fluid::reference`]) and mpisim's linear-scan message matcher.
//! A [`ReferencePaths`] value picks them, one flag per layer; the default
//! runs every fast path.
//!
//! Like the cancellation token ([`crate::cancel`]), the value travels
//! **ambiently** and **per thread**: [`scoped`] installs it on the calling
//! thread for the duration of a closure, and every [`crate::Engine`],
//! [`crate::FluidNet`] and mpisim `Cluster` reads it once, when it is
//! built. A value installed on one thread never reaches engines built on
//! another, so tests comparing both paths can run side by side. The
//! campaign engine carries the caller's value into its worker threads.

use std::cell::Cell;

/// Per-layer choice between the fast path (`false`) and its retained
/// reference twin (`true`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ReferencePaths {
    /// Re-solve every fluid allocation from scratch with the plain
    /// one-freeze-per-round loop ([`crate::fluid::reference::reallocate`])
    /// instead of incrementally.
    pub solver: bool,
    /// Match MPI messages with mpisim's linear scans instead of the indexed
    /// per-`(dst, src, tag)` bins.
    pub matcher: bool,
}

impl ReferencePaths {
    /// Every layer on its reference twin.
    pub const ALL: ReferencePaths = ReferencePaths {
        solver: true,
        matcher: true,
    };

    /// The value installed on this thread (the default when none is).
    pub fn current() -> ReferencePaths {
        CURRENT.with(Cell::get)
    }
}

thread_local! {
    static CURRENT: Cell<ReferencePaths> = const {
        Cell::new(ReferencePaths { solver: false, matcher: false })
    };
}

/// Restores the previous value when dropped, including during a panic.
struct Restore(ReferencePaths);

impl Drop for Restore {
    fn drop(&mut self) {
        // `try_with`: a drop must not panic, even during thread teardown.
        let _ = CURRENT.try_with(|c| c.set(self.0));
    }
}

/// Run `f` with `paths` installed on this thread, then restore the previous
/// value — also when `f` panics.
pub fn scoped<R>(paths: ReferencePaths, f: impl FnOnce() -> R) -> R {
    let _restore = Restore(CURRENT.with(|c| c.replace(paths)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_nests_and_restores() {
        assert_eq!(ReferencePaths::current(), ReferencePaths::default());
        let solver = ReferencePaths {
            solver: true,
            ..ReferencePaths::default()
        };
        scoped(solver, || {
            assert_eq!(ReferencePaths::current(), solver);
            scoped(ReferencePaths::ALL, || {
                assert_eq!(ReferencePaths::current(), ReferencePaths::ALL);
            });
            assert_eq!(ReferencePaths::current(), solver);
        });
        assert_eq!(ReferencePaths::current(), ReferencePaths::default());
    }
}
