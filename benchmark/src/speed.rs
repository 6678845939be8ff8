//! Host speed meter. On the shared 2-vCPU host the benchmark was recorded
//! on, the same child ran up to twice as slowly for seconds to minutes at a
//! time (with no steal time), while other tenants loaded the physical core
//! under the vCPU. Host time alone then drifts from run to run far more than
//! a code change would move it.
//!
//! The meter times a fixed reference slice every [`PERIOD_MS`] of the
//! process's CPU time, interleaved with the workload on whichever thread is
//! running, and [`Slices::scale`] turns the slices of a phase into the
//! factor that converts its host time to time at reference speed. The slice
//! is eight independent chains of integer multiply-adds, which keep the
//! core's multiplier busy: its time tracked the workloads' host time with a
//! correlation of 0.98-0.99 and a slope of 1.0 across such slow periods,
//! where a single dependent chain, random memory walks and updates, a
//! binary heap or a binary search tracked it with slopes of 1.1-2.6 or
//! correlations down to 0.3.
//!
//! The slice runs in a `SIGPROF` handler, which only computes in registers,
//! reads the clock and stores to atomics, all safe in a handler; it leaves
//! the workload's caches almost untouched. Its own time is taken back out
//! of the phases it interrupted.

use std::hint::black_box;
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use crate::host::monotonic_ns;

/// Process CPU time between two slices, in milliseconds. A slice takes
/// about [`REFERENCE_NS`], under 1 % of the period.
const PERIOD_MS: c_long = 20;
/// Loop trips of the reference kernel in one slice.
const SLICE_ITERS: u64 = 40_000;
/// Duration of one slice at reference speed: its duration in quiet periods
/// on the host the benchmark was recorded on (an Intel Xeon vCPU at
/// 2.0 GHz). Scaled times read as host time on that host when quiet.
pub const REFERENCE_NS: f64 = 150_000.0;
/// Slices recorded; later ones are dropped (about five minutes of CPU time,
/// twice the longest a run lets a child live).
const SLOTS: usize = 1 << 14;

static STARTS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static DURATIONS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static COUNT: AtomicUsize = AtomicUsize::new(0);

/// `struct timeval` and `struct itimerval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
struct Itimerval {
    it_interval: Timeval,
    it_value: Timeval,
}

const ITIMER_PROF: c_int = 2;
const SIGPROF: c_int = 27;
/// `SIG_ERR` as `signal(2)` returns it.
const SIG_ERR: usize = usize::MAX;

extern "C" {
    fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
}

/// The reference kernel: eight independent chains of 64-bit multiplies,
/// adds, xors and shifts, bound by the core's multiply throughput.
fn kernel(iters: u64) -> u64 {
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..iters {
        for (k, v) in x.iter_mut().enumerate() {
            *v = v
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i ^ k as u64 ^ (*v >> 13));
        }
    }
    x.iter().fold(0, |a, b| a ^ b)
}

/// Time one slice and record it.
fn slice() {
    let start = monotonic_ns();
    black_box(kernel(black_box(SLICE_ITERS)));
    let took = monotonic_ns() - start;
    let i = COUNT.fetch_add(1, Relaxed);
    if i < SLOTS {
        STARTS[i].store(start, Relaxed);
        DURATIONS[i].store(took, Relaxed);
    }
}

extern "C" fn on_prof(_: c_int) {
    slice();
}

/// Start timing a slice every [`PERIOD_MS`] of this process's CPU time. The
/// kernel delivers `SIGPROF` to a thread that is running, so the slice
/// shares the core with the workload's busy thread, not an idle one.
pub fn start() {
    let period = Timeval {
        tv_sec: 0,
        tv_usec: PERIOD_MS * 1000,
    };
    let timer = Itimerval {
        it_interval: period,
        it_value: period,
    };
    // SAFETY: `on_prof` only reads the clock (clock_gettime is
    // async-signal-safe and cannot fail for CLOCK_MONOTONIC), computes in
    // registers and stores to atomics. glibc's signal() installs it with
    // SA_RESTART, so system calls it interrupts resume. `timer` is a valid
    // itimerval and the old value is not asked for.
    let ok = unsafe {
        signal(SIGPROF, on_prof) != SIG_ERR
            && setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) == 0
    };
    assert!(ok, "could not start the host speed meter");
}

/// Time `n` slices back to back now, for a run too short for the timer.
pub fn calibrate(n: usize) {
    for _ in 0..n {
        slice();
    }
}

/// Slices recorded so far: start and duration, in monotonic nanoseconds.
pub struct Slices(Vec<(u64, u64)>);

/// The slices recorded in this process so far.
pub fn slices() -> Slices {
    let n = COUNT.load(Relaxed).min(SLOTS);
    Slices(
        (0..n)
            .map(|i| (STARTS[i].load(Relaxed), DURATIONS[i].load(Relaxed)))
            .collect(),
    )
}

impl Slices {
    fn within(&self, from_ns: u64, to_ns: u64) -> impl Iterator<Item = u64> + '_ {
        self.0
            .iter()
            .filter(move |s| s.0 >= from_ns && s.0 < to_ns)
            .map(|s| s.1)
    }

    /// Time the slices that started in `[from_ns, to_ns)` took, in seconds.
    pub fn seconds_within(&self, from_ns: u64, to_ns: u64) -> f64 {
        self.within(from_ns, to_ns).sum::<u64>() as f64 * 1e-9
    }

    /// The factor that converts host time spent in `[from_ns, to_ns)` to
    /// time at reference speed: the mean of `REFERENCE_NS / duration` over
    /// the slices in the window. Slices fall at equal steps of CPU time, so
    /// this mean weights each step by the work done in it. A window without
    /// slices takes the factor of all slices, and a process without any
    /// (a unit test) takes 1.
    pub fn scale(&self, from_ns: u64, to_ns: u64) -> f64 {
        let factor = |d: Vec<u64>| {
            (!d.is_empty())
                .then(|| d.iter().map(|&t| REFERENCE_NS / t as f64).sum::<f64>() / d.len() as f64)
        };
        factor(self.within(from_ns, to_ns).collect())
            .or_else(|| factor(self.within(0, u64::MAX).collect()))
            .unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_averages_the_window_and_falls_back_to_every_slice() {
        let s = Slices(vec![(10, 150_000), (20, 300_000), (30, 75_000)]);
        assert_eq!(s.scale(0, 25), (1.0 + 0.5) / 2.0);
        assert_eq!(s.scale(30, 40), 2.0);
        assert_eq!(s.scale(40, 50), (1.0 + 0.5 + 2.0) / 3.0);
        assert!((s.seconds_within(0, 25) - 450e-6).abs() < 1e-15);
        assert_eq!(Slices(Vec::new()).scale(0, 1), 1.0);
    }

    #[test]
    fn calibration_records_slices_of_plausible_length() {
        let before = COUNT.load(Relaxed);
        calibrate(3);
        let s = slices();
        assert!(s.0.len() >= before + 3);
        for &(start, took) in &s.0[before..] {
            assert!(start > 0 && took > 0);
        }
    }
}
