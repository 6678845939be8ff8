//! Simulation time.
//!
//! Time is kept as an integer number of **picoseconds** so that event
//! ordering is exact and runs are bit-reproducible. `u64` picoseconds covers
//! about 213 days of simulated time, far beyond any experiment in this
//! workspace (the longest benchmarks simulate a few minutes).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in picoseconds.
///
/// A single type is used for both instants and durations; the engine never
/// needs to distinguish them and a single type keeps arithmetic simple.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// Largest representable time; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// One picosecond.
    pub const PS: SimTime = SimTime(1);
    /// One nanosecond.
    pub const NS: SimTime = SimTime(1_000);
    /// One microsecond.
    pub const US: SimTime = SimTime(1_000_000);
    /// One millisecond.
    pub const MS: SimTime = SimTime(1_000_000_000);
    /// One second.
    pub const SEC: SimTime = SimTime(1_000_000_000_000);

    /// Build from a floating-point number of seconds (saturating, non-negative).
    pub fn from_secs_f64(secs: f64) -> SimTime {
        debug_assert!(secs.is_finite(), "non-finite duration");
        if secs <= 0.0 {
            return SimTime::ZERO;
        }
        let ps = secs * 1e12;
        if ps >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ps as u64)
        }
    }

    /// Build from nanoseconds.
    pub fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns.saturating_mul(1_000))
    }

    /// Build from microseconds.
    pub fn from_micros(us: u64) -> SimTime {
        SimTime(us.saturating_mul(1_000_000))
    }

    /// Build from milliseconds.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms.saturating_mul(1_000_000_000))
    }

    /// Convert to floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Convert to floating-point microseconds (the unit of most paper plots).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Convert to floating-point milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// True if this is `SimTime::ZERO`.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("SimTime overflow"))
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{}ps", ps)
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.3}s", ps as f64 / 1e12)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants_are_consistent() {
        assert_eq!(SimTime::NS, SimTime::PS * 1_000);
        assert_eq!(SimTime::US, SimTime::NS * 1_000);
        assert_eq!(SimTime::MS, SimTime::US * 1_000);
        assert_eq!(SimTime::SEC, SimTime::MS * 1_000);
    }

    #[test]
    fn secs_roundtrip() {
        let t = SimTime::from_secs_f64(1.5e-6);
        assert_eq!(t, SimTime::from_micros(1) + SimTime::from_nanos(500));
        assert!((t.as_secs_f64() - 1.5e-6).abs() < 1e-18);
        assert!((t.as_micros_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn negative_and_huge_secs_saturate() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(1e30), SimTime::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(3);
        let b = SimTime::from_micros(1);
        assert_eq!(a - b, SimTime::from_micros(2));
        assert_eq!(a + b, SimTime::from_micros(4));
        assert_eq!(a / 3, SimTime::from_micros(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a * 0.5, SimTime::from_nanos(1_500));
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", SimTime(500)), "500ps");
        assert_eq!(format!("{}", SimTime::from_nanos(42)), "42.000ns");
        assert_eq!(format!("{}", SimTime::from_micros(7)), "7.000us");
        assert_eq!(format!("{}", SimTime::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimTime::SEC * 2), "2.000s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::NS < SimTime::US);
        assert!(SimTime::MAX > SimTime::SEC);
    }

    #[test]
    fn sum_iterator() {
        let total: SimTime = (1..=4u64).map(SimTime::from_nanos).sum();
        assert_eq!(total, SimTime::from_nanos(10));
    }
}
