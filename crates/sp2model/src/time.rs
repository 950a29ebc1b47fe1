//! Virtual time as a strongly typed quantity.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) virtual time, stored in nanoseconds.
///
/// All protocol costs in the simulation are expressed as `VirtualTime`
/// durations; per-node [`VirtualClock`](crate::VirtualClock)s accumulate them.
/// The newtype keeps nanoseconds from being confused with element counts or
/// byte counts in the cost arithmetic.
///
/// ```
/// use sp2model::VirtualTime;
/// let t = VirtualTime::from_micros(365);
/// assert_eq!(t.as_nanos(), 365_000);
/// assert_eq!(t + t, VirtualTime::from_micros(730));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(u64);

impl VirtualTime {
    /// The zero duration / origin of virtual time.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        VirtualTime(nanos)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        VirtualTime(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        VirtualTime(millis * 1_000_000)
    }

    /// The duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration in fractional seconds.
    fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; the result never goes below zero.
    pub fn saturating_sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(rhs.0))
    }

    /// Component-wise maximum, used when merging clocks.
    pub fn max(self, other: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.max(other.0))
    }

    /// Scales the duration by an integer factor.
    pub fn scale(self, factor: u64) -> VirtualTime {
        VirtualTime(self.0.saturating_mul(factor))
    }
}

impl Add for VirtualTime {
    type Output = VirtualTime;

    fn add(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for VirtualTime {
    fn add_assign(&mut self, rhs: VirtualTime) {
        *self = *self + rhs;
    }
}

impl Sub for VirtualTime {
    type Output = VirtualTime;

    fn sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for VirtualTime {
    fn sum<I: Iterator<Item = VirtualTime>>(iter: I) -> VirtualTime {
        iter.fold(VirtualTime::ZERO, Add::add)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.1}us", self.as_micros_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(VirtualTime::from_micros(365).as_nanos(), 365_000);
        assert_eq!(VirtualTime::from_millis(2), VirtualTime::from_micros(2_000));
    }

    #[test]
    fn arithmetic_is_saturating() {
        let a = VirtualTime::from_nanos(u64::MAX);
        let b = VirtualTime::from_nanos(10);
        assert_eq!(a + b, a);
        assert_eq!(b - a, VirtualTime::ZERO);
        assert_eq!(b.saturating_sub(a), VirtualTime::ZERO);
    }

    #[test]
    fn ordering_and_max() {
        let fast = VirtualTime::from_micros(10);
        let slow = VirtualTime::from_micros(20);
        assert!(fast < slow);
        assert_eq!(fast.max(slow), slow);
    }

    #[test]
    fn sum_over_iterator() {
        let total: VirtualTime = (1..=4).map(VirtualTime::from_micros).sum();
        assert_eq!(total, VirtualTime::from_micros(10));
    }

    #[test]
    fn display_uses_human_units() {
        assert_eq!(VirtualTime::from_micros(12).to_string(), "12.0us");
        assert_eq!(VirtualTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(VirtualTime::from_millis(2000).to_string(), "2.000s");
    }

    #[test]
    fn scale_multiplies() {
        assert_eq!(VirtualTime::from_micros(3).scale(4), VirtualTime::from_micros(12));
    }
}
