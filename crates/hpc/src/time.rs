//! Virtual time for the discrete-event cluster.
//!
//! Simulated wall-clock time is a plain `f64` count of seconds wrapped in a
//! newtype so it is totally ordered (NaN is rejected at construction) and can
//! live in heaps.

use std::cmp::Ordering;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since pilot start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds; panics on NaN (programming error).
    pub fn seconds(s: f64) -> Self {
        assert!(!s.is_nan(), "SimTime cannot be NaN");
        SimTime(s)
    }

    pub fn as_secs(self) -> f64 {
        self.0
    }

    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        SimTime::seconds(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::seconds(1.0);
        let b = a + 2.5;
        assert!(b > a);
        assert_eq!(b - a, 2.5);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let mut c = a;
        c += 1.0;
        assert_eq!(c.as_secs(), 2.0);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let _ = SimTime::seconds(f64::NAN);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::seconds(1.5).to_string(), "1.500s");
    }

    #[test]
    fn sortable_in_collections() {
        let mut v = [SimTime::seconds(3.0), SimTime::ZERO, SimTime::seconds(1.0)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::seconds(3.0));
    }
}
