//! Virtual (simulated) time.

use std::ops::{Add, AddAssign, Sub};

/// A point on (or span of) the virtual clock, in seconds.
///
/// Stored as `f64` seconds: at nanosecond granularity this stays exact well
/// past any simulated run length we care about, and every quantity that
/// produces it (flops / GFLOPS, bytes / bandwidth) is naturally fractional.
#[derive(
    Debug, Clone, Copy, PartialEq, PartialOrd, Default, serde::Serialize, serde::Deserialize,
)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// From seconds.
    pub fn secs(s: f64) -> Self {
        SimTime(s)
    }

    /// Value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Elementwise maximum.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Elementwise minimum.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.4}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.2}us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units() {
        assert_eq!(SimTime::secs(1.5).as_secs(), 1.5);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::secs(1.0);
        let b = SimTime::secs(2.5);
        assert_eq!((a + b).as_secs(), 3.5);
        assert_eq!((b - a).as_secs(), 1.5);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let mut c = a;
        c += b;
        assert_eq!(c.as_secs(), 3.5);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime::secs(2.0).to_string(), "2.0000s");
        assert_eq!(SimTime::secs(5e-3).to_string(), "5.000ms");
        assert_eq!(SimTime::secs(7e-6).to_string(), "7.00us");
    }
}
