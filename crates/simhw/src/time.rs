//! Simulated time.

use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// A point in simulated time, in seconds from step start.
///
/// Backed by `f64`; all arithmetic is pure, so runs are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// From seconds.
    pub fn from_secs(s: f64) -> SimTime {
        SimTime(s)
    }

    /// As seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// This time advanced by `s` seconds.
    pub fn plus_secs(self, s: f64) -> SimTime {
        SimTime(self.0 + s)
    }

    /// Elementwise maximum.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Elementwise minimum.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Difference in seconds (`self - earlier`).
    pub fn since(self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

/// A shared simulated clock.
///
/// The training-step executor advances it past each kernel; the tensor
/// cache reads it when submitting I/O jobs and advances it when an unpack
/// must wait for a reload (that advance *is* the exposed I/O latency the
/// paper measures).
///
/// ```
/// use ssdtrain_simhw::SimClock;
/// let clock = SimClock::new();
/// clock.advance_by(1.5);
/// assert_eq!(clock.now().as_secs(), 1.5);
/// clock.advance_to(ssdtrain_simhw::SimTime::from_secs(1.0)); // no-op: in the past
/// assert_eq!(clock.now().as_secs(), 1.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<Mutex<SimTime>>,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        *self.now.lock()
    }

    /// Advances by `secs` (must be non-negative).
    ///
    /// # Panics
    /// Panics on negative durations.
    pub fn advance_by(&self, secs: f64) -> SimTime {
        assert!(secs >= 0.0, "cannot advance by a negative duration");
        let mut now = self.now.lock();
        *now = now.plus_secs(secs);
        *now
    }

    /// Advances to `t` if `t` is in the future; otherwise leaves the clock
    /// unchanged. Returns the stall duration actually incurred.
    pub fn advance_to(&self, t: SimTime) -> f64 {
        let mut now = self.now.lock();
        if t > *now {
            let stall = t.since(*now);
            *now = t;
            stall
        } else {
            0.0
        }
    }

    /// Resets to zero (start of a new measured step).
    pub fn reset(&self) {
        *self.now.lock() = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_by_accumulates() {
        let c = SimClock::new();
        c.advance_by(0.25);
        c.advance_by(0.75);
        assert_eq!(c.now().as_secs(), 1.0);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let c = SimClock::new();
        c.advance_by(2.0);
        assert_eq!(c.advance_to(SimTime::from_secs(1.0)), 0.0);
        assert_eq!(c.now().as_secs(), 2.0);
        let stall = c.advance_to(SimTime::from_secs(3.5));
        assert!((stall - 1.5).abs() < 1e-12);
        assert_eq!(c.now().as_secs(), 3.5);
    }

    #[test]
    fn clones_share_the_clock() {
        let a = SimClock::new();
        let b = a.clone();
        b.advance_by(1.0);
        assert_eq!(a.now().as_secs(), 1.0);
    }

    #[test]
    fn reset_returns_to_zero() {
        let c = SimClock::new();
        c.advance_by(5.0);
        c.reset();
        assert_eq!(c.now(), SimTime::ZERO);
    }

    #[test]
    fn since_and_display() {
        let t = SimTime::from_secs(2.5);
        assert_eq!(t.since(SimTime::from_secs(1.0)), 1.5);
        assert_eq!(t.to_string(), "2.500000s");
    }
}
