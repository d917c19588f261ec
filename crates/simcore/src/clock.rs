//! Simulated time.
//!
//! All simulation time is kept in integer milliseconds. Experiments in the
//! paper are measured in minutes (30–60 minute runs) with 30-second
//! monitoring intervals, so millisecond resolution is far finer than any
//! decision the system makes while remaining exact (no floating-point drift
//! in event ordering).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A point in simulated time, in milliseconds since the start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time point from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Builds a time point from whole minutes.
    pub fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60_000)
    }

    /// This time point expressed in milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// This time point expressed in (truncated) whole seconds.
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// This time point expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time point expressed in fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Builds a duration from whole minutes.
    pub fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Builds a duration from fractional seconds, rounding to milliseconds.
    ///
    /// Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1_000.0).round() as u64)
    }

    /// This duration in milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// This duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// True when the duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1_000;
        let ms = self.0 % 1_000;
        write!(f, "{}m{:02}.{:03}s", total_secs / 60, total_secs % 60, ms)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(90).as_millis(), 90_000);
        assert_eq!(SimTime::from_mins(2).as_secs(), 120);
        assert_eq!(SimDuration::from_mins(1).as_millis(), 60_000);
        assert!((SimTime::from_secs(30).as_mins_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
        // Saturating subtraction: earlier minus later is zero, not a panic.
        assert_eq!(SimTime::from_secs(1) - SimTime::from_secs(9), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_clamps_garbage() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.0015).as_millis(), 2);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(SimTime::from_mins(3).to_string(), "3m00.000s");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }
}
