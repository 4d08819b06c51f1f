//! Simulated time.
//!
//! All experiments in this repository run against a discrete-event simulation
//! rather than the wall clock (see `DESIGN.md` §3). Time is represented with
//! microsecond resolution, which is fine enough for the latency-bound
//! experiments (the paper uses a 1 second latency bound and millisecond-scale
//! measurements) while staying cheap to manipulate.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, measured in microseconds since the start of the
/// simulation.
///
/// `Timestamp` is a transparent newtype over `u64` (see C-NEWTYPE): it cannot
/// be confused with a [`SimDuration`] and arithmetic between the two is
/// restricted to the operations that make sense.
///
/// # Example
///
/// ```
/// use espice_events::{Timestamp, SimDuration};
///
/// let t = Timestamp::from_secs(2) + SimDuration::from_millis(500);
/// assert_eq!(t.as_micros(), 2_500_000);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The origin of simulated time.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Creates a timestamp from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis * 1_000)
    }

    /// Creates a timestamp from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Creates a timestamp from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "timestamp seconds must be non-negative");
        Timestamp((secs * 1_000_000.0).round() as u64)
    }

    /// Raw microseconds since the simulation origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the simulation origin (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds since the simulation origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: Timestamp) -> SimDuration {
        SimDuration::from_micros(self.0.saturating_sub(earlier.0))
    }

    /// Checked duration since `earlier`; `None` if `earlier > self`.
    pub fn checked_since(self, earlier: Timestamp) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration::from_micros)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: SimDuration) -> Timestamp {
        Timestamp(self.0 + rhs.as_micros())
    }
}

impl AddAssign<SimDuration> for Timestamp {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_micros();
    }
}

impl Sub<SimDuration> for Timestamp {
    type Output = Timestamp;

    fn sub(self, rhs: SimDuration) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs.as_micros()))
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = SimDuration;

    fn sub(self, rhs: Timestamp) -> SimDuration {
        self.saturating_since(rhs)
    }
}

/// A span of simulated time, measured in microseconds.
///
/// # Example
///
/// ```
/// use espice_events::SimDuration;
///
/// let slice = SimDuration::from_secs(1) / 4;
/// assert_eq!(slice.as_millis(), 250);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "duration seconds must be non-negative");
        SimDuration((secs * 1_000_000.0).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor.is_finite() && factor >= 0.0, "duration factor must be non-negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_roundtrip_units() {
        let t = Timestamp::from_secs(3);
        assert_eq!(t.as_micros(), 3_000_000);
        assert_eq!(t.as_millis(), 3_000);
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn timestamp_from_fractional_seconds() {
        let t = Timestamp::from_secs_f64(0.0015);
        assert_eq!(t.as_micros(), 1_500);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn timestamp_rejects_negative_seconds() {
        let _ = Timestamp::from_secs_f64(-1.0);
    }

    #[test]
    fn timestamp_duration_arithmetic() {
        let t = Timestamp::from_millis(100) + SimDuration::from_millis(50);
        assert_eq!(t.as_millis(), 150);
        assert_eq!((t - Timestamp::from_millis(100)).as_millis(), 50);
        // Saturating behaviour when subtracting a later timestamp.
        assert_eq!((Timestamp::from_millis(10) - Timestamp::from_millis(20)).as_micros(), 0);
    }

    #[test]
    fn checked_since_detects_ordering() {
        let early = Timestamp::from_secs(1);
        let late = Timestamp::from_secs(2);
        assert_eq!(late.checked_since(early), Some(SimDuration::from_secs(1)));
        assert_eq!(early.checked_since(late), None);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_secs(2);
        assert_eq!((d * 3).as_secs_f64(), 6.0);
        assert_eq!((d / 4).as_millis(), 500);
        assert_eq!(d.mul_f64(0.25).as_millis(), 500);
        assert_eq!((d - SimDuration::from_secs(5)).as_micros(), 0);
    }

    #[test]
    fn duration_is_zero() {
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_micros(1).is_zero());
    }

    #[test]
    fn display_formats_in_seconds() {
        assert_eq!(Timestamp::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250000s");
    }
}
