//! The GSN time model: millisecond timestamps and durations.
//!
//! GSN treats network and processing delays as *inherent properties of the observation
//! process* (paper, Section 3): tuples carry explicit timestamps, windows are defined over
//! those timestamps, and multiple time attributes may coexist on a stream.  To keep that
//! model testable we use plain integer milliseconds rather than [`std::time::Instant`],
//! which allows both a wall-clock implementation and a fully deterministic simulated clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in time, in milliseconds since an arbitrary epoch.
///
/// GSN assigns a reception timestamp to every tuple that arrives without one.  Timestamps
/// are totally ordered; the ordering of a data stream is derived from the ordering of its
/// timestamps (paper, Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The earliest representable timestamp.
    pub const MIN: Timestamp = Timestamp(i64::MIN);
    /// The latest representable timestamp.
    pub const MAX: Timestamp = Timestamp(i64::MAX);
    /// The conventional epoch (zero).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Creates a timestamp from raw milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Timestamp(ms)
    }

    /// Returns the raw millisecond value.
    pub const fn as_millis(self) -> i64 {
        self.0
    }

    /// Returns the timestamp advanced by `d`, saturating at the representable bounds.
    pub fn saturating_add(self, d: Duration) -> Self {
        Timestamp(self.0.saturating_add(d.0))
    }

    /// Returns the timestamp moved back by `d`, saturating at the representable bounds.
    pub fn saturating_sub(self, d: Duration) -> Self {
        Timestamp(self.0.saturating_sub(d.0))
    }

    /// Returns the absolute difference between two timestamps.
    pub fn abs_diff(self, other: Timestamp) -> Duration {
        Duration(self.0.abs_diff(other.0) as i64)
    }

    /// Returns the later of two timestamps.
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two timestamps.
    pub fn min(self, other: Timestamp) -> Timestamp {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

impl From<i64> for Timestamp {
    fn from(ms: i64) -> Self {
        Timestamp(ms)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

/// A span of time in milliseconds.
///
/// Durations appear in deployment descriptors as window sizes (`storage-size="1h"`),
/// sampling intervals, history sizes and disconnect-buffer horizons.  Negative durations
/// are representable (they arise from subtracting timestamps) but descriptor parsing only
/// accepts non-negative spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub i64);

impl Duration {
    /// A zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Duration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        Duration(s * 1_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_minutes(m: i64) -> Self {
        Duration(m * 60_000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(h: i64) -> Self {
        Duration(h * 3_600_000)
    }

    /// Returns the raw millisecond value.
    pub const fn as_millis(self) -> i64 {
        self.0
    }

    /// Returns the duration in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// True when the duration is strictly negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Duration) -> Duration {
        Duration(self.0.saturating_add(other.0))
    }

    /// Multiplies the duration by an integer factor.
    pub fn saturating_mul(self, factor: i64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// Parses a GSN descriptor time specification.
    ///
    /// The GSN descriptor syntax uses a number followed by an optional unit suffix:
    /// * no suffix or `ms` — milliseconds
    /// * `s` — seconds
    /// * `m` — minutes
    /// * `h` — hours
    ///
    /// A bare number is interpreted as a *count* by window parsing; this function is only
    /// for time-valued attributes, so a bare number means milliseconds.
    ///
    /// ```
    /// use gsn_types::Duration;
    /// assert_eq!(Duration::parse_spec("10s"), Some(Duration::from_secs(10)));
    /// assert_eq!(Duration::parse_spec("1h"), Some(Duration::from_hours(1)));
    /// assert_eq!(Duration::parse_spec("250"), Some(Duration::from_millis(250)));
    /// assert_eq!(Duration::parse_spec("abc"), None);
    /// ```
    pub fn parse_spec(spec: &str) -> Option<Duration> {
        let spec = spec.trim();
        if spec.is_empty() {
            return None;
        }
        let (digits, unit) = split_unit(spec);
        let n: i64 = digits.parse().ok()?;
        if n < 0 {
            return None;
        }
        match unit {
            "" | "ms" => Some(Duration::from_millis(n)),
            "s" => Some(Duration::from_secs(n)),
            "m" | "min" => Some(Duration::from_minutes(n)),
            "h" => Some(Duration::from_hours(n)),
            _ => None,
        }
    }
}

/// Splits a descriptor time spec into its numeric prefix and unit suffix.
fn split_unit(spec: &str) -> (&str, &str) {
    let idx = spec
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit() && *c != '-')
        .map(|(i, _)| i)
        .unwrap_or(spec.len());
    (&spec[..idx], spec[idx..].trim())
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms % 3_600_000 == 0 && ms != 0 {
            write!(f, "{}h", ms / 3_600_000)
        } else if ms % 60_000 == 0 && ms != 0 {
            write!(f, "{}m", ms / 60_000)
        } else if ms % 1_000 == 0 && ms != 0 {
            write!(f, "{}s", ms / 1_000)
        } else {
            write!(f, "{}ms", ms)
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl From<i64> for Duration {
    fn from(ms: i64) -> Self {
        Duration(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_ordering_follows_millis() {
        assert!(Timestamp(5) < Timestamp(6));
        assert!(Timestamp(-1) < Timestamp(0));
        assert_eq!(Timestamp(7), Timestamp::from_millis(7));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(1_000);
        assert_eq!(t + Duration::from_secs(2), Timestamp(3_000));
        assert_eq!(t - Duration::from_millis(400), Timestamp(600));
        assert_eq!(Timestamp(3_000) - Timestamp(1_000), Duration::from_secs(2));
        assert_eq!(
            Timestamp(1_000) - Timestamp(3_000),
            Duration::from_millis(-2_000)
        );
    }

    #[test]
    fn saturating_ops_do_not_overflow() {
        assert_eq!(
            Timestamp::MAX.saturating_add(Duration::from_secs(1)),
            Timestamp::MAX
        );
        assert_eq!(
            Timestamp::MIN.saturating_sub(Duration::from_secs(1)),
            Timestamp::MIN
        );
        assert_eq!(
            Duration(i64::MAX).saturating_add(Duration(1)),
            Duration(i64::MAX)
        );
        assert_eq!(Duration(i64::MAX).saturating_mul(2), Duration(i64::MAX));
    }

    #[test]
    fn abs_diff_is_symmetric() {
        assert_eq!(Timestamp(10).abs_diff(Timestamp(4)), Duration(6));
        assert_eq!(Timestamp(4).abs_diff(Timestamp(10)), Duration(6));
    }

    #[test]
    fn min_max_pick_correct_ends() {
        assert_eq!(Timestamp(3).max(Timestamp(9)), Timestamp(9));
        assert_eq!(Timestamp(3).min(Timestamp(9)), Timestamp(3));
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::from_secs(2).as_millis(), 2_000);
        assert_eq!(Duration::from_minutes(3).as_millis(), 180_000);
        assert_eq!(Duration::from_hours(1).as_millis(), 3_600_000);
        assert!((Duration::from_millis(1_500).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn duration_parse_spec_accepts_all_units() {
        assert_eq!(Duration::parse_spec("15"), Some(Duration::from_millis(15)));
        assert_eq!(
            Duration::parse_spec("15ms"),
            Some(Duration::from_millis(15))
        );
        assert_eq!(Duration::parse_spec("10s"), Some(Duration::from_secs(10)));
        assert_eq!(Duration::parse_spec("5m"), Some(Duration::from_minutes(5)));
        assert_eq!(
            Duration::parse_spec("5min"),
            Some(Duration::from_minutes(5))
        );
        assert_eq!(Duration::parse_spec("2h"), Some(Duration::from_hours(2)));
        assert_eq!(Duration::parse_spec(" 30s "), Some(Duration::from_secs(30)));
    }

    #[test]
    fn duration_parse_spec_rejects_garbage() {
        assert_eq!(Duration::parse_spec(""), None);
        assert_eq!(Duration::parse_spec("ten seconds"), None);
        assert_eq!(Duration::parse_spec("10d"), None);
        assert_eq!(Duration::parse_spec("-5s"), None);
    }

    #[test]
    fn duration_display_round_trips_through_parse() {
        for d in [
            Duration::from_millis(17),
            Duration::from_secs(10),
            Duration::from_minutes(90),
            Duration::from_hours(2),
            Duration::ZERO,
        ] {
            let shown = d.to_string();
            assert_eq!(Duration::parse_spec(&shown), Some(d), "failed for {shown}");
        }
    }

    #[test]
    fn duration_flags() {
        assert!(Duration::ZERO.is_zero());
        assert!(!Duration(1).is_zero());
        assert!(Duration(-1).is_negative());
        assert!(!Duration(1).is_negative());
    }
}
