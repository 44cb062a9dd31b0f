//! Percentile, quartile and busy-time arithmetic.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice: the smallest sample with at least
/// `p` of the samples at or below it.  `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), so `--repeat` judges spread exactly
/// as the acceptance pipeline does.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Accumulates the time a driver spends inside the program (push + step + drain);
/// waiting for the next tick is not busy time.
#[derive(Debug, Default, Clone, Copy)]
pub struct BusyClock {
    busy: Duration,
}

impl BusyClock {
    pub fn add(&mut self, from: Instant, to: Instant) {
        self.busy += to.saturating_duration_since(from);
    }

    pub fn seconds(&self) -> f64 {
        self.busy.as_secs_f64()
    }
}

/// `count / seconds`, `0.0` when nothing was timed.
pub fn rate(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 1,000 samples: p99 leaves exactly ten samples beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn busy_clock_excludes_idle_waits() {
        let t0 = Instant::now();
        let mut busy = BusyClock::default();
        busy.add(t0, t0 + Duration::from_millis(3));
        // 7 ms of idle wait between the two busy sections is never added.
        busy.add(
            t0 + Duration::from_millis(10),
            t0 + Duration::from_millis(12),
        );
        assert!((busy.seconds() - 0.005).abs() < 1e-9);
        assert_eq!(rate(500, busy.seconds()).round(), 100_000.0);
        assert_eq!(rate(5, 0.0), 0.0);
        // A reversed interval (clock read out of order) adds nothing.
        busy.add(t0 + Duration::from_millis(5), t0);
        assert!((busy.seconds() - 0.005).abs() < 1e-9);
    }
}
