//! The container clock.
//!
//! GSN's stream processing depends on a per-container local clock (paper, Section 3,
//! service 1).  Production deployments use wall-clock time; tests and the benchmark
//! harnesses use a [`SimulatedClock`] so that time-triggered workloads (Figure 3) can be
//! replayed deterministically and far faster than real time.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::time::{Duration, Timestamp};

/// A source of the container-local time.
///
/// Implementations must be cheap and thread-safe: the input stream manager reads the
/// clock for every arriving element.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current container-local time.
    fn now(&self) -> Timestamp;
}

/// Wall-clock time in milliseconds since the Unix epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl SystemClock {
    /// Creates a wall clock.
    pub fn new() -> SystemClock {
        SystemClock
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Timestamp {
        let ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as i64)
            .unwrap_or(0);
        Timestamp::from_millis(ms)
    }
}

/// A manually advanced clock shared between the harness and the container.
///
/// Cloning produces a handle onto the same underlying time so that a workload generator
/// and the container it drives observe identical timestamps.
#[derive(Debug, Clone, Default)]
pub struct SimulatedClock {
    now_ms: Arc<AtomicI64>,
}

impl SimulatedClock {
    /// Creates a simulated clock starting at time zero.
    pub fn new() -> SimulatedClock {
        SimulatedClock::starting_at(Timestamp::EPOCH)
    }

    /// Creates a simulated clock starting at `start`.
    pub fn starting_at(start: Timestamp) -> SimulatedClock {
        SimulatedClock {
            now_ms: Arc::new(AtomicI64::new(start.as_millis())),
        }
    }

    /// Advances the clock by `delta` and returns the new time.
    pub fn advance(&self, delta: Duration) -> Timestamp {
        let new = self.now_ms.fetch_add(delta.as_millis(), Ordering::SeqCst) + delta.as_millis();
        Timestamp::from_millis(new)
    }

    /// Jumps the clock to an absolute time.  Moving backwards is allowed (tests exercise
    /// out-of-order arrival) but discouraged in harness code.
    pub fn set(&self, now: Timestamp) {
        self.now_ms.store(now.as_millis(), Ordering::SeqCst);
    }
}

impl Clock for SimulatedClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_millis(self.now_ms.load(Ordering::SeqCst))
    }
}

/// A shared, dynamically dispatched clock handle as stored by containers.
pub type SharedClock = Arc<dyn Clock>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic_enough() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(a.as_millis() > 1_000_000_000_000); // after 2001 in epoch-millis
    }

    #[test]
    fn simulated_clock_starts_at_epoch() {
        let c = SimulatedClock::new();
        assert_eq!(c.now(), Timestamp::EPOCH);
    }

    #[test]
    fn simulated_clock_advance_and_set() {
        let c = SimulatedClock::starting_at(Timestamp(100));
        assert_eq!(c.now(), Timestamp(100));
        assert_eq!(c.advance(Duration::from_millis(50)), Timestamp(150));
        assert_eq!(c.now(), Timestamp(150));
        c.set(Timestamp(1_000));
        assert_eq!(c.now(), Timestamp(1_000));
    }

    #[test]
    fn simulated_clock_handles_are_shared() {
        let a = SimulatedClock::new();
        let b = a.clone();
        a.advance(Duration::from_secs(1));
        assert_eq!(b.now(), Timestamp(1_000));
    }

    #[test]
    fn clock_trait_object() {
        let clock: SharedClock = Arc::new(SimulatedClock::starting_at(Timestamp(7)));
        assert_eq!(clock.now(), Timestamp(7));
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the property under test needs other threads
    fn simulated_clock_is_thread_safe() {
        let c = SimulatedClock::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(Duration::from_millis(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), Timestamp(8_000));
    }
}
