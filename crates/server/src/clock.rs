//! Injected telemetry clock.
//!
//! The serving control path runs on virtual ticks and must stay
//! bit-reproducible, so the server never reads a wall clock itself
//! (`clippy.toml` bans `Instant` here). Latency telemetry
//! still needs real timestamps in benchmarks — those inject a wall-clock
//! [`Clock`] from the bench layer, while tests and CI replay use
//! [`NullClock`] and get all-zero latencies with identical scheduling.

/// A monotonic nanosecond source for telemetry. Implementations must be
/// cheap: the scheduler samples it around every session step.
pub trait Clock: Sync {
    /// Nanoseconds from an arbitrary fixed origin, monotone
    /// non-decreasing.
    fn now_nanos(&self) -> u64;
}

/// The deterministic default: time stands still, latencies read zero,
/// and the schedule is a pure function of submissions and ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullClock;

impl Clock for NullClock {
    fn now_nanos(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_clock_is_frozen() {
        let c = NullClock;
        assert_eq!(c.now_nanos(), 0);
        assert_eq!(c.now_nanos(), 0);
    }
}
