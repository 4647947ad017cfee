//! A shared virtual clock.
//!
//! The paper's crawlers "implement\[ed\] sleeping functions" and the real
//! Facebook throttled them in wall-clock time. We model both sides of
//! that arms race against a *virtual* millisecond counter instead of
//! real time, so chaos experiments are fast and bit-reproducible: the
//! attacker advances the clock (politeness sleeps, backoff waits,
//! simulated response latency) and the platform reads it (rate-limit
//! windows, fault schedules).
//!
//! Single-writer discipline: only the crawler side advances the clock.
//! The platform only observes it, which keeps one experiment's timeline
//! a pure function of the request sequence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic virtual milliseconds, shareable across platform + crawler.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ms: AtomicU64,
}

impl VirtualClock {
    pub fn new() -> VirtualClock {
        VirtualClock { ms: AtomicU64::new(0) }
    }

    /// Shared-ownership constructor (the common case: one clock spanning
    /// a platform and the crawler attacking it).
    pub fn shared() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::new())
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.ms.load(Ordering::Relaxed)
    }

    /// Advance by `ms` and return the new time.
    pub fn advance_ms(&self, ms: u64) -> u64 {
        self.ms.fetch_add(ms, Ordering::Relaxed) + ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now_ms(), 0);
        assert_eq!(clock.advance_ms(1_500), 1_500);
        assert_eq!(clock.advance_ms(0), 1_500);
        assert_eq!(clock.advance_ms(25), 1_525);
        assert_eq!(clock.now_ms(), 1_525);
    }

    #[test]
    fn shared_clock_is_visible_across_clones() {
        let clock = VirtualClock::shared();
        let other = Arc::clone(&clock);
        clock.advance_ms(10);
        assert_eq!(other.now_ms(), 10);
    }
}
