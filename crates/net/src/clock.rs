//! Wall-clock to virtual-time mapping.
//!
//! The protocol core counts time in [`SimTime`] microseconds from an
//! arbitrary origin. The simulator advances that clock by
//! discrete events; a socket driver lives on the machine's monotonic
//! clock instead, so it anchors `SimTime::ZERO` at construction and
//! reads elapsed wall time micro-for-micro. All servers of one process
//! (or one [`crate::TcpCommunityDriver`]) share a single anchor so
//! their cores agree on "now".

use std::time::{Duration, Instant};

use openwf_simnet::SimTime;

/// A shared monotonic anchor translating wall time into [`SimTime`].
///
/// `Copy`: handing a clock to another server copies the anchor, so every
/// copy reads the same timeline.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Anchors `SimTime::ZERO` at the current instant.
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed since the anchor, as virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// The wall instant at which `at` virtual time is (or was) reached —
    /// what a poll loop sleeps until to fire a timer due at `at`.
    pub fn instant_of(&self, at: SimTime) -> Instant {
        self.start + Duration::from_micros(at.as_micros())
    }

    /// How long until `at` is reached ([`Duration::ZERO`] if already
    /// past) — a ready-made `recv_timeout` bound.
    pub fn until(&self, at: SimTime) -> Duration {
        self.instant_of(at)
            .saturating_duration_since(Instant::now())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_and_shared() {
        let clock = WallClock::new();
        let copy = clock;
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = copy.now();
        assert!(b > a, "copies share the anchor and time advances");
    }

    #[test]
    fn until_saturates_for_past_deadlines() {
        let clock = WallClock::new();
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(clock.until(SimTime::ZERO), Duration::ZERO);
        let far = SimTime::from_micros(u64::from(u32::MAX));
        assert!(clock.until(far) > Duration::from_secs(1));
    }
}
