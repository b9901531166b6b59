//! Token-bucket rate limiter for S1 packets.
//!
//! S1 packets are the only thing ALPHA forwards unconditionally, so they
//! are the remaining flooding vector; §3.5 tells relays to "initially
//! limit and later increase the maximum size of S1 packets per sender".
//! This bucket implements exactly that: bytes of S1 per association per
//! second, refilled continuously, with a burst of one second's budget.

use crate::Timestamp;

/// Byte-rate token bucket (None = unlimited).
#[derive(Clone)]
pub struct S1Limiter {
    rate_per_sec: Option<u64>,
    tokens: u64,
    last_refill: Timestamp,
}

impl S1Limiter {
    /// A bucket allowing `rate_per_sec` S1 bytes per second (burst = one
    /// second's worth), or unlimited when `None`.
    #[must_use]
    pub fn new(rate_per_sec: Option<u64>) -> S1Limiter {
        S1Limiter {
            rate_per_sec,
            tokens: rate_per_sec.unwrap_or(0),
            last_refill: Timestamp::ZERO,
        }
    }

    /// Account an S1 of `bytes` at time `now`; `true` = within budget.
    pub fn allow(&mut self, bytes: u64, now: Timestamp) -> bool {
        let Some(rate) = self.rate_per_sec else {
            return true;
        };
        let elapsed_us = now.since(self.last_refill);
        if elapsed_us > 0 {
            let refill = rate.saturating_mul(elapsed_us) / 1_000_000;
            if refill > 0 {
                self.tokens = self.tokens.saturating_add(refill).min(rate);
                self.last_refill = now;
            }
        }
        if bytes <= self.tokens {
            self.tokens -= bytes;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_allows() {
        let mut l = S1Limiter::new(None);
        for i in 0..100 {
            assert!(l.allow(u64::MAX / 2, Timestamp::from_micros(i)));
        }
    }

    #[test]
    fn burst_then_blocked() {
        let mut l = S1Limiter::new(Some(1000));
        let t = Timestamp::from_millis(1);
        assert!(l.allow(600, t));
        assert!(l.allow(400, t));
        assert!(!l.allow(1, t)); // bucket empty
    }

    #[test]
    fn refills_over_time() {
        let mut l = S1Limiter::new(Some(1000));
        let t0 = Timestamp::ZERO;
        assert!(l.allow(1000, t0));
        assert!(!l.allow(100, t0));
        // 100 ms later: 100 tokens back.
        let t1 = Timestamp::from_millis(100);
        assert!(l.allow(100, t1));
        assert!(!l.allow(1, t1));
    }

    #[test]
    fn a_rate_near_u64_max_saturates() {
        let mut l = S1Limiter::new(Some(u64::MAX));
        assert!(l.allow(1, Timestamp::from_millis(1_000)));
        assert!(l.allow(u64::MAX - 1, Timestamp::from_millis(2_000)));
        assert!(!l.allow(2, Timestamp::from_millis(2_000)));
    }

    #[test]
    fn never_exceeds_burst() {
        let mut l = S1Limiter::new(Some(1000));
        // A long quiet period must not accumulate more than one second.
        let t = Timestamp::from_millis(60_000);
        assert!(l.allow(1000, t));
        assert!(!l.allow(1, t));
    }

    #[test]
    fn refills_across_timestamp_jumps() {
        let mut l = S1Limiter::new(Some(1000));
        // Drain the full burst, then jump the clock far forward: the
        // bucket must refill to exactly one burst, no more.
        assert!(l.allow(1000, Timestamp::from_millis(5)));
        assert!(!l.allow(1, Timestamp::from_millis(5)));
        let jumped = Timestamp::from_millis(3_600_000); // +1 h
        assert!(l.allow(1000, jumped));
        assert!(!l.allow(1, jumped));
        // A backwards jump (clock regression) must neither panic nor
        // grant budget the forward clock already spent.
        assert!(!l.allow(1000, Timestamp::from_millis(5)));
        // Once real time catches back up, refill resumes normally.
        assert!(l.allow(100, jumped.plus_micros(100_000)));
    }

    #[test]
    fn zero_rate_refuses_everything() {
        let mut l = S1Limiter::new(Some(0));
        for ms in [0, 1, 1_000, 3_600_000] {
            assert!(!l.allow(1, Timestamp::from_millis(ms)));
        }
    }
}
