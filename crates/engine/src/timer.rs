//! The retransmit-timer math of the at-least-once pipeline, in virtual
//! time.
//!
//! Pure functions of `(base timeout, attempt, jitter draw)` so the whole
//! backoff schedule is property-testable without threads or sleeps: the
//! engine draws one uniform `[0, 1)` sample per scheduled retransmission
//! and everything else is deterministic arithmetic on [`Time`] seconds.

use bluedove_core::Time;

/// Engine-level knobs of the acknowledged at-least-once pipeline, all in
/// [`Time`] seconds. Both hosts hand it to the dispatch engine as it is;
/// the threaded cluster's `Duration` setters lower into it once.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Whether forwards request acknowledgements at all. Off restores the
    /// fire-and-forget pipeline (synchronous failover only, then drop).
    pub acks: bool,
    /// Base ack timeout in seconds; retransmission `n` waits
    /// `ack_timeout · 2ⁿ` plus jitter before declaring the target suspect.
    pub ack_timeout: Time,
    /// Retransmissions allowed per publication before it is dead-lettered.
    pub retry_budget: u32,
    /// How long a matcher stays suspect after a send error or ack timeout
    /// before it is probed again. `Time::INFINITY` makes suspicion
    /// permanent (the simulator's default: its failure model has no
    /// restarts, so a detected-dead matcher must stay shunned).
    pub suspicion_ttl: Time,
}

impl Default for RetryPolicy {
    /// The threaded cluster's defaults: acks on, 250 ms base timeout,
    /// 6 retransmissions, 2 s suspicion.
    fn default() -> Self {
        RetryPolicy {
            acks: true,
            ack_timeout: 0.25,
            retry_budget: 6,
            suspicion_ttl: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A fire-and-forget policy (no acks, permanent suspicion) — the
    /// simulator's default reliability model.
    pub fn fire_and_forget() -> Self {
        RetryPolicy {
            acks: false,
            suspicion_ttl: Time::INFINITY,
            ..Default::default()
        }
    }
}

/// Deterministic backoff component of retransmission `attempt` (0-based):
/// `base · 2^min(attempt, 6)` — exponential growth capped at 2⁶ periods.
pub fn backoff_delay(base: Time, attempt: u32) -> Time {
    base * 2u32.saturating_pow(attempt.min(6)) as f64
}

/// Upper bound (exclusive) of the jitter added to one retransmit delay: a
/// quarter of the base period, floored at one microsecond so a degenerate
/// base still de-synchronizes concurrent dispatchers.
pub fn jitter_bound(base: Time) -> Time {
    (base / 4.0).max(1e-6)
}

/// Delay until retransmission `attempt` (0-based) fires, given one uniform
/// jitter draw `jitter01 ∈ [0, 1)`: exponential backoff capped at 2⁶
/// periods plus up to a quarter period of jitter so concurrent dispatchers
/// don't retransmit in lockstep.
pub fn retransmit_delay(base: Time, attempt: u32, jitter01: f64) -> Time {
    debug_assert!((0.0..1.0).contains(&jitter01), "jitter01={jitter01}");
    backoff_delay(base, attempt) + jitter01 * jitter_bound(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let base = 0.25;
        for a in 0..6 {
            assert_eq!(backoff_delay(base, a + 1), backoff_delay(base, a) * 2.0);
        }
        assert_eq!(backoff_delay(base, 6), backoff_delay(base, 7));
        assert_eq!(backoff_delay(base, 6), backoff_delay(base, u32::MAX));
    }

    #[test]
    fn jitter_stays_under_a_quarter_period() {
        let base = 0.25;
        let lo = retransmit_delay(base, 0, 0.0);
        let hi = retransmit_delay(base, 0, 0.999_999);
        assert_eq!(lo, backoff_delay(base, 0));
        assert!(hi < backoff_delay(base, 0) + jitter_bound(base));
    }
}
