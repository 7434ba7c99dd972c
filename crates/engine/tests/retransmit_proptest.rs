//! Property tests over the extracted retransmit-timer math — and over the
//! full at-least-once ledger driven purely in virtual time: a blackholed
//! transport (every send accepted, no ack ever returned) exercises the
//! complete backoff schedule, retry-budget exhaustion and dead-lettering
//! without a single thread or sleep.

use bluedove_baselines::AnyStrategy;
use bluedove_core::{AttributeSpace, MatcherId, Message, MessageId, RandomPolicy, Time};
use bluedove_engine::{
    backoff_delay, jitter_bound, retransmit_delay, DispatcherEffect, DispatcherEngine,
    DispatcherEngineConfig, DispatcherEvent, DispatcherOut, DispatcherPort, RetryPolicy,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Pure timer math
// ---------------------------------------------------------------------------

proptest! {
    /// Backoff doubles per attempt until the 2⁶ cap, then stays flat —
    /// for any base period.
    #[test]
    fn backoff_grows_then_caps(base in 1e-4f64..10.0, attempt in 0u32..64) {
        let d = backoff_delay(base, attempt);
        prop_assert!(d.is_finite() && d > 0.0);
        if attempt < 6 {
            prop_assert_eq!(backoff_delay(base, attempt + 1), d * 2.0);
        } else {
            prop_assert_eq!(d, backoff_delay(base, 6));
            prop_assert_eq!(d, base * 64.0);
        }
    }

    /// A retransmit delay is the deterministic backoff plus strictly less
    /// than one jitter bound, and never less than the backoff itself.
    #[test]
    fn retransmit_delay_is_backoff_plus_bounded_jitter(
        base in 1e-4f64..10.0,
        attempt in 0u32..64,
        jitter01 in 0f64..1.0,
    ) {
        let d = retransmit_delay(base, attempt, jitter01);
        let lo = backoff_delay(base, attempt);
        prop_assert!(d >= lo, "{d} < backoff {lo}");
        prop_assert!(d < lo + jitter_bound(base), "{d} exceeds jitter bound");
    }

    /// The jitter bound is a quarter period, floored at one microsecond.
    #[test]
    fn jitter_bound_is_quarter_period_floored(base in 0f64..10.0) {
        let b = jitter_bound(base);
        prop_assert!(b >= 1e-6);
        prop_assert!((b - (base / 4.0).max(1e-6)).abs() < 1e-15);
    }

    /// With the jitter draw held fixed, delays never shrink as the
    /// attempt number grows (the schedule always moves outward).
    #[test]
    fn delays_are_monotone_in_attempt(
        base in 1e-4f64..10.0,
        attempt in 0u32..64,
        jitter01 in 0f64..1.0,
    ) {
        prop_assert!(
            retransmit_delay(base, attempt + 1, jitter01)
                >= retransmit_delay(base, attempt, jitter01)
        );
    }
}

// ---------------------------------------------------------------------------
// The ledger under a blackholed transport, in virtual time
// ---------------------------------------------------------------------------

/// Accepts every frame, acks nothing, and records the effects.
#[derive(Default)]
struct Blackhole {
    forwards: u32,
    retransmissions: u32,
    dead_lettered: Vec<MessageId>,
    dropped: Vec<MessageId>,
}

impl DispatcherPort for Blackhole {
    fn send(&mut self, _to: MatcherId, _addr: &str, _out: DispatcherOut) -> bool {
        true
    }

    fn sub_ack(
        &mut self,
        _subscriber: bluedove_core::SubscriberId,
        _sub: bluedove_core::SubscriptionId,
    ) {
    }

    fn effect(&mut self, effect: DispatcherEffect) {
        match effect {
            DispatcherEffect::Forwarded { retransmission, .. } => {
                self.forwards += 1;
                if retransmission {
                    self.retransmissions += 1;
                }
            }
            DispatcherEffect::DeadLettered { msg_id } => self.dead_lettered.push(msg_id),
            DispatcherEffect::Dropped { msg_id } => self.dropped.push(msg_id),
            DispatcherEffect::Failover
            | DispatcherEffect::Estimation { .. }
            | DispatcherEffect::Rejected(_) => {}
        }
    }
}

fn engine(seed: u64, matchers: u32, retry: RetryPolicy) -> DispatcherEngine {
    let space = AttributeSpace::uniform(2, 0.0, 100.0);
    DispatcherEngine::new(DispatcherEngineConfig {
        policy: Box::new(RandomPolicy),
        seed,
        retry,
        version: 1,
        strategy: AnyStrategy::bluedove(space, matchers),
        addrs: (0..matchers)
            .map(|m| (MatcherId(m), format!("m{m}")))
            .collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A publication whose acks are blackholed is retransmitted exactly
    /// `retry_budget` times on an outward-moving schedule, then
    /// dead-lettered — and the total virtual time spent matches the sum
    /// of the per-attempt backoff windows to within the jitter bounds.
    #[test]
    fn blackholed_publication_exhausts_budget_then_dead_letters(
        seed in any::<u64>(),
        matchers in 2u32..8,
        base in 0.05f64..2.0,
        budget in 0u32..10,
    ) {
        // Suspicion shorter than the smallest backoff gap: every timer
        // fire finds the previous (suspected) target forgiven again, so
        // no attempt is lost to an all-suspect rotation.
        let retry = RetryPolicy {
            acks: true,
            ack_timeout: base,
            retry_budget: budget,
            suspicion_ttl: base / 2.0,
        };
        let mut eng = engine(seed, matchers, retry);
        let mut port = Blackhole::default();

        let mut msg = Message::new(vec![50.0, 50.0]);
        msg.id = MessageId(1);
        eng.on_event(0.0, DispatcherEvent::Publish { msg, admitted_us: 1 }, &mut port);
        prop_assert_eq!(eng.in_flight(), 1);
        prop_assert_eq!(port.forwards, 1);

        // Drive virtual time straight to each deadline; no host clock.
        let mut now: Time = 0.0;
        let mut fires = 0u32;
        while let Some(deadline) = eng.next_deadline() {
            prop_assert!(deadline > now, "schedule must move outward");
            now = deadline;
            eng.on_event(now, DispatcherEvent::Tick, &mut port);
            fires += 1;
            prop_assert!(fires <= budget + 1, "more timer fires than the budget allows");
        }

        prop_assert_eq!(port.retransmissions, budget);
        prop_assert_eq!(port.forwards, budget + 1);
        prop_assert_eq!(port.dead_lettered.as_slice(), &[MessageId(1)]);
        prop_assert_eq!(port.dropped.len(), 0, "acks-on never drops, it dead-letters");
        prop_assert_eq!(eng.in_flight(), 0);
        prop_assert!(eng.next_deadline().is_none());

        // Dead-lettering fires after attempts 0..=budget have waited out
        // their backoff windows, each padded by less than one jitter bound.
        let floor: Time = (0..=budget).map(|a| backoff_delay(base, a)).sum();
        let ceil = floor + (budget + 1) as Time * jitter_bound(base);
        prop_assert!(now >= floor, "dead-lettered at {now}, before the backoff floor {floor}");
        prop_assert!(now < ceil, "dead-lettered at {now}, past the jitter ceiling {ceil}");
    }

    /// The same blackholed schedule interrupted by an ack at any point:
    /// the ledger empties, nothing is dead-lettered, and no timer fires
    /// after the ack (stale heap entries are no-ops).
    #[test]
    fn ack_at_any_attempt_stops_the_schedule(
        seed in any::<u64>(),
        matchers in 2u32..8,
        ack_after in 0u32..6,
    ) {
        let base = 0.25;
        let retry = RetryPolicy {
            acks: true,
            ack_timeout: base,
            retry_budget: 8,
            suspicion_ttl: base / 2.0,
        };
        let mut eng = engine(seed, matchers, retry);
        let mut port = Blackhole::default();

        let mut msg = Message::new(vec![50.0, 50.0]);
        msg.id = MessageId(1);
        eng.on_event(0.0, DispatcherEvent::Publish { msg, admitted_us: 1 }, &mut port);

        let mut now: Time = 0.0;
        for _ in 0..ack_after {
            let deadline = eng.next_deadline().expect("schedule still live");
            now = deadline;
            eng.on_event(now, DispatcherEvent::Tick, &mut port);
        }
        // Whichever matcher holds it now acks; any matcher id clears the
        // ledger entry (the engine keys the ledger by message, not target).
        eng.on_event(
            now + 0.001,
            DispatcherEvent::MatchAck {
                msg_id: MessageId(1),
                matcher: MatcherId(0),
                actual_us: 100,
            },
            &mut port,
        );
        prop_assert_eq!(eng.in_flight(), 0);

        // Drain whatever stale deadlines remain: all no-ops.
        let before = port.forwards;
        while let Some(deadline) = eng.next_deadline() {
            now = deadline.max(now);
            eng.on_event(now, DispatcherEvent::Tick, &mut port);
        }
        prop_assert_eq!(port.forwards, before, "a fire after the ack retransmitted");
        prop_assert_eq!(port.dead_lettered.len(), 0);
        prop_assert_eq!(port.retransmissions, ack_after);
    }
}
