//! Performance-aware message forwarding policies (§III-B).
//!
//! Given a message's candidate matchers (one per dimension), a dispatcher
//! picks the one expected to finish the match soonest. The paper evaluates
//! four policies (Figure 7):
//!
//! - [`AdaptivePolicy`] (default): estimated total processing time with
//!   linear extrapolation of the queue length between load updates.
//! - [`ResponseTimePolicy`]: same estimate but **without** extrapolation —
//!   the ablation the paper uses to show extrapolation is worth ~1.1×.
//! - [`SubscriptionCountPolicy`]: least `|Si(CMi)|`; static, ignores
//!   queueing.
//! - [`RandomPolicy`]: uniform choice; the baseline.

use crate::partition::Assignment;
use crate::stats::{DimStats, StatsView, Time};
use rand::Rng;

/// Strategy for choosing one candidate matcher for a message.
pub trait ForwardingPolicy: Send + Sync {
    /// Short name used in experiment output.
    fn name(&self) -> &'static str;

    /// Picks one of `candidates` (never empty). `view` holds the latest
    /// per-`(matcher, dim)` load reports; `now` is the dispatcher's clock.
    fn choose(
        &self,
        candidates: &[Assignment],
        view: &StatsView,
        now: Time,
        rng: &mut dyn rand::RngCore,
    ) -> Assignment;

    /// Whether the policy estimates load *between* updates (§III-B-2).
    /// When true, the dispatcher records its own forwards as local queue
    /// reservations ([`StatsView::reserve`]); the response-time policy of
    /// Figure 7 deliberately returns false — it uses the last report
    /// verbatim, which is exactly the deficiency the figure demonstrates.
    fn uses_estimation(&self) -> bool {
        false
    }
}

/// Uniform random choice among candidates (paper's baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct RandomPolicy;

impl ForwardingPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn choose(
        &self,
        candidates: &[Assignment],
        _view: &StatsView,
        _now: Time,
        rng: &mut dyn rand::RngCore,
    ) -> Assignment {
        assert!(!candidates.is_empty(), "no candidates");
        candidates[rng.gen_range(0..candidates.len())]
    }
}

/// Least subscriptions on the corresponding dimension:
/// `CM(m) = argmin |Si(CMi(m))|` (§III-B-1).
#[derive(Debug, Default, Clone, Copy)]
pub struct SubscriptionCountPolicy;

impl ForwardingPolicy for SubscriptionCountPolicy {
    fn name(&self) -> &'static str {
        "sub-count"
    }

    fn choose(
        &self,
        candidates: &[Assignment],
        view: &StatsView,
        _now: Time,
        _rng: &mut dyn rand::RngCore,
    ) -> Assignment {
        assert!(!candidates.is_empty(), "no candidates");
        *candidates
            .iter()
            .min_by_key(|a| (view.get(a.matcher, a.dim).sub_count, a.matcher, a.dim))
            .expect("non-empty")
    }
}

/// Shortest estimated processing time from the **last report only** — no
/// extrapolation between updates. This is the "response time based policy"
/// of Figure 7, prone to herd/oscillation effects because all dispatchers
/// see the same stale snapshot until the next update.
#[derive(Debug, Default, Clone, Copy)]
pub struct ResponseTimePolicy;

impl ForwardingPolicy for ResponseTimePolicy {
    fn name(&self) -> &'static str {
        "resp-time"
    }

    fn choose(
        &self,
        candidates: &[Assignment],
        view: &StatsView,
        _now: Time,
        _rng: &mut dyn rand::RngCore,
    ) -> Assignment {
        least_time(candidates, view, |s| s.processing_time(s.queue_len as f64))
    }
}

/// The paper's default adaptive policy (§III-B-2): between updates the
/// dispatcher extrapolates each candidate's queue as
/// `q(t) = q0 + (λ − µ)(t − t0)` and forwards to the candidate with the
/// least `(q(t) + 1)/µ`. Keeping queue length proportional to matching
/// rate equalizes total processing time across candidates and lets
/// multiple dispatchers coordinate implicitly through the feedback loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdaptivePolicy;

impl ForwardingPolicy for AdaptivePolicy {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn uses_estimation(&self) -> bool {
        true
    }

    fn choose(
        &self,
        candidates: &[Assignment],
        view: &StatsView,
        now: Time,
        _rng: &mut dyn rand::RngCore,
    ) -> Assignment {
        least_time(candidates, view, |s| {
            s.processing_time(s.extrapolated_queue(now))
        })
    }
}

/// The candidate whose stats give the least estimated processing `time`,
/// ties broken by `(matcher, dim)`.
fn least_time(
    candidates: &[Assignment],
    view: &StatsView,
    time: impl Fn(&DimStats) -> f64,
) -> Assignment {
    assert!(!candidates.is_empty(), "no candidates");
    let key = |a: &Assignment| time(&view.get(a.matcher, a.dim));
    *candidates
        .iter()
        .min_by(|a, b| {
            let order = key(a).partial_cmp(&key(b)).unwrap();
            order.then((a.matcher, a.dim).cmp(&(b.matcher, b.dim)))
        })
        .expect("non-empty")
}

/// All four policies in the order Figure 7 reports them, for sweeps.
pub fn all_policies() -> Vec<Box<dyn ForwardingPolicy>> {
    vec![
        Box::new(AdaptivePolicy),
        Box::new(ResponseTimePolicy),
        Box::new(SubscriptionCountPolicy),
        Box::new(RandomPolicy),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DimIdx, MatcherId};
    use crate::stats::DimStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cands() -> Vec<Assignment> {
        vec![
            Assignment::new(MatcherId(0), DimIdx(0)),
            Assignment::new(MatcherId(1), DimIdx(1)),
        ]
    }

    fn stats(q: usize, lambda: f64, mu: f64, t0: Time) -> DimStats {
        DimStats {
            sub_count: 0,
            queue_len: q,
            lambda,
            mu,
            updated_at: t0,
        }
    }

    #[test]
    fn random_policy_covers_all_candidates() {
        let mut rng = StdRng::seed_from_u64(42);
        let view = StatsView::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(RandomPolicy.choose(&cands(), &view, 0.0, &mut rng).matcher);
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn sub_count_picks_cold_spot() {
        // Figure 3's example: D has 4 subs on X, A has 13 on Y → pick D.
        let mut view = StatsView::new();
        let mut rng = StdRng::seed_from_u64(0);
        let c = vec![
            Assignment::new(MatcherId(0), DimIdx(1)), // "A" on Y: 13 subs
            Assignment::new(MatcherId(3), DimIdx(0)), // "D" on X: 4 subs
        ];
        view.update(
            MatcherId(0),
            DimIdx(1),
            DimStats {
                sub_count: 13,
                ..DimStats::empty()
            },
        );
        view.update(
            MatcherId(3),
            DimIdx(0),
            DimStats {
                sub_count: 4,
                ..DimStats::empty()
            },
        );
        let pick = SubscriptionCountPolicy.choose(&c, &view, 0.0, &mut rng);
        assert_eq!(pick.matcher, MatcherId(3));
    }

    #[test]
    fn response_time_ignores_growth_between_updates() {
        let mut view = StatsView::new();
        let mut rng = StdRng::seed_from_u64(0);
        // M0 reported empty but is filling fast (λ≫µ); M1 reported q=5,
        // stable. Without extrapolation M0 still looks better at t=10.
        view.update(MatcherId(0), DimIdx(0), stats(0, 100.0, 10.0, 0.0));
        view.update(MatcherId(1), DimIdx(1), stats(5, 10.0, 10.0, 0.0));
        let pick = ResponseTimePolicy.choose(&cands(), &view, 10.0, &mut rng);
        assert_eq!(pick.matcher, MatcherId(0));
    }

    #[test]
    fn adaptive_redirects_before_next_update() {
        // Same scenario: adaptive extrapolates M0's queue to
        // 0 + (100−10)·10 = 900 and redirects to M1 — the Figure 4 story.
        let mut view = StatsView::new();
        let mut rng = StdRng::seed_from_u64(0);
        view.update(MatcherId(0), DimIdx(0), stats(0, 100.0, 10.0, 0.0));
        view.update(MatcherId(1), DimIdx(1), stats(5, 10.0, 10.0, 0.0));
        let pick = AdaptivePolicy.choose(&cands(), &view, 10.0, &mut rng);
        assert_eq!(pick.matcher, MatcherId(1));
        // At the report instant itself, M0 (empty queue) is preferred.
        let pick0 = AdaptivePolicy.choose(&cands(), &view, 0.0, &mut rng);
        assert_eq!(pick0.matcher, MatcherId(0));
    }

    #[test]
    fn adaptive_balances_proportionally_to_mu() {
        // Faster matcher should win until its extrapolated queue/µ exceeds
        // the slower one's.
        let mut view = StatsView::new();
        let mut rng = StdRng::seed_from_u64(0);
        view.update(MatcherId(0), DimIdx(0), stats(10, 0.0, 100.0, 0.0)); // fast: (10+1)/100 = .11
        view.update(MatcherId(1), DimIdx(1), stats(2, 0.0, 10.0, 0.0)); // slow: (2+1)/10 = .3
        let pick = AdaptivePolicy.choose(&cands(), &view, 0.0, &mut rng);
        assert_eq!(
            pick.matcher,
            MatcherId(0),
            "fast matcher preferred despite longer queue"
        );
    }

    #[test]
    fn unknown_matchers_attract_first_messages() {
        // A brand-new matcher (no report) must not be starved.
        let mut view = StatsView::new();
        let mut rng = StdRng::seed_from_u64(0);
        view.update(MatcherId(0), DimIdx(0), stats(50, 10.0, 10.0, 0.0));
        let pick = AdaptivePolicy.choose(&cands(), &view, 1.0, &mut rng);
        assert_eq!(pick.matcher, MatcherId(1));
    }

    #[test]
    fn deterministic_tie_break_by_matcher_then_dim() {
        let view = StatsView::new();
        let mut rng = StdRng::seed_from_u64(0);
        let c = vec![
            Assignment::new(MatcherId(2), DimIdx(0)),
            Assignment::new(MatcherId(1), DimIdx(1)),
            Assignment::new(MatcherId(1), DimIdx(0)),
        ];
        let pick = AdaptivePolicy.choose(&c, &view, 0.0, &mut rng);
        assert_eq!((pick.matcher, pick.dim), (MatcherId(1), DimIdx(0)));
    }

    #[test]
    fn all_policies_ordering_matches_figure_7() {
        let names: Vec<&str> = all_policies().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["adaptive", "resp-time", "sub-count", "random"]);
    }
}
