//! The elasticity control loop and its typed API (§III-C, Figure 9).
//!
//! BlueDove's title promises an *elastic* service: matchers join under
//! load and leave when load subsides. This module closes that loop at the
//! engine layer, where both hosts can share it:
//!
//! - [`LoadSnapshot`] is a point-in-time view of the gossiped
//!   `(queue length, λ, µ)` triples the forwarding policy already
//!   distributes — the only input the controller consumes;
//! - [`Autoscaler`] is a deterministic state machine over successive
//!   snapshots, emitting [`ScaleDecision`]s gated by high/low watermarks,
//!   a hysteresis streak and a cooldown window;
//! - [`ScalePlan`] is the typed request both hosts execute through one
//!   entry point (`apply_scale` on `SimCluster` and `Cluster`), replacing
//!   the closure-taking `add_matcher_with_load` interface.
//!
//! Like the dispatcher and matcher engines, the autoscaler never touches
//! a clock or a transport: time arrives stamped on the snapshot, and the
//! decision goes back to the [`ControlEngine`](crate::ControlEngine),
//! which plans the join or leave the host executes.

use bluedove_core::{DimIdx, DimStats, MatcherId, Time};

/// A point-in-time view of per-`(matcher, dimension)` load, assembled by
/// the host from the same `(q, λ, µ)` reports matchers push to
/// dispatchers. Also the typed carrier of per-dimension subscription
/// counts for segment splitting (the quantity `split_join` balances).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadSnapshot {
    /// When the snapshot was assembled (host time, seconds).
    pub now: Time,
    samples: Vec<(MatcherId, DimIdx, DimStats)>,
}

impl LoadSnapshot {
    /// An empty snapshot at `now`.
    pub fn new(now: Time) -> Self {
        LoadSnapshot {
            now,
            samples: Vec::new(),
        }
    }

    /// An empty snapshot at time zero — the "no load information" value;
    /// growing on it splits segments uniformly.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Records one `(matcher, dim)` report. A later report for the same
    /// pair replaces the earlier one.
    pub fn push(&mut self, matcher: MatcherId, dim: DimIdx, stats: DimStats) {
        if let Some(slot) = self
            .samples
            .iter_mut()
            .find(|(m, d, _)| *m == matcher && *d == dim)
        {
            slot.2 = stats;
        } else {
            self.samples.push((matcher, dim, stats));
        }
    }

    /// The raw samples, in insertion order.
    pub fn samples(&self) -> &[(MatcherId, DimIdx, DimStats)] {
        &self.samples
    }

    /// Distinct matchers covered by the snapshot, ascending.
    pub fn matchers(&self) -> Vec<MatcherId> {
        let mut v: Vec<MatcherId> = self.samples.iter().map(|&(m, _, _)| m).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of distinct matchers covered.
    pub fn matcher_count(&self) -> usize {
        self.matchers().len()
    }

    /// The split-weight of `(matcher, dim)`: its reported subscription
    /// count, or 0 when the snapshot has no sample for the pair. An empty
    /// snapshot therefore degenerates to a uniform split (the segment
    /// table breaks all-zero ties deterministically).
    pub fn load_of(&self, matcher: MatcherId, dim: DimIdx) -> f64 {
        self.samples
            .iter()
            .find(|(m, d, _)| *m == matcher && *d == dim)
            .map(|(_, _, s)| s.sub_count as f64)
            .unwrap_or(0.0)
    }

    /// The pressure on one matcher: its utilization `Σ_dim λ/µ` plus its
    /// total queue depth normalized by `queue_norm` (so a standing backlog
    /// registers even when the rate estimators are stale). Dimensions with
    /// no measured service rate contribute only their queue term.
    pub fn pressure_of(&self, matcher: MatcherId, queue_norm: f64) -> f64 {
        let mut p = 0.0;
        for (m, _, s) in &self.samples {
            if *m != matcher {
                continue;
            }
            if s.mu > 0.0 {
                p += s.lambda / s.mu;
            }
            p += s.queue_len as f64 / queue_norm.max(1.0);
        }
        p
    }

    /// Mean pressure across the snapshot's matchers — the quantity the
    /// watermarks compare against. Zero for an empty snapshot.
    pub fn mean_pressure(&self, queue_norm: f64) -> f64 {
        let matchers = self.matchers();
        if matchers.is_empty() {
            return 0.0;
        }
        let total: f64 = matchers
            .iter()
            .map(|&m| self.pressure_of(m, queue_norm))
            .sum();
        total / matchers.len() as f64
    }

    /// The least-pressured matcher — the scale-down victim. Ties prefer
    /// the **highest** id (retire the newest join first), keeping the
    /// choice deterministic across hosts.
    pub fn coldest(&self, queue_norm: f64) -> Option<MatcherId> {
        self.matchers().into_iter().rev().min_by(|&a, &b| {
            self.pressure_of(a, queue_norm)
                .total_cmp(&self.pressure_of(b, queue_norm))
        })
    }
}

/// Autoscaler tunables. The defaults suit the simulator's data-center
/// cost model: react within a few report intervals, never flap faster
/// than the segment-table propagation delay.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalerConfig {
    /// Mean pressure above which the cluster is considered overloaded.
    /// Pressure ≈ utilization, so 1.0 is the saturation knee.
    pub high_watermark: f64,
    /// Mean pressure below which the cluster is considered over-provisioned.
    pub low_watermark: f64,
    /// Consecutive breaching snapshots required before a decision fires —
    /// the hysteresis that filters one-report blips.
    pub hysteresis: u32,
    /// Seconds after a decision during which the controller holds, however
    /// loud the watermarks are (lets a join/leave take effect before the
    /// next measurement is trusted).
    pub cooldown: Time,
    /// Never scale below this many matchers.
    pub min_matchers: usize,
    /// Never scale above this many matchers.
    pub max_matchers: usize,
    /// Queued messages per matcher that count as one unit of pressure
    /// (folds standing backlog into the utilization signal).
    pub queue_norm: f64,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            high_watermark: 0.8,
            low_watermark: 0.25,
            hysteresis: 2,
            cooldown: 10.0,
            min_matchers: 1,
            max_matchers: 64,
            queue_norm: 64.0,
        }
    }
}

/// What the controller wants done after one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Stay at the current size.
    Hold,
    /// Add one matcher.
    ScaleUp,
    /// Gracefully remove `victim` (the snapshot's coldest matcher).
    ScaleDown {
        /// The matcher to drain and retire.
        victim: MatcherId,
    },
}

/// The typed scale request both hosts execute through their `apply_scale`
/// entry points — the elasticity API that replaces the closure-taking
/// `add_matcher_with_load`.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalePlan {
    /// Add one matcher, splitting the heaviest segments by the snapshot's
    /// per-`(matcher, dim)` subscription counts (uniform when empty).
    Grow {
        /// The load snapshot the split weights come from.
        loads: LoadSnapshot,
    },
    /// Gracefully remove `victim`: drain its segments into clockwise
    /// neighbours, quiesce its queues, retire it from gossip.
    Shrink {
        /// The matcher to remove.
        victim: MatcherId,
    },
}

impl ScalePlan {
    /// A grow plan with no load information (uniform split).
    pub fn grow() -> Self {
        ScalePlan::Grow {
            loads: LoadSnapshot::empty(),
        }
    }

    /// Lowers an autoscaler decision onto a plan the host can execute,
    /// carrying `loads` as the split weights. `None` for `Hold`.
    pub fn from_decision(decision: ScaleDecision, loads: &LoadSnapshot) -> Option<Self> {
        match decision {
            ScaleDecision::Hold => None,
            ScaleDecision::ScaleUp => Some(ScalePlan::Grow {
                loads: loads.clone(),
            }),
            ScaleDecision::ScaleDown { victim } => Some(ScalePlan::Shrink { victim }),
        }
    }
}

/// What a host reports back after executing a [`ScalePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleOutcome {
    /// A matcher was added under this id.
    Added(MatcherId),
    /// The matcher was drained and removed.
    Removed(MatcherId),
}

impl ScaleOutcome {
    /// The matcher added or removed.
    pub fn matcher(self) -> MatcherId {
        match self {
            ScaleOutcome::Added(m) | ScaleOutcome::Removed(m) => m,
        }
    }
}

/// The deterministic elasticity controller: watermarks + hysteresis +
/// cooldown over successive [`LoadSnapshot`]s. Identical snapshot
/// sequences produce identical decision sequences on every host — the
/// engine-parity property the elasticity tests assert.
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    high_streak: u32,
    low_streak: u32,
    last_scale: Option<Time>,
    log: Vec<(Time, ScaleDecision)>,
}

impl Autoscaler {
    /// A controller with no history.
    pub fn new(cfg: AutoscalerConfig) -> Self {
        Autoscaler {
            cfg,
            high_streak: 0,
            low_streak: 0,
            last_scale: None,
            log: Vec::new(),
        }
    }

    /// The tunables this controller runs with.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.cfg
    }

    /// Every non-`Hold` decision so far, with the snapshot time it fired
    /// at — the trace the cross-host parity test compares.
    pub fn log(&self) -> &[(Time, ScaleDecision)] {
        &self.log
    }

    /// Consumes one snapshot and returns the decision. Watermark streaks
    /// keep accumulating during the cooldown window, so a persistent
    /// breach fires on the first snapshot after the window closes.
    pub fn observe(&mut self, snap: &LoadSnapshot) -> ScaleDecision {
        let matchers = snap.matcher_count();
        if matchers == 0 {
            return ScaleDecision::Hold;
        }
        let pressure = snap.mean_pressure(self.cfg.queue_norm);
        if pressure > self.cfg.high_watermark {
            self.high_streak += 1;
            self.low_streak = 0;
        } else if pressure < self.cfg.low_watermark {
            self.low_streak += 1;
            self.high_streak = 0;
        } else {
            self.high_streak = 0;
            self.low_streak = 0;
        }
        if let Some(t) = self.last_scale {
            if snap.now - t < self.cfg.cooldown {
                return ScaleDecision::Hold;
            }
        }
        if self.high_streak >= self.cfg.hysteresis && matchers < self.cfg.max_matchers {
            self.high_streak = 0;
            self.low_streak = 0;
            self.last_scale = Some(snap.now);
            self.log.push((snap.now, ScaleDecision::ScaleUp));
            return ScaleDecision::ScaleUp;
        }
        if self.low_streak >= self.cfg.hysteresis && matchers > self.cfg.min_matchers {
            if let Some(victim) = snap.coldest(self.cfg.queue_norm) {
                let decision = ScaleDecision::ScaleDown { victim };
                self.high_streak = 0;
                self.low_streak = 0;
                self.last_scale = Some(snap.now);
                self.log.push((snap.now, decision));
                return decision;
            }
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(sub_count: usize, queue_len: usize, lambda: f64, mu: f64) -> DimStats {
        DimStats {
            sub_count,
            queue_len,
            lambda,
            mu,
            updated_at: 0.0,
        }
    }

    fn snap(now: Time, per_matcher: &[(u32, f64, f64, usize)]) -> LoadSnapshot {
        let mut s = LoadSnapshot::new(now);
        for &(m, lambda, mu, q) in per_matcher {
            s.push(MatcherId(m), DimIdx(0), stats(10, q, lambda, mu));
        }
        s
    }

    fn cfg() -> AutoscalerConfig {
        AutoscalerConfig {
            high_watermark: 0.8,
            low_watermark: 0.25,
            hysteresis: 2,
            cooldown: 10.0,
            min_matchers: 1,
            max_matchers: 8,
            queue_norm: 64.0,
        }
    }

    #[test]
    fn one_breach_is_hysteresis_filtered() {
        let mut a = Autoscaler::new(cfg());
        assert_eq!(
            a.observe(&snap(0.0, &[(0, 90.0, 100.0, 0)])),
            ScaleDecision::Hold
        );
        // The second consecutive breach fires.
        assert_eq!(
            a.observe(&snap(1.0, &[(0, 90.0, 100.0, 0)])),
            ScaleDecision::ScaleUp
        );
        assert_eq!(a.log().len(), 1);
    }

    #[test]
    fn a_blip_resets_the_streak() {
        let mut a = Autoscaler::new(cfg());
        a.observe(&snap(0.0, &[(0, 90.0, 100.0, 0)]));
        // Back inside the band: streak resets...
        a.observe(&snap(1.0, &[(0, 50.0, 100.0, 0)]));
        // ...so a fresh breach needs the full hysteresis again.
        assert_eq!(
            a.observe(&snap(2.0, &[(0, 90.0, 100.0, 0)])),
            ScaleDecision::Hold
        );
    }

    #[test]
    fn cooldown_suppresses_flapping() {
        let mut a = Autoscaler::new(cfg());
        a.observe(&snap(0.0, &[(0, 90.0, 100.0, 0)]));
        assert_eq!(
            a.observe(&snap(1.0, &[(0, 90.0, 100.0, 0)])),
            ScaleDecision::ScaleUp
        );
        // Still overloaded, but inside the cooldown window: hold.
        for t in 2..10 {
            assert_eq!(
                a.observe(&snap(t as f64, &[(0, 90.0, 100.0, 0), (1, 90.0, 100.0, 0)])),
                ScaleDecision::Hold
            );
        }
        // The breach persisted through the window, so the first snapshot
        // past the cooldown fires immediately.
        assert_eq!(
            a.observe(&snap(11.5, &[(0, 90.0, 100.0, 0), (1, 90.0, 100.0, 0)])),
            ScaleDecision::ScaleUp
        );
    }

    #[test]
    fn scale_down_picks_the_coldest_and_respects_min() {
        let mut a = Autoscaler::new(cfg());
        let idle = snap(0.0, &[(0, 10.0, 100.0, 0), (1, 1.0, 100.0, 0)]);
        a.observe(&idle);
        let d = a.observe(&snap(1.0, &[(0, 10.0, 100.0, 0), (1, 1.0, 100.0, 0)]));
        assert_eq!(
            d,
            ScaleDecision::ScaleDown {
                victim: MatcherId(1)
            }
        );
        // A one-matcher cluster never shrinks.
        let mut b = Autoscaler::new(cfg());
        for t in 0..5 {
            assert_eq!(
                b.observe(&snap(t as f64, &[(0, 1.0, 100.0, 0)])),
                ScaleDecision::Hold
            );
        }
    }

    #[test]
    fn max_matchers_caps_growth() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            max_matchers: 2,
            ..cfg()
        });
        let hot = &[(0, 90.0, 100.0, 0), (1, 90.0, 100.0, 0)];
        a.observe(&snap(0.0, hot));
        assert_eq!(a.observe(&snap(1.0, hot)), ScaleDecision::Hold);
    }

    #[test]
    fn queue_backlog_registers_without_rate_estimates() {
        // µ = 0 (no service measured yet) but a standing queue: the queue
        // term alone must trip the high watermark.
        let mut a = Autoscaler::new(cfg());
        let jammed = snap(0.0, &[(0, 0.0, 0.0, 128)]);
        a.observe(&jammed);
        let mut jammed2 = jammed.clone();
        jammed2.now = 1.0;
        assert_eq!(a.observe(&jammed2), ScaleDecision::ScaleUp);
    }

    #[test]
    fn snapshot_replaces_samples_per_pair_and_ties_prefer_newest() {
        let mut s = LoadSnapshot::new(0.0);
        s.push(MatcherId(0), DimIdx(0), stats(5, 0, 0.0, 0.0));
        s.push(MatcherId(0), DimIdx(0), stats(9, 0, 0.0, 0.0));
        assert_eq!(s.samples().len(), 1);
        assert_eq!(s.load_of(MatcherId(0), DimIdx(0)), 9.0);
        s.push(MatcherId(3), DimIdx(0), stats(1, 0, 0.0, 0.0));
        // Equal (zero) pressure: the highest id is retired first.
        assert_eq!(s.coldest(64.0), Some(MatcherId(3)));
    }

    #[test]
    fn plans_lower_from_decisions() {
        let loads = snap(0.0, &[(0, 1.0, 2.0, 0)]);
        assert_eq!(ScalePlan::from_decision(ScaleDecision::Hold, &loads), None);
        assert!(matches!(
            ScalePlan::from_decision(ScaleDecision::ScaleUp, &loads),
            Some(ScalePlan::Grow { .. })
        ));
        assert_eq!(
            ScalePlan::from_decision(
                ScaleDecision::ScaleDown {
                    victim: MatcherId(4)
                },
                &loads
            ),
            Some(ScalePlan::Shrink {
                victim: MatcherId(4)
            })
        );
    }
}
