//! Runs a [`Scenario`] on the simulator host.
//!
//! The schedule's virtual times map directly onto the simulator clock:
//! churn events and message arrivals are merged into one timeline, so a
//! `Migrate` at t = 12.4 lands exactly between the arrivals straddling
//! that instant — bit-for-bit reproducible across runs and hosts.

use crate::cluster::SimCluster;
use bluedove_core::Subscription;
use bluedove_workload::{ChurnAction, ChurnKey, Scenario, ScenarioConfig, ScenarioRun};
use std::collections::HashMap;

impl SimCluster {
    /// Runs `scenario` under `cfg`: pre-loads the initial population,
    /// then admits `cfg.messages` publications at `cfg.rate` while firing
    /// the churn schedule at its exact virtual times, and finally drains
    /// for `cfg.drain` seconds.
    ///
    /// `cfg.mailboxes` is ignored — the simulator has no mailbox layer.
    ///
    /// # Panics
    /// Panics when the scenario's churn schedule fails
    /// [`validate`](bluedove_workload::ChurnSchedule::validate).
    pub fn run_scenario(&mut self, scenario: &dyn Scenario, cfg: &ScenarioConfig) -> ScenarioRun {
        let schedule = scenario.churn_schedule();
        schedule.validate().unwrap_or_else(|e| {
            panic!("scenario {}: invalid churn schedule: {e}", scenario.name())
        });

        let mut run = ScenarioRun::default();
        let mut subs = scenario.subscription_stream();
        self.subscribe_all(subs.by_ref().take(cfg.subscriptions));
        run.subscribed = cfg.subscriptions as u64;

        // The simulator unsubscribes by the original subscription value
        // (assignment is deterministic), so keep each live key's current
        // subscription.
        let mut live: HashMap<ChurnKey, Subscription> = HashMap::new();
        let mut msgs = scenario.message_stream();
        let t0 = self.now();
        let step = 1.0 / cfg.rate;
        let mut next_arrival = t0 + step;
        let mut published = 0usize;
        let mut events = schedule.events().iter().peekable();

        loop {
            let churn_at = events.peek().map(|e| t0 + e.at);
            let arrival_due = published < cfg.messages;
            match churn_at {
                // Churn fires first on ties so a wave's arrival is visible
                // to the publication admitted at the same instant.
                Some(t) if !arrival_due || t <= next_arrival => {
                    if t > self.now() {
                        self.drain(t - self.now());
                    }
                    let e = events.next().expect("peeked");
                    match &e.action {
                        ChurnAction::Subscribe { key, sub } => {
                            self.subscribe(sub.clone());
                            live.insert(*key, sub.clone());
                            run.subscribed += 1;
                        }
                        ChurnAction::Unsubscribe { key } => {
                            let old = live.remove(key).expect("validated schedule");
                            self.unsubscribe(&old);
                            run.unsubscribed += 1;
                        }
                        ChurnAction::Migrate { key, sub } => {
                            let old = live.get(key).expect("validated schedule");
                            self.unsubscribe(old);
                            self.subscribe(sub.clone());
                            live.insert(*key, sub.clone());
                            run.migrated += 1;
                        }
                    }
                }
                _ if arrival_due => {
                    if next_arrival > self.now() {
                        self.drain(next_arrival - self.now());
                    }
                    let msg = msgs.next().expect("streams are infinite");
                    self.admit(msg);
                    published += 1;
                    run.published += 1;
                    next_arrival += step;
                }
                _ => break,
            }
        }
        if cfg.drain > 0.0 {
            self.drain(cfg.drain);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::Strategy;
    use crate::config::SimConfig;
    use crate::SimCluster;
    use bluedove_core::AdaptivePolicy;
    use bluedove_workload::{HighChurn, Scenario, ScenarioConfig, SpatioTextual};

    fn sim_for(s: &dyn Scenario, matchers: u32) -> SimCluster {
        let space = s.space();
        SimCluster::new(
            SimConfig::default(),
            space.clone(),
            Strategy::bluedove(space, matchers),
            Box::new(AdaptivePolicy),
        )
    }

    #[test]
    fn spatio_textual_runs_and_delivers() {
        let s = SpatioTextual::default();
        let mut c = sim_for(&s, 4);
        let cfg = ScenarioConfig::new().subscriptions(500).messages(1_000);
        let run = c.run_scenario(&s, &cfg);
        assert_eq!(run.published, 1_000);
        assert_eq!(run.subscribed, 500);
        assert_eq!(run.unsubscribed + run.migrated, 0);
        assert!(
            c.metrics.total_matches > 0,
            "spatio-textual traffic should match hot-term boxes"
        );
    }

    #[test]
    fn high_churn_executes_full_schedule() {
        let s = HighChurn {
            waves: 2,
            wave_size: 40,
            wave_period: 4.0,
            wave_ramp: 1.0,
            wave_hold: 2.0,
            migrants: 5,
            migrations: 3,
            migrate_period: 2.0,
            ..Default::default()
        };
        let mut c = sim_for(&s, 3);
        // 10s of arrivals at 100/s spans both waves and all migrations.
        let cfg = ScenarioConfig::new()
            .subscriptions(200)
            .messages(1_000)
            .rate(100.0);
        let run = c.run_scenario(&s, &cfg);
        assert_eq!(run.published, 1_000);
        assert_eq!(run.subscribed as usize, 200 + 5 + 2 * 40);
        assert_eq!(run.unsubscribed as usize, 2 * 40);
        assert_eq!(run.migrated as usize, 5 * 3);
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let s = SpatioTextual::default();
        let cfg = ScenarioConfig::new().subscriptions(300).messages(500);
        let space = Scenario::space(&s);
        let mk = || {
            SimCluster::new(
                SimConfig {
                    engine: bluedove_engine::EngineConfig {
                        record_forwards: true,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                space.clone(),
                Strategy::bluedove(space.clone(), 4),
                Box::new(bluedove_core::RandomPolicy),
            )
        };
        let mut a = mk();
        let mut b = mk();
        let ra = a.run_scenario(&s, &cfg);
        let rb = b.run_scenario(&s, &cfg);
        assert_eq!(ra, rb);
        assert!(!a.forward_log().is_empty());
        assert_eq!(a.forward_log(), b.forward_log());
    }
}
