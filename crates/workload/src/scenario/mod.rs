//! Composable workload scenarios.
//!
//! A [`Scenario`] bundles everything a host needs to reproduce one
//! evaluation setup: the attribute space, a deterministic subscription
//! stream, a message arrival process, and a [`ChurnSchedule`] of timed
//! subscribe/unsubscribe/migrate events. Both hosts — the discrete-event
//! simulator (`SimCluster::run_scenario`) and the threaded cluster
//! (`Cluster::run_scenario`, over either base transport) — consume the
//! trait directly, so any scenario runs on any host unchanged.
//!
//! Shipped scenarios:
//!
//! - [`PaperWorkload`] — the §IV-B evaluation setup knob-for-knob;
//! - [`CoverableWorkload`] — Zipf-popular template boxes for the
//!   covering-layer ablations;
//! - [`TrafficMonitoring`] / [`StockTicker`] — the domain-flavoured
//!   examples from the paper's introduction;
//! - [`SpatioTextual`] — lat/lon location boxes plus a Zipf keyword
//!   dimension (heterogeneous attributes for `dim_select`);
//! - [`HighChurn`] — flash-crowd subscribe/unsubscribe waves and mobile
//!   subscribers migrating their mailboxes, driving the autoscaler.

mod churn;
mod domains;
mod paper;
mod spatio;

pub use churn::HighChurn;
pub use domains::{StockTicker, TrafficMonitoring};
pub use paper::{CoverableWorkload, PaperWorkload};
pub use spatio::SpatioTextual;

use bluedove_core::{AttributeSpace, Message, Subscription};

/// A boxed, seeded subscription stream. Streams are infinite; hosts take
/// as many as [`ScenarioConfig::subscriptions`] asks for.
pub type SubStream = Box<dyn Iterator<Item = Subscription> + Send>;

/// A boxed, seeded publication stream.
pub type MsgStream = Box<dyn Iterator<Item = Message> + Send>;

/// One evaluation setup, complete enough for any host to run: attribute
/// space, subscription population, message arrival process, and the
/// churn schedule of timed subscriber arrivals/departures/migrations.
///
/// Determinism contract: two calls on the same value return identical
/// streams and schedules, so the same scenario drives every host through
/// the same decisions (the engine-parity suite relies on this).
pub trait Scenario {
    /// Short stable identifier (used in bench reports and logs).
    fn name(&self) -> &'static str;

    /// The attribute space every stream is generated over.
    fn space(&self) -> AttributeSpace;

    /// The subscription population, as a fresh deterministic stream.
    fn subscription_stream(&self) -> SubStream;

    /// The publication process, as a fresh deterministic stream.
    fn message_stream(&self) -> MsgStream;

    /// Timed subscribe/unsubscribe/migrate events, in schedule time
    /// (seconds from scenario start). Empty by default — steady-state
    /// scenarios need not override.
    fn churn_schedule(&self) -> ChurnSchedule {
        ChurnSchedule::default()
    }
}

/// Scenario-local identity of a churned subscriber: [`ChurnAction::Unsubscribe`]
/// and [`ChurnAction::Migrate`] refer to the key an earlier
/// [`ChurnAction::Subscribe`] introduced. Keys are private to the
/// schedule — they never collide with the initial population, which is
/// not keyed.
pub type ChurnKey = u64;

/// What a churn event does when it fires.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnAction {
    /// A new subscriber arrives with this subscription.
    Subscribe {
        /// Schedule-local identity for later unsubscribe/migrate events.
        key: ChurnKey,
        /// The subscription to install.
        sub: Subscription,
    },
    /// The subscriber behind `key` leaves; its subscription is removed.
    Unsubscribe {
        /// The key of an earlier `Subscribe`.
        key: ChurnKey,
    },
    /// The subscriber behind `key` moves: its old subscription is
    /// removed and `sub` installed in its place (on the threaded
    /// cluster with mailbox delivery this re-homes the mailbox too —
    /// the mobile-subscriber model of §II-B).
    Migrate {
        /// The key of an earlier `Subscribe`.
        key: ChurnKey,
        /// The replacement subscription (e.g. a moved location box).
        sub: Subscription,
    },
}

/// One timed churn event.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// Seconds from scenario start (virtual time; the simulator maps it
    /// onto its clock, the threaded host onto the arrival process).
    pub at: f64,
    /// What happens.
    pub action: ChurnAction,
}

/// A time-sorted sequence of churn events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// Builds a schedule, stable-sorting by time (ties keep insertion
    /// order, so a same-instant subscribe still precedes the unsubscribe
    /// that references it).
    ///
    /// # Panics
    /// Panics when an event's time is negative or not finite.
    pub fn from_events(mut events: Vec<ChurnEvent>) -> Self {
        assert!(
            events.iter().all(|e| e.at.is_finite() && e.at >= 0.0),
            "churn event times must be finite and non-negative"
        );
        events.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite times"));
        ChurnSchedule { events }
    }

    /// The events, ascending by time.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks referential integrity: every `Unsubscribe`/`Migrate` key
    /// must have a live earlier `Subscribe` (or `Migrate`), and no key is
    /// subscribed twice without an intervening unsubscribe. Returns the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut live = std::collections::HashSet::new();
        for (i, e) in self.events.iter().enumerate() {
            match &e.action {
                ChurnAction::Subscribe { key, .. } => {
                    if !live.insert(*key) {
                        return Err(format!("event {i}: key {key} subscribed twice"));
                    }
                }
                ChurnAction::Unsubscribe { key } => {
                    if !live.remove(key) {
                        return Err(format!("event {i}: unsubscribe of unknown key {key}"));
                    }
                }
                ChurnAction::Migrate { key, .. } => {
                    if !live.contains(key) {
                        return Err(format!("event {i}: migrate of unknown key {key}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The host-independent scenario spec: how much of each stream to draw
/// and how fast publications arrive. Both hosts accept the same value
/// verbatim (mirroring the `EngineConfig` unification): the simulator
/// reads `rate` as its virtual arrival rate, the threaded cluster uses
/// it to place churn events within the publication sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Initial (pre-loaded) subscription population.
    pub subscriptions: usize,
    /// Publications to admit.
    pub messages: usize,
    /// Arrival rate, messages per (virtual) second.
    pub rate: f64,
    /// Simulator: seconds of drain after the last arrival. The threaded
    /// host quiesces by its own counters instead.
    pub drain: f64,
    /// Threaded cluster only: churn-keyed subscribers register with
    /// mailbox (indirect) delivery, so `Migrate` re-homes a real
    /// mailbox. Ignored by the simulator.
    pub mailboxes: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            subscriptions: 1_000,
            messages: 2_000,
            rate: 500.0,
            drain: 20.0,
            mailboxes: false,
        }
    }
}

impl ScenarioConfig {
    /// The defaults (1k subscriptions, 2k messages at 500/s).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the initial subscription population.
    pub fn subscriptions(mut self, n: usize) -> Self {
        self.subscriptions = n;
        self
    }

    /// Sets the number of publications.
    pub fn messages(mut self, n: usize) -> Self {
        self.messages = n;
        self
    }

    /// Sets the arrival rate (messages per virtual second).
    ///
    /// # Panics
    /// Panics when `rate` is not strictly positive.
    pub fn rate(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        self.rate = rate;
        self
    }

    /// Sets the simulator's post-arrival drain window, seconds.
    pub fn drain(mut self, seconds: f64) -> Self {
        self.drain = seconds;
        self
    }

    /// Routes churn-keyed subscribers through mailbox delivery on the
    /// threaded cluster.
    pub fn mailboxes(mut self, on: bool) -> Self {
        self.mailboxes = on;
        self
    }
}

/// What a host actually executed while running a scenario — the shared
/// receipt both `run_scenario` entry points return.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioRun {
    /// Publications admitted.
    pub published: u64,
    /// Subscriptions installed (initial population + churn arrivals).
    pub subscribed: u64,
    /// Churn departures executed.
    pub unsubscribed: u64,
    /// Churn migrations executed.
    pub migrated: u64,
}

/// Measures the hot-spot skew of a subscription population along `dim`:
/// the ratio of the densest segment's subscription count to the average,
/// with the dimension split into `segments` equal parts (the paper quotes
/// 2.7× for σ = 250). "Density" counts subscriptions whose predicate
/// overlaps the segment — the quantity mPartition assignment sees.
pub fn hot_spot_ratio(
    subs: &[bluedove_core::Subscription],
    space: &AttributeSpace,
    dim: bluedove_core::DimIdx,
    segments: usize,
) -> f64 {
    let d = space.dim(dim);
    let width = d.len() / segments as f64;
    let mut counts = vec![0usize; segments];
    for s in subs {
        let p = s.predicate(dim);
        let first = (((p.lo - d.min) / width) as usize).min(segments - 1);
        let last = (((p.hi - d.min) / width).ceil() as usize).clamp(first + 1, segments);
        for c in counts.iter_mut().take(last).skip(first) {
            *c += 1;
        }
    }
    let max = *counts.iter().max().unwrap_or(&0) as f64;
    let avg = counts.iter().sum::<usize>() as f64 / segments as f64;
    if avg == 0.0 {
        0.0
    } else {
        max / avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedove_core::DimIdx;

    #[test]
    fn hot_spot_ratio_handles_empty_population() {
        let w = PaperWorkload::default();
        assert_eq!(hot_spot_ratio(&[], &w.space(), DimIdx(0), 10), 0.0);
    }

    #[test]
    fn schedule_sorts_stably_and_validates() {
        let sp = AttributeSpace::uniform(1, 0.0, 10.0);
        let sub = |id: u64| {
            let mut s = Subscription::builder(&sp)
                .range(0, 1.0, 2.0)
                .build()
                .unwrap();
            s.id = bluedove_core::SubscriptionId(id);
            s
        };
        let sched = ChurnSchedule::from_events(vec![
            ChurnEvent {
                at: 5.0,
                action: ChurnAction::Unsubscribe { key: 1 },
            },
            ChurnEvent {
                at: 0.0,
                action: ChurnAction::Subscribe {
                    key: 1,
                    sub: sub(1),
                },
            },
            ChurnEvent {
                at: 5.0,
                action: ChurnAction::Subscribe {
                    key: 2,
                    sub: sub(2),
                },
            },
        ]);
        assert_eq!(sched.len(), 3);
        assert_eq!(sched.events()[0].at, 0.0);
        sched.validate().expect("keyed events resolve in order");
    }

    #[test]
    fn schedule_validation_catches_unknown_keys() {
        let sched = ChurnSchedule::from_events(vec![ChurnEvent {
            at: 0.0,
            action: ChurnAction::Unsubscribe { key: 9 },
        }]);
        assert!(sched.validate().is_err());
    }

    #[test]
    fn scenario_config_builder_round_trips() {
        let cfg = ScenarioConfig::new()
            .subscriptions(50)
            .messages(100)
            .rate(250.0)
            .drain(5.0)
            .mailboxes(true);
        assert_eq!(cfg.subscriptions, 50);
        assert_eq!(cfg.messages, 100);
        assert_eq!(cfg.rate, 250.0);
        assert_eq!(cfg.drain, 5.0);
        assert!(cfg.mailboxes);
    }

    #[test]
    fn every_shipped_scenario_yields_valid_streams() {
        let scenarios: Vec<Box<dyn Scenario>> = vec![
            Box::new(PaperWorkload::default()),
            Box::new(CoverableWorkload::default()),
            Box::new(TrafficMonitoring { seed: 5 }),
            Box::new(StockTicker { seed: 6 }),
            Box::new(SpatioTextual::default()),
            Box::new(HighChurn::default()),
        ];
        for s in &scenarios {
            let sp = s.space();
            for sub in s.subscription_stream().take(100) {
                assert_eq!(sub.k(), sp.k(), "{}", s.name());
                for (i, p) in sub.predicates.iter().enumerate() {
                    let d = &sp.dims()[i];
                    assert!(
                        p.lo < p.hi && p.lo >= d.min && p.hi <= d.max,
                        "{}: predicate {i} out of domain",
                        s.name()
                    );
                }
            }
            for m in s.message_stream().take(100) {
                assert!(m.validate(&sp).is_ok(), "{}", s.name());
            }
            s.churn_schedule()
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        }
    }
}
