//! Elasticity acceptance suite: a seeded oscillating workload driven
//! through the load-driven autoscaler.
//!
//! Asserts the §III-C adaptation story end to end: the matcher count
//! rises while the surge saturates the cluster and falls back once it
//! recedes, the controller never flaps inside its cooldown window, the
//! acks-on pipeline records zero losses/dead-letters across both
//! transitions — and the threaded cluster, replaying the simulator's
//! recorded load snapshots through its own controller, executes the
//! identical ScaleUp/ScaleDown decision sequence (engine parity).

use bluedove::cluster::{Cluster, ClusterConfig, PolicyKind};
use bluedove::core::AdaptivePolicy;
use bluedove::engine::{AutoscalerConfig, EngineConfig, RetryPolicy, ScaleDecision, ScaleOutcome};
use bluedove::sim::{SimCluster, SimConfig, Strategy};
use bluedove::workload::PaperWorkload;
use std::time::Duration;

const SEED: u64 = 11;
const START_MATCHERS: u32 = 3;
const CALM_RATE: f64 = 100.0;
const SURGE_RATE: f64 = 5_000.0;

fn autoscaler_config() -> AutoscalerConfig {
    AutoscalerConfig {
        // Floor at the starting size so the calm warm-up holds steady and
        // the trajectory is purely surge-driven.
        min_matchers: START_MATCHERS as usize,
        max_matchers: 8,
        cooldown: 20.0,
        ..Default::default()
    }
}

/// Runs the oscillating workload (calm → surge → calm) under the
/// autoscaler with publication acks on, fully drained at the end.
fn surge_sim() -> SimCluster {
    let w = PaperWorkload {
        seed: SEED,
        ..Default::default()
    };
    let space = w.space();
    // Matchers ack only after serving a publication, so under transient
    // saturation (the window before a join takes effect) acks lag by the
    // queue wait. A generous ack timeout keeps the at-least-once ledger
    // patient through that window: the controller, not the retransmit
    // schedule, is what restores headroom — and the test's zero-loss /
    // exactly-once assertions then prove it did.
    let cfg = SimConfig {
        engine: EngineConfig::default().retry(RetryPolicy {
            acks: true,
            ack_timeout: 30.0,
            ..Default::default()
        }),
        ..Default::default()
    };
    let mut c = SimCluster::new(
        cfg,
        space.clone(),
        Strategy::bluedove(space, START_MATCHERS),
        Box::new(AdaptivePolicy),
    );
    c.subscribe_all(w.subscriptions().take(2_500));
    c.enable_autoscaler(autoscaler_config());
    let mut g = w.messages();
    c.run(CALM_RATE, 30.0, &mut g); // warm-up at trickle load
    c.run(SURGE_RATE, 100.0, &mut g); // rush hour: saturates the start size
    c.run(CALM_RATE, 200.0, &mut g); // surge recedes
    c.drain(60.0);
    c
}

#[test]
fn autoscaler_tracks_surge_without_flapping_or_loss() {
    let c = surge_sim();
    let log = c.control().autoscaler_log();
    assert!(
        log.iter().any(|(_, d)| matches!(d, ScaleDecision::ScaleUp)),
        "surge never tripped a ScaleUp: {log:?}"
    );
    assert!(
        log.iter()
            .any(|(_, d)| matches!(d, ScaleDecision::ScaleDown { .. })),
        "receding load never tripped a ScaleDown: {log:?}"
    );

    // The matcher count rose under load and fell after the surge: walk
    // the decision log and track the membership trajectory.
    let mut count = START_MATCHERS as i64;
    let mut peak = count;
    for (_, d) in log {
        match d {
            ScaleDecision::ScaleUp => count += 1,
            ScaleDecision::ScaleDown { .. } => count -= 1,
            ScaleDecision::Hold => unreachable!("Hold is never logged"),
        }
        peak = peak.max(count);
    }
    assert!(
        peak > START_MATCHERS as i64,
        "count never rose above the start"
    );
    assert!(count < peak, "capacity never handed back after the surge");
    assert_eq!(
        c.live_matchers() as i64,
        count,
        "every decision executed exactly once"
    );
    assert!(
        c.live_matchers() >= autoscaler_config().min_matchers,
        "scaled below the floor"
    );
    assert_eq!(
        c.control().scale_events().len(),
        log.len(),
        "decisions and executed scale operations must correspond 1:1"
    );

    // No flapping: consecutive decisions at least one cooldown apart.
    for pair in log.windows(2) {
        let gap = pair[1].0 - pair[0].0;
        assert!(
            gap >= autoscaler_config().cooldown - 1e-9,
            "decisions {:?} and {:?} only {gap:.2}s apart (cooldown {})",
            pair[0],
            pair[1],
            autoscaler_config().cooldown
        );
    }

    // Acks on: both transitions are loss-free — nothing dead-lettered,
    // every admitted message delivered, the ledger fully drained.
    assert_eq!(c.metrics.total_lost, 0, "scale transitions lost messages");
    assert_eq!(
        c.metrics.total_delivered, c.metrics.total_sent,
        "admitted ≠ delivered across scale transitions"
    );
    assert_eq!(c.in_flight(), 0, "ledger should drain");
    assert_eq!(c.backlog(), 0);
}

/// Engine parity: the threaded cluster's controller, fed the simulator's
/// recorded snapshots, fires the identical decision sequence — and
/// actually executes each join/leave on live threads while doing so.
#[test]
fn cluster_replays_sim_decision_sequence() {
    let sim = surge_sim();
    let sim_log = sim.control().autoscaler_log();
    assert!(
        sim_log.len() >= 2,
        "trace has no decisions to replay: {sim_log:?}"
    );

    let w = PaperWorkload {
        seed: SEED,
        ..Default::default()
    };
    let mut cluster = Cluster::start(
        ClusterConfig::new(w.space())
            .matchers(START_MATCHERS)
            .dispatchers(1)
            .policy(PolicyKind::Adaptive)
            .stats_interval(Duration::from_millis(50))
            .gossip_interval(Duration::from_millis(40))
            .table_pull_interval(Duration::from_millis(20))
            .autoscaler(autoscaler_config()),
    );
    for snap in sim.control().snapshot_log() {
        cluster
            .autoscale_with(snap)
            .expect("replayed plan must execute");
    }
    assert_eq!(
        cluster.control().autoscaler_log(),
        sim_log,
        "threaded cluster diverged from the simulator's decision sequence"
    );
    // Each decision was executed for real, on the same ids: both control
    // planes added and removed the same matchers in the same order.
    let outcomes = |events: &[(f64, ScaleOutcome)]| events.iter().map(|e| e.1).collect::<Vec<_>>();
    assert_eq!(
        outcomes(cluster.control().scale_events()),
        outcomes(sim.control().scale_events())
    );
    assert_eq!(cluster.matcher_ids().len(), sim.live_matchers());
    cluster.shutdown();
}
