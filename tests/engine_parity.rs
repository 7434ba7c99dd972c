//! Engine parity: the threaded cluster (over either base transport) and
//! the discrete-event simulator are hosts around the *same* sans-IO
//! engines, so under a policy whose decisions depend only on the engine's
//! seeded RNG (uniform random) every deployment must route every
//! publication identically — same matcher, same dimension, same order —
//! and produce the same total match-hit count.
//!
//! Three hosts are compared:
//! - the simulator (virtual time, in-memory queues),
//! - the threaded cluster over in-process channels,
//! - the threaded cluster over the nonblocking reactor (real loopback
//!   TCP sockets owned by a fixed set of event loops).
//!
//! Setup that makes the comparison exact: one dispatcher (its engine seed
//! is then the cluster seed, matching the simulator's single shared
//! engine), acks off on the threaded side (mirroring the simulator's
//! fire-and-forget default, so neither engine draws retransmit jitter),
//! the same linear index, and no fault injection (no failovers perturb
//! the candidate rotation).
//!
//! Runs on three fixed seeds; `CHAOS_SEED=<u64>` runs an extra replay
//! seed, which is how the CI chaos matrix sweeps it.

use bluedove::cluster::{
    Cluster, ClusterConfig, Log, LogConfig, PolicyKind, SubLogRecord, TransportKind,
};
use bluedove::core::{
    AttributeSpace, DimIdx, IndexKind, InnerKind, MatcherId, Message, MessageId, RandomPolicy,
    Subscription,
};
use bluedove::engine::ScalePlan;
use bluedove::net::ReactorConfig;
use bluedove::sim::{SimCluster, SimConfig, Strategy};
use bluedove::workload::{PaperWorkload, Scenario, SpatioTextual};
use std::time::{Duration, Instant};

/// The coalescing depth of the batched parity runs; the 1 ms `max_delay`
/// matches the engine default.
const BATCH: usize = 16;
const BATCH_DELAY: f64 = 0.001;

const SUBS: usize = 300;
const MSGS: usize = 800;
const MATCHERS: u32 = 6;

type ForwardTrace = Vec<(MessageId, MatcherId, DimIdx)>;

/// A fixed workload every host replays: the materialised prefix of a
/// scenario's streams plus its attribute space.
struct Fixture {
    subs: Vec<Subscription>,
    msgs: Vec<Message>,
    space: AttributeSpace,
}

/// Materialises the first `SUBS`/`MSGS` items of any [`Scenario`]'s
/// streams — the parity fixture is scenario-agnostic.
fn fixture_of(scenario: &dyn Scenario) -> Fixture {
    Fixture {
        subs: scenario.subscription_stream().take(SUBS).collect(),
        msgs: scenario.message_stream().take(MSGS).collect(),
        space: scenario.space(),
    }
}

fn workload(seed: u64) -> Fixture {
    fixture_of(&PaperWorkload {
        seed,
        ..Default::default()
    })
}

fn spatio_workload(seed: u64) -> Fixture {
    fixture_of(&SpatioTextual {
        seed,
        ..Default::default()
    })
}

/// Runs the simulator host; returns its forward trace and total match
/// hits.
fn sim_trace(fx: &Fixture, seed: u64, max_batch: usize, index: IndexKind) -> (ForwardTrace, u64) {
    let (subs, msgs, space) = (&fx.subs, &fx.msgs, &fx.space);
    let base = SimConfig::default();
    let mut engine = bluedove::engine::EngineConfig {
        record_forwards: true,
        ..base.engine.clone()
    };
    engine.index = index;
    engine.batch.max_batch = max_batch;
    engine.batch.max_delay = BATCH_DELAY;
    let sim_cfg = SimConfig {
        seed,
        engine,
        ..base
    };
    let mut sim = SimCluster::new(
        sim_cfg,
        space.clone(),
        Strategy::bluedove(space.clone(), MATCHERS),
        Box::new(RandomPolicy),
    );
    sim.subscribe_all(subs.clone());
    sim.run_batch(msgs.clone(), 500.0);
    sim.drain(20.0);
    assert_eq!(sim.metrics.total_sent, msgs.len() as u64);
    assert_eq!(sim.metrics.total_delivered, msgs.len() as u64);
    let log = sim.forward_log().to_vec();
    assert_eq!(log.len(), msgs.len(), "sim must forward every message once");
    (log, sim.metrics.total_matches)
}

/// Runs the threaded cluster host over the given base transport; returns
/// its forward trace and quiesced delivery count.
fn cluster_trace(
    fx: &Fixture,
    seed: u64,
    max_batch: usize,
    transport: TransportKind,
    index: IndexKind,
) -> (ForwardTrace, u64) {
    let (subs, msgs, space) = (&fx.subs, &fx.msgs, &fx.space);
    let mut cluster = Cluster::start(
        ClusterConfig::new(space.clone())
            .matchers(MATCHERS)
            .dispatchers(1)
            .policy(PolicyKind::Random)
            .index(index)
            .seed(seed)
            .publication_acks(false)
            .record_forwards(true)
            .max_batch(max_batch)
            .max_delay(Duration::from_secs_f64(BATCH_DELAY))
            .transport(transport),
    );
    // Rebuild each subscription through the cluster's client path (ids are
    // re-stamped by the dispatcher; the predicates are what must match).
    for s in subs {
        let mut b = Subscription::builder(space);
        for (d, p) in s.predicates.iter().enumerate() {
            b = b.range(d, p.lo, p.hi);
        }
        cluster
            .subscribe(b.build().unwrap())
            .expect("subscribe through the threaded cluster");
    }
    let mut publisher = cluster.publisher();
    for m in msgs {
        publisher.publish(m.clone()).unwrap();
    }
    // Every message forwards exactly once (no faults, no acks): wait for
    // the full trace, then for the delivery counter to quiesce.
    let deadline = Instant::now() + Duration::from_secs(120);
    while cluster.forward_log().len() < msgs.len() {
        assert!(
            Instant::now() < deadline,
            "timed out at {}/{} forwards (seed {seed})",
            cluster.forward_log().len(),
            msgs.len()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut deliveries = cluster.counters().2;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let again = cluster.counters().2;
        if again == deliveries {
            break;
        }
        deliveries = again;
        assert!(Instant::now() < deadline, "deliveries never quiesced");
    }
    let log = cluster.forward_log();
    cluster.shutdown();
    (log, deliveries)
}

fn assert_traces_match(seed: u64, host: &str, got: &ForwardTrace, want: &ForwardTrace) {
    assert_eq!(
        got.len(),
        want.len(),
        "forward counts diverged (seed {seed}, host {host})"
    );
    for (i, (c, s)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(
            c, s,
            "forward #{i} diverged (seed {seed}, host {host}): {c:?} vs sim {s:?}"
        );
    }
}

/// Sim vs threaded-over-channels with the given coalescing depth
/// (`max_batch == 1` = batching off); returns the agreed trace so callers
/// can compare *across* batch modes too.
fn parity_for_seed(seed: u64, max_batch: usize) -> ForwardTrace {
    let fx = workload(seed);
    let (sim_log, sim_matches) = sim_trace(&fx, seed, max_batch, IndexKind::Linear);
    let (cluster_log, deliveries) = cluster_trace(
        &fx,
        seed,
        max_batch,
        TransportKind::Channel,
        IndexKind::Linear,
    );
    assert_traces_match(seed, "threaded/channel", &cluster_log, &sim_log);
    assert_eq!(
        deliveries, sim_matches,
        "total match-hit counts diverged (seed {seed})"
    );
    sim_log
}

/// Sim vs threaded-over-reactor with the given coalescing depth: real
/// loopback sockets, fixed event-loop threads — the forward sequence must
/// still be bit-identical.
fn reactor_parity_for_seed(seed: u64, max_batch: usize) {
    let fx = workload(seed);
    let (sim_log, sim_matches) = sim_trace(&fx, seed, max_batch, IndexKind::Linear);
    let (reactor_log, deliveries) = cluster_trace(
        &fx,
        seed,
        max_batch,
        TransportKind::Reactor(ReactorConfig::default()),
        IndexKind::Linear,
    );
    assert_traces_match(seed, "threaded/reactor", &reactor_log, &sim_log);
    assert_eq!(
        deliveries, sim_matches,
        "total match-hit counts diverged (seed {seed}, reactor host)"
    );
}

/// All three hosts agree with batching on (each flushing on size, idle
/// and deadline by its own clock), sim and channel agree with it off, and
/// the two modes' forward traces are bit-identical to each other:
/// coalescing only changes how frames travel, never what was decided.
fn batched_parity_for_seed(seed: u64) {
    let plain = parity_for_seed(seed, 1);
    let coalesced = parity_for_seed(seed, BATCH);
    assert_eq!(
        plain, coalesced,
        "batched and unbatched forward sequences diverged (seed {seed})"
    );
    reactor_parity_for_seed(seed, BATCH);
}

#[test]
fn engine_parity_seed_7() {
    parity_for_seed(7, 1);
}

#[test]
fn engine_parity_seed_42() {
    parity_for_seed(42, 1);
}

#[test]
fn engine_parity_seed_1337() {
    parity_for_seed(1337, 1);
}

#[test]
fn engine_parity_batched_seed_7() {
    batched_parity_for_seed(7);
}

#[test]
fn engine_parity_batched_seed_42() {
    batched_parity_for_seed(42);
}

#[test]
fn engine_parity_batched_seed_1337() {
    batched_parity_for_seed(1337);
}

#[test]
fn engine_parity_reactor_seed_7() {
    reactor_parity_for_seed(7, 1);
}

#[test]
fn engine_parity_reactor_seed_42() {
    reactor_parity_for_seed(42, 1);
}

#[test]
fn engine_parity_reactor_seed_1337() {
    reactor_parity_for_seed(1337, 1);
}

/// All three hosts head-to-head on one seed: sim, threaded-over-channels
/// and threaded-over-reactor produce one forward sequence.
#[test]
fn engine_parity_three_hosts_seed_7() {
    let fx = workload(7);
    let (sim_log, _) = sim_trace(&fx, 7, 1, IndexKind::Linear);
    let (channel_log, _) = cluster_trace(&fx, 7, 1, TransportKind::Channel, IndexKind::Linear);
    let (reactor_log, _) = cluster_trace(
        &fx,
        7,
        1,
        TransportKind::Reactor(ReactorConfig::default()),
        IndexKind::Linear,
    );
    assert_traces_match(7, "threaded/channel", &channel_log, &sim_log);
    assert_traces_match(7, "threaded/reactor", &reactor_log, &sim_log);
}

/// The SpatioTextual scenario — lat/lon boxes plus a Zipf keyword
/// dimension, a distribution nothing in the paper workload exercises —
/// through all three hosts unchanged: one `Scenario` value, one forward
/// sequence, bit-identical on every host.
#[test]
fn engine_parity_spatio_textual_three_hosts() {
    let seed = 42;
    let fx = spatio_workload(seed);
    let (sim_log, sim_matches) = sim_trace(&fx, seed, 1, IndexKind::Linear);
    let (channel_log, channel_deliveries) =
        cluster_trace(&fx, seed, 1, TransportKind::Channel, IndexKind::Linear);
    let (reactor_log, reactor_deliveries) = cluster_trace(
        &fx,
        seed,
        1,
        TransportKind::Reactor(ReactorConfig::default()),
        IndexKind::Linear,
    );
    assert_traces_match(seed, "threaded/channel+spatio", &channel_log, &sim_log);
    assert_traces_match(seed, "threaded/reactor+spatio", &reactor_log, &sim_log);
    assert_eq!(
        channel_deliveries, sim_matches,
        "spatio-textual match totals diverged (channel host)"
    );
    assert_eq!(
        reactor_deliveries, sim_matches,
        "spatio-textual match totals diverged (reactor host)"
    );
}

/// All three hosts with the covering index enabled: the decorator changes
/// physical match work, never logical decisions, so the forward sequence
/// and match-hit totals must be bit-identical across hosts AND identical
/// to the bare-index sequence on the same seed.
#[test]
fn engine_parity_three_hosts_covering_seed_7() {
    let covering = IndexKind::Covering {
        inner: InnerKind::Cell(16),
    };
    let fx = workload(7);
    let (bare_log, bare_matches) = sim_trace(&fx, 7, 1, IndexKind::Cell(16));
    let (sim_log, sim_matches) = sim_trace(&fx, 7, 1, covering);
    assert_eq!(
        sim_log, bare_log,
        "covering changed the sim's forward sequence"
    );
    assert_eq!(
        sim_matches, bare_matches,
        "covering changed the sim's match-hit total"
    );
    let (channel_log, channel_deliveries) =
        cluster_trace(&fx, 7, 1, TransportKind::Channel, covering);
    let (reactor_log, reactor_deliveries) = cluster_trace(
        &fx,
        7,
        1,
        TransportKind::Reactor(ReactorConfig::default()),
        covering,
    );
    assert_traces_match(7, "threaded/channel+covering", &channel_log, &sim_log);
    assert_traces_match(7, "threaded/reactor+covering", &reactor_log, &sim_log);
    assert_eq!(channel_deliveries, sim_matches, "channel host match total");
    assert_eq!(reactor_deliveries, sim_matches, "reactor host match total");
}

/// Churn schedules are pure functions of (parameters, seed): any host
/// replaying one sees the same timed actions in the same order, which is
/// the property the sequence-position interleaving on the threaded host
/// and the virtual-time interleaving on the simulator both rest on.
mod churn_determinism {
    use bluedove::workload::{ChurnAction, HighChurn, Scenario};
    use proptest::prelude::*;

    fn high_churn(
        seed: u64,
        waves: usize,
        wave_size: usize,
        migrants: usize,
        migrations: usize,
    ) -> HighChurn {
        HighChurn {
            waves,
            wave_size,
            wave_period: 10.0,
            wave_ramp: 1.5,
            wave_hold: 4.0,
            migrants,
            migrations,
            migrate_period: 3.0,
            seed,
            ..Default::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Two independent constructions from the same parameters agree
        /// event-for-event, the schedule passes referential validation,
        /// and its action counts match the closed form.
        #[test]
        fn schedule_is_deterministic_and_coherent(
            seed in any::<u64>(),
            waves in 0usize..4,
            wave_size in 1usize..12,
            migrants in 0usize..6,
            migrations in 0usize..4,
        ) {
            let a = high_churn(seed, waves, wave_size, migrants, migrations).churn_schedule();
            let b = high_churn(seed, waves, wave_size, migrants, migrations).churn_schedule();
            prop_assert_eq!(&a, &b, "same parameters must yield the same schedule");
            prop_assert!(a.validate().is_ok());
            prop_assert!(
                a.events().windows(2).all(|w| w[0].at <= w[1].at),
                "events must be time-ordered"
            );
            let count = |pred: fn(&ChurnAction) -> bool| {
                a.events().iter().filter(|e| pred(&e.action)).count()
            };
            prop_assert_eq!(
                count(|x| matches!(x, ChurnAction::Subscribe { .. })),
                waves * wave_size + migrants
            );
            prop_assert_eq!(
                count(|x| matches!(x, ChurnAction::Unsubscribe { .. })),
                waves * wave_size
            );
            prop_assert_eq!(
                count(|x| matches!(x, ChurnAction::Migrate { .. })),
                migrants * migrations
            );
        }

        /// A different seed re-draws the schedule's subscriptions: the
        /// timing grid is parameter-driven, but the drawn boxes differ.
        #[test]
        fn seed_feeds_the_drawn_subscriptions(seed in any::<u64>()) {
            let a = high_churn(seed, 1, 6, 2, 1).churn_schedule();
            let b = high_churn(seed ^ 0x5DEE_CE66, 1, 6, 2, 1).churn_schedule();
            prop_assert_ne!(&a, &b, "distinct seeds must draw distinct schedules");
        }
    }
}

/// Both hosts place copies by one rule. The same subscribe / crash /
/// subscribe / unsubscribe sequence, with replication on, leaves every
/// live matcher with the same number of copies on both, and the
/// simulator's copies are the model's: each live subscription's
/// assignments at their owner, or at the owner's stream leader while the
/// owner is down.
#[test]
fn placement_parity_across_a_crash() {
    const FIRST: usize = 80;
    const N: usize = 120;
    const N_MATCHERS: u32 = 4;
    let fx = workload(7);
    let subs = &fx.subs[..N];
    let gone = |i: usize| i.is_multiple_of(if i < FIRST { 4 } else { 5 });
    let victim = MatcherId(1);
    let survivors: Vec<MatcherId> = (0..N_MATCHERS)
        .map(MatcherId)
        .filter(|&m| m != victim)
        .collect();

    let mut sim = SimCluster::new(
        SimConfig::default(),
        fx.space.clone(),
        Strategy::bluedove(fx.space.clone(), N_MATCHERS),
        Box::new(RandomPolicy),
    );
    sim.enable_replication();
    sim.subscribe_all(subs[..FIRST].iter().cloned());
    sim.drain(1.0); // the heirs' replicas catch up
    sim.kill_matcher(victim);
    sim.subscribe_all(subs[FIRST..].iter().cloned());
    for (_, s) in subs.iter().enumerate().filter(|&(i, _)| gone(i)) {
        sim.unsubscribe(s);
    }
    let control = sim.control();
    let holder = |m: MatcherId| control.leader_of(m).unwrap_or(m);
    for &m in &survivors {
        let mut want: Vec<_> = subs
            .iter()
            .enumerate()
            .filter(|&(i, _)| !gone(i))
            .flat_map(|(_, s)| {
                let assign = control.strategy().as_dyn().assign(s).into_iter();
                assign
                    .filter(|a| holder(a.matcher) == m)
                    .map(|a| (a.dim, s.id))
            })
            .collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(sim.copies(m), want, "the simulator's copies on {m:?}");
    }

    let dir = std::env::temp_dir().join(format!("bluedove-placement-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = Cluster::start(
        ClusterConfig::new(fx.space.clone())
            .matchers(N_MATCHERS)
            .log_dir(&dir)
            .stats_interval(Duration::from_millis(50)),
    );
    let mut handles: Vec<_> = subs[..FIRST]
        .iter()
        .map(|s| cluster.subscribe(s.clone()).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(300)); // the heirs' replicas catch up
    cluster.kill_matcher(victim);
    handles.extend(
        subs[FIRST..]
            .iter()
            .map(|s| cluster.subscribe(s.clone()).unwrap()),
    );
    for (_, h) in handles.iter().enumerate().filter(|&(i, _)| gone(i)) {
        cluster.unsubscribe(h).unwrap();
    }
    let logical = |m: MatcherId| {
        cluster
            .telemetry()
            .gauge_value(
                "bluedove_matcher_subscriptions_logical",
                &[("matcher", m.0.to_string())],
            )
            .unwrap_or(-1) as usize
    };
    let want: Vec<usize> = survivors.iter().map(|&m| sim.copies(m).len()).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got: Vec<usize> = survivors.iter().map(|&m| logical(m)).collect();
    while got != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        got = survivors.iter().map(|&m| logical(m)).collect();
    }
    assert_eq!(got, want, "per-matcher copies, cluster vs simulator");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Both hosts journal by one protocol. The same subscribe / join /
/// crash / subscribe / unsubscribe / leave sequence, with replication on,
/// leaves both with the same leader book and, at every stream's leader,
/// the same retained records. The workload seed is `CHAOS_SEED`, else 7.
#[test]
fn journal_parity_across_join_crash_and_leave() {
    const FIRST: usize = 80;
    const N: usize = 120;
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(7);
    let fx = workload(seed);
    // Stamped as the threaded cluster stamps them: subscriber and
    // subscription ids count up from 1 in registration order.
    let subs: Vec<Subscription> = (1..)
        .zip(&fx.subs[..N])
        .map(|(i, s)| Subscription {
            id: bluedove::core::SubscriptionId(i),
            subscriber: bluedove::core::SubscriberId(i),
            ..s.clone()
        })
        .collect();
    let gone = |i: usize| i.is_multiple_of(3);
    let (victim, leaver) = (MatcherId(1), MatcherId(2));
    let index = IndexKind::Cell(64);

    let mut cfg = SimConfig::default();
    cfg.engine.index = index;
    let mut sim = SimCluster::new(
        cfg,
        fx.space.clone(),
        Strategy::bluedove(fx.space.clone(), 4),
        Box::new(RandomPolicy),
    );
    sim.enable_replication();
    sim.subscribe_all(subs[..FIRST].iter().cloned());
    sim.drain(1.0);
    sim.apply_scale(&ScalePlan::grow()).unwrap();
    sim.drain(3.0); // the table switch retires the donors' copies
    sim.kill_matcher(victim);
    sim.subscribe_all(subs[FIRST..].iter().cloned());
    for (_, s) in subs.iter().enumerate().filter(|&(i, _)| gone(i)) {
        sim.unsubscribe(s);
    }
    sim.drain(1.0);
    sim.remove_matcher(leaver).unwrap();
    sim.drain(3.0);

    let dir = std::env::temp_dir().join(format!("bluedove-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = Cluster::start(
        ClusterConfig::new(fx.space.clone())
            .matchers(4)
            .index(index)
            .log_dir(&dir),
    );
    let mut handles: Vec<_> = subs[..FIRST]
        .iter()
        .map(|s| cluster.subscribe(s.clone()).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    cluster.apply_scale(&ScalePlan::grow()).unwrap();
    std::thread::sleep(Duration::from_millis(300)); // the donors retire
    cluster.kill_matcher(victim);
    handles.extend(
        subs[FIRST..]
            .iter()
            .map(|s| cluster.subscribe(s.clone()).unwrap()),
    );
    for (_, h) in handles.iter().enumerate().filter(|&(i, _)| gone(i)) {
        cluster.unsubscribe(h).unwrap();
    }
    std::thread::sleep(Duration::from_millis(300));
    cluster.remove_matcher(leaver).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let book = cluster.control().leaders();
    cluster.shutdown();

    assert_eq!(book, sim.control().leaders(), "leader books");
    let repl = sim.replication().expect("replicated");
    for &(stream, leader, _) in &book {
        let base = if stream == leader {
            format!("m{}.sublog", leader.0)
        } else {
            format!("m{}.follows.m{}.sublog", leader.0, stream.0)
        };
        let (_, on_disk) = Log::<SubLogRecord>::open(&dir, &base, LogConfig::default()).unwrap();
        let in_sim = repl.copy(stream, leader).map(|s| s.records());
        assert_eq!(
            Some(&on_disk[..]),
            in_sim,
            "stream {stream:?} at its leader {leader:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Extra sweep seed for the CI chaos matrix (`CHAOS_SEED=<u64>`); a no-op
/// when the variable is unset (the fixed seeds above still run).
#[test]
fn engine_parity_env_seed() {
    if let Some(seed) = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        println!("engine parity replay: seed={seed}");
        batched_parity_for_seed(seed);
        reactor_parity_for_seed(seed, 1);
    }
}
