//! The simulated replication layer end-to-end: the same engine-owned
//! ISR/epoch state machines the threaded cluster drives, here under
//! virtual time with in-memory record logs — replicas mirror their
//! leader's log, failover replays the stream into the heir's engine,
//! and a deposed leader's in-flight appends are fenced.

use bluedove_core::{AdaptivePolicy, MatcherId, Subscription, Time};
use bluedove_engine::RetryPolicy;
use bluedove_sim::{SimCluster, SimConfig, Strategy};
use bluedove_workload::PaperWorkload;
use std::collections::BTreeSet;

fn replicated_cluster(n: u32) -> (SimCluster, PaperWorkload) {
    let w = PaperWorkload {
        seed: 7,
        ..Default::default()
    };
    let space = w.space();
    let cfg = SimConfig {
        engine: bluedove_engine::EngineConfig::default().retry(RetryPolicy {
            acks: true,
            suspicion_ttl: Time::INFINITY,
            ..Default::default()
        }),
        ..Default::default()
    };
    let mut c = SimCluster::new(
        cfg,
        space.clone(),
        Strategy::bluedove(space, n),
        Box::new(AdaptivePolicy),
    );
    c.enable_replication(1);
    (c, w)
}

#[test]
fn replicas_mirror_the_leader_log_and_failover_replays() {
    let (mut c, w) = replicated_cluster(4);
    c.subscribe_all(w.subscriptions().take(800));
    let mut gen = w.messages();
    // Let the replication (and some acked traffic) flow.
    c.run(500.0, 2.0, &mut gen);

    // Every stream's clockwise replica has caught up to the leader's
    // log and sits in the ISR (net_latency lag is long gone).
    let now = c.now();
    let repl = c.replication().expect("enabled");
    let mut journaled = 0;
    for m in 0..4u32 {
        let stream = MatcherId(m);
        let heir = MatcherId((m + 1) % 4);
        assert_eq!(c.control().leader_of(stream), Some(stream));
        let log = repl
            .copy(stream, stream)
            .expect("the owner holds its stream");
        let len = log.next_offset();
        journaled += len;
        let replica = repl.copy(stream, heir).filter(|r| r.leader().is_none());
        assert_eq!(
            replica.map(|r| r.next_offset()),
            Some(len),
            "replica of stream {m} lags its leader"
        );
        assert_eq!(log.epoch(), 1);
        // All appends happened at t = 0 (pre-load), so judge staleness
        // over the whole run: the replica is fully caught up (lag 0).
        let isr = log.leader().unwrap().isr(now, 0, now + 1.0);
        assert_eq!(isr, vec![heir]);
    }
    assert!(journaled > 800, "assignments journaled: {journaled}");

    // Crash matcher 0: its stream fails over to matcher 1, which
    // replays the replicated records into its own engine.
    let victim = MatcherId(0);
    let heir = MatcherId(1);
    let heir_subs_before = subs_of(&c, heir);
    let victim_log = c
        .replication()
        .unwrap()
        .copy(victim, victim)
        .unwrap()
        .next_offset();
    c.kill_matcher(victim);
    let repl = c.replication().unwrap();
    assert_eq!(
        c.control().leader_of(victim),
        Some(heir),
        "heir leads the stream"
    );
    let epoch = repl.copy(victim, heir).map(|s| s.epoch());
    assert_eq!(epoch, Some(2), "promotion bumps the epoch");
    assert_eq!(
        repl.promoted, victim_log,
        "the whole replicated stream replays"
    );
    assert!(
        subs_of(&c, heir) > heir_subs_before,
        "replay installed the victim's copies into the heir's engine"
    );

    // The acked pipeline keeps delivering over the failover.
    c.run(500.0, 10.0, &mut gen);
    c.drain(40.0);
    assert_eq!(c.metrics.total_lost, 0, "acked pipeline must not lose");
    assert_eq!(c.metrics.total_delivered, c.metrics.total_sent);
}

#[test]
fn deposed_leader_in_flight_appends_are_fenced() {
    let (mut c, _w) = replicated_cluster(3);
    // A wildcard is assigned to every matcher: journaling it puts an
    // append from every stream — matcher 0's included — in flight.
    let wild = Subscription::builder(&c.space().clone()).build().unwrap();
    c.subscribe(wild);
    // Crash matcher 0 before its append lands: matcher 1 promotes the
    // stream at epoch 2 *now*, so the epoch-1 frame still on the wire
    // arrives at the stream's new leader and must be fenced, not
    // applied.
    c.kill_matcher(MatcherId(0));
    assert_eq!(c.replication().unwrap().fenced, 0);
    c.drain(1.0);
    let repl = c.replication().unwrap();
    assert!(repl.fenced >= 1, "the stale appends are rejected");
    assert_eq!(c.control().leader_of(MatcherId(0)), Some(MatcherId(1)));
    // The unreplicated tail died with the node: the promoted stream is
    // still empty, exactly the min_isr = 1 (asynchronous) contract.
    let log = repl.copy(MatcherId(0), MatcherId(1)).unwrap();
    assert_eq!(log.next_offset(), 0);
}

#[test]
fn grown_and_shrunk_matchers_keep_replication_bookkeeping_consistent() {
    let (mut c, w) = replicated_cluster(4);
    c.subscribe_all(w.subscriptions().take(300));
    let mut gen = w.messages();
    c.run(300.0, 1.0, &mut gen);

    // A joiner gets its own stream, led by itself at epoch 1.
    let new = c.add_matcher().unwrap();
    let repl = c.replication().unwrap();
    assert_eq!(c.control().leader_of(new), Some(new));
    assert_eq!(repl.copy(new, new).map(|s| s.epoch()), Some(1));

    // A graceful leaver's stream retires (the handover moved its engine
    // copies), and it vanishes from every other stream's ISR.
    let victim = MatcherId(2);
    c.remove_matcher(victim).unwrap();
    c.run(300.0, 10.0, &mut gen);
    c.drain(2.0);
    let now = c.now();
    let repl = c.replication().unwrap();
    assert_eq!(
        c.control().leader_of(victim),
        None,
        "stream retired with the node"
    );
    for m in [MatcherId(0), MatcherId(1), MatcherId(3), new] {
        let set = repl.copy(m, m).and_then(|s| s.leader()).unwrap();
        assert!(
            !set.isr(now, u64::MAX, f64::INFINITY).contains(&victim),
            "leaver still in stream {m:?}'s ISR"
        );
    }
    assert_eq!(c.metrics.total_lost, 0, "graceful leave must not lose");
}

/// A joiner's copies arrive by hand-over, and a hand-over recipient
/// journals what it stores: crashing the joiner promotes its stream at
/// its heir, which inherits every copy the joiner held.
#[test]
fn crashed_joiner_hands_its_copies_to_its_heir() {
    let (mut c, w) = replicated_cluster(4);
    c.subscribe_all(w.subscriptions().take(800));
    let mut gen = w.messages();
    c.run(300.0, 1.0, &mut gen);
    let joiner = c.add_matcher().unwrap();
    c.run(300.0, 2.0, &mut gen);
    let held = c.copies(joiner);
    assert!(
        held.len() > 50,
        "the joiner took over copies: {}",
        held.len()
    );

    c.kill_matcher(joiner);
    let heir = c.control().leader_of(joiner).expect("stream promoted");
    assert_ne!(heir, joiner);
    let repl = c.replication().unwrap();
    assert!(repl.promoted > 0, "the joiner's stream replays");
    let inherited: BTreeSet<_> = c.copies(heir).into_iter().collect();
    let lost: Vec<_> = held.iter().filter(|c| !inherited.contains(c)).collect();
    assert!(
        lost.is_empty(),
        "{} copies lost with the joiner",
        lost.len()
    );

    c.run(300.0, 5.0, &mut gen);
    c.drain(40.0);
    assert_eq!(c.metrics.total_lost, 0, "acked pipeline must not lose");
    assert_eq!(c.metrics.total_delivered, c.metrics.total_sent);
}

/// The leader-and-heir double crash in virtual time: the heir journals
/// the copies it inherits on its own stream, so when it crashes too its
/// own heir inherits both victims' copies.
#[test]
fn leader_and_heir_double_crash_loses_no_copy() {
    let (mut c, w) = replicated_cluster(4);
    c.subscribe_all(w.subscriptions().take(800));
    let mut gen = w.messages();
    c.run(300.0, 1.0, &mut gen);
    let (first, second) = (MatcherId(0), MatcherId(1));
    let held: BTreeSet<_> = c
        .copies(first)
        .into_iter()
        .chain(c.copies(second))
        .collect();

    c.kill_matcher(first);
    assert_eq!(c.control().leader_of(first), Some(second));
    c.run(300.0, 1.0, &mut gen);
    c.kill_matcher(second);
    let survivor = c.control().leader_of(second).expect("stream promoted");
    assert_eq!(c.control().leader_of(first), Some(survivor));
    let inherited: BTreeSet<_> = c.copies(survivor).into_iter().collect();
    let lost: Vec<_> = held.difference(&inherited).collect();
    assert!(
        lost.is_empty(),
        "{} copies lost in the double crash",
        lost.len()
    );
}

/// The same double crash under acked traffic: the dispatcher tier sends
/// the victims' publications to the leader the control plane promoted,
/// which holds their copies, so none exhausts its retry budget.
#[test]
fn leader_and_heir_double_crash_dead_letters_nothing() {
    let (mut c, w) = replicated_cluster(4);
    c.subscribe_all(w.subscriptions().take(800));
    let mut gen = w.messages();
    c.run(300.0, 1.0, &mut gen);
    c.kill_matcher(MatcherId(0));
    c.run(300.0, 1.0, &mut gen);
    c.kill_matcher(MatcherId(1));
    c.run(300.0, 5.0, &mut gen);
    c.drain(40.0);
    assert!(c.metrics.total_sent > 2_000);
    assert_eq!(c.metrics.total_lost, 0, "dead-lettered publications");
    assert_eq!(c.metrics.total_delivered, c.metrics.total_sent);
}

fn subs_of(c: &SimCluster, m: MatcherId) -> usize {
    c.sub_counts()
        .into_iter()
        .find(|&(id, _)| id == m)
        .map(|(_, n)| n)
        .unwrap_or(0)
}
