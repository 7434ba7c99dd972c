//! The simulated replication layer end-to-end: the same matcher engine
//! steps the threaded cluster drives — asynchronous, epoch-fenced
//! streams — here under virtual time with in-memory record logs:
//! replicas mirror their leader's log, a new heir gets every led stream
//! at once, failover replays the stream into the heir's engine, and a
//! deposed leader's in-flight appends are fenced.

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
    c.enable_replication();
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
    // log (net_latency lag is long gone).
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
        let replica = repl.copy(stream, heir).filter(|r| !r.leads());
        assert_eq!(
            replica.map(|r| r.next_offset()),
            Some(len),
            "replica of stream {m} lags its leader"
        );
        assert_eq!(log.epoch(), 1);
    }
    assert!(journaled > 800, "assignments journaled: {journaled}");

    // Crash matcher 0: its stream fails over to matcher 1, which
    // replays the replicated records into its own engine.
    let victim = MatcherId(0);
    let heir = MatcherId(1);
    let heir_subs_before = subs_of(&c, heir);
    let victim_subs = subs_of(&c, victim) as u64;
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
        repl.promoted, victim_subs,
        "the heir adopts every copy the victim held"
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

/// What a matcher sent before it crashed still lands ahead of its
/// heir's promotion, as on the threaded cluster's first-in first-out
/// inboxes: the promoted stream holds the append that was on the wire.
#[test]
fn appends_in_flight_at_a_crash_land_before_the_promotion() {
    let (mut c, _w) = replicated_cluster(3);
    // A wildcard is assigned to every matcher: journaling it puts an
    // append from every stream — matcher 0's included — in flight.
    let wild = Subscription::builder(&c.space().clone()).build().unwrap();
    c.subscribe(wild);
    let held = c.copies(MatcherId(0));
    assert!(!held.is_empty());
    c.kill_matcher(MatcherId(0));
    let repl = c.replication().unwrap();
    assert_eq!(c.control().leader_of(MatcherId(0)), Some(MatcherId(1)));
    let log = repl.copy(MatcherId(0), MatcherId(1)).unwrap();
    assert_eq!(
        log.next_offset(),
        held.len() as u64,
        "the in-flight appends replicated"
    );
    assert_eq!(repl.fenced, 0);
    let inherited: BTreeSet<_> = c.copies(MatcherId(1)).into_iter().collect();
    assert!(held.iter().all(|c| inherited.contains(c)));
}

/// A leaver hands the stream it led for a down owner on to its heir,
/// together with its copy; the leaver's appends still on the wire reach
/// the new leader under the old epoch and are fenced.
#[test]
fn deposed_leader_in_flight_appends_are_fenced() {
    let (mut c, _w) = replicated_cluster(3);
    c.kill_matcher(MatcherId(0));
    assert_eq!(c.control().leader_of(MatcherId(0)), Some(MatcherId(1)));
    // Matcher 1 journals the wildcard's stream-0 copy on stream 0 and
    // sends the append to matcher 2; it leaves before the append lands.
    let wild = Subscription::builder(&c.space().clone()).build().unwrap();
    c.subscribe(wild);
    let copy = |c: &SimCluster, at: u32| {
        let s = c.replication().unwrap().copy(MatcherId(0), MatcherId(at));
        s.map(|s| (s.leads(), s.epoch(), s.records().to_vec()))
    };
    let (led, epoch, records) = copy(&c, 1).unwrap();
    assert!(led && epoch == 2 && !records.is_empty());
    c.remove_matcher(MatcherId(1)).unwrap();
    assert_eq!(c.control().leader_of(MatcherId(0)), Some(MatcherId(2)));
    let moved = copy(&c, 2);
    let (led, epoch, held) = moved.clone().unwrap();
    assert!(led && epoch == 3, "the heir leads at a higher epoch");
    assert!(held.starts_with(&records), "the leaver's copy moved on");
    assert_eq!(c.replication().unwrap().fenced, 0);
    c.drain(1.0);
    assert!(
        c.replication().unwrap().fenced >= 1,
        "the stale appends are rejected"
    );
    assert_eq!(copy(&c, 2), moved);
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
    // copies), and every other stream's heir of the post-leave ring holds
    // its leader's whole log.
    let victim = MatcherId(2);
    c.remove_matcher(victim).unwrap();
    c.run(300.0, 10.0, &mut gen);
    c.drain(2.0);
    let repl = c.replication().unwrap();
    assert_eq!(
        c.control().leader_of(victim),
        None,
        "stream retired with the node"
    );
    for m in [MatcherId(0), MatcherId(1), MatcherId(3), new] {
        let heir = c.control().heir(m).unwrap();
        let (log, replica) = (repl.copy(m, m).unwrap(), repl.copy(m, heir));
        assert_eq!(
            replica.map(|r| r.records()),
            Some(log.records()),
            "stream {m:?}'s replica at {heir:?}"
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

/// A matcher whose clockwise heir changes sends the new heir each stream
/// it leads at once: crashed before its next append, its stream still
/// promotes with every copy. The heir changes three ways — a join lands
/// between the matcher and its heir, the heir leaves, the heir crashes.
#[test]
fn a_new_heir_gets_the_stream_before_the_next_append() {
    for change in ["join", "leave", "crash"] {
        let (mut c, w) = replicated_cluster(4);
        c.subscribe_all(w.subscriptions().take(800));
        let mut gen = w.messages();
        c.run(500.0, 1.0, &mut gen);
        let victim = match change {
            "join" => {
                let joiner = c.add_matcher().unwrap();
                assert_eq!(c.control().heir(MatcherId(3)), Some(joiner));
                MatcherId(3)
            }
            "leave" => {
                c.remove_matcher(MatcherId(1)).unwrap();
                MatcherId(0)
            }
            _ => {
                c.kill_matcher(MatcherId(1));
                MatcherId(0)
            }
        };
        let held = c.copies(victim);
        c.kill_matcher(victim);
        let leader = c.control().leader_of(victim).unwrap();
        let replica = c.replication().unwrap().copy(victim, leader);
        assert!(replica.is_some_and(|r| r.next_offset() > 0), "{change}");
        let inherited: BTreeSet<_> = c.copies(leader).into_iter().collect();
        let lost = held.iter().filter(|c| !inherited.contains(c)).count();
        assert_eq!(
            lost,
            0,
            "{change}: copies of {victim:?} lost of {}",
            held.len()
        );
    }
}
