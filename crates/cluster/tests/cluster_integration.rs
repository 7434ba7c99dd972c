//! End-to-end tests of the threaded deployment: routing correctness,
//! multi-dispatcher operation, all strategies/policies, elastic join and
//! crash fail-over.

use bluedove_cluster::matcher::{MatcherNode, MatcherNodeConfig};
use bluedove_cluster::shared::{subscriber_addr, Shared};
use bluedove_cluster::{
    Cluster, ClusterConfig, ClusterError, ControlMsg, PolicyKind, StrategyKind,
};
use bluedove_core::{
    AttributeSpace, DimIdx, MatcherId, Message, SubscriberId, Subscription, SubscriptionId,
};
use bluedove_engine::{AutoscalerConfig, EngineConfig, Rejected, ScaleError, ScaleOutcome};
use bluedove_net::{from_bytes, to_bytes, ChannelTransport, Transport};
use bluedove_workload::PaperWorkload;
use std::sync::Arc;
use std::time::Duration;

fn space() -> AttributeSpace {
    AttributeSpace::uniform(4, 0.0, 1000.0)
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn matching_and_non_matching_messages() {
    let sp = space();
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(4));
    let sub = Subscription::builder(&sp)
        .range(0, 100.0, 200.0)
        .range(1, 0.0, 500.0)
        .build()
        .unwrap();
    let subscriber = cluster.subscribe(sub).unwrap();

    cluster
        .publish(Message::new(vec![150.0, 250.0, 10.0, 20.0]))
        .unwrap(); // match
    cluster
        .publish(Message::new(vec![950.0, 250.0, 10.0, 20.0]))
        .unwrap(); // no match (dim 0)
    cluster
        .publish(Message::new(vec![150.0, 700.0, 10.0, 20.0]))
        .unwrap(); // no match (dim 1)
    cluster
        .publish(Message::with_payload(
            vec![199.9, 499.9, 0.0, 999.9],
            b"hi".to_vec(),
        ))
        .unwrap();

    // The two matches may be served by different matchers, so they can
    // arrive in either order: each exactly once, then silence.
    let got: Vec<_> = (0..2)
        .map(|_| {
            subscriber
                .recv_timeout(Duration::from_secs(5))
                .expect("two deliveries")
        })
        .collect();
    assert_eq!(got.iter().filter(|d| d.msg.values[0] == 150.0).count(), 1);
    assert_eq!(
        got.iter().filter(|d| &d.msg.payload[..] == b"hi").count(),
        1
    );
    // No further deliveries.
    assert!(subscriber
        .recv_timeout(Duration::from_millis(300))
        .is_none());
    cluster.shutdown();
}

#[test]
fn multiple_subscribers_each_get_their_matches() {
    let sp = space();
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(3).dispatchers(2));
    let narrow = cluster
        .subscribe(
            Subscription::builder(&sp)
                .range(0, 0.0, 10.0)
                .build()
                .unwrap(),
        )
        .unwrap();
    let wide = cluster
        .subscribe(Subscription::builder(&sp).build().unwrap())
        .unwrap();

    for i in 0..20 {
        cluster
            .publish(Message::new(vec![i as f64 * 50.0, 1.0, 2.0, 3.0]))
            .unwrap();
    }
    // wide matches all 20, narrow matches only value 0.0 (i = 0).
    let mut wide_total = 0;
    while wide.recv_timeout(Duration::from_secs(2)).is_some() {
        wide_total += 1;
        if wide_total == 20 {
            break;
        }
    }
    let mut narrow_total = 0;
    while narrow.recv_timeout(Duration::from_millis(300)).is_some() {
        narrow_total += 1;
    }
    assert_eq!(wide_total, 20, "wide got {wide_total}");
    assert_eq!(narrow_total, 1, "narrow got {narrow_total}");
    cluster.shutdown();
}

#[test]
fn all_strategies_deliver_correctly() {
    for strategy in [
        StrategyKind::BlueDove,
        StrategyKind::P2p,
        StrategyKind::FullReplication,
    ] {
        let sp = space();
        let mut cluster = Cluster::start(
            ClusterConfig::new(sp.clone())
                .matchers(4)
                .strategy(strategy)
                .policy(if strategy == StrategyKind::BlueDove {
                    PolicyKind::Adaptive
                } else {
                    PolicyKind::Random
                }),
        );
        let sub = Subscription::builder(&sp)
            .range(2, 300.0, 600.0)
            .build()
            .unwrap();
        let subscriber = cluster.subscribe(sub).unwrap();
        cluster
            .publish(Message::new(vec![1.0, 2.0, 450.0, 3.0]))
            .unwrap();
        let d = subscriber
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|| panic!("delivery under {strategy:?}"));
        assert_eq!(d.msg.values[2], 450.0);
        cluster.shutdown();
    }
}

#[test]
fn all_policies_deliver_correctly() {
    for policy in [
        PolicyKind::Adaptive,
        PolicyKind::ResponseTime,
        PolicyKind::SubscriptionCount,
        PolicyKind::Random,
    ] {
        let sp = space();
        let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(5).policy(policy));
        let sub = Subscription::builder(&sp)
            .range(0, 0.0, 100.0)
            .build()
            .unwrap();
        let subscriber = cluster.subscribe(sub).unwrap();
        for _ in 0..5 {
            cluster
                .publish(Message::new(vec![50.0, 1.0, 2.0, 3.0]))
                .unwrap();
        }
        for _ in 0..5 {
            assert!(
                subscriber.recv_timeout(Duration::from_secs(5)).is_some(),
                "missing delivery under {policy:?}"
            );
        }
        cluster.shutdown();
    }
}

#[test]
fn throughput_run_with_paper_workload() {
    let w = PaperWorkload {
        seed: 11,
        ..Default::default()
    };
    let sp = w.space();
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(6).dispatchers(2));
    // A wildcard subscriber counts every delivery.
    let all = cluster
        .subscribe(Subscription::builder(&sp).build().unwrap())
        .unwrap();
    let subs = w.subscriptions();
    for s in subs.take(300) {
        // Re-register through the cluster (ids are re-stamped).
        let plain = Subscription::builder(&sp)
            .range(0, s.predicates[0].lo, s.predicates[0].hi)
            .range(1, s.predicates[1].lo, s.predicates[1].hi)
            .range(2, s.predicates[2].lo, s.predicates[2].hi)
            .range(3, s.predicates[3].lo, s.predicates[3].hi)
            .build()
            .unwrap();
        cluster.subscribe(plain).unwrap();
    }
    let gen = w.messages();
    let mut publisher = cluster.publisher();
    for m in gen.take(2000) {
        publisher.publish(m).unwrap();
    }
    wait_for(|| cluster.counters().0 >= 2000, "all messages admitted");
    // Every message matches the wildcard subscription: expect ~2000
    // deliveries to `all`.
    let mut got = 0;
    while let Some(_d) = all.recv_timeout(Duration::from_secs(5)) {
        got += 1;
        if got == 2000 {
            break;
        }
    }
    assert_eq!(got, 2000);
    let (published, matched, deliveries, dropped) = cluster.counters();
    assert_eq!(published, 2000);
    assert_eq!(dropped, 0);
    assert!(matched >= 2000); // every message matched at least the wildcard
    assert!(deliveries >= 2000);
    cluster.shutdown();
}

#[test]
fn elastic_join_preserves_matching() {
    let sp = space();
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(2));
    let subscriber = cluster
        .subscribe(
            Subscription::builder(&sp)
                .range(0, 400.0, 600.0)
                .build()
                .unwrap(),
        )
        .unwrap();

    cluster
        .publish(Message::new(vec![500.0, 1.0, 2.0, 3.0]))
        .unwrap();
    assert!(subscriber.recv_timeout(Duration::from_secs(5)).is_some());

    let new = cluster.add_matcher().unwrap();
    assert_eq!(new, MatcherId(2));
    assert_eq!(cluster.matcher_ids().len(), 3);

    // Messages matching the subscription keep arriving after the join,
    // wherever the copies now live.
    for _ in 0..10 {
        cluster
            .publish(Message::new(vec![550.0, 900.0, 900.0, 900.0]))
            .unwrap();
    }
    for i in 0..10 {
        assert!(
            subscriber.recv_timeout(Duration::from_secs(5)).is_some(),
            "delivery {i} missing after elastic join"
        );
    }
    cluster.shutdown();
}

#[test]
fn crash_failover_keeps_delivering() {
    let sp = space();
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(4));
    let subscriber = cluster
        .subscribe(Subscription::builder(&sp).build().unwrap()) // wildcard: on all matchers
        .unwrap();

    cluster.kill_matcher(MatcherId(1));

    // Publish a burst; some messages will hit the dead matcher first and
    // fail over. With a wildcard subscription every message must still be
    // delivered (k=4 candidates, 3 alive).
    for i in 0..50 {
        cluster
            .publish(Message::new(vec![
                (i * 17 % 1000) as f64,
                (i * 31 % 1000) as f64,
                (i * 7 % 1000) as f64,
                (i * 13 % 1000) as f64,
            ]))
            .unwrap();
    }
    let mut got = 0;
    while subscriber.recv_timeout(Duration::from_secs(3)).is_some() {
        got += 1;
        if got == 50 {
            break;
        }
    }
    assert_eq!(got, 50, "deliveries after crash");
    let (_, _, _, dropped) = cluster.counters();
    assert_eq!(
        dropped, 0,
        "channel fail-over is immediate; nothing dropped"
    );
    cluster.shutdown();
}

#[test]
fn a_join_never_takes_a_down_donor() {
    // With an empty load snapshot every load ties and the lowest id would
    // donate; M0 is down, so the join must split a live matcher instead
    // and keep delivering.
    let sp = space();
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(4));
    let subscriber = cluster
        .subscribe(
            Subscription::builder(&sp)
                .range(0, 300.0, 500.0)
                .build()
                .unwrap(),
        )
        .unwrap();
    cluster.kill_matcher(MatcherId(0));
    let new = cluster.add_matcher().unwrap();
    assert_eq!(new, MatcherId(4));
    assert_eq!(cluster.matcher_ids(), [1, 2, 3, 4].map(MatcherId).to_vec());
    for i in 0..10 {
        let v = 300.0 + 20.0 * i as f64;
        cluster.publish(Message::new(vec![v, v, v, v])).unwrap();
    }
    for i in 0..10 {
        assert!(
            subscriber.recv_timeout(Duration::from_secs(5)).is_some(),
            "delivery {i} missing after the join"
        );
    }
    cluster.shutdown();

    // No live owner at all: refused, and nothing is left running.
    let mut cluster = Cluster::start(ClusterConfig::new(space()).matchers(2));
    cluster.kill_matcher(MatcherId(0));
    cluster.kill_matcher(MatcherId(1));
    assert!(matches!(
        cluster.add_matcher(),
        Err(ClusterError::Scale(ScaleError::NoLiveDonor(_)))
    ));
    assert!(cluster.matcher_ids().is_empty());
    cluster.shutdown();
}

#[test]
fn a_matcher_that_left_cannot_be_restarted() {
    // A graceful leave takes the matcher out of the table for good: a
    // restart is for crashed members only, so it must neither respawn the
    // leaver nor put it back in the address book.
    let mut cluster = Cluster::start(ClusterConfig::new(space()).matchers(3));
    let m2 = MatcherId(2);
    assert_eq!(cluster.remove_matcher(m2).unwrap(), m2);
    assert!(matches!(
        cluster.restart_matcher(m2),
        Err(ClusterError::Scale(ScaleError::UnknownMatcher(m))) if m == m2
    ));
    assert_eq!(cluster.matcher_ids(), vec![MatcherId(0), MatcherId(1)]);
    assert_eq!(
        cluster.telemetry().gauge_value("bluedove_matchers", &[]),
        Some(2)
    );
    cluster.shutdown();
}

#[test]
fn subscription_ack_requires_a_stored_copy() {
    let sp = space();
    // Every predicate sits inside m/1's segment (4 matchers ⇒ segment
    // width 250 per dimension), so every primary copy is assigned to m/1.
    let narrow = |sp: &AttributeSpace| {
        let mut b = Subscription::builder(sp);
        for d in 0..4 {
            b = b.range(d, 300.0, 310.0);
        }
        b.build().unwrap()
    };

    // (a) The assigned owner is dead at registration time. Its copies
    // are lost with the failed sends, but the subscription is degenerate
    // (§III-A-1), so the strategy also places it on m/1's clockwise
    // neighbour on dimensions 1..3 — the copies message-side fallback
    // routing probes. Storing those is enough to ack, and the
    // subscription must be live, not just acked.
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(4));
    cluster.kill_matcher(MatcherId(1));
    let sub = cluster.subscribe(narrow(&sp)).expect("fail-over SubAck");
    cluster.publish(Message::new(vec![305.0; 4])).unwrap();
    let d = sub
        .recv_timeout(Duration::from_secs(5))
        .expect("delivery through the fail-over copy");
    assert_eq!(d.msg.values, vec![305.0; 4]);
    cluster.shutdown();

    // (b) No matcher can store any copy: the dispatcher must stay silent
    // instead of acking a registration nobody holds, and the client times
    // out (and could retry). Before the fix this returned a SubAck and
    // every subsequent matching publication vanished.
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(2));
    cluster.kill_matcher(MatcherId(0));
    cluster.kill_matcher(MatcherId(1));
    match cluster.subscribe(narrow(&sp)) {
        Ok(_) => panic!("no false SubAck with zero stored copies"),
        Err(e) => assert!(
            matches!(e, ClusterError::Timeout(_)),
            "expected an ack timeout, got: {e}"
        ),
    }
    cluster.shutdown();
}

#[test]
fn crash_loss_window_is_bounded() {
    // Figure 10 at test scale: the paper measures a ~17.5 s delivery gap
    // after a matcher crash, bounded by fail-over to surviving candidate
    // matchers. In-process fail-over is driven by send errors instead of
    // timeouts, so the window must be far tighter — the invariant is that
    // delivery RESUMES for subscriptions whose other replicas survive,
    // and the measured gap stays well under the paper's envelope.
    //
    // This pins the fire-and-forget (acks-off) path: messages accepted by
    // a matcher that dies before serving them are lost, but the window is
    // bounded. The zero-loss acks-on guarantee is covered by the chaos
    // suite's `crash_loses_nothing_with_acks`.
    let sp = space();
    let mut cluster = Cluster::start(
        ClusterConfig::new(sp.clone())
            .matchers(4)
            .publication_acks(false),
    );
    let subscriber = cluster
        .subscribe(Subscription::builder(&sp).build().unwrap()) // copies on all matchers
        .unwrap();

    // Steady state before the crash.
    cluster
        .publish(Message::new(vec![1.0, 2.0, 3.0, 4.0]))
        .unwrap();
    assert!(subscriber.recv_timeout(Duration::from_secs(5)).is_some());

    cluster.kill_matcher(MatcherId(2));
    let killed_at = std::time::Instant::now();

    // Republish until a post-crash message comes through; the elapsed
    // time is the observed loss window.
    let window = loop {
        cluster
            .publish(Message::new(vec![9.0, 9.0, 9.0, 9.0]))
            .unwrap();
        if let Some(d) = subscriber.recv_timeout(Duration::from_millis(100)) {
            if d.msg.values[0] == 9.0 {
                break killed_at.elapsed();
            }
        }
        assert!(
            killed_at.elapsed() < Duration::from_secs(10),
            "delivery never resumed after the crash"
        );
    };
    println!("observed loss window: {:.3}s", window.as_secs_f64());
    assert!(
        window < Duration::from_secs(5),
        "fail-over should resume delivery well inside the paper's ~17.5s envelope, took {window:?}"
    );

    // The survivors keep serving steady traffic afterwards.
    for _ in 0..10 {
        cluster
            .publish(Message::new(vec![5.0, 5.0, 5.0, 5.0]))
            .unwrap();
    }
    let mut got = 0;
    while subscriber.recv_timeout(Duration::from_secs(3)).is_some() {
        got += 1;
        if got >= 10 {
            break;
        }
    }
    assert!(got >= 10, "steady delivery after fail-over");
    cluster.shutdown();
}

#[test]
fn indirect_delivery_via_mailbox_polling() {
    let sp = space();
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(3));
    let mobile = cluster
        .subscribe_indirect(
            Subscription::builder(&sp)
                .range(0, 0.0, 500.0)
                .build()
                .unwrap(),
        )
        .unwrap();

    // Nothing stored yet.
    assert!(mobile.poll(0).unwrap().is_empty());

    for i in 0..10 {
        cluster
            .publish(Message::new(vec![i as f64 * 100.0, 1.0, 2.0, 3.0]))
            .unwrap();
    }
    // Values 0..500 match: messages 0,100,200,300,400 → 5 deliveries
    // accumulate in the mailbox while the "mobile" client is away.
    wait_for(
        || cluster.counters().1 >= 5,
        "mailbox deliveries to accumulate",
    );
    std::thread::sleep(Duration::from_millis(200));
    let first = mobile.poll(3).unwrap();
    assert_eq!(first.len(), 3, "bounded poll");
    let rest = mobile.poll(0).unwrap();
    assert_eq!(rest.len(), 2, "remaining deliveries");
    assert!(mobile.poll(0).unwrap().is_empty(), "mailbox drained");
    cluster.shutdown();
}

#[test]
fn unsubscribe_stops_deliveries() {
    let sp = space();
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(4));
    let handle = cluster
        .subscribe(
            Subscription::builder(&sp)
                .range(0, 0.0, 1000.0)
                .build()
                .unwrap(),
        )
        .unwrap();
    cluster
        .publish(Message::new(vec![10.0, 1.0, 2.0, 3.0]))
        .unwrap();
    assert!(handle.recv_timeout(Duration::from_secs(5)).is_some());

    cluster.unsubscribe(&handle).unwrap();
    // Give the removal time to land on all matchers, then publish again.
    std::thread::sleep(Duration::from_millis(300));
    for _ in 0..10 {
        cluster
            .publish(Message::new(vec![10.0, 1.0, 2.0, 3.0]))
            .unwrap();
    }
    assert!(
        handle.recv_timeout(Duration::from_millis(500)).is_none(),
        "no deliveries after unsubscribe"
    );
    cluster.shutdown();
}

#[test]
fn gossip_mesh_converges_and_accounts_bytes() {
    let sp = space();
    let cluster = Cluster::start(
        ClusterConfig::new(sp)
            .matchers(6)
            .gossip_interval(Duration::from_millis(50)),
    );
    // Within a few gossip rounds every matcher should know all 5 peers
    // and byte counters should be moving.
    wait_for(
        || {
            let counts = cluster.gossip_peer_counts();
            counts.len() == 6 && counts.iter().all(|&(_, n)| n == 5)
        },
        "gossip membership convergence",
    );
    assert!(cluster.gossip_bytes() > 0, "gossip traffic accounted");
    cluster.shutdown();
}

#[test]
fn new_matcher_joins_gossip_mesh() {
    let sp = space();
    let mut cluster = Cluster::start(
        ClusterConfig::new(sp)
            .matchers(3)
            .gossip_interval(Duration::from_millis(50)),
    );
    let new = cluster.add_matcher().unwrap();
    wait_for(
        || {
            cluster
                .gossip_peer_counts()
                .iter()
                .any(|&(m, n)| m == new && n == 3)
        },
        "newcomer to learn the full membership",
    );
    // And the old members learn the newcomer.
    wait_for(
        || cluster.gossip_peer_counts().iter().all(|&(_, n)| n == 3),
        "existing members to learn the newcomer",
    );
    cluster.shutdown();
}

#[test]
fn load_reports_flow_and_policies_use_them() {
    // Indirect but observable: with the sub-count policy and a very skewed
    // subscription placement, messages should avoid the loaded matcher
    // once reports arrive. We verify the cluster stays correct and the
    // stats pipeline doesn't wedge anything.
    let sp = space();
    let mut cluster = Cluster::start(
        ClusterConfig::new(sp.clone())
            .matchers(4)
            .policy(PolicyKind::SubscriptionCount)
            .stats_interval(Duration::from_millis(50)),
    );
    let subscriber = cluster
        .subscribe(
            Subscription::builder(&sp)
                .range(0, 0.0, 250.0)
                .build()
                .unwrap(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(200)); // let reports flow
    for _ in 0..10 {
        cluster
            .publish(Message::new(vec![100.0, 1.0, 2.0, 3.0]))
            .unwrap();
    }
    for _ in 0..10 {
        assert!(subscriber.recv_timeout(Duration::from_secs(5)).is_some());
    }
    cluster.shutdown();
}

#[test]
fn publish_all_coalesces_the_publish_leg_and_delivers_exactly_once() {
    let sp = space();
    const N: usize = 200;
    // Coalescing on: the publisher chunks the stream into Batch frames,
    // the dispatcher unwraps them, and every message still arrives at
    // the wildcard subscriber exactly once and in publish order.
    let mut cluster = Cluster::start(
        ClusterConfig::new(sp.clone())
            .matchers(2)
            .max_batch(16)
            .max_delay(Duration::from_millis(1)),
    );
    let wildcard = cluster
        .subscribe(Subscription::builder(&sp).build().unwrap())
        .unwrap();
    let (frames0, _) = cluster.wire_stats();
    let mut publisher = cluster.publisher();
    publisher
        .publish_all((0..N).map(|i| Message::new(vec![i as f64, 0.0, 0.0, 0.0])))
        .unwrap();
    let mut seen = Vec::with_capacity(N);
    while seen.len() < N {
        let d = wildcard
            .recv_timeout(Duration::from_secs(10))
            .expect("delivery");
        seen.push(d.msg.values[0] as usize);
    }
    assert_eq!(
        seen,
        (0..N).collect::<Vec<_>>(),
        "order must survive batching"
    );
    assert!(
        wildcard.recv_timeout(Duration::from_millis(300)).is_none(),
        "no duplicate deliveries"
    );
    let (frames1, _) = cluster.wire_stats();
    let frames = frames1 - frames0;
    // 200 messages over three coalesced legs (publish, forward, deliver)
    // must need far fewer frames than the ~3-per-message unbatched wire.
    assert!(
        frames < N as u64,
        "coalescing engaged: {frames} frames for {N} messages"
    );
    cluster.shutdown();

    // Coalescing off (`max_batch = 1`): publish_all degenerates to the
    // per-message wire, frame for frame.
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(2));
    let wildcard = cluster
        .subscribe(Subscription::builder(&sp).build().unwrap())
        .unwrap();
    let (frames0, _) = cluster.wire_stats();
    let mut publisher = cluster.publisher();
    publisher
        .publish_all((0..N).map(|i| Message::new(vec![i as f64, 0.0, 0.0, 0.0])))
        .unwrap();
    for _ in 0..N {
        wildcard
            .recv_timeout(Duration::from_secs(10))
            .expect("delivery");
    }
    let (frames1, _) = cluster.wire_stats();
    assert!(
        frames1 - frames0 >= 3 * N as u64,
        "unbatched wire sends one frame per message per leg"
    );
    cluster.shutdown();
}

/// Flushes of `component`'s coalescer triggered by `reason` so far.
fn batch_flushes(cluster: &Cluster, component: &str, reason: &str) -> u64 {
    cluster
        .telemetry()
        .counter_value(
            "bluedove_batch_flush_total",
            &[("component", component.into()), ("reason", reason.into())],
        )
        .unwrap_or(0)
}

#[test]
fn idle_node_flushes_at_once_instead_of_waiting_out_max_delay() {
    let sp = space();
    // A lone publication can never fill a 64-frame lane, and the deadline
    // is half a second out on each of the two coalescing hops: only the
    // idle trigger can deliver it promptly.
    let mut cluster = Cluster::start(
        ClusterConfig::new(sp.clone())
            .matchers(2)
            .max_batch(64)
            .max_delay(Duration::from_millis(500)),
    );
    let wildcard = cluster
        .subscribe(Subscription::builder(&sp).build().unwrap())
        .unwrap();
    let sent = std::time::Instant::now();
    cluster
        .publish(Message::new(vec![1.0, 2.0, 3.0, 4.0]))
        .unwrap();
    wildcard
        .recv_timeout(Duration::from_secs(5))
        .expect("delivery");
    let took = sent.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "publish to receipt took {took:?} with nothing else to do"
    );
    for component in ["dispatcher", "matcher"] {
        assert!(
            batch_flushes(&cluster, component, "idle") > 0,
            "the {component} never flushed on idle"
        );
        assert_eq!(batch_flushes(&cluster, component, "deadline"), 0);
    }
    cluster.shutdown();
}

#[test]
fn size_only_flushing_neither_panics_nor_strands_frames() {
    let sp = space();
    // `Duration::MAX` is 2^64 s: no wake-up can be computed from such a
    // deadline, and no deadline flush will ever fire. The idle trigger
    // still delivers every frame that does not fill a lane.
    let mut cluster = Cluster::start(
        ClusterConfig::new(sp.clone())
            .matchers(2)
            .max_batch(8)
            .max_delay(Duration::MAX),
    );
    let wildcard = cluster
        .subscribe(Subscription::builder(&sp).build().unwrap())
        .unwrap();
    const N: usize = 21; // not a multiple of the lane size
    for i in 0..N {
        cluster
            .publish(Message::new(vec![i as f64, 0.0, 0.0, 0.0]))
            .unwrap();
    }
    for i in 0..N {
        wildcard
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|| panic!("delivery {i} of {N} never arrived"));
    }
    assert_eq!(batch_flushes(&cluster, "dispatcher", "deadline"), 0);
    cluster.shutdown();
}

#[test]
fn autoscale_tick_sees_load_reports_with_batching_on_or_off() {
    // With batching on a matcher ships its k load reports as one `Batch`
    // frame; the control inbox must unwrap it like every other inbox, or
    // the autoscaler never sees a report and holds forever.
    for max_batch in [1, 8] {
        let mut cluster = Cluster::start(
            ClusterConfig::new(space())
                .matchers(3)
                .max_batch(max_batch)
                .stats_interval(Duration::from_millis(20))
                .autoscaler(AutoscalerConfig {
                    hysteresis: 1,
                    cooldown: 0.0,
                    min_matchers: 2,
                    ..Default::default()
                }),
        );
        // An idle cluster is over-provisioned: the first tick that has
        // reports from every matcher scales down.
        let mut outcome = None;
        wait_for(
            || {
                outcome = cluster.autoscale_tick().expect("autoscaler configured");
                outcome.is_some()
            },
            "the idle cluster to shrink",
        );
        assert!(
            matches!(outcome, Some(ScaleOutcome::Removed(_))),
            "max_batch {max_batch}: {outcome:?}"
        );
        assert_eq!(cluster.matcher_ids().len(), 2);
        cluster.shutdown();
    }
}

#[test]
fn unrepresentable_timeouts_start_and_forward() {
    // `Duration::MAX` seconds fit an f64 but not a `Duration` built back
    // from it: the knobs must reach the engine without that round trip.
    let sp = space();
    let mut cluster = Cluster::start(
        ClusterConfig::new(sp.clone())
            .matchers(2)
            .ack_timeout(Duration::MAX)
            .suspicion_ttl(Duration::MAX),
    );
    let subscriber = cluster
        .subscribe(Subscription::builder(&sp).build().unwrap())
        .unwrap();
    cluster
        .publish(Message::new(vec![1.0, 2.0, 3.0, 4.0]))
        .unwrap();
    let d = subscriber
        .recv_timeout(Duration::from_secs(5))
        .expect("delivery");
    assert_eq!(d.msg.values[3], 4.0);
    cluster.shutdown();
}

#[test]
fn bound_matcher_handles_its_whole_inbox_before_serving() {
    // What `restart_matcher` leans on: a publication that reached the
    // bound inbox *ahead of* the recovery replay is still matched against
    // the replayed subscription, because the node handles every queued
    // frame before it serves its first job.
    let sp = space();
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let shared = Arc::new(Shared::new(sp.clone()));
    let deliveries = transport.bind(&subscriber_addr(7)).unwrap();
    let bound = MatcherNode::bind(
        MatcherNodeConfig {
            id: MatcherId(0),
            addr: "m/0".into(),
            engine: EngineConfig::default(),
            stats_interval: Duration::from_secs(60),
            gossip_interval: Duration::from_secs(60),
            gossip_seeds: Vec::new(),
            generation: 1,
            failure_detector: Default::default(),
            sublog: None,
        },
        transport.clone(),
    );
    let mut sub = Subscription::builder(&sp).build().unwrap();
    sub.id = SubscriptionId(1);
    sub.subscriber = SubscriberId(7);
    let mut msg = Message::new(vec![1.0, 2.0, 3.0, 4.0]);
    msg.id = bluedove_core::MessageId(1);
    for frame in [
        ControlMsg::MatchMsg {
            dim: DimIdx(0),
            msg,
            admitted_us: 0,
            ack_to: String::new(),
        },
        ControlMsg::StoreSub {
            dim: DimIdx(0),
            sub,
            stream: MatcherId(0),
        },
    ] {
        transport.send("m/0", to_bytes(&frame).freeze()).unwrap();
    }
    let node = bound.start(shared);
    let payload = deliveries
        .recv_timeout(Duration::from_secs(5))
        .expect("the queued publication matched the queued subscription");
    assert!(matches!(
        from_bytes(&payload),
        Ok(ControlMsg::Deliver {
            sub: SubscriptionId(1),
            ..
        })
    ));
    transport
        .send("m/0", to_bytes(&ControlMsg::Shutdown).freeze())
        .unwrap();
    node.join();
}

#[test]
fn malformed_publish_and_subscribe_are_refused_and_traffic_flows() {
    let sp = AttributeSpace::uniform(2, 0.0, 100.0);
    let mut cluster = Cluster::start(ClusterConfig::new(sp.clone()).matchers(2));
    let sub = cluster
        .subscribe(
            Subscription::builder(&sp)
                .range(0, 10.0, 20.0)
                .build()
                .unwrap(),
        )
        .unwrap();

    // The client API refuses both up front.
    let short = Message::new(vec![15.0]);
    assert!(matches!(
        cluster.publish(short.clone()),
        Err(ClusterError::Malformed(_))
    ));
    let one_predicate = Subscription {
        predicates: vec![bluedove_core::Range::new(10.0, 20.0)],
        ..Subscription::builder(&sp).build().unwrap()
    };
    assert!(matches!(
        cluster.subscribe(one_predicate),
        Err(ClusterError::Malformed(_))
    ));

    // A raw publisher handle does not check: the dispatcher drops the
    // frame and counts it instead of panicking on it.
    cluster.publisher().publish(short).unwrap();
    let telemetry = cluster.telemetry().clone();
    let rejected = |kind: &str| {
        telemetry
            .counter_value("bluedove_rejected_total", &[("kind", kind.to_string())])
            .unwrap_or(0)
    };
    wait_for(|| rejected("publish") == 1, "the dispatcher to reject");

    // The dispatcher survived: well-formed traffic is still delivered.
    cluster.publish(Message::new(vec![15.0, 50.0])).unwrap();
    let d = sub
        .recv_timeout(Duration::from_secs(5))
        .expect("delivery after the malformed frames");
    assert_eq!(d.msg.values, vec![15.0, 50.0]);
    assert_eq!(rejected("subscribe"), 0, "refused before the wire");
    cluster.shutdown();
}

#[test]
fn matcher_drops_malformed_frames_and_keeps_serving() {
    let sp = AttributeSpace::uniform(2, 0.0, 100.0);
    let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new());
    let shared = Arc::new(Shared::new(sp.clone()));
    let deliveries = transport.bind(&subscriber_addr(7)).unwrap();
    let node = MatcherNode::bind(
        MatcherNodeConfig {
            id: MatcherId(0),
            addr: "m/0".into(),
            engine: EngineConfig::default(),
            stats_interval: Duration::from_secs(60),
            gossip_interval: Duration::from_secs(60),
            gossip_seeds: Vec::new(),
            generation: 1,
            failure_detector: Default::default(),
            sublog: None,
        },
        transport.clone(),
    )
    .start(shared.clone());
    let mut sub = Subscription::builder(&sp).build().unwrap();
    sub.id = SubscriptionId(1);
    sub.subscriber = SubscriberId(7);
    let msg = |values: Vec<f64>, id: u64| {
        let mut m = Message::new(values);
        m.id = bluedove_core::MessageId(id);
        ControlMsg::MatchMsg {
            dim: DimIdx(0),
            msg: m,
            admitted_us: 0,
            ack_to: String::new(),
        }
    };
    let mut inverted = sub.clone();
    inverted.predicates[1] = bluedove_core::Range::new(50.0, 40.0);
    for frame in [
        ControlMsg::StoreSub {
            dim: DimIdx(5),
            sub: sub.clone(),
            stream: MatcherId(0),
        },
        ControlMsg::StoreSub {
            dim: DimIdx(0),
            sub: inverted,
            stream: MatcherId(0),
        },
        msg(vec![15.0], 1),
        msg(vec![f64::NAN, 1.0], 2),
        ControlMsg::MatchMsg {
            dim: DimIdx(9),
            msg: Message::new(vec![1.0, 1.0]),
            admitted_us: 0,
            ack_to: String::new(),
        },
        ControlMsg::RemoveSub {
            dim: DimIdx(9),
            sub: SubscriptionId(1),
            stream: MatcherId(0),
        },
        ControlMsg::Retire {
            dim: DimIdx(7),
            range: bluedove_core::Range::new(0.0, 100.0),
            keep: Vec::new(),
        },
        ControlMsg::HandOver {
            dim: DimIdx(4),
            range: bluedove_core::Range::new(0.0, 100.0),
            to: MatcherId(1),
            reply_to: "control".into(),
        },
        ControlMsg::StoreSub {
            dim: DimIdx(0),
            sub,
            stream: MatcherId(0),
        },
        msg(vec![15.0, 50.0], 3),
    ] {
        transport.send("m/0", to_bytes(&frame).freeze()).unwrap();
    }
    let payload = deliveries
        .recv_timeout(Duration::from_secs(5))
        .expect("the well-formed publication is delivered");
    assert!(matches!(
        from_bytes(&payload),
        Ok(ControlMsg::Deliver { msg, .. }) if msg.id == bluedove_core::MessageId(3)
    ));
    let counters = &shared.counters;
    assert_eq!(counters.rejected(Rejected::StoreSub).get(), 2);
    assert_eq!(counters.rejected(Rejected::MatchMsg).get(), 3);
    for kind in [Rejected::RemoveSub, Rejected::Retire, Rejected::HandOver] {
        assert_eq!(counters.rejected(kind).get(), 1, "{kind:?}");
    }
    assert_eq!(counters.stored_copies.get(), 1);
    transport
        .send("m/0", to_bytes(&ControlMsg::Shutdown).freeze())
        .unwrap();
    node.join();
}

/// Matcher `m`'s logical subscription copies, as its last stats tick
/// reported them.
fn logical(cluster: &Cluster, m: MatcherId) -> Option<i64> {
    cluster.telemetry().gauge_value(
        "bluedove_matcher_subscriptions_logical",
        &[("matcher", m.0.to_string())],
    )
}

/// How many copies of `sub` the announced strategy assigns to `m`.
fn assigned(cluster: &Cluster, sub: &Subscription, m: MatcherId) -> i64 {
    let assign = cluster.control().strategy().as_dyn().assign(sub);
    assign.iter().filter(|a| a.matcher == m).count() as i64
}

/// Waits until every live matcher reports `expected(m)` logical copies.
fn wait_for_copies(cluster: &Cluster, expected: impl Fn(MatcherId) -> i64, what: &str) {
    wait_for(
        || {
            cluster
                .matcher_ids()
                .into_iter()
                .all(|m| logical(cluster, m) == Some(expected(m)))
        },
        what,
    );
}

fn sublog_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bluedove-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A subscription inside m/1's segment on every dimension (4 matchers ⇒
/// segments of width 250), so every candidate of a probe inside it is
/// m/1.
fn inside_m1(sp: &AttributeSpace, lo: f64) -> Subscription {
    let mut b = Subscription::builder(sp);
    for d in 0..4 {
        b = b.range(d, lo, lo + 20.0);
    }
    b.build().unwrap()
}

/// Every write made while a matcher is down reaches it on restart: a
/// subscription registered during the downtime is delivered exactly
/// once and one unsubscribed during it never, and the restarted
/// matcher holds exactly the strategy's copies of what is live.
#[test]
fn downtime_subscribe_and_unsubscribe_survive_the_restart() {
    let sp = space();
    let dir = sublog_dir("downtime");
    let cfg = ClusterConfig::new(sp.clone())
        .matchers(4)
        .log_dir(&dir)
        .stats_interval(Duration::from_millis(50));
    let mut cluster = Cluster::start(cfg);
    let m = MatcherId(1);
    let (a_sub, b_sub) = (inside_m1(&sp, 300.0), inside_m1(&sp, 310.0));
    let a = cluster.subscribe(a_sub).unwrap();
    cluster.kill_matcher(m);
    let b = cluster.subscribe(b_sub.clone()).unwrap();
    assert!(assigned(&cluster, &b_sub, m) > 0, "B is assigned to m/1");
    cluster.unsubscribe(&a).unwrap();
    cluster.restart_matcher(m).unwrap();
    cluster.publish(Message::new(vec![315.0; 4])).unwrap();

    let d = b.recv_timeout(Duration::from_secs(5)).expect("B delivered");
    assert_eq!(d.msg.values, vec![315.0; 4]);
    assert!(
        b.recv_timeout(Duration::from_millis(300)).is_none(),
        "B delivered once"
    );
    assert!(
        a.recv_timeout(Duration::from_millis(300)).is_none(),
        "the unsubscribed A is never delivered"
    );
    let expected = assigned(&cluster, &b_sub, m);
    wait_for(
        || logical(&cluster, m) == Some(expected),
        "m/1 to hold exactly B's copies",
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The interim leader of a down matcher's stream may leave gracefully:
/// the stream moves on to the leaver's heir, so writes made after the
/// leave still reach the matcher when it restarts.
#[test]
fn a_leaving_interim_leader_hands_the_stream_on() {
    let sp = space();
    let dir = sublog_dir("interim-leaves");
    let cfg = ClusterConfig::new(sp.clone())
        .matchers(4)
        .log_dir(&dir)
        .stats_interval(Duration::from_millis(50));
    let mut cluster = Cluster::start(cfg);
    let (m1, m2, m3) = (MatcherId(1), MatcherId(2), MatcherId(3));
    let (a_sub, b_sub) = (inside_m1(&sp, 300.0), inside_m1(&sp, 310.0));
    let a = cluster.subscribe(a_sub).unwrap();
    // Replicated to m/2 before the crash, so the heir adopts it.
    std::thread::sleep(Duration::from_millis(200));
    cluster.kill_matcher(m1);
    assert_eq!(cluster.control().leader_of(m1), Some(m2));
    cluster.remove_matcher(m2).unwrap();
    assert_eq!(
        cluster.control().leader_of(m1),
        Some(m3),
        "m/2's heir leads"
    );
    let b = cluster.subscribe(b_sub.clone()).unwrap();
    cluster.unsubscribe(&a).unwrap();
    cluster.restart_matcher(m1).unwrap();
    cluster.publish(Message::new(vec![315.0; 4])).unwrap();

    let d = b.recv_timeout(Duration::from_secs(5)).expect("B delivered");
    assert_eq!(d.msg.values, vec![315.0; 4]);
    assert!(
        b.recv_timeout(Duration::from_millis(300)).is_none(),
        "B delivered once"
    );
    assert!(
        a.recv_timeout(Duration::from_millis(300)).is_none(),
        "the unsubscribed A is never delivered"
    );
    wait_for_copies(
        &cluster,
        |m| assigned(&cluster, &b_sub, m),
        "every matcher to hold exactly B's copies",
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A leave whose segments merge into a down neighbour hands its copies to
/// that neighbour's stream leader, so they are served meanwhile and
/// reach the neighbour when it restarts.
#[test]
fn a_leave_onto_a_down_neighbour_keeps_its_copies() {
    let sp = space();
    let dir = sublog_dir("leave-onto-down");
    let cfg = ClusterConfig::new(sp.clone())
        .matchers(4)
        .log_dir(&dir)
        .stats_interval(Duration::from_millis(50));
    let mut cluster = Cluster::start(cfg);
    let (m1, m2) = (MatcherId(1), MatcherId(2));
    // Inside m/2's segment on every dimension.
    let sub = inside_m1(&sp, 550.0);
    let probe = || Message::new(vec![555.0; 4]);
    let handle = cluster.subscribe(sub.clone()).unwrap();
    cluster.kill_matcher(m1);
    cluster.remove_matcher(m2).unwrap();
    assert!(
        assigned(&cluster, &sub, m1) > 0,
        "m/2's segments merged into m/1"
    );
    cluster.publish(probe()).unwrap();
    handle
        .recv_timeout(Duration::from_secs(5))
        .expect("delivered while m/1 is down");
    cluster.restart_matcher(m1).unwrap();
    cluster.publish(probe()).unwrap();
    handle
        .recv_timeout(Duration::from_secs(5))
        .expect("delivered after m/1 restarts");
    assert!(
        handle.recv_timeout(Duration::from_millis(300)).is_none(),
        "delivered once"
    );
    wait_for_copies(
        &cluster,
        |m| assigned(&cluster, &sub, m),
        "every matcher to hold exactly the subscription's copies",
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A subscription on m/1's dimension-1 segment that m/2 is not assigned:
/// after m/1 crashes its heir m/2 holds the copy, and an unsubscribe must
/// reach it there.
#[test]
fn unsubscribe_after_failover_leaves_no_copy() {
    let sp = space();
    let dir = sublog_dir("unsub-failover");
    let cfg = ClusterConfig::new(sp.clone())
        .matchers(4)
        .log_dir(&dir)
        .stats_interval(Duration::from_millis(50));
    let mut cluster = Cluster::start(cfg);
    let sub = Subscription::builder(&sp)
        .range(0, 10.0, 20.0)
        .range(1, 300.0, 320.0)
        .range(2, 10.0, 20.0)
        .range(3, 10.0, 20.0)
        .build()
        .unwrap();
    let (m1, m2) = (MatcherId(1), MatcherId(2));
    assert_eq!(assigned(&cluster, &sub, m1), 1);
    assert_eq!(assigned(&cluster, &sub, m2), 0);
    let handle = cluster.subscribe(sub.clone()).unwrap();
    // Replicated to m/2 before the crash, so the heir adopts it.
    std::thread::sleep(Duration::from_millis(200));
    cluster.kill_matcher(m1);
    wait_for(
        || logical(&cluster, m2) == Some(1),
        "m/2 to adopt m/1's copy",
    );
    cluster.unsubscribe(&handle).unwrap();
    wait_for_copies(&cluster, |_| 0, "every live copy to be removed");
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `StoreSub` whose owner cannot be reached is not stored anywhere
/// else, so no copy survives the unsubscribe.
#[test]
fn unsubscribe_leaves_no_copy_of_a_write_the_owner_missed() {
    let sp = space();
    let cfg = ClusterConfig::new(sp.clone())
        .matchers(4)
        .stats_interval(Duration::from_millis(50));
    let mut cluster = Cluster::start(cfg);
    let sub = Subscription::builder(&sp)
        .range(0, 10.0, 20.0)
        .range(1, 300.0, 320.0)
        .range(2, 10.0, 20.0)
        .range(3, 10.0, 20.0)
        .build()
        .unwrap();
    let (m0, m1) = (MatcherId(0), MatcherId(1));
    cluster.kill_matcher(m1);
    let handle = cluster.subscribe(sub.clone()).unwrap();
    let on_m0 = assigned(&cluster, &sub, m0);
    wait_for(
        || logical(&cluster, m0) == Some(on_m0),
        "m/0 to store its copies",
    );
    cluster.unsubscribe(&handle).unwrap();
    wait_for_copies(&cluster, |_| 0, "every live copy to be removed");
    cluster.shutdown();
}

/// A matcher whose clockwise heir changes sends the new heir each stream
/// it leads at once, so a crash before its next append promotes a full
/// replica: a join lands between the matcher and its heir, the heir
/// leaves, or the heir crashes — and a joiner, first listed by the
/// post-join table, ships the copies it was handed over. Each victim is
/// killed right after the change; every live matcher must then hold
/// exactly the copies its streams resolve to.
#[test]
fn a_new_heir_gets_the_stream_before_the_next_append() {
    let w = PaperWorkload {
        seed: 7,
        ..Default::default()
    };
    let subs: Vec<Subscription> = w.subscriptions().take(200).collect();
    for change in ["join", "joiner", "leave", "crash"] {
        let dir = sublog_dir(&format!("heir-change-{change}"));
        let cfg = ClusterConfig::new(w.space())
            .matchers(4)
            .log_dir(&dir)
            .stats_interval(Duration::from_millis(50));
        let mut cluster = Cluster::start(cfg);
        for s in &subs {
            cluster.subscribe(s.clone()).unwrap();
        }
        std::thread::sleep(Duration::from_millis(300)); // the heirs catch up
        let victim = match change {
            "join" | "joiner" => {
                let joiner = cluster.add_matcher().unwrap();
                let (m3, ring) = (MatcherId(3), cluster.matcher_ids());
                assert_eq!(bluedove_engine::clockwise_heir(m3, ring), Some(joiner));
                if change == "join" {
                    m3
                } else {
                    joiner
                }
            }
            "leave" => {
                cluster.remove_matcher(MatcherId(1)).unwrap();
                MatcherId(0)
            }
            _ => {
                cluster.kill_matcher(MatcherId(1));
                MatcherId(0)
            }
        };
        // A join's donors retire the moved copies meanwhile, so only
        // the joiner's stream holds them; nothing is appended.
        std::thread::sleep(Duration::from_millis(300));
        cluster.kill_matcher(victim);
        let control = cluster.control();
        let holder = |m: MatcherId| control.leader_of(m).unwrap_or(m);
        let expected = |m: MatcherId| {
            let placed = subs.iter().flat_map(|s| {
                let assign = control.strategy().as_dyn().assign(s).into_iter();
                assign
                    .filter(|a| holder(a.matcher) == m)
                    .map(|a| (a.dim, s.id))
            });
            placed.collect::<std::collections::BTreeSet<_>>().len() as i64
        };
        wait_for_copies(&cluster, expected, &format!("{change}: every copy placed"));
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
