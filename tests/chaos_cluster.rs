//! Seeded chaos scenarios driving the deterministic fault-injection layer
//! against live clusters: crash, restart, partition/heal, drop, delay and
//! duplication faults, with the §III-A-3 / §III-C invariants asserted at
//! test scale.
//!
//! Every scenario prints its seed; set `CHAOS_SEED=<u64>` to replay a
//! failing run with the exact same fault decisions (drops, jitter,
//! duplication and reordering draws all come from one seeded RNG).

use bluedove::cluster::chaos::{
    await_membership, publish_until_delivered, ChaosEvent, FaultSchedule,
};
use bluedove::cluster::mailbox::MailboxNode;
use bluedove::cluster::{Cluster, ClusterConfig, ControlMsg};
use bluedove::core::{
    AttributeSpace, IndexKind, InnerKind, MatcherId, Message, SubscriberId, Subscription,
    SubscriptionId,
};
use bluedove::net::{
    from_bytes, to_bytes, AddrSet, ChannelTransport, FaultRule, FaultTransport, LinkRule, Transport,
};
use bluedove::overlay::FailureDetectorConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-scenario seed, overridable with `CHAOS_SEED` for replay.
fn scenario_seed(name: &str, default: u64) -> u64 {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default);
    println!("chaos scenario `{name}`: seed={seed} (CHAOS_SEED overrides)");
    seed
}

fn space() -> AttributeSpace {
    AttributeSpace::uniform(2, 0.0, 100.0)
}

fn chaos_config(seed: u64, matchers: u32, fd: FailureDetectorConfig) -> ClusterConfig {
    ClusterConfig::new(space())
        .matchers(matchers)
        .gossip_interval(Duration::from_millis(40))
        .table_pull_interval(Duration::from_millis(80))
        .stats_interval(Duration::from_millis(80))
        .failure_detector(fd)
        // Shrink the at-least-once pipeline's timescales to match: quick
        // retransmits and quick re-probing of suspects keep scenarios fast.
        .ack_timeout(Duration::from_millis(100))
        .suspicion_ttl(Duration::from_millis(500))
        .seed(seed)
        .fault_injection(seed)
}

fn wildcard(sp: &AttributeSpace) -> Subscription {
    Subscription::builder(sp).build().unwrap()
}

/// Spread probe values across the space so every matcher's segments see
/// traffic.
fn probe_msg(i: u64) -> Message {
    Message::new(vec![(i * 17 % 100) as f64, (i * 31 % 100) as f64])
}

// ---------------------------------------------------------------------
// 1. Decorator purity: with no rules installed the fault layer is a pure
//    pass-through — nothing counted, nothing touched.
// ---------------------------------------------------------------------
#[test]
fn empty_ruleset_is_transparent() {
    let seed = scenario_seed("empty_ruleset_is_transparent", 0xB1);
    let mut cluster = Cluster::start(chaos_config(seed, 3, FailureDetectorConfig::default()));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();
    for i in 0..30 {
        cluster.publish(probe_msg(i)).unwrap();
    }
    let mut got = 0;
    while sub.recv_timeout(Duration::from_secs(3)).is_some() {
        got += 1;
        if got == 30 {
            break;
        }
    }
    assert_eq!(
        got, 30,
        "all messages delivered through the idle fault layer"
    );
    let stats = cluster
        .fault_handle()
        .expect("fault injection enabled")
        .stats();
    assert_eq!(
        stats,
        Default::default(),
        "idle fault layer counted nothing: {stats:?}"
    );
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 2. Seeded drop storm: 25% loss on every link; at-least-once publishing
//    still gets every probe through.
// ---------------------------------------------------------------------
#[test]
fn drop_storm_eventual_delivery() {
    let seed = scenario_seed("drop_storm_eventual_delivery", 0xD7);
    let mut cluster = Cluster::start(chaos_config(seed, 3, FailureDetectorConfig::default()));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();
    let report = FaultSchedule::new()
        .at(
            Duration::ZERO,
            ChaosEvent::Degrade(LinkRule::everywhere(FaultRule::drop(0.25))),
        )
        .run(&mut cluster)
        .unwrap();
    println!("{report}");
    for i in 0..10 {
        let (_, took) =
            publish_until_delivered(&mut cluster, &sub, &probe_msg(i), Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("probe {i} lost for good: {e}"));
        assert!(took < Duration::from_secs(10));
    }
    let stats = cluster.fault_handle().unwrap().stats();
    println!("drop storm stats: {stats:?}");
    assert!(stats.dropped > 0, "the storm actually dropped something");
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 3. Delay + jitter on every link: slower, but nothing is lost.
// ---------------------------------------------------------------------
#[test]
fn delayed_links_still_deliver() {
    let seed = scenario_seed("delayed_links_still_deliver", 0xDE1A);
    let mut cluster = Cluster::start(chaos_config(seed, 3, FailureDetectorConfig::default()));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();
    FaultSchedule::new()
        .at(
            Duration::ZERO,
            ChaosEvent::Degrade(LinkRule::everywhere(FaultRule::delay(
                Duration::from_millis(15),
                Duration::from_millis(10),
            ))),
        )
        .run(&mut cluster)
        .unwrap();
    for i in 0..10 {
        publish_until_delivered(&mut cluster, &sub, &probe_msg(i), Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("probe {i} lost on a delayed link: {e}"));
    }
    let stats = cluster.fault_handle().unwrap().stats();
    assert!(
        stats.delayed > 0,
        "delays were actually injected: {stats:?}"
    );
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 4. Duplication: delivery becomes at-least-once, never at-most-zero.
// ---------------------------------------------------------------------
#[test]
fn duplicated_links_are_at_least_once() {
    let seed = scenario_seed("duplicated_links_are_at_least_once", 0xD0B);
    let mut cluster = Cluster::start(chaos_config(seed, 3, FailureDetectorConfig::default()));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();
    FaultSchedule::new()
        .at(
            Duration::ZERO,
            ChaosEvent::Degrade(LinkRule::everywhere(FaultRule::duplicate(0.9))),
        )
        .run(&mut cluster)
        .unwrap();
    for i in 0..5 {
        cluster.publish(probe_msg(i)).unwrap();
    }
    // Collect everything that arrives for a while; every probe value must
    // show up at least once (duplicates are expected and fine).
    let mut seen = [0u32; 5];
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        let Some(d) = sub.recv_timeout(Duration::from_millis(200)) else {
            if seen.iter().all(|&n| n > 0) {
                break;
            }
            continue;
        };
        for i in 0..5u64 {
            if d.msg.values == probe_msg(i).values {
                seen[i as usize] += 1;
            }
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "every probe delivered at least once: {seen:?}"
    );
    let stats = cluster.fault_handle().unwrap().stats();
    assert!(
        stats.duplicated > 0,
        "duplicates were actually injected: {stats:?}"
    );
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 5. Crash fail-over: after a matcher dies, the next probe is delivered
//    within a bounded loss window (Figure 10 at test scale).
// ---------------------------------------------------------------------
#[test]
fn crash_failover_bounds_loss_window() {
    let seed = scenario_seed("crash_failover_bounds_loss_window", 0xF16);
    let mut cluster = Cluster::start(chaos_config(seed, 4, FailureDetectorConfig::default()));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();
    publish_until_delivered(&mut cluster, &sub, &probe_msg(0), Duration::from_secs(5))
        .expect("baseline delivery before the crash");

    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Kill(MatcherId(1)))
        .run(&mut cluster)
        .unwrap();

    let (_, window) =
        publish_until_delivered(&mut cluster, &sub, &probe_msg(1), Duration::from_secs(5))
            .expect("delivery resumes after fail-over");
    println!("loss window after crash: {:.3}s", window.as_secs_f64());
    assert!(
        window < Duration::from_secs(5),
        "fail-over bounded the loss window (got {window:?})"
    );
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 6. Restart: a killed matcher rejoins with a bumped generation, the
//    mesh re-admits it, and it serves recovered subscription copies.
// ---------------------------------------------------------------------
#[test]
fn restart_recovers_subscriptions_and_membership() {
    let seed = scenario_seed("restart_recovers_subscriptions_and_membership", 0x2E57);
    let fd = FailureDetectorConfig {
        suspect_after: 0.3,
        dead_after: 0.9,
    };
    let mut cluster = Cluster::start(chaos_config(seed, 3, fd));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();
    await_membership(&cluster, 2, Duration::from_secs(10)).expect("initial convergence");

    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Kill(MatcherId(1)))
        .run(&mut cluster)
        .unwrap();
    // The two survivors eventually declare m/1 dead.
    await_membership(&cluster, 1, Duration::from_secs(10)).expect("survivors see the death");

    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Restart(MatcherId(1)))
        .run(&mut cluster)
        .unwrap();
    let reconverge =
        await_membership(&cluster, 2, Duration::from_secs(10)).expect("mesh re-admits m/1");
    println!(
        "membership reconverged {:.3}s after restart",
        reconverge.as_secs_f64()
    );

    // The restarted matcher must hold its recovered subscription copies:
    // probes across the whole space (some routed to m/1) all deliver.
    for i in 0..30 {
        publish_until_delivered(
            &mut cluster,
            &sub,
            &probe_msg(100 + i),
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("probe {i} lost after restart: {e}"));
    }
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 7. Short partition (< dead_after): peers only *suspect* the cut-off
//    matcher and re-admit it within dead_after + ε of the heal; the data
//    plane keeps delivering throughout (the partition cuts only
//    matcher↔matcher gossip links).
// ---------------------------------------------------------------------
#[test]
fn short_partition_suspects_then_recovers() {
    let seed = scenario_seed("short_partition_suspects_then_recovers", 0x5A5);
    let fd = FailureDetectorConfig {
        suspect_after: 0.3,
        dead_after: 6.0,
    };
    let mut cluster = Cluster::start(chaos_config(seed, 3, fd));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();
    await_membership(&cluster, 2, Duration::from_secs(10)).expect("initial convergence");

    FaultSchedule::new()
        .at(
            Duration::ZERO,
            ChaosEvent::Partition {
                a: AddrSet::one("m/0"),
                b: AddrSet::of(["m/1", "m/2"]),
            },
        )
        .run(&mut cluster)
        .unwrap();

    // Suspicion shows up: some matcher's live count drops below 2.
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let counts = cluster.gossip_live_counts();
        if counts.iter().any(|&(_, n)| n < 2) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "partition never caused suspicion: {counts:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // Delivery is unaffected: the cut is between matchers only.
    publish_until_delivered(&mut cluster, &sub, &probe_msg(7), Duration::from_secs(5))
        .expect("data plane unaffected by the gossip partition");

    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::HealPartitions)
        .run(&mut cluster)
        .unwrap();
    let reconverge = await_membership(
        &cluster,
        2,
        Duration::from_secs_f64(fd.dead_after) + Duration::from_secs(2),
    )
    .expect("suspects recover within dead_after + ε of the heal");
    println!(
        "membership reconverged {:.3}s after heal",
        reconverge.as_secs_f64()
    );
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 8. Long partition (> dead_after): Dead is sticky within a generation —
//    healing alone does NOT re-admit the node; a restart under a new
//    generation does.
// ---------------------------------------------------------------------
#[test]
fn long_partition_dead_is_sticky_until_restart() {
    let seed = scenario_seed("long_partition_dead_is_sticky_until_restart", 0x571C);
    let fd = FailureDetectorConfig {
        suspect_after: 0.2,
        dead_after: 0.7,
    };
    let mut cluster = Cluster::start(chaos_config(seed, 3, fd));
    await_membership(&cluster, 2, Duration::from_secs(10)).expect("initial convergence");

    let report = FaultSchedule::new()
        .at(
            Duration::ZERO,
            ChaosEvent::Partition {
                a: AddrSet::one("m/0"),
                b: AddrSet::of(["m/1", "m/2"]),
            },
        )
        .at(Duration::from_millis(1500), ChaosEvent::HealPartitions)
        .run(&mut cluster)
        .unwrap();
    println!("{report}");

    // Well past dead_after: the survivors hold m/0 Dead, and healing does
    // not resurrect it (sticky within the generation).
    std::thread::sleep(Duration::from_millis(600));
    let counts = cluster.gossip_live_counts();
    for m in [MatcherId(1), MatcherId(2)] {
        let n = counts.iter().find(|&&(id, _)| id == m).map(|&(_, n)| n);
        assert_eq!(
            n,
            Some(1),
            "m/{} still shuns the dead generation: {counts:?}",
            m.0
        );
    }

    // A restart under a new generation is what re-admits it.
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Kill(MatcherId(0)))
        .at(Duration::from_millis(50), ChaosEvent::Restart(MatcherId(0)))
        .run(&mut cluster)
        .unwrap();
    let reconverge = await_membership(
        &cluster,
        2,
        Duration::from_secs_f64(fd.dead_after) + Duration::from_secs(4),
    )
    .expect("new generation re-admitted");
    println!("re-admitted {:.3}s after restart", reconverge.as_secs_f64());
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 9. Mailbox WAL under a faulty transport: delayed + duplicated links,
//    then a mailbox restart — the WAL replay loses nothing.
// ---------------------------------------------------------------------
#[test]
fn mailbox_wal_replays_completely_over_faulty_links() {
    let seed = scenario_seed("mailbox_wal_replays_completely_over_faulty_links", 0x3A1);
    let dir = std::env::temp_dir().join(format!("bluedove-chaos-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("chaos.wal");
    let _ = std::fs::remove_file(&wal);

    let channel = ChannelTransport::new();
    let fault = FaultTransport::new(Arc::new(channel.clone()), seed);
    let handle = fault.handle();
    handle.add_rule(LinkRule::everywhere(FaultRule::delay(
        Duration::from_millis(5),
        Duration::from_millis(5),
    )));
    handle.add_rule(LinkRule::everywhere(FaultRule::duplicate(0.5)));
    let client: Arc<dyn Transport> = Arc::new(fault.scoped("c/1"));

    // First incarnation: 20 deliveries arrive over the degraded link.
    let mb =
        MailboxNode::spawn_persistent("mb/0".into(), Arc::new(fault.scoped("mb/0")), wal.clone());
    for i in 0..20u64 {
        let deliver = ControlMsg::Deliver {
            subscriber: SubscriberId(1),
            sub: SubscriptionId(i),
            msg: Message::new(vec![i as f64]),
            admitted_us: i,
        };
        client.send("mb/0", to_bytes(&deliver).freeze()).unwrap();
    }
    // Let delayed/duplicated copies land before the crash.
    std::thread::sleep(Duration::from_millis(400));
    client
        .send("mb/0", to_bytes(&ControlMsg::Shutdown).freeze())
        .unwrap();
    mb.join();

    // Verify over a clean link: a duplicated poll would race its own
    // replies. The invariant under test is that nothing delivered over
    // the faulty links is lost across the restart.
    handle.clear_rules();

    // Second incarnation replays the WAL; every subscription id must be
    // present (duplicates are fine — the invariant is no loss).
    let mb2 =
        MailboxNode::spawn_persistent("mb/0".into(), Arc::new(fault.scoped("mb/0")), wal.clone());
    let rx = channel.bind("poll/1").unwrap();
    client
        .send(
            "mb/0",
            to_bytes(&ControlMsg::MailboxPoll {
                subscriber: SubscriberId(1),
                reply_to: "poll/1".into(),
                max: 0,
            })
            .freeze(),
        )
        .unwrap();
    let payload = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("mailbox batch");
    let Ok(ControlMsg::MailboxBatch { entries }) = from_bytes(&payload) else {
        panic!("unexpected mailbox reply");
    };
    let mut present = [false; 20];
    for (sub, _, _) in &entries {
        if (sub.0 as usize) < 20 {
            present[sub.0 as usize] = true;
        }
    }
    assert!(
        present.iter().all(|&p| p),
        "WAL replay lost deliveries; got {} entries, coverage {present:?}",
        entries.len()
    );
    client
        .send("mb/0", to_bytes(&ControlMsg::Shutdown).freeze())
        .unwrap();
    mb2.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 10. Suspicion-expiry regression: a dispatcher that has transiently
//     suspected *every* matcher must re-probe them once the suspicion TTL
//     runs out, with no authoritative table push and no ack able to clear
//     the suspicion first. Before expiry existed, fail-over suspicion was
//     permanent: after one total-outage blip the dispatcher would never
//     send to anyone again and every ledgered publication dead-lettered.
// ---------------------------------------------------------------------
#[test]
fn suspicion_expiry_reprobes_without_table_push() {
    let seed = scenario_seed("suspicion_expiry_reprobes_without_table_push", 0x5E);
    let mut cluster = Cluster::start(
        chaos_config(seed, 3, FailureDetectorConfig::default())
            // No table pulls in test time: TableState is the *other* way
            // suspicion ends, and this scenario must prove TTL expiry
            // alone suffices.
            .table_pull_interval(Duration::from_secs(3600)),
    );
    let sub = cluster.subscribe(wildcard(&space())).unwrap();

    // Cut the dispatcher off from every matcher: each publish fails over
    // across all candidates synchronously, suspects them all, and parks
    // in the in-flight ledger with no accepted target.
    FaultSchedule::new()
        .at(
            Duration::ZERO,
            ChaosEvent::Partition {
                a: AddrSet::one("d/0"),
                b: AddrSet::Prefix("m/".into()),
            },
        )
        .run(&mut cluster)
        .unwrap();
    for i in 0..10 {
        cluster.publish(probe_msg(i)).unwrap();
    }
    std::thread::sleep(Duration::from_millis(150));
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::HealPartitions)
        .run(&mut cluster)
        .unwrap();

    // Healing the partition notifies nobody. Deliveries can only resume
    // once the 500 ms suspicion TTL lapses and the retry schedule
    // re-probes the healed links.
    let mut got = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while got < 10 && Instant::now() < deadline {
        if sub.recv_timeout(Duration::from_millis(200)).is_some() {
            got += 1;
        }
    }
    let (retried, _, dead_lettered) = cluster.reliability_counters();
    assert_eq!(
        got, 10,
        "ledgered publications delivered once suspicion expired"
    );
    assert!(retried > 0, "delivery resumed via timer-driven retries");
    assert_eq!(dead_lettered, 0, "nothing exhausted its retry budget");
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 11. The at-least-once pipeline under a crash/partition/heal schedule:
//     every admitted publication is observed exactly once. Acked
//     forwarding retransmits past the crashes (zero loss) and the dedup
//     windows suppress what the retransmissions duplicate (zero observed
//     duplicates). The acks-off loss *window* bound lives in
//     `cluster_integration::crash_loss_window_is_bounded`.
// ---------------------------------------------------------------------
#[test]
fn crash_loses_nothing_with_acks() {
    let seed = scenario_seed("crash_loses_nothing_with_acks", 0xAC4);
    let fd = FailureDetectorConfig {
        suspect_after: 0.3,
        dead_after: 0.9,
    };
    let mut cluster = Cluster::start(chaos_config(seed, 4, fd));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();

    const N: u64 = 200;
    // Unlike `probe_msg`, collision-free over 0..N (probe_msg repeats
    // values with period 100, which would break by-value exactly-once
    // accounting below) while still spreading across both dimensions.
    let unique_probe = |i: u64| Message::new(vec![(i % 100) as f64, (i / 100 * 10) as f64]);
    let mut published = 0u64;
    let mut publish_batch = |cluster: &mut Cluster, upto: u64| {
        while published < upto {
            cluster.publish(unique_probe(published)).unwrap();
            published += 1;
        }
    };

    // Phase 1: kill a matcher cold, publish straight into the hole.
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Kill(MatcherId(1)))
        .run(&mut cluster)
        .unwrap();
    publish_batch(&mut cluster, 60);

    // Phase 2: bring it back, kill another, and cut the dispatcher's
    // link to a third — sends fail synchronously, acks get lost.
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Restart(MatcherId(1)))
        .at(Duration::from_millis(50), ChaosEvent::Kill(MatcherId(2)))
        .at(
            Duration::from_millis(50),
            ChaosEvent::Partition {
                a: AddrSet::one("d/0"),
                b: AddrSet::one("m/3"),
            },
        )
        .run(&mut cluster)
        .unwrap();
    publish_batch(&mut cluster, 140);

    // Phase 3: heal everything and publish over clean links.
    let report = FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Restart(MatcherId(2)))
        .at(Duration::from_millis(50), ChaosEvent::HealPartitions)
        .run(&mut cluster)
        .unwrap();
    println!("{report}");
    publish_batch(&mut cluster, 170);

    // Phase 4: silent ack loss. Every matcher→dispatcher frame vanishes,
    // so forwarding succeeds but no ack ever lands: only the ack-timeout
    // retransmissions can prove delivery, and the matcher/subscriber
    // dedup windows must suppress everything those retransmissions
    // duplicate. Crashes alone never exercise this path — a killed
    // matcher fails sends *synchronously*.
    FaultSchedule::new()
        .at(
            Duration::ZERO,
            ChaosEvent::Degrade(LinkRule {
                from: AddrSet::Prefix("m/".into()),
                to: AddrSet::one("d/0"),
                rule: FaultRule::drop(1.0),
            }),
        )
        .run(&mut cluster)
        .unwrap();
    publish_batch(&mut cluster, N);
    // Let the first ack timeouts fire into the dropped-ack wall, then
    // heal: the next retransmission round gets (re-)acked and the ledger
    // drains well inside the retry budget.
    FaultSchedule::new()
        .at(Duration::from_millis(400), ChaosEvent::ClearFaults)
        .run(&mut cluster)
        .unwrap();

    // Every admitted publication must be observed exactly once; the
    // retransmit schedule needs real time to drain through the crashes.
    let mut seen = vec![0u32; N as usize];
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let Some(d) = sub.recv_timeout(Duration::from_millis(300)) else {
            if seen.iter().all(|&n| n == 1) {
                break;
            }
            continue;
        };
        let i = (0..N)
            .position(|i| d.msg.values == unique_probe(i).values)
            .expect("delivery matches one published probe");
        seen[i] += 1;
    }
    let (retried, duplicates_suppressed, dead_lettered) = cluster.reliability_counters();
    println!(
        "reliability counters: retried={retried} duplicates_suppressed={duplicates_suppressed} \
         dead_lettered={dead_lettered}"
    );
    println!("base counters: {:?}", cluster.counters());
    let lost: Vec<usize> = (0..N as usize).filter(|&i| seen[i] == 0).collect();
    let duped: Vec<usize> = (0..N as usize).filter(|&i| seen[i] > 1).collect();
    assert!(
        lost.is_empty(),
        "zero publication loss with acks on; lost probes {lost:?}"
    );
    assert!(
        duped.is_empty(),
        "zero duplicate observations; duplicated probes {duped:?}"
    );
    assert_eq!(dead_lettered, 0, "nothing exhausted its retry budget");
    // The dropped-ack phase must actually have exercised the pipeline:
    // timeouts retransmitted, and the idempotency windows ate the
    // resulting duplicates before the subscriber could observe them.
    assert!(retried > 0, "ack timeouts drove retransmissions");
    assert!(
        duplicates_suppressed > 0,
        "dedup windows suppressed the retransmission duplicates"
    );
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 12. Elastic scale-down mid-traffic: gracefully remove matchers while
//     publications are still in flight, with acks on. The leave protocol
//     (hand-over to the clockwise heirs, table flip, drain, retire) must
//     preserve exactly-once observation — nothing lost to the vanished
//     node, nothing double-delivered by the hand-over copies — and the
//     ledger must never dead-letter.
// ---------------------------------------------------------------------
#[test]
fn scale_down_mid_traffic_loses_nothing() {
    let seed = scenario_seed("scale_down_mid_traffic_loses_nothing", 0x5CA1E);
    let mut cluster = Cluster::start(chaos_config(seed, 4, FailureDetectorConfig::default()));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();

    const N: u64 = 200;
    // Collision-free over 0..N (see `crash_loses_nothing_with_acks`).
    let unique_probe = |i: u64| Message::new(vec![(i % 100) as f64, (i / 100 * 10) as f64]);
    let mut published = 0u64;
    let mut publish_batch = |cluster: &mut Cluster, upto: u64| {
        while published < upto {
            cluster.publish(unique_probe(published)).unwrap();
            published += 1;
        }
    };

    // Phase 1: publish into the 4-matcher table, then retire a matcher
    // while those publications are still queued/in flight. The victim
    // must serve or hand over everything it holds before it exits.
    publish_batch(&mut cluster, 80);
    let removed = cluster
        .remove_matcher(MatcherId(1))
        .expect("graceful leave of m/1");
    assert_eq!(removed, MatcherId(1));

    // Phase 2: the shrunk table serves new traffic, then shrink again —
    // two transitions, both under load.
    publish_batch(&mut cluster, 140);
    cluster
        .remove_matcher(MatcherId(3))
        .expect("graceful leave of m/3");
    publish_batch(&mut cluster, N);

    // Every admitted publication is observed exactly once across both
    // scale-downs.
    let mut seen = vec![0u32; N as usize];
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let Some(d) = sub.recv_timeout(Duration::from_millis(300)) else {
            if seen.iter().all(|&n| n == 1) {
                break;
            }
            continue;
        };
        let i = (0..N)
            .position(|i| d.msg.values == unique_probe(i).values)
            .expect("delivery matches one published probe");
        seen[i] += 1;
    }
    let (retried, duplicates_suppressed, dead_lettered) = cluster.reliability_counters();
    println!(
        "scale-down counters: retried={retried} duplicates_suppressed={duplicates_suppressed} \
         dead_lettered={dead_lettered}"
    );
    let lost: Vec<usize> = (0..N as usize).filter(|&i| seen[i] == 0).collect();
    let duped: Vec<usize> = (0..N as usize).filter(|&i| seen[i] > 1).collect();
    assert!(
        lost.is_empty(),
        "zero publication loss across scale-downs; lost probes {lost:?}"
    );
    assert!(
        duped.is_empty(),
        "zero duplicate observations; duplicated probes {duped:?}"
    );
    assert_eq!(dead_lettered, 0, "nothing exhausted its retry budget");
    // Membership reflects both retirements.
    let ids = cluster.matcher_ids();
    assert_eq!(ids.len(), 2, "two matchers left: {ids:?}");
    assert!(!ids.contains(&MatcherId(1)) && !ids.contains(&MatcherId(3)));
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 13. Recovery-readmission regression, observed through the telemetry
//     layer: a matcher that was partitioned away (suspected by the
//     dispatcher, its stats forgotten) must attract traffic again after
//     the suspicion TTL lapses — on the strength of TTL expiry and the
//     gossip mesh alone, with no fresh load report needed first. If
//     forgetting a matcher left stale pending reservations behind (or a
//     retransmission stacked extra reservations onto it), the recovered
//     matcher would look loaded to the estimating policy until a fresh
//     report happened to land, and traffic would keep avoiding it. The
//     per-matcher `bluedove_matcher_served_total` series is the witness:
//     it must advance again shortly after the heal.
// ---------------------------------------------------------------------
#[test]
fn recovered_matcher_attracts_traffic_within_one_ttl() {
    let seed = scenario_seed("recovered_matcher_attracts_traffic_within_one_ttl", 0x7E1);
    let ttl = Duration::from_millis(500);
    let gossip = Duration::from_millis(40);
    let mut cluster = Cluster::start(chaos_config(seed, 3, FailureDetectorConfig::default()));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();
    let target = MatcherId(1);
    let served_of = |cluster: &Cluster| {
        cluster
            .telemetry()
            .counter_value(
                "bluedove_matcher_served_total",
                &[("matcher", target.0.to_string())],
            )
            .unwrap_or(0)
    };

    // Confirm the target serves its share of a spread workload at all.
    for i in 0..30 {
        cluster.publish(probe_msg(i)).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while served_of(&cluster) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(served_of(&cluster) > 0, "target serves before the fault");

    // Cut the dispatcher off from the target only. Publishing into the
    // partition makes the dispatcher suspect it (send errors / ack
    // timeouts), forget its stats, and fail everything over to the
    // remaining matchers.
    FaultSchedule::new()
        .at(
            Duration::ZERO,
            ChaosEvent::Partition {
                a: AddrSet::one("d/0"),
                b: AddrSet::one("m/1"),
            },
        )
        .run(&mut cluster)
        .unwrap();
    for i in 30..80 {
        cluster.publish(probe_msg(i)).unwrap();
    }
    std::thread::sleep(Duration::from_millis(300));

    // Heal silently and stop counting: everything served from here on is
    // post-heal. The heal notifies nobody — re-admission must come from
    // the dispatcher's own TTL expiry.
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::HealPartitions)
        .run(&mut cluster)
        .unwrap();
    let healed_at = Instant::now();
    let served_at_heal = served_of(&cluster);

    // Keep a spread workload flowing and watch for the target to serve
    // again. The budget is one suspicion TTL (the longest the dispatcher
    // may keep shunning a healed matcher) plus a gossip round, with
    // scheduling slack on top — generous against flake, but an order of
    // magnitude under the no-expiry failure mode (which never recovers).
    let budget = ttl + gossip + Duration::from_secs(2);
    let mut i = 80u64;
    while served_of(&cluster) == served_at_heal && healed_at.elapsed() < budget {
        cluster.publish(probe_msg(i)).unwrap();
        i += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        served_of(&cluster) > served_at_heal,
        "recovered matcher served again within one suspicion TTL + one gossip round \
         (served stuck at {served_at_heal} for {:?})",
        healed_at.elapsed()
    );
    // Drain so shutdown joins cleanly with an empty pipeline.
    while sub.recv_timeout(Duration::from_millis(200)).is_some() {}
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 14. The at-least-once pipeline with hot-path batching ON, under the
//     same crash/partition/ack-loss schedule as scenario 11: coalescing
//     frames into `ControlMsg::Batch` runs must not change the
//     exactly-once contract. A dropped batch loses *several* forwards at
//     once; the ledger retransmits them (possibly re-coalesced into new
//     batches) and the matcher/subscriber dedup windows suppress every
//     re-observed frame — the whole unit recovers without loss and
//     without double delivery.
// ---------------------------------------------------------------------
#[test]
fn batched_pipeline_stays_exactly_once_under_chaos() {
    let seed = scenario_seed("batched_pipeline_stays_exactly_once_under_chaos", 0xBA7C4);
    let fd = FailureDetectorConfig {
        suspect_after: 0.3,
        dead_after: 0.9,
    };
    let mut cluster = Cluster::start(
        chaos_config(seed, 4, fd)
            .max_batch(16)
            .max_delay(Duration::from_millis(1)),
    );
    let sub = cluster.subscribe(wildcard(&space())).unwrap();

    const N: u64 = 200;
    // Collision-free over 0..N (see `crash_loses_nothing_with_acks`).
    let unique_probe = |i: u64| Message::new(vec![(i % 100) as f64, (i / 100 * 10) as f64]);
    let mut published = 0u64;
    let mut publish_batch = |cluster: &mut Cluster, upto: u64| {
        while published < upto {
            cluster.publish(unique_probe(published)).unwrap();
            published += 1;
        }
    };

    // Phase 1: kill a matcher cold and publish straight into the hole —
    // whole coalesced runs targeted at the corpse fail and fail over.
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Kill(MatcherId(1)))
        .run(&mut cluster)
        .unwrap();
    publish_batch(&mut cluster, 60);

    // Phase 2: restart it, kill another, and cut the dispatcher's link
    // to a third; staged lanes to the partitioned matcher flush into the
    // void and the ledger re-homes their frames.
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Restart(MatcherId(1)))
        .at(Duration::from_millis(50), ChaosEvent::Kill(MatcherId(2)))
        .at(
            Duration::from_millis(50),
            ChaosEvent::Partition {
                a: AddrSet::one("d/0"),
                b: AddrSet::one("m/3"),
            },
        )
        .run(&mut cluster)
        .unwrap();
    publish_batch(&mut cluster, 140);

    // Phase 3: heal everything and publish over clean links.
    let report = FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Restart(MatcherId(2)))
        .at(Duration::from_millis(50), ChaosEvent::HealPartitions)
        .run(&mut cluster)
        .unwrap();
    println!("{report}");
    publish_batch(&mut cluster, 170);

    // Phase 4: silent loss of whole batches. Dropping half the
    // dispatcher→matcher frames swallows coalesced runs as units; only
    // the ack-timeout retransmissions can recover the lost frames, each
    // unit re-homing without double delivery.
    FaultSchedule::new()
        .at(
            Duration::ZERO,
            ChaosEvent::Degrade(LinkRule {
                from: AddrSet::one("d/0"),
                to: AddrSet::Prefix("m/".into()),
                rule: FaultRule::drop(0.5),
            }),
        )
        .run(&mut cluster)
        .unwrap();
    publish_batch(&mut cluster, 185);
    FaultSchedule::new()
        .at(Duration::from_millis(400), ChaosEvent::ClearFaults)
        .run(&mut cluster)
        .unwrap();

    // Phase 5: silent *ack* loss. Forwarded batches land and deliver,
    // but no ack returns: the retransmissions duplicate whole coalesced
    // runs, and the matcher/subscriber dedup windows must suppress every
    // frame of them before the subscriber can observe a double.
    FaultSchedule::new()
        .at(
            Duration::ZERO,
            ChaosEvent::Degrade(LinkRule {
                from: AddrSet::Prefix("m/".into()),
                to: AddrSet::one("d/0"),
                rule: FaultRule::drop(1.0),
            }),
        )
        .run(&mut cluster)
        .unwrap();
    publish_batch(&mut cluster, N);
    FaultSchedule::new()
        .at(Duration::from_millis(400), ChaosEvent::ClearFaults)
        .run(&mut cluster)
        .unwrap();

    // Every admitted publication must be observed exactly once.
    let mut seen = vec![0u32; N as usize];
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let Some(d) = sub.recv_timeout(Duration::from_millis(300)) else {
            if seen.iter().all(|&n| n == 1) {
                break;
            }
            continue;
        };
        let i = (0..N)
            .position(|i| d.msg.values == unique_probe(i).values)
            .expect("delivery matches one published probe");
        seen[i] += 1;
    }
    // The last *first* delivery can land while the ledger still holds
    // entries whose acks were eaten by the wall; their retransmissions
    // arrive (and get suppressed) afterwards. Keep draining until the
    // dedup counter has moved and the pipeline has gone quiet.
    let drain_deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < drain_deadline {
        let quiet = sub.recv_timeout(Duration::from_millis(300)).is_none();
        if quiet && cluster.reliability_counters().1 > 0 {
            break;
        }
    }
    let (retried, duplicates_suppressed, dead_lettered) = cluster.reliability_counters();
    println!(
        "batched chaos counters: retried={retried} duplicates_suppressed={duplicates_suppressed} \
         dead_lettered={dead_lettered}"
    );
    let lost: Vec<usize> = (0..N as usize).filter(|&i| seen[i] == 0).collect();
    let duped: Vec<usize> = (0..N as usize).filter(|&i| seen[i] > 1).collect();
    assert!(
        lost.is_empty(),
        "zero publication loss with batching + acks; lost probes {lost:?}"
    );
    assert!(
        duped.is_empty(),
        "zero duplicate observations under batching; duplicated probes {duped:?}"
    );
    assert_eq!(dead_lettered, 0, "nothing exhausted its retry budget");
    assert!(retried > 0, "dropped batches drove retransmissions");
    assert!(
        duplicates_suppressed > 0,
        "dedup windows suppressed the retransmission duplicates"
    );
    // Batching must actually have engaged: the dispatcher's coalescer
    // recorded flushes (size-, idle- or deadline-triggered, plus any
    // explicit ordering barriers).
    let flushes: u64 = ["size", "idle", "deadline", "explicit"]
        .iter()
        .filter_map(|r| {
            cluster.telemetry().counter_value(
                "bluedove_batch_flush_total",
                &[("component", "dispatcher".into()), ("reason", (*r).into())],
            )
        })
        .sum();
    assert!(flushes > 0, "the dispatcher coalescer never flushed");
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// 15. Replicated durable subscription log: crash a stream's leader AND
//     the clockwise heir holding its only replica, under live acked
//     traffic, then restart both. The subscription store must come back
//     by *log replay* — the restarted matchers recover from their own
//     durable streams plus the promoted copies journaled downstream (with
//     a sub-log there is no registry re-ship) — to exactly the strategy's
//     copies of the live registry. Exactly-once observation holds across
//     the whole run.
// ---------------------------------------------------------------------
#[test]
fn durable_log_replays_after_leader_and_heir_crash() {
    let seed = scenario_seed("durable_log_replays_after_leader_and_heir_crash", 0x5B106);
    let fd = FailureDetectorConfig {
        suspect_after: 0.3,
        dead_after: 0.9,
    };
    let log_dir = std::env::temp_dir().join(format!("bluedove-chaos15-{seed}"));
    let _ = std::fs::remove_dir_all(&log_dir);
    let mut cluster = Cluster::start(chaos_config(seed, 4, fd).log_dir(&log_dir));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();
    await_membership(&cluster, 3, Duration::from_secs(10)).expect("initial convergence");

    const N: u64 = 160;
    // Collision-free over 0..N (see `crash_loses_nothing_with_acks`).
    let unique_probe = |i: u64| Message::new(vec![(i % 100) as f64, (i / 100 * 10) as f64]);
    let mut published = 0u64;
    let mut publish_batch = |cluster: &mut Cluster, upto: u64| {
        while published < upto {
            cluster.publish(unique_probe(published)).unwrap();
            published += 1;
        }
    };

    // Phase 1: baseline traffic journals StoreSub records on every
    // matcher's own stream and replicates them clockwise.
    publish_batch(&mut cluster, 40);
    std::thread::sleep(Duration::from_millis(300));

    // Phase 2: kill the leader m/1 — its streams promote onto the
    // clockwise heir m/2 — and publish through a lossy data plane: the
    // kill-time table push routes new work around the corpse at once, so
    // the retransmission machinery is exercised by dropped forwards (and
    // the replication stream's gap-repair by dropped `SubLogAppend`s).
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Kill(MatcherId(1)))
        .at(
            Duration::ZERO,
            ChaosEvent::Degrade(LinkRule {
                from: AddrSet::Any,
                to: AddrSet::Prefix("m/".into()),
                rule: FaultRule::drop(0.3),
            }),
        )
        .run(&mut cluster)
        .unwrap();
    publish_batch(&mut cluster, 80);
    std::thread::sleep(Duration::from_millis(500));
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::ClearFaults)
        .run(&mut cluster)
        .unwrap();

    // Phase 3: kill the heir too. Every copy-holder of m/1's stream is
    // now dead; m/2's streams (its own plus the inherited one) promote
    // onto m/3, which holds m/2's replica — including the inherited
    // copies m/2 journaled at its own promotion.
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Kill(MatcherId(2)))
        .run(&mut cluster)
        .unwrap();
    publish_batch(&mut cluster, 120);
    std::thread::sleep(Duration::from_millis(300));

    // Phase 4: restart both. Each replays its own durable stream first,
    // pulls the downtime delta from the current stream leader, and
    // rejoins at a bumped epoch that fences the deposed heirs.
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Restart(MatcherId(1)))
        .at(
            Duration::from_millis(100),
            ChaosEvent::Restart(MatcherId(2)),
        )
        .run(&mut cluster)
        .unwrap();
    await_membership(&cluster, 3, Duration::from_secs(10)).expect("mesh re-admits both");
    publish_batch(&mut cluster, N);

    // Every admitted publication must be observed exactly once.
    let mut seen = vec![0u32; N as usize];
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let Some(d) = sub.recv_timeout(Duration::from_millis(300)) else {
            if seen.iter().all(|&n| n == 1) {
                break;
            }
            continue;
        };
        let i = (0..N)
            .position(|i| d.msg.values == unique_probe(i).values)
            .expect("delivery matches one published probe");
        seen[i] += 1;
    }
    let lost: Vec<usize> = (0..N as usize).filter(|&i| seen[i] == 0).collect();
    let duped: Vec<usize> = (0..N as usize).filter(|&i| seen[i] > 1).collect();
    let (retried, _dupes, dead_lettered) = cluster.reliability_counters();
    let counter = |name: &str| cluster.telemetry().counter_value(name, &[]).unwrap_or(0);
    let replayed = counter("bluedove_sublog_replayed_total");
    let appended = counter("bluedove_sublog_appended_total");
    println!(
        "scenario 15: retried={retried} dead_lettered={dead_lettered} \
         appended={appended} replayed={replayed}"
    );
    assert!(
        lost.is_empty(),
        "zero publication loss across the double crash; lost probes {lost:?}"
    );
    assert!(
        duped.is_empty(),
        "exactly-once observation held; duplicated probes {duped:?}"
    );
    assert_eq!(dead_lettered, 0, "nothing exhausted its retry budget");
    assert!(
        retried > 0,
        "publishing into the hole drove retransmissions"
    );
    assert!(appended > 0, "subscription mutations were journaled");
    assert!(
        replayed > 0,
        "the restarted matchers replayed their local durable streams"
    );
    // Each restarted matcher holds exactly the strategy's copies of the
    // live registry, rebuilt from its own log and the downtime delta.
    let live = wildcard(&space());
    for m in [MatcherId(1), MatcherId(2)] {
        let assign = cluster.control().strategy().as_dyn().assign(&live);
        let want = assign.iter().filter(|a| a.matcher == m).count() as i64;
        let logical = || {
            cluster.telemetry().gauge_value(
                "bluedove_matcher_subscriptions_logical",
                &[("matcher", m.0.to_string())],
            )
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while logical() != Some(want) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(
            logical(),
            Some(want),
            "restarted m/{} holds the strategy's copies of the live registry",
            m.0
        );
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&log_dir);
}

// ---------------------------------------------------------------------
// 16. Subscription covering under failover: with the covering decorator
//     wrapping the cell index, a template + specialization population
//     compresses every matcher's physical state (representatives only in
//     the inner index). Kill a matcher under a lossy data plane, restart
//     it, and durable-log replay must rebuild the same logical/physical
//     split — covering groups are a pure function of the replayed
//     Store/Remove stream, and exact group-by-group equality (including
//     catch-up replays) is pinned by
//     `cluster::sublog::replay_rebuilds_covering_groups_identically`;
//     here the per-matcher subscription gauges assert the rebuilt split
//     on a live cluster. Exactly-once observation holds throughout and
//     nothing dead-letters.
// ---------------------------------------------------------------------
#[test]
fn covering_groups_survive_crash_and_replay() {
    let seed = scenario_seed("covering_groups_survive_crash_and_replay", 0xC0F16);
    let fd = FailureDetectorConfig {
        suspect_after: 0.3,
        dead_after: 0.9,
    };
    let log_dir = std::env::temp_dir().join(format!("bluedove-chaos16-{seed}"));
    let _ = std::fs::remove_dir_all(&log_dir);
    let mut cluster = Cluster::start(chaos_config(seed, 4, fd).log_dir(&log_dir).index(
        IndexKind::Covering {
            inner: InnerKind::Cell(16),
        },
    ));
    let sub = cluster.subscribe(wildcard(&space())).unwrap();
    await_membership(&cluster, 3, Duration::from_secs(10)).expect("initial convergence");

    // A coverable population: wide template boxes plus specializations
    // strictly inside them on both dimensions. Handles stay alive so the
    // endpoints remain bound; only the wildcard's deliveries are read.
    let sp = space();
    let mut holders = Vec::new();
    for t in 0..6u64 {
        let lo0 = (t * 13 % 70) as f64;
        let lo1 = (t * 29 % 70) as f64;
        let template = Subscription::builder(&sp)
            .range(0, lo0, lo0 + 30.0)
            .range(1, lo1, lo1 + 30.0)
            .build()
            .unwrap();
        holders.push(cluster.subscribe(template).unwrap());
        for j in 0..9u64 {
            let a = (j * 3 % 20) as f64 + 1.0;
            let b = (j * 7 % 18) as f64 + 2.0;
            let spec = Subscription::builder(&sp)
                .range(0, lo0 + a, lo0 + a + 8.0)
                .range(1, lo1 + b, lo1 + b + 9.0)
                .build()
                .unwrap();
            holders.push(cluster.subscribe(spec).unwrap());
        }
    }
    // Let a couple of stats ticks publish the subscription gauges.
    std::thread::sleep(Duration::from_millis(400));
    let pair = |cluster: &Cluster, m: u32| {
        let g = |name: &str| {
            cluster
                .telemetry()
                .gauge_value(name, &[("matcher", m.to_string())])
                .unwrap_or(0)
        };
        (
            g("bluedove_matcher_subscriptions_logical"),
            g("bluedove_matcher_subscriptions_physical"),
        )
    };
    let (mut logical_total, mut physical_total) = (0i64, 0i64);
    for m in 0..4 {
        let (l, p) = pair(&cluster, m);
        logical_total += l;
        physical_total += p;
    }
    assert!(logical_total > 0, "matchers report logical copies");
    assert!(
        physical_total < logical_total,
        "covering engaged cluster-wide: {physical_total} physical < {logical_total} logical"
    );
    let before = pair(&cluster, 1);
    assert!(
        before.0 > 0,
        "m/1 holds subscription copies before the crash"
    );
    assert!(
        before.1 < before.0,
        "m/1 holds covered members before the crash ({} physical / {} logical)",
        before.1,
        before.0
    );

    const N: u64 = 120;
    // Collision-free over 0..N (see `crash_loses_nothing_with_acks`).
    let unique_probe = |i: u64| Message::new(vec![(i % 100) as f64, (i / 100 * 10) as f64]);
    let mut published = 0u64;
    let mut publish_batch = |cluster: &mut Cluster, upto: u64| {
        while published < upto {
            cluster.publish(unique_probe(published)).unwrap();
            published += 1;
        }
    };

    // Phase 1: baseline traffic, then kill m/1 under a lossy data plane —
    // the retransmission machinery works around the hole while the
    // clockwise heir serves m/1's promoted stream.
    publish_batch(&mut cluster, 40);
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Kill(MatcherId(1)))
        .at(
            Duration::ZERO,
            ChaosEvent::Degrade(LinkRule {
                from: AddrSet::Any,
                to: AddrSet::Prefix("m/".into()),
                rule: FaultRule::drop(0.3),
            }),
        )
        .run(&mut cluster)
        .unwrap();
    publish_batch(&mut cluster, 80);
    std::thread::sleep(Duration::from_millis(500));
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::ClearFaults)
        .run(&mut cluster)
        .unwrap();

    // Phase 2: restart. Replay rebuilds the engine — and with it every
    // covering group — from the durable stream alone.
    FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::Restart(MatcherId(1)))
        .run(&mut cluster)
        .unwrap();
    await_membership(&cluster, 3, Duration::from_secs(10)).expect("mesh re-admits m/1");
    publish_batch(&mut cluster, N);

    // Every admitted publication must reach the wildcard exactly once.
    let mut seen = vec![0u32; N as usize];
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let Some(d) = sub.recv_timeout(Duration::from_millis(300)) else {
            if seen.iter().all(|&n| n == 1) {
                break;
            }
            continue;
        };
        let i = (0..N)
            .position(|i| d.msg.values == unique_probe(i).values)
            .expect("delivery matches one published probe");
        seen[i] += 1;
    }
    let lost: Vec<usize> = (0..N as usize).filter(|&i| seen[i] == 0).collect();
    let duped: Vec<usize> = (0..N as usize).filter(|&i| seen[i] > 1).collect();

    // The restarted matcher must converge back to its pre-crash
    // logical/physical split: same copies replayed, same representatives
    // chosen (rep choice is deterministic in the record order).
    let rebuild_deadline = Instant::now() + Duration::from_secs(15);
    let mut after = pair(&cluster, 1);
    while after != before && Instant::now() < rebuild_deadline {
        std::thread::sleep(Duration::from_millis(100));
        after = pair(&cluster, 1);
    }
    let (retried, _dupes, dead_lettered) = cluster.reliability_counters();
    let replayed = cluster
        .telemetry()
        .counter_value("bluedove_sublog_replayed_total", &[])
        .unwrap_or(0);
    println!(
        "scenario 16: before={before:?} after={after:?} retried={retried} \
         dead_lettered={dead_lettered} replayed={replayed}"
    );
    assert!(
        lost.is_empty(),
        "zero publication loss across the crash; lost probes {lost:?}"
    );
    assert!(
        duped.is_empty(),
        "exactly-once observation held; duplicated probes {duped:?}"
    );
    assert_eq!(dead_lettered, 0, "nothing exhausted its retry budget");
    assert!(
        replayed > 0,
        "the restarted matcher replayed its durable stream"
    );
    assert_eq!(
        after, before,
        "replay rebuilt the same logical/physical covering split on m/1"
    );
    drop(holders);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&log_dir);
}

// ---------------------------------------------------------------------
// 17. The full elasticity story at once: a flash-crowd subscription wave
//     arrives (the HighChurn scenario's schedule), the autoscaler grows
//     the cluster, seeded drop + partition faults hit mid-traffic,
//     mobile subscribers migrate their boxes, the wave recedes and the
//     autoscaler gracefully shrinks — and through churn, scaling and
//     faults combined, every probe is observed exactly once and nothing
//     dead-letters.
// ---------------------------------------------------------------------

/// Fires every churn event due at or before `upto` against live handles,
/// returning by incrementing `(subscribed, unsubscribed, migrated)`.
fn fire_churn(
    cluster: &mut Cluster,
    handles: &mut std::collections::HashMap<u64, bluedove::cluster::SubscriberHandle>,
    events: &mut std::iter::Peekable<std::slice::Iter<'_, bluedove::workload::ChurnEvent>>,
    upto: f64,
    counts: &mut (u64, u64, u64),
) {
    use bluedove::workload::ChurnAction;
    while events.peek().is_some_and(|e| e.at <= upto) {
        match &events.next().expect("peeked").action {
            ChurnAction::Subscribe { key, sub } => {
                handles.insert(*key, cluster.subscribe(sub.clone()).unwrap());
                counts.0 += 1;
            }
            ChurnAction::Unsubscribe { key } => {
                let h = handles.remove(key).expect("validated schedule");
                cluster.unsubscribe(&h).unwrap();
                counts.1 += 1;
            }
            ChurnAction::Migrate { key, sub } => {
                let h = handles.remove(key).expect("validated schedule");
                cluster.unsubscribe(&h).unwrap();
                handles.insert(*key, cluster.subscribe(sub.clone()).unwrap());
                counts.2 += 1;
            }
        }
    }
}

#[test]
fn churn_scaling_and_faults_lose_nothing() {
    use bluedove::core::{DimIdx, DimStats};
    use bluedove::engine::{AutoscalerConfig, LoadSnapshot, ScaleOutcome};
    use bluedove::workload::{HighChurn, Scenario};
    use std::collections::HashMap;

    let seed = scenario_seed("churn_scaling_and_faults_lose_nothing", 42);
    let mut cluster = Cluster::start(
        chaos_config(seed, 3, FailureDetectorConfig::default()).autoscaler(AutoscalerConfig {
            hysteresis: 2,
            cooldown: 0.0,
            min_matchers: 2,
            max_matchers: 6,
            ..Default::default()
        }),
    );
    let sub = cluster.subscribe(wildcard(&space())).unwrap();

    // The HighChurn scenario's own schedule at test scale: one 25-strong
    // flash crowd arriving over a second and leaving 5s later, plus 4
    // migrants re-drawing their boxes once. Same space as `space()`.
    let churn = HighChurn {
        waves: 1,
        wave_size: 25,
        wave_period: 10.0,
        wave_ramp: 1.0,
        wave_hold: 5.0,
        migrants: 4,
        migrations: 1,
        migrate_period: 3.0,
        seed,
        ..Default::default()
    };
    let schedule = churn.churn_schedule();
    schedule.validate().expect("coherent schedule");
    let mut handles: HashMap<u64, bluedove::cluster::SubscriberHandle> = HashMap::new();
    let mut events = schedule.events().iter().peekable();
    let mut churned = (0u64, 0u64, 0u64);

    const N: u64 = 200;
    // Collision-free over 0..N (see `crash_loses_nothing_with_acks`).
    let unique_probe = |i: u64| Message::new(vec![(i % 100) as f64, (i / 100 * 10) as f64]);
    let mut published = 0u64;
    let mut publish_batch = |cluster: &mut Cluster, upto: u64| {
        while published < upto {
            cluster.publish(unique_probe(published)).unwrap();
            published += 1;
        }
    };

    // Synthetic load snapshots drive the controller deterministically:
    // the same watermark/hysteresis/cooldown controller both hosts run,
    // fed the pressure the wave would produce, so the grow/shrink
    // sequence is identical on every run of every seed.
    let hot = DimStats {
        sub_count: 300,
        queue_len: 256,
        lambda: 180.0,
        mu: 100.0,
        updated_at: 0.0,
    };
    let cold = DimStats {
        sub_count: 10,
        queue_len: 0,
        lambda: 5.0,
        mu: 100.0,
        updated_at: 0.0,
    };
    let snap_of = |cluster: &Cluster, stats: DimStats, now: f64| {
        let mut s = LoadSnapshot::new(now);
        for m in cluster.matcher_ids() {
            for d in 0..2u16 {
                s.push(m, DimIdx(d), stats);
            }
        }
        s
    };

    // Phase 1: migrants join, the flash crowd arrives, probes flow into
    // the 3-matcher table.
    fire_churn(&mut cluster, &mut handles, &mut events, 2.5, &mut churned);
    assert_eq!(churned.0, 4 + 25, "migrants and the full wave joined");
    publish_batch(&mut cluster, 60);

    // Phase 2: the wave's load trips the controller — two hot snapshots
    // (hysteresis) fire a Grow through the §III-C join protocol.
    let snap = snap_of(&cluster, hot, 1.0);
    assert!(cluster.autoscale_with(&snap).unwrap().is_none(), "streak 1");
    let snap = snap_of(&cluster, hot, 2.0);
    let added = match cluster.autoscale_with(&snap).unwrap() {
        Some(ScaleOutcome::Added(m)) => m,
        other => panic!("second hot snapshot must grow, got {other:?}"),
    };
    assert_eq!(cluster.matcher_ids().len(), 4, "grew to 4 matchers");
    println!("scenario 17: grew with {added:?}");

    // Phase 3: seeded faults mid-traffic — 20% loss on every
    // dispatcher→matcher forward (the leg the at-least-once ledger
    // covers; client→dispatcher ingress is fire-and-forget and out of
    // scope), plus a partition between the lead dispatcher and an
    // original matcher. Publications keep flowing; ack timeouts
    // retransmit through the loss.
    FaultSchedule::new()
        .at(
            Duration::ZERO,
            ChaosEvent::Degrade(LinkRule {
                from: AddrSet::Prefix("d/".into()),
                to: AddrSet::Prefix("m/".into()),
                rule: FaultRule::drop(0.2),
            }),
        )
        .at(
            Duration::from_millis(50),
            ChaosEvent::Partition {
                a: AddrSet::one("d/0"),
                b: AddrSet::one("m/1"),
            },
        )
        .run(&mut cluster)
        .unwrap();
    publish_batch(&mut cluster, 140);

    // Phase 4: heal, then migrate (subscribe acks are one-shot control
    // traffic, so re-registration waits for clean links), let the wave
    // recede, and shrink back: two cold snapshots pick the newest
    // (coldest-tied) matcher as the victim and retire it through the
    // graceful-leave protocol.
    let report = FaultSchedule::new()
        .at(Duration::ZERO, ChaosEvent::HealPartitions)
        .at(Duration::from_millis(100), ChaosEvent::ClearFaults)
        .run(&mut cluster)
        .unwrap();
    println!("{report}");
    fire_churn(&mut cluster, &mut handles, &mut events, 5.0, &mut churned);
    assert_eq!(churned.2, 4, "every migrant moved once");
    fire_churn(
        &mut cluster,
        &mut handles,
        &mut events,
        f64::INFINITY,
        &mut churned,
    );
    assert_eq!(churned.1, 25, "the whole wave unsubscribed");
    assert!(handles.len() == 4, "only migrants remain subscribed");
    let snap = snap_of(&cluster, cold, 3.0);
    assert!(cluster.autoscale_with(&snap).unwrap().is_none(), "streak 1");
    let snap = snap_of(&cluster, cold, 4.0);
    let removed = match cluster.autoscale_with(&snap).unwrap() {
        Some(ScaleOutcome::Removed(m)) => m,
        other => panic!("second cold snapshot must shrink, got {other:?}"),
    };
    assert_eq!(
        removed, added,
        "ties prefer the newest join as shrink victim"
    );
    assert_eq!(cluster.matcher_ids().len(), 3, "back at 3 matchers");
    publish_batch(&mut cluster, N);

    // Exactly-once accounting across churn + grow + faults + shrink.
    let mut seen = vec![0u32; N as usize];
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let Some(d) = sub.recv_timeout(Duration::from_millis(300)) else {
            if seen.iter().all(|&n| n == 1) {
                break;
            }
            continue;
        };
        let i = (0..N)
            .position(|i| d.msg.values == unique_probe(i).values)
            .expect("delivery matches one published probe");
        seen[i] += 1;
    }
    let (retried, duplicates_suppressed, dead_lettered) = cluster.reliability_counters();
    println!(
        "scenario 17 counters: retried={retried} duplicates_suppressed={duplicates_suppressed} \
         dead_lettered={dead_lettered} churned={churned:?}"
    );
    let lost: Vec<usize> = (0..N as usize).filter(|&i| seen[i] == 0).collect();
    let duped: Vec<usize> = (0..N as usize).filter(|&i| seen[i] > 1).collect();
    assert!(
        lost.is_empty(),
        "zero publication loss through churn+scaling+faults; lost probes {lost:?}"
    );
    assert!(
        duped.is_empty(),
        "zero duplicate observations; duplicated probes {duped:?}"
    );
    assert_eq!(dead_lettered, 0, "nothing exhausted its retry budget");
    drop(handles);
    cluster.shutdown();
}
