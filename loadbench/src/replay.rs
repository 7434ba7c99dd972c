//! Per-layer replay: each layer's public functions timed from outside, on
//! seeded inputs, with no cluster running. A value is the median of five
//! timed batches unless stated.
//!
//! The index, matcher and covering replays always use the
//! `selective_match` subscription set (and the paper-width set where the
//! name says `.paper`), so their numbers compare across workloads; the
//! wire, dispatcher and simulator replays use the inputs of the workload
//! being traced.

use crate::stats::{self, time_ns};
use crate::workloads::{self, Inputs, Workload};
use bluedove::baselines::AnyStrategy;
use bluedove::cluster::{ControlMsg, FsyncPolicy, Log, LogConfig, SubLogRecord};
use bluedove::core::{
    AdaptivePolicy, Assignment, AttributeSpace, DimIdx, DimStats, ForwardingPolicy, IndexKind,
    InnerKind, MatchHit, MatcherId, Message, MessageId, StatsView, SubscriberId, Subscription,
    SubscriptionId,
};
use bluedove::engine::{
    BatchCfg, Coalescer, DispatcherEffect, DispatcherEngine, DispatcherEngineConfig,
    DispatcherEvent, DispatcherOut, DispatcherPort, EngineConfig, MatcherEngine, MatcherPort,
    RetryPolicy,
};
use bluedove::net::{
    from_bytes_shared, to_bytes, ChannelTransport, ReactorConfig, ReactorTransport, Transport,
};
use bluedove::sim::{SaturationProbe, SimCluster, SimConfig};
use bluedove::telemetry::Registry;
use bluedove::workload::{CoverableWorkload, PaperWorkload};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
const MATCHERS: u32 = 4;
/// Subscriptions in the covering replay.
const COVERABLE_SUBS: usize = 200_000;
/// Subscriptions per replayed index: a shard of the size one matcher
/// dimension holds in `churn_durable`, small enough that the covering
/// index (whose insert searches for a coverer) builds in under a second.
const SHARD_SUBS: usize = 10_000;

pub type Values = Vec<(String, f64)>;

fn put(out: &mut Values, name: &str, value: f64) {
    out.push((name.to_string(), value));
}

fn stamped(inputs: &Inputs, seq: u64, payload: usize) -> Message {
    let mut m = workloads::message(inputs, seq, 0, payload);
    m.id = MessageId(seq + 1);
    m
}

/// `net::wire`: encode and decode of the frames a publication becomes.
fn wire(out: &mut Values, inputs: &Inputs, payload: usize) {
    let msg = stamped(inputs, 1, payload);
    let publish = ControlMsg::Publish(msg.clone());
    let deliver = ControlMsg::Deliver {
        subscriber: SubscriberId(7),
        sub: SubscriptionId(7),
        msg: msg.clone(),
        admitted_us: 1,
    };
    let batch = ControlMsg::Batch(
        (0..64)
            .map(|i| ControlMsg::MatchMsg {
                dim: DimIdx(0),
                msg: stamped(inputs, i, payload),
                admitted_us: 1,
                ack_to: "d/0".to_string(),
            })
            .collect(),
    );
    for (name, frame, per) in [
        ("publish", &publish, 1.0),
        ("deliver", &deliver, 1.0),
        ("batch64", &batch, 64.0),
    ] {
        let iters = (20_000.0 / per) as usize;
        let suffix = if per > 1.0 { "_ns_per_msg" } else { "_ns" };
        let encode = time_ns(BATCHES, iters, |_| {
            black_box(to_bytes(black_box(frame)));
        });
        let bytes = to_bytes(frame).freeze();
        let decode = time_ns(BATCHES, iters, |_| {
            black_box(from_bytes_shared::<ControlMsg>(bytes.clone()).expect("own encoding"));
        });
        put(out, &format!("wire.{name}_encode{suffix}"), encode / per);
        put(out, &format!("wire.{name}_decode{suffix}"), decode / per);
        if name == "publish" {
            put(out, "wire.publish_frame_bytes", bytes.len() as f64);
        }
    }
}

/// One-way hop latency: stamped frames sent one every 200 µs to a thread
/// blocked on the inbox. Returns `(p50, p99)` in µs.
fn hop_us(transport: &dyn Transport, addr: &str, frame_len: usize) -> (f64, f64) {
    const FRAMES: usize = 1_000;
    let rx = transport.bind(addr).expect("bind replay inbox");
    let epoch = Instant::now();
    let receiver = std::thread::spawn(move || {
        let mut hops = Vec::with_capacity(FRAMES);
        while hops.len() < FRAMES {
            let Ok(frame) = rx.recv_timeout(Duration::from_secs(5)) else {
                break;
            };
            let now = epoch.elapsed().as_nanos() as u64;
            let sent = u64::from_le_bytes(frame[..8].try_into().expect("stamped frame"));
            hops.push(now.saturating_sub(sent) as u32);
        }
        hops
    });
    for _ in 0..FRAMES {
        let mut frame = vec![0u8; frame_len.max(8)];
        frame[..8].copy_from_slice(&(epoch.elapsed().as_nanos() as u64).to_le_bytes());
        transport.send(addr, frame.into()).expect("replay send");
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut hops = receiver.join().expect("hop receiver");
    hops.sort_unstable();
    (
        f64::from(stats::percentile(&hops, 50.0)) / 1e3,
        f64::from(stats::percentile(&hops, 99.0)) / 1e3,
    )
}

/// `net::transport` and `net::reactor`: bind, send and the hop itself.
fn transports(out: &mut Values) {
    let channel = ChannelTransport::new();
    let rx = channel.bind("replay/sink").expect("bind");
    let frame = Bytes::from(vec![0u8; 64]);
    let send = time_ns(BATCHES, 20_000, |_| {
        channel.send("replay/sink", frame.clone()).expect("send");
    });
    drop(rx);
    put(out, "channel.send_ns", send);
    put(
        out,
        "channel.hop_us_p50",
        hop_us(&channel, "replay/hop", 64).0,
    );

    let reactor = ReactorTransport::start(ReactorConfig::default()).expect("start reactor");
    let mut binds = Vec::new();
    let mut inboxes = Vec::new();
    for i in 0..9 {
        let t = Instant::now();
        inboxes.push(reactor.bind(&format!("replay/bind{i}")).expect("bind"));
        binds.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    put(out, "reactor.bind_us", stats::median(&binds));
    let (p50, p99) = hop_us(&reactor, "replay/hop", 256);
    put(out, "reactor.hop_us_p50", p50);
    put(out, "reactor.hop_us_p99", p99);

    // Throughput: 256 B frames, at most 256 outstanding, for half a second.
    let rx = reactor.bind("replay/flood").expect("bind");
    let received = Arc::new(AtomicU64::new(0));
    let counter = received.clone();
    let sink = std::thread::spawn(move || {
        while rx.recv_timeout(Duration::from_millis(200)).is_ok() {
            counter.fetch_add(1, Relaxed);
        }
    });
    let frame = Bytes::from(vec![0u8; 256]);
    let (start, mut sent) = (Instant::now(), 0u64);
    while start.elapsed() < Duration::from_millis(500) {
        if sent - received.load(Relaxed) < 256 {
            reactor.send("replay/flood", frame.clone()).expect("send");
            sent += 1;
        } else {
            std::thread::yield_now();
        }
    }
    let rate = received.load(Relaxed) as f64 / start.elapsed().as_secs_f64();
    sink.join().expect("flood sink");
    put(out, "reactor.frames_per_s", rate);
    drop(inboxes);
    reactor.shutdown();
}

/// `core::partition` and `core::policy`: the per-publication routing
/// decision and the per-subscription placement.
fn routing(out: &mut Values, inputs: &Inputs, subs: &[Subscription]) {
    let strategy = AnyStrategy::bluedove(inputs.space.clone(), MATCHERS);
    let part = strategy.as_dyn();
    let msgs: Vec<Message> = (0..1024).map(|i| stamped(inputs, i, 16)).collect();
    put(
        out,
        "partition.candidates_ns",
        time_ns(BATCHES, 20_000, |i| {
            black_box(part.candidates(&msgs[i % msgs.len()]));
        }),
    );
    put(
        out,
        "partition.assign_ns",
        time_ns(BATCHES, 20_000, |i| {
            black_box(part.assign(&subs[i % subs.len()]));
        }),
    );
    let mut view = StatsView::new();
    for m in 0..MATCHERS {
        for d in 0..inputs.space.k() {
            view.update(
                MatcherId(m),
                DimIdx(d as u16),
                DimStats {
                    sub_count: 1_000 + 100 * m as usize,
                    queue_len: d,
                    lambda: 900.0 + f64::from(m),
                    mu: 1_000.0,
                    updated_at: 0.0,
                },
            );
        }
    }
    let candidates: Vec<Vec<Assignment>> = msgs.iter().map(|m| part.candidates(m)).collect();
    let mut rng = StdRng::seed_from_u64(1);
    put(
        out,
        "policy.adaptive_choose_ns",
        time_ns(BATCHES, 20_000, |i| {
            black_box(AdaptivePolicy.choose(
                &candidates[i % candidates.len()],
                &view,
                i as f64 * 1e-5,
                &mut rng,
            ));
        }),
    );
}

/// A dispatcher port that accepts everything and remembers where the
/// last publication went, so the replay can acknowledge it.
#[derive(Default)]
struct NullDispatcherPort {
    sends: u64,
    last: Option<MatcherId>,
}

impl DispatcherPort for NullDispatcherPort {
    fn send(&mut self, to: MatcherId, _addr: &str, out: DispatcherOut) -> bool {
        self.sends += 1;
        if matches!(out, DispatcherOut::Match { .. }) {
            self.last = Some(to);
        }
        black_box(out);
        true
    }
    fn sub_ack(&mut self, _subscriber: SubscriberId, _sub: SubscriptionId) {}
    fn effect(&mut self, effect: DispatcherEffect) {
        black_box(effect);
    }
}

fn dispatcher_engine(space: &AttributeSpace, retry: RetryPolicy) -> DispatcherEngine {
    DispatcherEngine::new(DispatcherEngineConfig {
        policy: Box::new(AdaptivePolicy),
        seed: 1,
        retry,
        version: 1,
        strategy: AnyStrategy::bluedove(space.clone(), MATCHERS),
        addrs: (0..MATCHERS)
            .map(|m| (MatcherId(m), format!("m/{m}")))
            .collect(),
    })
}

/// `engine::dispatcher`: `on_event` against a null port. The acked engine
/// is acknowledged after every batch so its ledger stays small, which
/// also gives the ack cost.
fn dispatcher(out: &mut Values, inputs: &Inputs, subs: &[Subscription], payload: usize) {
    const ITERS: usize = 5_000;
    let msgs: Vec<Message> = (0..ITERS as u64)
        .map(|i| stamped(inputs, i, payload))
        .collect();
    let mut port = NullDispatcherPort::default();

    let mut acked = dispatcher_engine(&inputs.space, RetryPolicy::default());
    let (mut publish, mut ack) = (Vec::new(), Vec::new());
    let mut next_id = 1u64;
    for batch in 0..=BATCHES {
        let mut targets = Vec::with_capacity(ITERS);
        let first_id = next_id;
        let t = Instant::now();
        for (i, msg) in msgs.iter().enumerate() {
            let mut msg = msg.clone();
            msg.id = MessageId(next_id);
            next_id += 1;
            let now = (batch * ITERS + i) as f64 * 1e-5;
            acked.on_event(
                now,
                DispatcherEvent::Publish {
                    msg,
                    admitted_us: 1,
                },
                &mut port,
            );
            targets.push(port.last.expect("a live candidate took the publication"));
        }
        let publish_ns = t.elapsed().as_nanos() as f64 / ITERS as f64;
        let t = Instant::now();
        for (i, matcher) in targets.into_iter().enumerate() {
            let event = DispatcherEvent::MatchAck {
                msg_id: MessageId(first_id + i as u64),
                matcher,
                actual_us: 40,
            };
            acked.on_event((batch * ITERS + ITERS) as f64 * 1e-5, event, &mut port);
        }
        let ack_ns = t.elapsed().as_nanos() as f64 / ITERS as f64;
        if batch > 0 {
            publish.push(publish_ns);
            ack.push(ack_ns);
        }
    }
    assert_eq!(acked.in_flight(), 0, "every replayed publication was acked");
    put(out, "dispatcher.publish_ns", stats::median(&publish));
    put(out, "dispatcher.ack_ns", stats::median(&ack));

    let mut noack = dispatcher_engine(&inputs.space, RetryPolicy::fire_and_forget());
    put(
        out,
        "dispatcher.publish_noack_ns",
        time_ns(BATCHES, ITERS, |i| {
            let msg = msgs[i % ITERS].clone();
            let event = DispatcherEvent::Publish {
                msg,
                admitted_us: 1,
            };
            noack.on_event(i as f64 * 1e-5, event, &mut port);
        }),
    );
    put(
        out,
        "dispatcher.subscribe_ns",
        time_ns(BATCHES, 2_000, |i| {
            let mut sub = subs[i % subs.len()].clone();
            sub.id = SubscriptionId(i as u64 + 1);
            noack.on_event(0.0, DispatcherEvent::Subscribe(sub), &mut port);
        }),
    );
    black_box(port.sends);
}

/// `engine::batch`: lane lookup is a linear scan, so cost depends on how
/// many destinations a node talks to — one matcher, or 10k endpoints.
fn coalescer(out: &mut Values) {
    let cfg = BatchCfg {
        max_batch: 64,
        max_delay: 0.001,
    };
    let mut one: Coalescer<u64> = Coalescer::new(cfg);
    put(
        out,
        "coalescer.push_ns_1dest",
        time_ns(BATCHES, 50_000, |i| {
            black_box(one.push(i as f64 * 1e-6, "m/0", i as u64));
        }),
    );
    let dests: Vec<String> = (0..10_000).map(|i| format!("c/{i}")).collect();
    let mut many: Coalescer<u64> = Coalescer::new(cfg);
    put(
        out,
        "coalescer.push_ns_10kdest",
        time_ns(3, dests.len(), |i| {
            black_box(many.push(0.0, &dests[i % dests.len()], i as u64));
        }),
    );
    put(
        out,
        "coalescer.poll_ns_10kdest",
        time_ns(BATCHES, 200, |_| {
            // Before any deadline: the scan, not a flush.
            black_box(many.poll(0.0005));
        }),
    );
}

/// The first [`SHARD_SUBS`] of `subs` that a deployment of [`MATCHERS`]
/// stores on matcher 0, dimension 0 — what one real index holds. That is
/// the hot shard: dimension 0's subscription hot spot lies in matcher 0's
/// segment.
fn shard(space: &AttributeSpace, subs: &[Subscription]) -> Vec<Subscription> {
    let strategy = AnyStrategy::bluedove(space.clone(), MATCHERS);
    let home = Assignment::new(MatcherId(0), DimIdx(0));
    subs.iter()
        .enumerate()
        .filter(|(_, s)| strategy.as_dyn().assign(s).contains(&home))
        .take(SHARD_SUBS)
        .map(|(i, s)| {
            let mut s = s.clone();
            s.id = SubscriptionId(i as u64 + 1);
            s
        })
        .collect()
}

/// Publications a dispatcher could send to matcher 0 on dimension 0.
fn shard_probes(inputs: &Inputs) -> Vec<Message> {
    let strategy = AnyStrategy::bluedove(inputs.space.clone(), MATCHERS);
    let home = Assignment::new(MatcherId(0), DimIdx(0));
    (0..workloads::MSG_POOL as u64)
        .map(|i| stamped(inputs, i, 16))
        .filter(|m| strategy.as_dyn().candidates(m).contains(&home))
        .take(2_000)
        .collect()
}

/// `core::index`: every kind on the same shard of the selective set.
fn index(out: &mut Values, selective: &Inputs) {
    let subs = shard(&selective.space, &selective.subs);
    let probes = shard_probes(selective);
    let kinds = [
        ("linear", IndexKind::Linear),
        ("cell64", IndexKind::Cell(64)),
        ("itree", IndexKind::IntervalTree),
        (
            "cov_cell64",
            IndexKind::Covering {
                inner: InnerKind::Cell(64),
            },
        ),
    ];
    for (name, kind) in kinds {
        let mut idx = kind.build(&selective.space, DimIdx(0));
        let t = Instant::now();
        for s in &subs {
            idx.insert(s.clone());
        }
        let insert_ns = t.elapsed().as_nanos() as f64 / subs.len() as f64;
        let bytes_per_sub = idx.memory_bytes() as f64 / idx.logical_len() as f64;
        let mut hits: Vec<MatchHit> = Vec::new();
        let mut examined = 0usize;
        let iters = 500;
        let probe_ns = time_ns(BATCHES, iters, |i| {
            hits.clear();
            examined += idx.matching(&probes[i % probes.len()], &mut hits);
        });
        let t = Instant::now();
        for s in &subs {
            black_box(idx.remove(s.id));
        }
        let remove_ns = t.elapsed().as_nanos() as f64 / subs.len() as f64;
        put(out, &format!("index.probe_ns.{name}"), probe_ns);
        put(
            out,
            &format!("index.examined_per_probe.{name}"),
            examined as f64 / ((BATCHES + 1) * iters) as f64,
        );
        put(out, &format!("index.insert_ns.{name}"), insert_ns);
        put(out, &format!("index.remove_ns.{name}"), remove_ns);
        put(out, &format!("index.bytes_per_sub.{name}"), bytes_per_sub);
    }
}

/// Logical over physical entries when the workload has redundancy.
fn covering(out: &mut Values, seed: u64) {
    let scenario = CoverableWorkload {
        seed,
        ..CoverableWorkload::default()
    };
    let kind = IndexKind::Covering {
        inner: InnerKind::Cell(64),
    };
    let mut idx = kind.build(&scenario.space(), DimIdx(0));
    for s in scenario.subscriptions().take(COVERABLE_SUBS) {
        idx.insert(s);
    }
    put(
        out,
        "index.covering_ratio",
        idx.logical_len() as f64 / idx.physical_len() as f64,
    );
}

struct NullMatcherPort {
    deliveries: u64,
}

impl MatcherPort for NullMatcherPort {
    fn deliver(&mut self, _: SubscriberId, _: SubscriptionId, msg: &Message, _: u64) {
        self.deliveries += 1;
        black_box(msg);
    }
    fn ack(&mut self, _ack_to: &str, _msg_id: MessageId, _actual_us: u64) {}
    fn duplicate_suppressed(&mut self) {}
}

/// `engine::matcher`: admit, serve, match and complete one publication on
/// matcher 0 holding its share of `inputs.subs`. Returns
/// `(ns per publication, hits per publication)`.
fn matcher_service(inputs: &Inputs) -> (f64, f64) {
    let space = &inputs.space;
    let strategy = AnyStrategy::bluedove(space.clone(), MATCHERS);
    let mut engine = MatcherEngine::new(MatcherId(0), space.clone(), IndexKind::Cell(64), 8_192);
    for (i, sub) in inputs.subs.iter().enumerate() {
        for a in strategy.as_dyn().assign(sub) {
            if a.matcher == MatcherId(0) {
                let mut sub = sub.clone();
                sub.id = SubscriptionId(i as u64 + 1);
                engine.insert(a.dim, sub);
            }
        }
    }
    let jobs: Vec<(DimIdx, Message)> = (0..workloads::MSG_POOL as u64)
        .map(|i| stamped(inputs, i, 16))
        .filter_map(|m| {
            let dim = strategy
                .as_dyn()
                .candidates(&m)
                .into_iter()
                .find(|a| a.matcher == MatcherId(0))?
                .dim;
            Some((dim, m))
        })
        .take(2_000)
        .collect();
    let mut port = NullMatcherPort { deliveries: 0 };
    let mut hits: Vec<MatchHit> = Vec::new();
    let iters = jobs.len();
    let ns = time_ns(BATCHES, iters, |i| {
        let (dim, msg) = &jobs[i % iters];
        let mut msg = msg.clone();
        msg.id = MessageId(i as u64 + 1);
        let now = i as f64 * 1e-5;
        engine.on_match_msg(now, *dim, msg, 1, "d/0".to_string(), &mut port);
        let job = engine.begin_service(now).expect("just queued");
        hits.clear();
        engine.run_match(&job, now, &mut hits);
        engine.complete(job, &hits, 1e-5, &mut port);
    });
    (ns, port.deliveries as f64 / ((BATCHES + 1) * iters) as f64)
}

fn matcher(out: &mut Values, selective: &Inputs, seed: u64) {
    put(
        out,
        "matcher.service_ns.selective",
        matcher_service(selective).0,
    );
    let paper = Inputs::generate(
        workloads::by_name("churn_durable").expect("named workload"),
        seed,
    );
    let (ns, hits) = matcher_service(&paper);
    put(out, "matcher.service_ns.paper", ns);
    put(out, "matcher.hits_per_msg.paper", hits);
}

/// `cluster::log`: append under each fsync policy, then replay on reopen.
fn log(out: &mut Values, selective: &Inputs, dir: &Path) {
    let record = |i: usize| SubLogRecord::Store {
        dim: DimIdx(0),
        sub: selective.subs[i % selective.subs.len()].clone(),
    };
    for (name, fsync, appends) in [
        ("flush", FsyncPolicy::Flush, 2_000),
        ("never", FsyncPolicy::Never, 2_000),
        ("always", FsyncPolicy::Always, 200),
    ] {
        let cfg = LogConfig {
            fsync,
            ..LogConfig::default()
        };
        let (mut log, _) =
            Log::<SubLogRecord>::open(dir.join(name), "replay", cfg).expect("open replay log");
        let mut ns: Vec<u32> = (0..appends)
            .map(|i| {
                let rec = record(i);
                let t = Instant::now();
                log.append(&rec).expect("append");
                t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32
            })
            .collect();
        ns.sort_unstable();
        put(
            out,
            &format!("log.append_us_p50.{name}"),
            f64::from(stats::percentile(&ns, 50.0)) / 1e3,
        );
        if name == "always" {
            put(
                out,
                "log.append_us_p99.always",
                f64::from(stats::percentile(&ns, 99.0)) / 1e3,
            );
        }
        if name == "flush" {
            log.sync().expect("sync");
            drop(log);
            let t = Instant::now();
            let (_, replayed) =
                Log::<SubLogRecord>::open(dir.join(name), "replay", cfg).expect("reopen");
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(replayed.len(), appends, "the log replays what was appended");
            put(out, "log.replay_records_per_s", appends as f64 / secs);
        }
    }
}

fn telemetry(out: &mut Values) {
    let registry = Registry::new();
    let h = registry.histogram("replay_us", "", &[]);
    put(
        out,
        "telemetry.observe_ns",
        time_ns(BATCHES, 100_000, |i| {
            h.observe_us(black_box(i as u64 & 0xFFFF))
        }),
    );
}

/// `sim`: the simulator's saturation rate for this workload's deployment
/// and subscription set, against the capacity the cluster measured.
fn sim(out: &mut Values, w: &Workload, seed: u64, inputs: &Inputs, measured: f64) {
    let scenario = PaperWorkload {
        sub_width: w.sub_width,
        seed,
        ..PaperWorkload::default()
    };
    let retry = if w.acks {
        RetryPolicy::default()
    } else {
        RetryPolicy::fire_and_forget()
    };
    let make = || {
        let cfg = SimConfig {
            num_dispatchers: 1,
            engine: EngineConfig::default()
                .index(IndexKind::Cell(64))
                .retry(retry.clone()),
            ..SimConfig::default()
        };
        let mut sim = SimCluster::new(
            cfg,
            inputs.space.clone(),
            AnyStrategy::bluedove(inputs.space.clone(), MATCHERS),
            Box::new(AdaptivePolicy),
        );
        sim.subscribe_all(inputs.subs.iter().cloned());
        (sim, scenario.messages())
    };
    // `find_saturation_rate` only brackets upward from its hint, and the
    // cost model can sit far below what the cluster measured: walk down
    // to a rate the simulator sustains, then bisect.
    let probe = SaturationProbe {
        probe_duration: 0.5,
        ..SaturationProbe::default()
    };
    let saturated = |rate: f64| {
        let (mut sim, mut msgs) = make();
        probe.is_saturated(&mut sim, &mut msgs, rate)
    };
    let (mut lo, mut hi) = (measured, measured * 2.0);
    for _ in 0..10 {
        if !saturated(lo) {
            break;
        }
        hi = lo;
        lo /= 4.0;
    }
    for _ in 0..4 {
        let mid = (lo * hi).sqrt();
        if saturated(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let predicted = (lo * hi).sqrt();
    put(out, "sim.predicted_capacity_msgs_s", predicted);
    put(out, "sim.capacity_ratio", predicted / measured);

    let (mut sim, mut msgs) = make();
    let rate = predicted * 0.8;
    let t = Instant::now();
    sim.run(rate, 1.0, &mut msgs);
    put(out, "sim.msgs_per_wall_s", rate / t.elapsed().as_secs_f64());
}

/// Runs every replay for a traced run of `w`.
pub fn all(w: &Workload, seed: u64, inputs: &Inputs, measured_capacity: f64, dir: &Path) -> Values {
    let mut out = Values::new();
    let selective = Inputs::generate(
        workloads::by_name("selective_match").expect("named workload"),
        seed,
    );
    let mut timed = |section: &str, f: &mut dyn FnMut(&mut Values)| {
        let t = Instant::now();
        f(&mut out);
        eprintln!("replay {section}: {:.2} s", t.elapsed().as_secs_f64());
    };
    timed("wire", &mut |o| wire(o, inputs, w.payload));
    timed("transports", &mut transports);
    timed("routing", &mut |o| routing(o, inputs, &selective.subs));
    timed("dispatcher", &mut |o| {
        dispatcher(o, inputs, &selective.subs, w.payload)
    });
    timed("coalescer", &mut coalescer);
    timed("index", &mut |o| index(o, &selective));
    timed("covering", &mut |o| covering(o, seed));
    timed("matcher", &mut |o| matcher(o, &selective, seed));
    timed("log", &mut |o| log(o, &selective, dir));
    timed("telemetry", &mut telemetry);
    timed("sim", &mut |o| sim(o, w, seed, inputs, measured_capacity));
    out
}
