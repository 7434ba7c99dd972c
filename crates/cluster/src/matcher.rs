//! The matcher node: the threaded host around the sans-IO
//! [`MatcherEngine`] (§II-B, §III-B).
//!
//! The queues, dedup windows, service order and every sub-log step live
//! in `bluedove_engine::MatcherEngine`; this module supplies the
//! transport, the real clock, measured match times (fed into
//! `record_service`), the sub-log files, and the host-only subsystems the
//! engine stays out of: the §III-C gossip mesh, table pull serving and
//! telemetry rendering. The loop itself is [`crate::node::run`].

use crate::batchio::{flush_frame, wake_in, BatchMetrics, Outbox};
use crate::log::Log;
use crate::node::{Node, Step};
use crate::proto::ControlMsg;
use crate::shared::{matcher_addr, Shared};
use crate::sublog::SubLogRecord;
use bluedove_core::{
    DimIdx, MatchHit, MatcherId, Message, MessageId, SubscriberId, SubscriptionId, Time,
};
use bluedove_engine::{
    Coalescer, EngineConfig, FlushReason, MatcherEngine, MatcherPort, Rejected, ReplicatedAppend,
    SubLogCount, DEDUP_WINDOW,
};
use bluedove_net::{to_bytes, Transport};
use bluedove_overlay::{EndpointState, GossipMsg, GossipNode, NodeId, NodeRole};
use bluedove_telemetry::{Counter, Gauge, Histogram};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::Receiver;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-matcher runtime configuration.
#[derive(Clone)]
pub struct MatcherNodeConfig {
    /// This matcher's id.
    pub id: MatcherId,
    /// Transport address the matcher binds.
    pub addr: String,
    /// The deployment's engine knobs. The matcher uses the index
    /// structure per dimension set, the per-dimension dedup window
    /// (dispatcher retransmissions make duplicates possible) and the
    /// coalescing of outbound `Deliver`/`MatchAck` frames.
    pub engine: EngineConfig,
    /// How often load reports are pushed to dispatchers.
    pub stats_interval: Duration,
    /// How often the matcher gossips with `log₂ N` random peers (§III-C).
    pub gossip_interval: Duration,
    /// Bootstrap knowledge: endpoint states of already-known matchers
    /// (the paper's "new matcher contacts a dispatcher" step hands these
    /// over).
    pub gossip_seeds: Vec<EndpointState>,
    /// The gossip incarnation number. Starts at 1; a restarted matcher
    /// rejoins with a strictly higher generation so peers that declared
    /// its previous incarnation dead rebuild the record (Dead is sticky
    /// within a generation).
    pub generation: u64,
    /// Failure-detector thresholds applied on each gossip tick.
    pub failure_detector: bluedove_overlay::FailureDetectorConfig,
    /// Durable replicated subscription log. `None` keeps the store
    /// memory-only: mutations are not journaled and recovery falls back
    /// to full re-shipping from the registration store.
    pub sublog: Option<crate::sublog::SubLogConfig>,
}

/// Handle to a running matcher thread.
pub struct MatcherNode {
    /// The matcher's id.
    pub id: MatcherId,
    /// The matcher's transport address.
    pub addr: String,
    crash: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl MatcherNode {
    /// Spawns the matcher thread.
    pub fn spawn(
        cfg: MatcherNodeConfig,
        shared: Arc<Shared>,
        transport: Arc<dyn Transport>,
    ) -> Self {
        Self::bind(cfg, transport).start(shared)
    }

    /// Binds the matcher's inbox without starting the serve loop. Frames
    /// sent to the address queue up until [`BoundMatcher::start`]; the
    /// serve loop drains its whole inbox before serving, so state queued
    /// here (e.g. a crash-recovery subscription replay) is guaranteed to
    /// be installed before the first publication is matched — a restarted
    /// matcher must never ack a message served against the empty set it
    /// booted with.
    pub fn bind(cfg: MatcherNodeConfig, transport: Arc<dyn Transport>) -> BoundMatcher {
        let rx = transport.bind(&cfg.addr).expect("bind matcher inbox");
        BoundMatcher { cfg, transport, rx }
    }

    /// Simulates a crash: the thread stops without any orderly handover.
    /// The caller should also unbind the address so senders see errors.
    pub fn crash(&self) {
        self.crash.store(true, Ordering::Relaxed);
    }

    /// Waits for the thread to exit (after `Shutdown` or `crash`).
    pub fn join(mut self) {
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// A matcher with a bound inbox whose serve loop has not started yet
/// (see [`MatcherNode::bind`]).
pub struct BoundMatcher {
    cfg: MatcherNodeConfig,
    transport: Arc<dyn Transport>,
    rx: Receiver<Bytes>,
}

impl BoundMatcher {
    /// Starts the serve loop over the already-bound inbox.
    pub fn start(self, shared: Arc<Shared>) -> MatcherNode {
        let BoundMatcher { cfg, transport, rx } = self;
        let crash = Arc::new(AtomicBool::new(false));
        let crash2 = crash.clone();
        let addr = cfg.addr.clone();
        let id = cfg.id;
        let join = std::thread::Builder::new()
            .name(format!("matcher-{}", id.0))
            .spawn(move || {
                let node = Matcher::new(cfg, shared.clone(), transport);
                crate::node::run(node, &shared, &rx, &crash2)
            })
            .expect("spawn matcher thread");
        MatcherNode {
            id,
            addr,
            crash,
            join: Some(join),
        }
    }
}

/// Telemetry handles recorded by the matcher's serve and gossip loops.
struct MatcherTelemetry {
    /// FIFO-queue wait per served message, µs (pop minus push).
    queue_wait: Histogram,
    /// Pure matching time per served message, µs.
    match_time: Histogram,
    /// Messages served, labelled by matcher so recovery tests can watch a
    /// specific matcher attract traffic again.
    served: Counter,
    /// Current depth of each dimension's queue, refreshed on the stats
    /// tick (the same cadence as the `(q, λ, µ)` load reports).
    queue_depth: Vec<Gauge>,
    /// Logical subscription copies held (what the forwarding contract
    /// owes), refreshed on the stats tick.
    subs_logical: Gauge,
    /// Physical index entries held — under a covering index this is the
    /// representative count, so `physical < logical` is the live signal
    /// that covering is engaged, and recovery tests can assert a
    /// restarted matcher rebuilds the same logical/physical split.
    subs_physical: Gauge,
    /// Syn → Ack round trip per gossip exchange, µs.
    gossip_round: Histogram,
    /// Time from first noticing a non-live peer until the failure
    /// detector sees full membership alive again, µs (the first
    /// observation is boot-to-converged).
    reconverge: Histogram,
}

impl MatcherTelemetry {
    fn register(shared: &Shared, id: MatcherId, dims: usize) -> Self {
        let r = &shared.telemetry;
        let by_matcher = vec![("matcher", id.0.to_string())];
        MatcherTelemetry {
            queue_wait: r.histogram(
                "bluedove_matcher_queue_wait_us",
                "FIFO-queue wait per served message, microseconds",
                &[],
            ),
            match_time: r.histogram(
                "bluedove_matcher_match_time_us",
                "matching time per served message, microseconds",
                &[],
            ),
            served: r.counter(
                "bluedove_matcher_served_total",
                "messages served, per matcher",
                &by_matcher,
            ),
            queue_depth: (0..dims)
                .map(|d| {
                    r.gauge(
                        "bluedove_matcher_queue_depth",
                        "current FIFO-queue depth, per matcher dimension",
                        &[("dim", d.to_string()), ("matcher", id.0.to_string())],
                    )
                })
                .collect(),
            subs_logical: r.gauge(
                "bluedove_matcher_subscriptions_logical",
                "logical subscription copies held, per matcher",
                &by_matcher,
            ),
            subs_physical: r.gauge(
                "bluedove_matcher_subscriptions_physical",
                "physical index entries held (covering representatives), per matcher",
                &by_matcher,
            ),
            gossip_round: r.histogram(
                "bluedove_gossip_round_us",
                "Syn to Ack round trip per gossip exchange, microseconds",
                &[],
            ),
            reconverge: r.histogram(
                "bluedove_membership_reconverge_us",
                "non-live peer noticed to full membership alive again, microseconds",
                &[],
            ),
        }
    }
}

/// The threaded [`MatcherPort`] — the matcher's outbound side:
/// deliveries, acks and sub-log frames go out over the real transport;
/// duplicates and sub-log counts land on the shared counters.
///
/// With batching on, `Deliver` and `MatchAck` frames are staged in the
/// per-destination coalescer instead of sent; the node flushes lanes on
/// size, when it runs out of work, and on deadline. Delivery and ack
/// sends are already fire-and-forget on this host (a vanished subscriber
/// is not a matcher error, and a lost ack is recovered by the
/// dispatcher's retransmit ledger), so a flush failure needs no extra
/// signalling here.
struct HostPort {
    id: MatcherId,
    shared: Arc<Shared>,
    out: Outbox,
    /// Scratch for the subscriber address of the delivery being sent,
    /// reused across hits.
    addr: String,
}

impl HostPort {
    /// Sends what the coalescer released.
    fn send_flushes(&self, flushes: Vec<bluedove_engine::Flush<ControlMsg>>) {
        for flush in flushes {
            self.out.send_flush(flush);
        }
    }
}

impl MatcherPort for HostPort {
    fn deliver(
        &mut self,
        subscriber: SubscriberId,
        sub: SubscriptionId,
        msg: &Message,
        admitted_us: u64,
    ) {
        crate::shared::write_subscriber_addr(&mut self.addr, subscriber.0);
        if self.out.batcher.cfg().enabled() {
            // A staged frame outlives this call, so it owns its message.
            let deliver = ControlMsg::Deliver {
                subscriber,
                sub,
                msg: msg.clone(),
                admitted_us,
            };
            self.out.stage(&self.addr, deliver);
        } else {
            let mut frame = BytesMut::with_capacity(ControlMsg::deliver_len(msg));
            ControlMsg::encode_deliver(&mut frame, subscriber, sub, msg, admitted_us);
            let _ = self.out.transport.send(&self.addr, frame.freeze());
        }
        self.shared.counters.deliveries.inc();
    }

    fn ack(&mut self, ack_to: &str, msg_id: MessageId, actual_us: u64) {
        let ack = ControlMsg::MatchAck {
            msg_id,
            matcher: self.id,
            actual_us,
        };
        self.out.stage(ack_to, ack);
    }

    fn duplicate_suppressed(&mut self) {
        self.shared.counters.duplicates_suppressed.inc();
    }

    fn rejected(&mut self, kind: Rejected) {
        self.shared.counters.rejected(kind).inc();
    }

    /// Dead heirs are unbound, so their sends error.
    fn replicate(&mut self, to: MatcherId, append: &ReplicatedAppend<SubLogRecord>) -> bool {
        let msg = ControlMsg::SubLogAppend {
            append: append.clone(),
            fetch_from: matcher_addr(self.id),
        };
        let bytes = to_bytes(&msg).freeze();
        self.out.transport.send(&matcher_addr(to), bytes).is_ok()
    }

    fn forward(&mut self, to: MatcherId, stream: MatcherId, rec: SubLogRecord) {
        let frame = match rec {
            SubLogRecord::Store { dim, sub } => ControlMsg::StoreSub { dim, sub, stream },
            SubLogRecord::Remove { dim, sub } => ControlMsg::RemoveSub { dim, sub, stream },
            SubLogRecord::Retire { .. } => return,
        };
        self.out.send(&matcher_addr(to), &frame);
    }

    fn count(&mut self, what: SubLogCount, n: u64) {
        let c = &self.shared.counters;
        match what {
            SubLogCount::Appended => &c.sublog_appended,
            SubLogCount::Replicated => &c.sublog_replicated,
            SubLogCount::Fenced => &c.sublog_fenced,
            SubLogCount::Promoted => &c.sublog_promoted,
            SubLogCount::CaughtUp => &c.sublog_caught_up,
        }
        .add(n);
    }
}

/// The matcher's copy of the authoritative table (version 0 = none
/// installed yet); its members and leader book live in the engine.
#[derive(Default)]
struct TableCopy {
    version: u64,
    strategy: Option<bluedove_baselines::AnyStrategy>,
}

/// Longest the matcher blocks whatever its timers say (bounds how late
/// a crash flag or a finished leave is noticed).
const MAX_WAIT: Duration = Duration::from_millis(20);

/// One matcher's run-loop state. All times are host-clock seconds
/// ([`Shared::now`]).
struct Matcher {
    cfg: MatcherNodeConfig,
    engine: MatcherEngine<Log<SubLogRecord>>,
    telemetry: MatcherTelemetry,
    port: HostPort,
    /// Scratch for the hits of the job being served.
    hits: Vec<MatchHit>,
    /// The §III-C gossip endpoint: this matcher's own versioned state
    /// plus everything it has heard about the rest of the overlay.
    gossip: GossipNode,
    gossip_rng: StdRng,
    /// Syn send times awaiting their Ack, keyed by peer address.
    pending_syns: HashMap<String, Time>,
    /// When the failure detector last started seeing a non-live peer; the
    /// initial value times boot → first full convergence.
    diverged_since: Option<Time>,
    last_gossip_bytes: u64,
    /// The authoritative table (installed from a `TableState`) that
    /// dispatchers pull from this matcher (§III-C).
    table: TableCopy,
    stats_interval: Time,
    gossip_interval: Time,
    next_stats: Time,
    next_gossip: Time,
    /// Set when a `Leave` arrives: the matcher is draining toward exit.
    leaving_since: Option<Time>,
}

impl Matcher {
    fn new(cfg: MatcherNodeConfig, shared: Arc<Shared>, transport: Arc<dyn Transport>) -> Self {
        let (mlog, replayed) = match cfg.sublog.clone() {
            Some(slc) => {
                let (ml, replayed) =
                    crate::sublog::open(cfg.id, slc).expect("open subscription log");
                shared.counters.sublog_replayed.add(replayed.len() as u64);
                (Some(ml), replayed)
            }
            None => (None, Vec::new()),
        };
        let (space, index) = (shared.space.clone(), cfg.engine.index);
        let engine = MatcherEngine::with_log(cfg.id, space, index, DEDUP_WINDOW, mlog);
        let now = shared.now();
        let mut gossip = GossipNode::new(EndpointState::new(
            NodeId(cfg.id.0 as u64),
            NodeRole::Matcher,
            cfg.addr.clone(),
            cfg.generation,
        ));
        for seed in &cfg.gossip_seeds {
            if seed.node != gossip.id() {
                gossip.learn(seed.clone(), now);
            }
        }
        let stats_interval = cfg.stats_interval.as_secs_f64();
        let gossip_interval = cfg.gossip_interval.as_secs_f64();
        let mut matcher = Matcher {
            engine,
            telemetry: MatcherTelemetry::register(&shared, cfg.id, shared.space.k()),
            port: HostPort {
                id: cfg.id,
                out: Outbox {
                    transport,
                    metrics: BatchMetrics::register(&shared.telemetry, "matcher"),
                    batcher: Coalescer::new(cfg.engine.batch),
                    now,
                },
                addr: String::new(),
                shared,
            },
            hits: Vec::new(),
            gossip,
            gossip_rng: StdRng::seed_from_u64(0x60551 ^ cfg.id.0 as u64),
            pending_syns: HashMap::new(),
            diverged_since: Some(now),
            last_gossip_bytes: 0,
            table: TableCopy::default(),
            stats_interval,
            gossip_interval,
            next_stats: now + stats_interval,
            next_gossip: now + gossip_interval,
            leaving_since: None,
            cfg,
        };
        // Local-log-first recovery: replay the matcher's own durable
        // stream into the fresh engine before the inbox drains, so state
        // the log already holds is never re-shipped (and never served
        // stale).
        for rec in &replayed {
            matcher.engine.apply(rec, &mut matcher.port);
        }
        matcher
    }

    /// Periodic anti-entropy gossip: heartbeat, then open an exchange
    /// with log₂(N) random live peers.
    fn gossip_round(&mut self, now: Time) {
        self.gossip.heartbeat();
        for t in self.gossip.pick_targets(&mut self.gossip_rng) {
            let Some(peer) = self.gossip.peers().get(&t).map(|p| p.state.addr.clone()) else {
                continue;
            };
            let wire = ControlMsg::Gossip {
                from_addr: self.cfg.addr.clone(),
                msg: self.gossip.make_syn(),
            };
            if self.port.out.send(&peer, &wire) {
                // Time the exchange; the Ack handler observes the round
                // trip. A re-Syn to the same peer restarts the clock (the
                // earlier exchange is lost anyway).
                self.pending_syns.insert(peer, now);
            }
        }
        // Exchanges whose peer never answered within a few rounds are
        // dead, not slow: drop them so the map stays bounded.
        let stale = self.gossip_interval * 8.0;
        self.pending_syns.retain(|_, t0| now - *t0 < stale);
        bluedove_overlay::sweep(&mut self.gossip, &self.cfg.failure_detector, now);
        // Convergence timing: the detector disagreeing with full
        // membership opens a divergence window; seeing everyone alive
        // again closes it.
        let (peers, live) = (self.gossip.peers().len(), self.gossip.live_peers().len());
        if live < peers {
            self.diverged_since.get_or_insert(now);
        } else if let Some(t0) = self.diverged_since.take() {
            self.telemetry
                .reconverge
                .observe_us(((now - t0) * 1e6) as u64);
        }
        let shared = &self.port.shared;
        let sent = self.gossip.bytes_sent;
        shared
            .counters
            .gossip_bytes
            .add(sent - self.last_gossip_bytes);
        self.last_gossip_bytes = sent;
        shared.gossip_peers.write().insert(self.cfg.id, peers);
        shared.gossip_live.write().insert(self.cfg.id, live);
        self.next_gossip += self.gossip_interval;
    }

    /// Periodic load reports: one frame per dimension, or — with batching
    /// on — the whole per-matcher snapshot as one frame per destination
    /// (the paper's k reports ride one send). Then sub-log compaction.
    fn report_load(&mut self, now: Time) {
        let k = self.port.shared.space.k();
        self.telemetry
            .subs_logical
            .set(self.engine.total_subs() as i64);
        self.telemetry
            .subs_physical
            .set(self.engine.total_physical_subs() as i64);
        let mut reports = Vec::with_capacity(k);
        for d in 0..k {
            let dim = DimIdx(d as u16);
            self.telemetry.queue_depth[d].set(self.engine.queue_len(dim) as i64);
            reports.push(ControlMsg::LoadReport {
                matcher: self.cfg.id,
                dim,
                stats: self.engine.stats_report(dim, now),
            });
        }
        let batched = self.cfg.engine.batch.enabled();
        let frames = if batched {
            vec![flush_frame(reports)]
        } else {
            reports
        };
        let frames: Vec<Bytes> = frames.iter().map(|f| to_bytes(f).freeze()).collect();
        let dispatchers = self.port.shared.dispatcher_addrs.read().clone();
        let observers = self.port.shared.load_observers.read().clone();
        for addr in dispatchers.iter().chain(observers.iter()) {
            if batched {
                self.port.out.metrics.record(k, FlushReason::Explicit);
            }
            for frame in &frames {
                let _ = self.port.out.transport.send(addr, frame.clone());
            }
        }
        // Sub-log compaction, once the own stream has accumulated enough
        // appends.
        let appended = self.engine.log().map(|l| l.own().journal().appended());
        if appended >= Some(crate::sublog::SUBLOG_COMPACT_THRESHOLD) {
            self.engine.compact(&mut self.port);
        }
        self.next_stats += self.stats_interval;
    }
}

impl Node for Matcher {
    fn handle(&mut self, now: Time, msg: ControlMsg) -> Step {
        match msg {
            ControlMsg::StoreSub { dim, sub, stream } => {
                let rec = SubLogRecord::Store { dim, sub };
                if self.engine.write(rec, stream, &mut self.port) {
                    self.port.shared.counters.stored_copies.inc();
                }
            }
            ControlMsg::RemoveSub { dim, sub, stream } => {
                let rec = SubLogRecord::Remove { dim, sub };
                self.engine.write(rec, stream, &mut self.port);
            }
            ControlMsg::MatchMsg {
                dim,
                msg,
                admitted_us,
                ack_to,
            } => {
                self.port.out.now = now;
                self.engine
                    .on_match_msg(now, dim, msg, admitted_us, ack_to, &mut self.port);
            }
            ControlMsg::HandOver {
                dim,
                range,
                to,
                reply_to,
            } => {
                let moved = self.engine.hand_over(dim, &range, to, &mut self.port) as u64;
                self.port
                    .out
                    .send(&reply_to, &ControlMsg::HandOverDone { dim, moved });
            }
            ControlMsg::Retire { dim, range, keep } => {
                let rec = SubLogRecord::Retire { dim, range, keep };
                self.engine.write(rec, self.cfg.id, &mut self.port);
            }
            ControlMsg::Prune => {
                if let Some(strategy) = &self.table.strategy {
                    self.engine.prune(strategy, &mut self.port);
                }
            }
            ControlMsg::TableState {
                version,
                strategy: Some(strategy),
                addrs,
                leaders,
            } if version > self.table.version => {
                self.table = TableCopy {
                    version,
                    strategy: Some(strategy),
                };
                let live = addrs.into_iter().map(|(m, _)| m).collect();
                self.engine.on_table(leaders, live, &mut self.port);
                // Announce the new table version on the gossip mesh too.
                self.gossip.set_segments_version(version);
            }
            ControlMsg::TablePull { reply_to } => {
                let live = self.engine.live().iter();
                let state = ControlMsg::TableState {
                    version: self.table.version,
                    strategy: self.table.strategy.clone(),
                    addrs: live.map(|&m| (m, matcher_addr(m))).collect(),
                    leaders: self.engine.leaders().to_vec(),
                };
                self.port.out.send(&reply_to, &state);
            }
            ControlMsg::TelemetryPull { reply_to } => {
                // Render the process-wide registry and ship it back — the
                // wire hop is what an external scraper would exercise.
                let text = self.port.shared.telemetry.render();
                self.port
                    .out
                    .send(&reply_to, &ControlMsg::TelemetryText { text });
            }
            ControlMsg::Gossip { from_addr, msg } => {
                let reply = match &msg {
                    GossipMsg::Syn { .. } => Some(self.gossip.handle_syn(&msg, now)),
                    GossipMsg::Ack { .. } => {
                        // The Ack closes the exchange this matcher's Syn
                        // opened: that round trip is the gossip round
                        // latency.
                        if let Some(t0) = self.pending_syns.remove(&from_addr) {
                            self.telemetry
                                .gossip_round
                                .observe_us(((now - t0) * 1e6) as u64);
                        }
                        Some(self.gossip.handle_ack(&msg, now))
                    }
                    GossipMsg::Ack2 { .. } => {
                        self.gossip.handle_ack2(&msg, now);
                        None
                    }
                };
                if let Some(reply) = reply {
                    let wire = ControlMsg::Gossip {
                        from_addr: self.cfg.addr.clone(),
                        msg: reply,
                    };
                    self.port.out.send(&from_addr, &wire);
                }
            }
            // A hole before the append is fetched from its sender.
            ControlMsg::SubLogAppend { append, fetch_from } => {
                if let Some(from) = self.engine.on_append(&append, &mut self.port) {
                    let fetch = ControlMsg::SubLogFetch {
                        stream: append.stream,
                        from,
                        reply_to: self.cfg.addr.clone(),
                        step_down: false,
                    };
                    self.port.out.send(&fetch_from, &fetch);
                }
            }
            ControlMsg::SubLogFetch {
                stream,
                from,
                reply_to,
                step_down,
            } => {
                if let Some(append) = self.engine.serve(stream, from, step_down) {
                    let fetch_from = self.cfg.addr.clone();
                    let msg = ControlMsg::SubLogAppend { append, fetch_from };
                    self.port.out.send(&reply_to, &msg);
                }
            }
            ControlMsg::SubLogPromote { stream, epoch } => {
                self.engine.promote(stream, epoch, &mut self.port);
            }
            // The copy of this matcher's own stream its interim leader
            // served, queued on the bound inbox ahead of any publication.
            ControlMsg::SubLogInstall { epoch, served } => {
                self.engine.install(epoch, &served, &mut self.port);
            }
            // Begin a graceful leave: announce `Leaving` on the overlay
            // (spread on the next pass), serve out the backlog, then exit
            // once the announcement has had time to spread.
            ControlMsg::Leave => {
                self.gossip.announce_leaving();
                self.leaving_since.get_or_insert(now);
                self.next_gossip = self.next_gossip.min(now);
            }
            ControlMsg::Shutdown => return Step::Exit,
            // Messages not addressed to matchers are ignored defensively.
            _ => {}
        }
        Step::Continue
    }

    /// Serves one queued message (round-robin across dimensions): pop,
    /// measure the real match time around the engine's match phase, feed
    /// the measurement into µ, then let the engine emit the deliveries
    /// and the ack.
    fn serve(&mut self, now: Time) -> bool {
        let Some(job) = self.engine.begin_service(now) else {
            return false;
        };
        self.telemetry
            .queue_wait
            .observe_us((job.waited * 1e6) as u64);
        self.hits.clear();
        let started = Instant::now();
        self.engine.run_match(&job, now, &mut self.hits);
        let match_elapsed = started.elapsed();
        let match_secs = match_elapsed.as_secs_f64();
        self.engine.record_service(job.dim, match_secs);
        self.telemetry
            .match_time
            .observe_us(match_elapsed.as_micros() as u64);
        if !self.hits.is_empty() {
            self.port.shared.counters.matched.inc();
        }
        self.port.out.now = now + match_secs;
        self.engine
            .complete(job, &self.hits, match_secs, &mut self.port);
        self.telemetry.served.inc();
        true
    }

    fn timer_due(&self, now: Time) -> bool {
        now >= self.next_stats
            || now >= self.next_gossip
            || self
                .port
                .out
                .batcher
                .next_deadline()
                .is_some_and(|d| d <= now)
    }

    /// Flushes — every lane when `idle`, and in any case the lanes whose
    /// oldest frame has waited `max_delay` (the bound for a matcher that
    /// never idles) — then the gossip round and the load reports when
    /// they are due.
    fn upkeep(&mut self, now: Time, idle: bool) {
        if idle {
            let flushes = self.port.out.batcher.drain_idle();
            self.port.send_flushes(flushes);
        }
        let flushes = self.port.out.batcher.poll(now);
        self.port.send_flushes(flushes);
        if now >= self.next_gossip {
            self.gossip_round(now);
        }
        if now >= self.next_stats {
            self.report_load(now);
        }
    }

    /// The inbox and the queues are empty, so sending what is staged is
    /// the only useful work left; then block until the next periodic
    /// tick. A leaving matcher exits here once the Leaving announcement
    /// has had a couple of gossip rounds to spread (peers' sweeps turn
    /// Leaving into Dead immediately, so no failure-detection timeout is
    /// burned on an orderly exit).
    fn idle(&mut self, now: Time) -> Option<Duration> {
        self.upkeep(now, true);
        if let Some(t0) = self.leaving_since {
            if self.engine.is_idle() && now - t0 >= self.gossip_interval * 2.0 {
                return None;
            }
        }
        Some(wake_in(
            self.next_stats.min(self.next_gossip),
            now,
            MAX_WAIT,
        ))
    }

    /// Staged frames go out best-effort (the dispatcher's retransmit
    /// ledger recovers acked traffic a crash loses instead) and the
    /// sub-log reaches the disk.
    fn flush_all(&mut self) {
        let flushes = self.port.out.batcher.flush_all();
        self.port.send_flushes(flushes);
        for s in self.engine.log_mut().into_iter().flat_map(|l| l.iter_mut()) {
            let _ = s.journal_mut().sync();
        }
    }
}
