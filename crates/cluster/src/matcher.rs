//! The matcher node: a threaded host around the sans-IO [`MatcherEngine`].
//!
//! Mirrors the paper's matcher design: one subscription set and one FIFO
//! queue per dimension, round-robin service across dimensions, periodic
//! `(q, λ, µ)` load reports pushed to every dispatcher (§III-B), and
//! direct delivery to subscriber endpoints (§II-B). The queues, dedup
//! windows and service order live in `bluedove_engine::MatcherEngine`;
//! this module supplies the transport, the real clock, measured match
//! times (fed into `record_service`), and the host-only subsystems the
//! engine stays out of: the §III-C gossip mesh, table copy/pull serving,
//! telemetry rendering, and the elastic hand-over legs.

use crate::batchio::{send_flush, stage_or_send, BatchMetrics};
use crate::proto::ControlMsg;
use crate::shared::Shared;
use crate::sublog::{FollowerOutcome, MatcherLog, ReplicatedAppend, SubLogRecord};
use bluedove_core::{
    DimIdx, IndexKind, MatchHit, MatcherId, Message, MessageId, SubscriberId, SubscriptionId, Time,
};
use bluedove_engine::{BatchCfg, Coalescer, MatcherEngine, MatcherPort};
use bluedove_net::{from_bytes_shared, to_bytes, Transport};
use bluedove_overlay::{EndpointState, GossipMsg, GossipNode, NodeId, NodeRole};
use bluedove_telemetry::{Counter, Gauge, Histogram};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{Receiver, RecvTimeoutError};
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
    /// Index structure per dimension set.
    pub index: IndexKind,
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
    /// Message ids remembered per dimension for duplicate suppression
    /// (dispatcher retransmissions make duplicates possible).
    pub dedup_window: usize,
    /// Hot-path coalescing knobs for outbound `Deliver`/`MatchAck`
    /// frames (`max_batch = 1` turns batching off).
    pub batch: BatchCfg,
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
            .spawn(move || run(cfg, shared, transport, rx, crash2))
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

/// The threaded [`MatcherPort`]: deliveries and acks go out over the real
/// transport; duplicates land on the shared counter.
///
/// With batching on, `Deliver` and `MatchAck` frames are staged in the
/// per-destination coalescer instead of sent; the run loop flushes lanes
/// on size, when it runs out of work, and on deadline. Delivery and ack
/// sends are already fire-and-forget on this host (a vanished subscriber
/// is not a matcher error, and a lost ack is recovered by the
/// dispatcher's retransmit ledger), so a flush failure needs no extra
/// signalling here.
struct HostPort<'a> {
    id: MatcherId,
    shared: &'a Arc<Shared>,
    transport: &'a Arc<dyn Transport>,
    /// Host-clock time of the step being served (the stage time of its
    /// deliveries and ack).
    now: Time,
    batcher: &'a mut Coalescer<ControlMsg>,
    batch_metrics: &'a BatchMetrics,
    /// Scratch for the subscriber address of the delivery being sent,
    /// reused across hits.
    addr: &'a mut String,
}

impl HostPort<'_> {
    /// Stages `frame` for `addr` when batching is on, sends it directly
    /// otherwise (or when the push filled the lane).
    fn stage(&mut self, addr: &str, frame: ControlMsg) {
        stage_or_send(
            self.transport.as_ref(),
            self.batch_metrics,
            self.batcher,
            self.now,
            addr,
            frame,
        );
    }
}

impl MatcherPort for HostPort<'_> {
    fn deliver(
        &mut self,
        subscriber: SubscriberId,
        sub: SubscriptionId,
        msg: &Message,
        admitted_us: u64,
    ) {
        crate::shared::write_subscriber_addr(self.addr, subscriber.0);
        if self.batcher.cfg().enabled() {
            // A staged frame outlives this call, so it owns its message.
            let deliver = ControlMsg::Deliver {
                subscriber,
                sub,
                msg: msg.clone(),
                admitted_us,
            };
            stage_or_send(
                self.transport.as_ref(),
                self.batch_metrics,
                self.batcher,
                self.now,
                self.addr,
                deliver,
            );
        } else {
            let mut frame = BytesMut::new();
            ControlMsg::encode_deliver(&mut frame, subscriber, sub, msg, admitted_us);
            let _ = self.transport.send(self.addr, frame.freeze());
        }
        self.shared.counters.deliveries.inc();
    }

    fn ack(&mut self, ack_to: &str, msg_id: MessageId, actual_us: u64) {
        let ack = ControlMsg::MatchAck {
            msg_id,
            matcher: self.id,
            actual_us,
        };
        self.stage(ack_to, ack);
    }

    fn duplicate_suppressed(&mut self) {
        self.shared.counters.duplicates_suppressed.inc();
    }
}

fn run(
    cfg: MatcherNodeConfig,
    shared: Arc<Shared>,
    transport: Arc<dyn Transport>,
    rx: Receiver<Bytes>,
    crash: Arc<AtomicBool>,
) {
    let k = shared.space.k();
    let mut engine = MatcherEngine::new(cfg.id, shared.space.clone(), cfg.index, cfg.dedup_window);
    // Local-log-first recovery: replay the matcher's own durable stream
    // into the fresh engine before the inbox drains, so state the log
    // already holds is never re-shipped (and never served stale).
    let mut mlog: Option<MatcherLog> = cfg.sublog.clone().map(|slc| {
        let (ml, replayed) = MatcherLog::open(cfg.id, slc).expect("open subscription log");
        shared.counters.sublog_replayed.add(replayed.len() as u64);
        for rec in &replayed {
            rec.apply(&mut engine);
        }
        ml
    });
    let mut next_stats = Instant::now() + cfg.stats_interval;
    let mut hits: Vec<MatchHit> = Vec::new();
    let mut deliver_addr = String::new();
    let telemetry = MatcherTelemetry::register(&shared, cfg.id, k);
    let batch_metrics = BatchMetrics::register(&shared.telemetry, "matcher");
    let mut batcher: Coalescer<ControlMsg> = Coalescer::new(cfg.batch);
    // Syn send times awaiting their Ack, keyed by peer address.
    let mut pending_syns: HashMap<String, Instant> = HashMap::new();
    // When the failure detector last started seeing a non-live peer; the
    // initial value times boot → first full convergence.
    let mut diverged_since: Option<Instant> = Some(Instant::now());

    // The §III-C gossip endpoint: this matcher's own versioned state plus
    // everything it has heard about the rest of the overlay.
    let mut gossip = GossipNode::new(EndpointState::new(
        NodeId(cfg.id.0 as u64),
        NodeRole::Matcher,
        cfg.addr.clone(),
        cfg.generation,
    ));
    for seed in &cfg.gossip_seeds {
        if seed.node != gossip.id() {
            gossip.learn(seed.clone(), shared.now());
        }
    }
    let mut gossip_rng = StdRng::seed_from_u64(0x60551 ^ cfg.id.0 as u64);
    let mut next_gossip = Instant::now() + cfg.gossip_interval;
    let mut last_gossip_bytes = 0u64;
    // The authoritative table (installed by TableUpdate) that dispatchers
    // pull from this matcher (§III-C).
    let mut table: TableCopy = TableCopy {
        version: 0,
        strategy: None,
        addrs: Vec::new(),
        epochs: Vec::new(),
    };
    // Set when a `Leave` arrives: the matcher is draining toward exit.
    let mut leaving_since: Option<Instant> = None;

    'outer: loop {
        if crash.load(Ordering::Relaxed) {
            break;
        }
        // Drain everything pending without blocking.
        while let Ok(payload) = rx.try_recv() {
            match handle(
                &cfg,
                &shared,
                &transport,
                &mut engine,
                &mut gossip,
                &mut table,
                &mut mlog,
                &telemetry,
                &mut pending_syns,
                &mut batcher,
                &batch_metrics,
                payload,
            ) {
                Step::Shutdown => break 'outer,
                Step::Leaving => {
                    gossip.announce_leaving();
                    leaving_since.get_or_insert_with(Instant::now);
                    // Spread the Leaving bit on the next pass.
                    next_gossip = next_gossip.min(Instant::now());
                }
                Step::Continue => {}
            }
        }
        let now = shared.now();
        // Deadline flushes for staged deliveries and acks: the bound for
        // a matcher that never idles.
        for flush in batcher.poll(now) {
            let _ = send_flush(transport.as_ref(), &batch_metrics, flush);
        }
        // Serve one queued message (round-robin across dimensions): pop,
        // measure the real match time around the engine's match phase,
        // feed the measurement into µ, then let the engine emit the
        // deliveries and the ack.
        let mut served = false;
        if let Some(job) = engine.begin_service(now) {
            telemetry.queue_wait.observe_us((job.waited * 1e6) as u64);
            hits.clear();
            let started = Instant::now();
            let _examined = engine.run_match(&job, now, &mut hits);
            let match_elapsed = started.elapsed();
            engine.record_service(job.dim, match_elapsed.as_secs_f64());
            telemetry
                .match_time
                .observe_us(match_elapsed.as_micros() as u64);
            if !hits.is_empty() {
                shared.counters.matched.inc();
            }
            let mut port = HostPort {
                id: cfg.id,
                shared: &shared,
                transport: &transport,
                now: now + match_elapsed.as_secs_f64(),
                batcher: &mut batcher,
                batch_metrics: &batch_metrics,
                addr: &mut deliver_addr,
            };
            engine.complete(job, &hits, match_elapsed.as_secs_f64(), &mut port);
            telemetry.served.inc();
            served = true;
        }
        if !served {
            // Idle: the inbox and the queues are empty, so sending what
            // is staged is the only useful work left. With nothing left
            // staged, block until the next message or periodic tick.
            for flush in batcher.drain_idle() {
                let _ = send_flush(transport.as_ref(), &batch_metrics, flush);
            }
            let timeout = next_stats
                .min(next_gossip)
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(20));
            match rx.recv_timeout(timeout) {
                Ok(payload) => {
                    match handle(
                        &cfg,
                        &shared,
                        &transport,
                        &mut engine,
                        &mut gossip,
                        &mut table,
                        &mut mlog,
                        &telemetry,
                        &mut pending_syns,
                        &mut batcher,
                        &batch_metrics,
                        payload,
                    ) {
                        Step::Shutdown => break 'outer,
                        Step::Leaving => {
                            gossip.announce_leaving();
                            leaving_since.get_or_insert_with(Instant::now);
                            next_gossip = next_gossip.min(Instant::now());
                        }
                        Step::Continue => {}
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break 'outer,
            }
        }
        // Periodic anti-entropy gossip: heartbeat, then open an exchange
        // with log₂(N) random live peers.
        if Instant::now() >= next_gossip {
            gossip.heartbeat();
            let now = shared.now();
            let targets = gossip.pick_targets(&mut gossip_rng);
            for t in targets {
                let Some(peer) = gossip.peers().get(&t).map(|p| p.state.addr.clone()) else {
                    continue;
                };
                let syn = gossip.make_syn();
                let wire = ControlMsg::Gossip {
                    from_addr: cfg.addr.clone(),
                    msg: syn,
                };
                if transport.send(&peer, to_bytes(&wire).freeze()).is_ok() {
                    // Time the exchange; the Ack handler observes the
                    // round trip. A re-Syn to the same peer restarts the
                    // clock (the earlier exchange is lost anyway).
                    pending_syns.insert(peer, Instant::now());
                }
            }
            // Exchanges whose peer never answered within a few rounds are
            // dead, not slow: drop them so the map stays bounded.
            let stale = cfg.gossip_interval * 8;
            pending_syns.retain(|_, t| t.elapsed() < stale);
            bluedove_overlay::sweep(&mut gossip, &cfg.failure_detector, now);
            // Convergence timing: the detector disagreeing with full
            // membership opens a divergence window; seeing everyone alive
            // again closes it.
            if gossip.live_peers().len() < gossip.peers().len() {
                diverged_since.get_or_insert(Instant::now());
            } else if let Some(t0) = diverged_since.take() {
                telemetry
                    .reconverge
                    .observe_us(t0.elapsed().as_micros() as u64);
            }
            let sent = gossip.bytes_sent;
            shared.counters.gossip_bytes.add(sent - last_gossip_bytes);
            last_gossip_bytes = sent;
            shared
                .gossip_peers
                .write()
                .insert(cfg.id, gossip.peers().len());
            shared
                .gossip_live
                .write()
                .insert(cfg.id, gossip.live_peers().len());
            next_gossip += cfg.gossip_interval;
        }
        // Periodic load reports: one frame per dimension, or — with
        // batching on — the whole per-matcher snapshot as one `Batch`
        // frame per destination (the paper's k reports ride one send).
        if Instant::now() >= next_stats {
            let now = shared.now();
            let dispatchers = shared.dispatcher_addrs.read().clone();
            let observers = shared.load_observers.read().clone();
            telemetry.subs_logical.set(engine.total_subs() as i64);
            telemetry
                .subs_physical
                .set(engine.total_physical_subs() as i64);
            let mut reports = Vec::with_capacity(k);
            for d in 0..k {
                let dim = DimIdx(d as u16);
                telemetry.queue_depth[d].set(engine.queue_len(dim) as i64);
                reports.push(ControlMsg::LoadReport {
                    matcher: cfg.id,
                    dim,
                    stats: engine.stats_report(dim, now),
                });
            }
            if cfg.batch.enabled() && reports.len() > 1 {
                let bytes = to_bytes(&ControlMsg::Batch(reports)).freeze();
                for addr in dispatchers.iter().chain(observers.iter()) {
                    batch_metrics.record(k, bluedove_engine::FlushReason::Explicit);
                    let _ = transport.send(addr, bytes.clone());
                }
            } else {
                for report in &reports {
                    let bytes = to_bytes(report).freeze();
                    for addr in dispatchers.iter().chain(observers.iter()) {
                        let _ = transport.send(addr, bytes.clone());
                    }
                }
            }
            // Sub-log compaction: once the own stream has accumulated
            // enough appends, squash its history to the engine's live
            // snapshot (re-stamped at the tail) and stream the result to
            // the heir so its replica compacts too.
            if let Some(ml) = mlog.as_mut() {
                if ml.own_appended() >= crate::sublog::SUBLOG_COMPACT_THRESHOLD {
                    let snap: Vec<SubLogRecord> = engine
                        .snapshot()
                        .into_iter()
                        .map(|(dim, sub)| SubLogRecord::Store { dim, sub })
                        .collect();
                    if let Ok(append) = ml.compact_own(snap) {
                        replicate(&cfg, &transport, &table, append);
                    }
                }
            }
            next_stats += cfg.stats_interval;
        }
        // A leaving matcher exits once its inbox and queues are drained
        // and the Leaving announcement has had a couple of gossip rounds
        // to spread (peers' sweeps turn Leaving into Dead immediately, so
        // no failure-detection timeout is burned on an orderly exit).
        if let Some(t0) = leaving_since {
            if engine.is_idle() && rx.is_empty() && t0.elapsed() >= cfg.gossip_interval * 2 {
                break 'outer;
            }
        }
    }
    // Orderly exit (shutdown or leave): staged frames go out best-effort.
    // A simulated crash loses them, exactly as a real crash would — the
    // dispatcher's retransmit ledger recovers acked traffic.
    if !crash.load(Ordering::Relaxed) {
        for flush in batcher.flush_all() {
            let _ = send_flush(transport.as_ref(), &batch_metrics, flush);
        }
        if let Some(ml) = mlog.as_mut() {
            let _ = ml.sync_all();
        }
    }
}

/// The matcher's copy of the authoritative table + address book.
struct TableCopy {
    version: u64,
    strategy: Option<bluedove_baselines::AnyStrategy>,
    addrs: Vec<(MatcherId, String)>,
    /// Sub-log leader epochs per stream, as of `version`.
    epochs: Vec<(MatcherId, u64)>,
}

/// What the serve loop should do after one control message.
enum Step {
    /// Keep serving.
    Continue,
    /// Stop immediately (orderly `Shutdown`).
    Shutdown,
    /// Begin a graceful leave: announce `Leaving` on the overlay, serve
    /// out the backlog, then exit once the announcement has spread.
    Leaving,
}

/// Handles one received frame, unwrapping coalesced batches.
#[allow(clippy::too_many_arguments)]
fn handle(
    cfg: &MatcherNodeConfig,
    shared: &Arc<Shared>,
    transport: &Arc<dyn Transport>,
    engine: &mut MatcherEngine,
    gossip: &mut GossipNode,
    table: &mut TableCopy,
    mlog: &mut Option<MatcherLog>,
    telemetry: &MatcherTelemetry,
    pending_syns: &mut HashMap<String, Instant>,
    batcher: &mut Coalescer<ControlMsg>,
    batch_metrics: &BatchMetrics,
    payload: Bytes,
) -> Step {
    // Zero-copy decode: `MatchMsg` payloads stay windows into the
    // received frame's allocation through matching and delivery staging.
    let Ok(msg) = from_bytes_shared::<ControlMsg>(payload) else {
        return Step::Continue; // corrupt frame: drop, keep serving
    };
    match msg {
        ControlMsg::Batch(inner) => {
            for m in inner {
                match handle_msg(
                    cfg,
                    shared,
                    transport,
                    engine,
                    gossip,
                    table,
                    mlog,
                    telemetry,
                    pending_syns,
                    batcher,
                    batch_metrics,
                    m,
                ) {
                    Step::Continue => {}
                    step => return step,
                }
            }
            Step::Continue
        }
        m => handle_msg(
            cfg,
            shared,
            transport,
            engine,
            gossip,
            table,
            mlog,
            telemetry,
            pending_syns,
            batcher,
            batch_metrics,
            m,
        ),
    }
}

/// Handles one control message.
#[allow(clippy::too_many_arguments)]
fn handle_msg(
    cfg: &MatcherNodeConfig,
    shared: &Arc<Shared>,
    transport: &Arc<dyn Transport>,
    engine: &mut MatcherEngine,
    gossip: &mut GossipNode,
    table: &mut TableCopy,
    mlog: &mut Option<MatcherLog>,
    telemetry: &MatcherTelemetry,
    pending_syns: &mut HashMap<String, Instant>,
    batcher: &mut Coalescer<ControlMsg>,
    batch_metrics: &BatchMetrics,
    msg: ControlMsg,
) -> Step {
    match msg {
        ControlMsg::StoreSub { dim, sub } => {
            if let Some(ml) = mlog.as_mut() {
                let rec = SubLogRecord::Store {
                    dim,
                    sub: sub.clone(),
                };
                // A copy that failed over here because its assigned owner
                // is dead also belongs on the owner's stream, so the
                // owner's eventual catch-up includes its downtime
                // mutations. Detectable exactly when this matcher leads
                // the owner's stream.
                if let Some(strategy) = &table.strategy {
                    for a in strategy.as_dyn().assign(&sub) {
                        if a.dim == dim && a.matcher != cfg.id && ml.leads(a.matcher) {
                            let _ = ml.log_promoted(a.matcher, rec.clone());
                        }
                    }
                }
                log_mutation(cfg, shared, transport, table, ml, rec);
            }
            engine.insert(dim, sub);
            shared.counters.stored_copies.inc();
        }
        ControlMsg::RemoveSub { dim, sub } => {
            if let Some(ml) = mlog.as_mut() {
                log_mutation(
                    cfg,
                    shared,
                    transport,
                    table,
                    ml,
                    SubLogRecord::Remove { dim, sub },
                );
            }
            engine.remove(dim, sub);
        }
        ControlMsg::MatchMsg {
            dim,
            msg,
            admitted_us,
            ack_to,
        } => {
            let now = shared.now();
            let mut port = HostPort {
                id: cfg.id,
                shared,
                transport,
                now,
                batcher,
                batch_metrics,
                // Admission stages no delivery; the scratch stays empty.
                addr: &mut String::new(),
            };
            engine.on_match_msg(now, dim, msg, admitted_us, ack_to, &mut port);
        }
        ControlMsg::HandOver {
            dim,
            range,
            to_addr,
            reply_to,
        } => {
            // Move the overlapping copies to the new matcher, but keep
            // serving local copies until the Retire arrives (routing may
            // still point here).
            let moved = engine.extract_overlapping(dim, &range);
            let count = moved.len() as u64;
            for sub in moved {
                let store = ControlMsg::StoreSub {
                    dim,
                    sub: sub.clone(),
                };
                let _ = transport.send(&to_addr, to_bytes(&store).freeze());
                engine.insert(dim, sub);
            }
            let done = ControlMsg::HandOverDone { dim, moved: count };
            let _ = transport.send(&reply_to, to_bytes(&done).freeze());
        }
        ControlMsg::Retire { dim, range, keep } => {
            if let Some(ml) = mlog.as_mut() {
                log_mutation(
                    cfg,
                    shared,
                    transport,
                    table,
                    ml,
                    SubLogRecord::Retire {
                        dim,
                        range,
                        keep: keep.clone(),
                    },
                );
            }
            engine.retire(dim, &range, &keep);
        }
        ControlMsg::TableUpdate {
            version,
            strategy,
            addrs,
            epochs,
        } if version > table.version => {
            table.version = version;
            table.strategy = Some(strategy);
            table.addrs = addrs;
            table.epochs = epochs;
            // Announce the new table version on the gossip mesh too.
            gossip.set_segments_version(version);
        }
        ControlMsg::TablePull { reply_to } => {
            let state = ControlMsg::TableState {
                version: table.version,
                strategy: table.strategy.clone(),
                addrs: table.addrs.clone(),
                epochs: table.epochs.clone(),
            };
            let _ = transport.send(&reply_to, to_bytes(&state).freeze());
        }
        ControlMsg::TelemetryPull { reply_to } => {
            // Render the process-wide registry and ship it back — the
            // wire hop is what an external scraper would exercise.
            let text = shared.telemetry.render();
            let reply = ControlMsg::TelemetryText { text };
            let _ = transport.send(&reply_to, to_bytes(&reply).freeze());
        }
        ControlMsg::Gossip { from_addr, msg } => {
            let now = shared.now();
            let reply = match &msg {
                GossipMsg::Syn { .. } => Some(gossip.handle_syn(&msg, now)),
                GossipMsg::Ack { .. } => {
                    // The Ack closes the exchange this matcher's Syn
                    // opened: that round trip is the gossip round latency.
                    if let Some(t0) = pending_syns.remove(&from_addr) {
                        telemetry
                            .gossip_round
                            .observe_us(t0.elapsed().as_micros() as u64);
                    }
                    Some(gossip.handle_ack(&msg, now))
                }
                GossipMsg::Ack2 { .. } => {
                    gossip.handle_ack2(&msg, now);
                    None
                }
            };
            if let Some(reply) = reply {
                let wire = ControlMsg::Gossip {
                    from_addr: cfg.addr.clone(),
                    msg: reply,
                };
                let _ = transport.send(&from_addr, to_bytes(&wire).freeze());
            }
        }
        ControlMsg::SubLogAppend {
            stream,
            epoch,
            base,
            offset,
            reset,
            records,
            ack_to,
        } => {
            if let Some(ml) = mlog.as_mut() {
                let append = ReplicatedAppend {
                    stream,
                    epoch,
                    base,
                    offset,
                    reset,
                    records,
                };
                match ml.follower_accept(stream, &append) {
                    Ok(FollowerOutcome::Acked {
                        epoch,
                        next_offset,
                        stored,
                    }) => {
                        shared.counters.sublog_replicated.add(stored);
                        let ack = ControlMsg::SubLogAck {
                            stream,
                            follower: cfg.id,
                            epoch,
                            offset: next_offset,
                        };
                        let _ = transport.send(&ack_to, to_bytes(&ack).freeze());
                    }
                    Ok(FollowerOutcome::NeedFetch { from }) => {
                        // A hole precedes this append: pull the missing
                        // prefix from the leader before acking anything.
                        let fetch = ControlMsg::SubLogFetch {
                            stream,
                            from,
                            reply_to: cfg.addr.clone(),
                        };
                        let _ = transport.send(&ack_to, to_bytes(&fetch).freeze());
                    }
                    Ok(FollowerOutcome::Fenced { .. }) => {
                        // The sender was deposed; dropping its append (and
                        // never acking) is the fence.
                        shared.counters.sublog_fenced.inc();
                    }
                    Err(_) => {}
                }
            }
        }
        ControlMsg::SubLogAck {
            stream,
            follower,
            epoch,
            offset,
        } => {
            if let Some(ml) = mlog.as_mut() {
                ml.record_ack(stream, follower, epoch, offset, shared.now());
            }
        }
        ControlMsg::SubLogFetch {
            stream,
            from,
            reply_to,
        } => {
            if let Some(ml) = mlog.as_ref() {
                if let Some(app) = ml.serve(stream, from) {
                    let msg = ControlMsg::SubLogAppend {
                        stream: app.stream,
                        epoch: app.epoch,
                        base: app.base,
                        offset: app.offset,
                        reset: app.reset,
                        records: app.records,
                        ack_to: cfg.addr.clone(),
                    };
                    let _ = transport.send(&reply_to, to_bytes(&msg).freeze());
                }
            }
        }
        ControlMsg::SubLogPromote { stream, epoch } => {
            if let Some(ml) = mlog.as_mut() {
                if let Ok(replay) = ml.promote(stream, epoch) {
                    if !replay.is_empty() {
                        // Failover as log replay — but through a scratch
                        // engine: the dead owner's Retire records carry
                        // *its* keep ranges, which applied to the live
                        // engine would delete this matcher's own
                        // overlapping copies. The scratch's final snapshot
                        // is adopted and journaled on this matcher's own
                        // stream, so the inherited copies survive a later
                        // crash of the heir itself.
                        let mut scratch = MatcherEngine::new(
                            cfg.id,
                            shared.space.clone(),
                            cfg.index,
                            cfg.dedup_window,
                        );
                        for rec in &replay {
                            rec.apply(&mut scratch);
                        }
                        let inherited = scratch.snapshot();
                        shared.counters.sublog_promoted.add(inherited.len() as u64);
                        for (dim, sub) in inherited {
                            log_mutation(
                                cfg,
                                shared,
                                transport,
                                table,
                                ml,
                                SubLogRecord::Store {
                                    dim,
                                    sub: sub.clone(),
                                },
                            );
                            engine.remove(dim, sub.id);
                            engine.insert(dim, sub);
                        }
                    }
                }
            }
        }
        ControlMsg::SubLogDemote { stream } => {
            if let Some(ml) = mlog.as_mut() {
                ml.demote(stream);
            }
        }
        // Only meaningful for this matcher's own stream: the history its
        // heir accumulated while it was down, queued on the bound inbox
        // ahead of any publication. The records are this matcher's own
        // (its keep ranges, its copies), so they apply to the live engine
        // directly.
        ControlMsg::SubLogInstall {
            stream,
            epoch,
            records,
        } if stream == cfg.id => {
            if let Some(ml) = mlog.as_mut() {
                if ml.install(epoch, &records).is_ok() {
                    shared.counters.sublog_caught_up.add(records.len() as u64);
                    for rec in &records {
                        rec.apply(engine);
                    }
                }
            }
        }
        ControlMsg::Leave => return Step::Leaving,
        ControlMsg::Shutdown => return Step::Shutdown,
        // Messages not addressed to matchers are ignored defensively.
        _ => {}
    }
    Step::Continue
}

/// Journals one mutation on this matcher's own stream and streams it to
/// the clockwise heir. Called *before* the engine mutation, so the
/// durable log is never behind the served state. A failed append keeps
/// the matcher serving from memory; recovery then degrades to the
/// registry re-ship path.
fn log_mutation(
    cfg: &MatcherNodeConfig,
    shared: &Arc<Shared>,
    transport: &Arc<dyn Transport>,
    table: &TableCopy,
    ml: &mut MatcherLog,
    rec: SubLogRecord,
) {
    if let Ok(append) = ml.log_own(rec) {
        shared.counters.sublog_appended.inc();
        replicate(cfg, transport, table, append);
    }
}

/// Sends one stamped append to the first reachable clockwise heir in
/// the table's address book (sorted by id, wrapping, skipping self).
/// Dead heirs are unbound, so their sends error and the next candidate
/// is tried; with no table installed yet there is no heir to stream to.
fn replicate(
    cfg: &MatcherNodeConfig,
    transport: &Arc<dyn Transport>,
    table: &TableCopy,
    append: ReplicatedAppend,
) {
    let mut ring: Vec<&(MatcherId, String)> = table.addrs.iter().collect();
    ring.sort_by_key(|e| e.0);
    let Some(pos) = ring.iter().position(|e| e.0 == cfg.id) else {
        return;
    };
    let msg = ControlMsg::SubLogAppend {
        stream: append.stream,
        epoch: append.epoch,
        base: append.base,
        offset: append.offset,
        reset: append.reset,
        records: append.records,
        ack_to: cfg.addr.clone(),
    };
    let bytes = to_bytes(&msg).freeze();
    for i in 1..ring.len() {
        let addr = &ring[(pos + i) % ring.len()].1;
        if transport.send(addr, bytes.clone()).is_ok() {
            return;
        }
    }
}
