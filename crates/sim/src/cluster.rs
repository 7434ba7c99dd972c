//! The simulated BlueDove deployment: the discrete-event host around the
//! shared sans-IO engines.
//!
//! The simulator realizes the paper's testbed as a deterministic
//! discrete-event system, but all *decisions* — candidate choice,
//! fail-over, the at-least-once ledger and its retransmit schedule,
//! dedup, round-robin queue service — live in `bluedove_engine`'s
//! [`DispatcherEngine`] and [`MatcherEngine`], the same state machines
//! the threaded cluster runs. This module supplies only what the engines
//! deliberately lack: virtual time, event-queue "transport" (a send is an
//! event scheduled `net_latency` later), and the linear-scan cost model
//! `match_base + match_per_sub × examined` standing in for measured match
//! time (the model the paper's scalability reasoning is built on).
//!
//! Host-side division of labour:
//! - subscriptions are placed by the dispatcher engine, as on the
//!   threaded cluster, and each `StoreSub`/`RemoveSub` it sends is
//!   applied at its matcher at once (the paper's pre-load phase is
//!   instantaneous), so those frames never ride the simulated wire — but
//!   every copy a matcher gains, loses or retires is the engine's
//!   `SubLogRecord`, written through the same engine call the threaded
//!   matcher makes, which (with replication on) also journals and
//!   replicates it;
//! - the dispatcher tier is one shared [`DispatcherEngine`] (the real
//!   dispatchers broadcast reports, so every front-end sees identical
//!   state at identical staleness), routing by the table it was last
//!   handed — segment-table propagation lag is modelled by delaying the
//!   `TableUpdate` event, failure detection by delaying `MatcherDown`;
//! - membership, the authoritative table and its versions, the
//!   stream-leader book and the autoscaler belong to the engine's
//!   [`ControlEngine`]; the simulator executes its join/leave/crash plans
//!   at once through the matcher engine's `hand_over` / `write` /
//!   `promote`, hands every live matcher the new members and leader book
//!   at once (as the threaded orchestrator pushes its table), and runs
//!   `TableSwitch` (donors retire the moved ranges) and `Decommission`
//!   events;
//! - with replication on, every sub-log frame a matcher engine sends is
//!   a `Repl*` event one network hop later.

use crate::config::SimConfig;
use crate::events::EventQueue;
use crate::metrics::Metrics;
use bluedove_core::{
    AttributeSpace, DimIdx, DimStats, ForwardingPolicy, MatchHit, MatcherId, Message, MessageId,
    SubLogRecord, SubscriberId, Subscription, SubscriptionId, Time,
};
use bluedove_engine::{
    AutoscalerConfig, Coalescer, ControlEngine, DispatcherEffect, DispatcherEngine,
    DispatcherEngineConfig, DispatcherEvent, DispatcherOut, DispatcherPort, Epoch, Flush,
    LoadSnapshot, MatcherEngine, MatcherPort, Move, ReplicatedAppend, ReplicatedStream, ScaleError,
    ScaleOutcome, ScalePlan, ServiceJob, StreamSet, SubLogCount, DEDUP_WINDOW,
};
use bluedove_workload::MessageGenerator;
use std::collections::{HashMap, HashSet};

/// Which partition strategy the deployment runs (the three systems of
/// Figure 6). Re-exported from `bluedove-baselines` so the simulator and
/// the threaded cluster share one definition.
pub use bluedove_baselines::AnyStrategy as Strategy;

/// The `ack_to` marker stamped on acked forwards. The simulated
/// dispatcher tier is a single shared engine, so the "address" only needs
/// to be non-empty (the matcher engine treats an empty `ack_to` as
/// fire-and-forget).
const DISPATCHER_ADDR: &str = "dispatcher";

/// One simulated matcher server: the shared engine — with replication
/// on, over in-memory streams — plus the two bits of host state the
/// engine deliberately has no concept of: whether the single server is
/// mid-service, and whether the process is alive.
struct SimMatcher {
    engine: MatcherEngine,
    busy: bool,
    alive: bool,
}

impl SimMatcher {
    fn new(id: MatcherId, space: &AttributeSpace, cfg: &SimConfig, replicated: bool) -> Self {
        let (index, log) = (cfg.engine.index, replicated.then(|| own_streams(id)));
        SimMatcher {
            engine: MatcherEngine::with_log(id, space.clone(), index, DEDUP_WINDOW, log),
            busy: false,
            alive: true,
        }
    }
}

/// Matcher `id`'s stream set: its own stream, led at epoch 1; others
/// start empty.
fn own_streams(id: MatcherId) -> StreamSet<SubLogRecord> {
    let empty = |s| ReplicatedStream::follower(s, 0, Vec::new(), ());
    let mut own = empty(id);
    own.promote(1);
    StreamSet::new(own, Box::new(move |s| Ok(empty(s))))
}

/// The replication layer's counters; the streams live on the matchers.
#[derive(Default)]
struct ReplCounts {
    fenced: u64,
    promoted: u64,
}

/// Read-only view of the simulated replication layer: queries over every
/// matcher's streams.
pub struct Replication<'a> {
    matchers: &'a HashMap<MatcherId, SimMatcher>,
    /// Appends a holder rejected: it leads the stream, or follows a later
    /// epoch than the sender's.
    pub fenced: u64,
    /// Copies promoted heirs adopted, across all promotions.
    pub promoted: u64,
}

impl<'a> Replication<'a> {
    /// Live `holder`'s copy of `stream`; the leading copy is the one at
    /// the holder [`ControlEngine::leader_of`] names.
    pub fn copy(
        &self,
        stream: MatcherId,
        holder: MatcherId,
    ) -> Option<&'a ReplicatedStream<SubLogRecord>> {
        let m = self.matchers.get(&holder).filter(|m| m.alive)?;
        m.engine.log()?.get(stream)
    }
}

/// A dispatcher→matcher `Match` frame staged in the simulated batcher —
/// the payload of [`Event::MatcherReceive`] and [`Event::BatchArrive`].
struct StagedMatch {
    m: MatcherId,
    dim: DimIdx,
    msg: Message,
    admitted_us: u64,
    ack_to: String,
}

/// Simulator events.
enum Event {
    /// A `Match` frame reaches a matcher's queue.
    MatcherReceive(StagedMatch),
    /// A coalesced run of `Match` frames reaches one matcher's queue as a
    /// single simulated wire frame (the analogue of `ControlMsg::Batch`):
    /// the whole run paid one dispatch + one network hop, and its frames
    /// are processed in staging order.
    BatchArrive(Vec<StagedMatch>),
    /// The dispatcher tier ran out of input with frames staged: every
    /// event already queued for the instant they were staged at has run.
    BatchIdle,
    /// The batcher's oldest staged frame may have reached `max_delay`
    /// (stale wake-ups are cheap no-ops, like `DispatcherTick`).
    BatchFlush,
    /// A matcher finishes matching one message; the job and its hits were
    /// computed at service start (the cost model needs `examined` up
    /// front), delivery and ack effects fire now.
    ServiceComplete {
        m: MatcherId,
        job: ServiceJob,
        hits: Vec<MatchHit>,
        service: Time,
    },
    /// The delivery (matcher → subscriber) completes; response measured.
    Deliver { admitted_at: Time },
    /// A `MatchAck` reaches the dispatcher tier.
    AckArrive {
        msg_id: MessageId,
        matcher: MatcherId,
        actual_us: u64,
    },
    /// Matchers push load reports to dispatchers.
    StatsPush,
    /// Dispatchers learn that a matcher died.
    DetectFailure { m: MatcherId },
    /// Dispatchers adopt a pending segment-table change (join/leave) and
    /// each join donor retires the range it handed over.
    TableSwitch { retire: Vec<Move> },
    /// A gracefully leaving matcher may retire: once the post-leave table
    /// has propagated and its queues have drained, the node is removed.
    /// Reschedules itself while the matcher still has work.
    Decommission { m: MatcherId },
    /// A retransmit deadline of the dispatcher engine's at-least-once
    /// ledger may be due (stale ticks are cheap no-ops).
    DispatcherTick,
    /// A replicated sub-log append from `from` reaches `to`: the heir of
    /// the stream's leader, or the fetcher of a catch-up range.
    ReplAppend {
        to: MatcherId,
        from: MatcherId,
        frame: ReplicatedAppend<SubLogRecord>,
    },
    /// A follower with a hole asks the append's sender, `at`, for the
    /// records of `stream` from offset `from`.
    ReplFetch {
        stream: MatcherId,
        from: u64,
        by: MatcherId,
        at: MatcherId,
    },
}

/// The simulated [`DispatcherPort`]: `Match` sends become events
/// `dispatch_cost + net_latency` in the future, store and remove frames
/// are collected for the host to apply at once (the simulated transport
/// cannot fail synchronously, so `send` always succeeds), effects land on
/// the run metrics.
struct SimDispatcherPort<'a> {
    cfg: &'a SimConfig,
    now: Time,
    queue: &'a mut EventQueue<Event>,
    metrics: &'a mut Metrics,
    forward_log: &'a mut Option<Vec<(MessageId, MatcherId, DimIdx)>>,
    batcher: &'a mut Coalescer<StagedMatch>,
    writes: &'a mut Vec<(MatcherId, MatcherId, SubLogRecord)>,
}

/// Schedules a flushed run as one simulated wire frame: the whole batch
/// pays a single dispatch + network hop, exactly like one
/// `ControlMsg::Batch` on the threaded cluster's transport. A
/// single-frame flush travels unwrapped (the analogue of the wire codec
/// never emitting one-element batches). With batching on the flush is
/// counted by reason, as the threaded hosts count theirs.
fn ship(
    cfg: &SimConfig,
    queue: &mut EventQueue<Event>,
    metrics: &mut Metrics,
    now: Time,
    flush: Flush<StagedMatch>,
) {
    if cfg.engine.batch.enabled() {
        metrics.record_batch_flush(flush.reason);
    }
    let mut items = flush.items;
    let at = now + cfg.dispatch_cost + cfg.net_latency;
    if items.len() == 1 {
        queue.push(at, Event::MatcherReceive(items.pop().expect("len 1")));
    } else {
        queue.push(at, Event::BatchArrive(items));
    }
}

impl DispatcherPort for SimDispatcherPort<'_> {
    fn send(&mut self, to: MatcherId, addr: &str, out: DispatcherOut) -> bool {
        match out {
            DispatcherOut::Match {
                dim,
                msg,
                admitted_us,
                want_ack,
            } => {
                // Every Match frame goes through the same Coalescer the
                // threaded dispatcher host drives; with batching off
                // (`max_batch == 1`) each push flushes immediately, so
                // the unbatched schedule is unchanged.
                let staged = StagedMatch {
                    m: to,
                    dim,
                    msg,
                    admitted_us,
                    ack_to: if want_ack {
                        DISPATCHER_ADDR.to_string()
                    } else {
                        String::new()
                    },
                };
                if let Some(flush) = self.batcher.push(self.now, addr, staged) {
                    ship(self.cfg, self.queue, self.metrics, self.now, flush);
                }
            }
            DispatcherOut::StoreSub { dim, sub, stream } => {
                let rec = SubLogRecord::Store { dim, sub };
                self.writes.push((to, stream, rec));
            }
            DispatcherOut::RemoveSub { dim, sub, stream } => {
                let rec = SubLogRecord::Remove { dim, sub };
                self.writes.push((to, stream, rec));
            }
        }
        true
    }

    fn sub_ack(&mut self, _subscriber: SubscriberId, _sub: SubscriptionId) {}

    fn effect(&mut self, effect: DispatcherEffect) {
        match effect {
            DispatcherEffect::Forwarded {
                msg_id,
                matcher,
                dim,
                retransmission: false,
                ..
            } => {
                if let Some(log) = self.forward_log.as_mut() {
                    log.push((msg_id, matcher, dim));
                }
            }
            DispatcherEffect::Forwarded { .. } | DispatcherEffect::Failover => {}
            DispatcherEffect::Dropped { .. } | DispatcherEffect::DeadLettered { .. } => {
                self.metrics.record_lost(self.now);
            }
            DispatcherEffect::Estimation { .. } | DispatcherEffect::Rejected(_) => {}
        }
    }
}

/// The simulated [`MatcherPort`]. Per-hit deliveries are ignored — the
/// host schedules one `Deliver` event per serviced message, because
/// response time is a per-message quantity (a message matching many
/// subscriptions still counts once, exactly as the original testbed
/// measured it); match hits are counted via `record_match_work`. Sub-log
/// appends become `ReplAppend` events one hop later (a send cannot fail:
/// every live matcher holds the current table), and forwarded writes are
/// collected for the host to apply at once, as the dispatcher's are.
struct SimMatcherPort<'a> {
    m: MatcherId,
    now: Time,
    net_latency: Time,
    queue: &'a mut EventQueue<Event>,
    writes: &'a mut Vec<(MatcherId, MatcherId, SubLogRecord)>,
    counts: &'a mut ReplCounts,
}

impl MatcherPort for SimMatcherPort<'_> {
    fn deliver(
        &mut self,
        _subscriber: SubscriberId,
        _sub: SubscriptionId,
        _msg: &Message,
        _admitted_us: u64,
    ) {
    }

    fn ack(&mut self, _ack_to: &str, msg_id: MessageId, actual_us: u64) {
        self.queue.push(
            self.now + self.net_latency,
            Event::AckArrive {
                msg_id,
                matcher: self.m,
                actual_us,
            },
        );
    }

    fn duplicate_suppressed(&mut self) {}

    fn replicate(&mut self, to: MatcherId, append: &ReplicatedAppend<SubLogRecord>) -> bool {
        let (from, frame) = (self.m, append.clone());
        let at = self.now + self.net_latency;
        self.queue.push(at, Event::ReplAppend { to, from, frame });
        true
    }

    fn forward(&mut self, to: MatcherId, stream: MatcherId, rec: SubLogRecord) {
        self.writes.push((to, stream, rec));
    }

    fn count(&mut self, what: SubLogCount, n: u64) {
        match what {
            SubLogCount::Fenced => self.counts.fenced += n,
            SubLogCount::Promoted => self.counts.promoted += n,
            _ => {}
        }
    }
}

/// The simulated deployment.
pub struct SimCluster {
    cfg: SimConfig,
    space: AttributeSpace,
    /// The control plane. It holds the authoritative strategy — new joins
    /// are visible there first; the dispatcher engine keeps routing by
    /// the table it was last handed until the `TableSwitch` event
    /// (propagation lag) — and the autoscaler with its logs.
    control: ControlEngine,
    /// The shared dispatcher-tier engine (reports are broadcast, so every
    /// front-end sees identical state at identical staleness).
    dispatcher: DispatcherEngine,
    matchers: HashMap<MatcherId, SimMatcher>,
    /// Deaths the dispatcher tier has detected — excluded from the
    /// address book of later table updates so their suspicion survives
    /// `TableUpdate`'s re-listing amnesty.
    detected_dead: HashSet<MatcherId>,
    queue: EventQueue<Event>,
    now: Time,
    next_msg_id: u64,
    /// Earliest `DispatcherTick` currently scheduled (dedups wake-ups).
    scheduled_tick: Option<Time>,
    /// The dispatcher-tier batcher: the same engine [`Coalescer`] the
    /// threaded host drives, under virtual time. One instance for the
    /// whole (shared) dispatcher tier, with one lane per matcher address.
    batcher: Coalescer<StagedMatch>,
    /// Earliest `BatchFlush` currently scheduled (dedups wake-ups).
    scheduled_flush: Option<Time>,
    /// Whether a `BatchIdle` is queued and has not fired yet.
    idle_flush_pending: bool,
    /// `(message, matcher, dimension)` per first forward, when enabled.
    forward_log: Option<Vec<(MessageId, MatcherId, DimIdx)>>,
    /// `(matcher, stream, record)` per store or remove frame the
    /// dispatcher tier or a matcher sent, awaiting application.
    writes: Vec<(MatcherId, MatcherId, SubLogRecord)>,
    /// Whether the replicated subscription-log layer is on: the matcher
    /// engines' in-memory streams, driven by `Repl*` events under virtual
    /// time (the sim analogue of the threaded cluster's durable
    /// sub-logs).
    replicated: bool,
    counts: ReplCounts,
    /// Metrics of the whole simulation so far.
    pub metrics: Metrics,
}

impl SimCluster {
    /// Builds a deployment with the given strategy and forwarding policy.
    pub fn new(
        cfg: SimConfig,
        space: AttributeSpace,
        strategy: Strategy,
        policy: Box<dyn ForwardingPolicy>,
    ) -> Self {
        let mut control = ControlEngine::new(strategy);
        let table = control.announce();
        let matchers = table
            .live
            .iter()
            .map(|&id| (id, SimMatcher::new(id, &space, &cfg, false)))
            .collect::<HashMap<_, _>>();
        let dispatcher = DispatcherEngine::new(DispatcherEngineConfig {
            policy,
            seed: cfg.seed,
            retry: cfg.engine.retry.clone(),
            version: table.version,
            strategy: table.strategy,
            addrs: table.live.iter().map(|&m| (m, sim_addr(m))).collect(),
        });
        let forward_log = cfg.engine.record_forwards.then(Vec::new);
        let batcher = Coalescer::new(cfg.engine.batch.normalized());
        let mut c = SimCluster {
            cfg,
            space,
            control,
            dispatcher,
            matchers,
            detected_dead: HashSet::new(),
            queue: EventQueue::new(),
            now: 0.0,
            next_msg_id: 1,
            scheduled_tick: None,
            batcher,
            scheduled_flush: None,
            idle_flush_pending: false,
            forward_log,
            writes: Vec::new(),
            replicated: false,
            counts: ReplCounts::default(),
            metrics: Metrics::new(0.5),
        };
        c.hand_table();
        // Kick off the periodic stats pushes. The first fires immediately
        // so dispatchers know per-dimension subscription counts from the
        // first message (otherwise the pre-report window herds everything
        // onto one matcher).
        c.queue.push(0.0, Event::StatsPush);
        c
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The attribute space.
    pub fn space(&self) -> &AttributeSpace {
        &self.space
    }

    /// Total messages queued across all matchers.
    pub fn backlog(&self) -> usize {
        self.matchers.values().map(|m| m.engine.backlog()).sum()
    }

    /// Live matcher count.
    pub fn live_matchers(&self) -> usize {
        self.matchers.values().filter(|m| m.alive).count()
    }

    /// Publications awaiting acks in the dispatcher tier's at-least-once
    /// ledger (always 0 under the default fire-and-forget policy).
    pub fn in_flight(&self) -> usize {
        self.dispatcher.in_flight()
    }

    /// The recorded `(message, matcher, dimension)` first-forward trace
    /// (empty unless the engine config's `record_forwards` was set).
    pub fn forward_log(&self) -> &[(MessageId, MatcherId, DimIdx)] {
        self.forward_log.as_deref().unwrap_or(&[])
    }

    /// Turns the elasticity control loop on: every stats round the
    /// controller observes the same load reports dispatchers receive and
    /// its ScaleUp/ScaleDown decisions are executed immediately through
    /// [`Self::apply_scale`].
    pub fn enable_autoscaler(&mut self, cfg: AutoscalerConfig) {
        self.control.enable_autoscaler(cfg);
    }

    /// Turns the replicated subscription-log layer on: every matcher's
    /// mutation stream is streamed to its clockwise heir through delayed
    /// `Repl*` events (the in-memory analogue of the threaded cluster's
    /// durable sub-logs), and [`Self::kill_matcher`] fails streams over
    /// by heir promotion instead of losing the copies with the node. Call
    /// it before the first subscription: the matchers restart empty.
    pub fn enable_replication(&mut self) {
        self.replicated = true;
        for (&id, m) in &mut self.matchers {
            *m = SimMatcher::new(id, &self.space, &self.cfg, true);
        }
        self.control.replicate();
        self.hand_table();
    }

    /// The replication layer, when enabled.
    pub fn replication(&self) -> Option<Replication<'_>> {
        self.replicated.then_some(Replication {
            matchers: &self.matchers,
            fenced: self.counts.fenced,
            promoted: self.counts.promoted,
        })
    }

    /// The control plane: membership, the authoritative table, the
    /// stream-leader book, and the autoscaler's decision, snapshot and
    /// scale-event logs.
    pub fn control(&self) -> &ControlEngine {
        &self.control
    }

    /// Registers a subscription (instantaneous, like the paper's pre-load
    /// phase): the dispatcher tier places it by the table it was last
    /// handed, and each `StoreSub` it sends is applied at once.
    pub fn subscribe(&mut self, sub: Subscription) {
        self.write(DispatcherEvent::Subscribe(sub));
    }

    /// Registers many subscriptions.
    pub fn subscribe_all(&mut self, subs: impl IntoIterator<Item = Subscription>) {
        for s in subs {
            self.subscribe(s);
        }
    }

    /// Unregisters a subscription: the dispatcher tier removes every copy
    /// it placed. The caller supplies the original subscription
    /// (assignment is deterministic, so the same copies are found).
    pub fn unsubscribe(&mut self, sub: &Subscription) {
        self.write(DispatcherEvent::Unsubscribe(sub.clone()));
    }

    /// Feeds a (un)subscription to the dispatcher tier and applies the
    /// store and remove frames it sends.
    fn write(&mut self, event: DispatcherEvent) {
        self.feed_dispatcher(event);
        self.apply_writes();
    }

    /// Applies the pending store, remove and retire frames — each at its
    /// matcher, through the engine's `write`, as the threaded matcher
    /// takes a frame — and then the ones those send on, until none is
    /// left.
    fn apply_writes(&mut self) {
        while !self.writes.is_empty() {
            for (m, stream, rec) in std::mem::take(&mut self.writes) {
                self.with_matcher(m, |e, port| e.write(rec, stream, port));
            }
        }
    }

    /// Runs `step` on matcher `m`'s engine with the simulated port.
    fn with_matcher<T>(
        &mut self,
        m: MatcherId,
        step: impl FnOnce(&mut MatcherEngine, &mut SimMatcherPort) -> T,
    ) -> Option<T> {
        let matcher = self.matchers.get_mut(&m)?;
        let mut port = SimMatcherPort {
            m,
            now: self.now,
            net_latency: self.cfg.net_latency,
            queue: &mut self.queue,
            writes: &mut self.writes,
            counts: &mut self.counts,
        };
        Some(step(&mut matcher.engine, &mut port))
    }

    /// Whether matcher `m` is running.
    fn alive(&self, m: MatcherId) -> bool {
        self.matchers.get(&m).is_some_and(|mm| mm.alive)
    }

    /// A `HandOver` frame at the move's donor: the donor keeps serving its
    /// copies overlapping the range, and the recipient's leader of record
    /// stores them.
    fn hand_over(&mut self, mv: &Move) {
        self.with_matcher(mv.from, |e, p| e.hand_over(mv.dim, &mv.range, mv.to, p));
        self.apply_writes();
    }

    /// Hands every live member the control plane's members and leader
    /// book, as the threaded orchestrator pushes its table.
    fn hand_table(&mut self) {
        let (leaders, live) = (
            self.control.leaders(),
            self.control.live().collect::<Vec<_>>(),
        );
        for &m in &live {
            self.with_matcher(m, |e, port| e.on_table(leaders.clone(), live.clone(), port));
        }
    }

    /// Runs the cluster for `duration` seconds with messages arriving at
    /// `rate` per second (deterministic inter-arrival), drawn from `gen`.
    pub fn run(&mut self, rate: f64, duration: Time, gen: &mut MessageGenerator) {
        assert!(rate > 0.0 && duration > 0.0);
        let end = self.now + duration;
        let step = 1.0 / rate;
        let mut next_arrival = self.now + step;
        loop {
            let next_event = self.queue.peek_time();
            let arrival_due = next_arrival <= end;
            match next_event {
                Some(t) if t <= end && (!arrival_due || t <= next_arrival) => {
                    let (t, e) = self.queue.pop().expect("peeked");
                    self.now = t;
                    self.handle(e);
                }
                _ if arrival_due => {
                    self.now = next_arrival;
                    let msg = gen.next_msg();
                    self.admit(msg);
                    next_arrival += step;
                }
                _ => break,
            }
        }
        self.now = end;
    }

    /// Admits exactly the given messages at `rate` per second (for tests
    /// and experiments that need precise message counts — the rate-driven
    /// [`run`](Self::run) admits `⌊rate × duration⌋ ± 1` messages due to
    /// floating-point step accumulation).
    pub fn run_batch(&mut self, msgs: impl IntoIterator<Item = Message>, rate: f64) {
        assert!(rate > 0.0);
        let step = 1.0 / rate;
        for msg in msgs {
            let next_arrival = self.now + step;
            // Process events up to the arrival instant.
            while let Some(t) = self.queue.peek_time() {
                if t > next_arrival {
                    break;
                }
                let (t, e) = self.queue.pop().expect("peeked");
                self.now = t;
                self.handle(e);
            }
            self.now = next_arrival;
            self.admit(msg);
        }
    }

    /// Runs for `duration` seconds without new arrivals (drain phase).
    pub fn drain(&mut self, duration: Time) {
        let end = self.now + duration;
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let (t, e) = self.queue.pop().expect("peeked");
            self.now = t;
            self.handle(e);
        }
        self.now = end;
    }

    /// Feeds one event into the shared dispatcher engine through the
    /// simulated port.
    fn feed_dispatcher(&mut self, event: DispatcherEvent) {
        let mut port = SimDispatcherPort {
            cfg: &self.cfg,
            now: self.now,
            queue: &mut self.queue,
            metrics: &mut self.metrics,
            forward_log: &mut self.forward_log,
            batcher: &mut self.batcher,
            writes: &mut self.writes,
        };
        self.dispatcher.on_event(self.now, event, &mut port);
        self.maybe_schedule_flush();
    }

    /// With frames staged, schedules the two wake-ups a threaded host
    /// gets from its run loop. `BatchIdle` at the current instant: the
    /// event queue's sequence tie-break runs it after everything already
    /// queued for that instant, which is what "the inbox ran dry" means
    /// in virtual time. And `BatchFlush` at the batcher's earliest
    /// `max_delay` deadline, unless one is already pending at or before
    /// it — the bound, should the idle flush not get there first.
    fn maybe_schedule_flush(&mut self) {
        let Some(deadline) = self.batcher.next_deadline() else {
            return;
        };
        if !self.idle_flush_pending {
            self.queue.push(self.now, Event::BatchIdle);
            self.idle_flush_pending = true;
        }
        let at = deadline.max(self.now);
        if self.scheduled_flush.is_none_or(|t| at < t) {
            self.queue.push(at, Event::BatchFlush);
            self.scheduled_flush = Some(at);
        }
    }

    /// Ships flushes made outside a dispatcher `send`.
    fn ship_all(&mut self, flushes: Vec<Flush<StagedMatch>>) {
        for flush in flushes {
            ship(
                &self.cfg,
                &mut self.queue,
                &mut self.metrics,
                self.now,
                flush,
            );
        }
    }

    /// Schedules a `DispatcherTick` at the engine's earliest retransmit
    /// deadline, unless one is already pending at or before it. Stale
    /// ticks no-op, so over-scheduling is only a constant-factor cost.
    fn maybe_schedule_tick(&mut self) {
        let Some(deadline) = self.dispatcher.next_deadline() else {
            return;
        };
        let at = deadline.max(self.now);
        if self.scheduled_tick.is_none_or(|t| at < t) {
            self.queue.push(at, Event::DispatcherTick);
            self.scheduled_tick = Some(at);
        }
    }

    /// Admits one message at the current time (dispatcher ingress).
    pub(crate) fn admit(&mut self, mut msg: Message) {
        msg.id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        self.metrics.record_sent(self.now);
        let admitted_us = (self.now * 1e6) as u64;
        self.feed_dispatcher(DispatcherEvent::Publish { msg, admitted_us });
        self.maybe_schedule_tick();
    }

    /// One `Match` frame lands on a matcher's queue (a frame of a
    /// [`Event::MatcherReceive`] or [`Event::BatchArrive`]).
    fn receive_match(&mut self, f: StagedMatch) {
        let StagedMatch {
            m,
            dim,
            msg,
            admitted_us,
            ack_to,
        } = f;
        if !self.alive(m) {
            // Sent before the failure was detected. Fire-and-forget
            // loses the message here; with acks on the ledger owns
            // loss accounting (the retransmit schedule will land it
            // elsewhere or dead-letter it).
            if !self.cfg.engine.retry.acks {
                self.metrics.record_lost(self.now);
            }
            return;
        }
        let now = self.now;
        self.with_matcher(m, |e, port| {
            e.on_match_msg(now, dim, msg, admitted_us, ack_to, port)
        });
        self.try_start_service(m);
    }

    fn handle(&mut self, e: Event) {
        match e {
            Event::MatcherReceive(f) => self.receive_match(f),
            Event::BatchArrive(frames) => {
                // The coalesced run arrived as one frame; its messages
                // hit the queue in staging order.
                for f in frames {
                    self.receive_match(f);
                }
            }
            Event::BatchFlush => {
                self.scheduled_flush = None;
                let due = self.batcher.poll(self.now);
                self.ship_all(due);
                self.maybe_schedule_flush();
            }
            Event::BatchIdle => {
                self.idle_flush_pending = false;
                let staged = self.batcher.drain_idle();
                self.ship_all(staged);
            }
            Event::ServiceComplete {
                m,
                job,
                hits,
                service,
            } => {
                let Some(matcher) = self.matchers.get_mut(&m) else {
                    return;
                };
                matcher.busy = false;
                if !matcher.alive {
                    return;
                }
                let admitted_at = job.admitted_us as f64 / 1e6;
                self.with_matcher(m, |e, port| e.complete(job, &hits, service, port));
                self.queue.push(
                    self.now + self.cfg.net_latency,
                    Event::Deliver { admitted_at },
                );
                self.try_start_service(m);
            }
            Event::Deliver { admitted_at } => {
                self.metrics
                    .record_response(self.now, self.now - admitted_at);
            }
            Event::AckArrive {
                msg_id,
                matcher,
                actual_us,
            } => {
                self.feed_dispatcher(DispatcherEvent::MatchAck {
                    msg_id,
                    matcher,
                    actual_us,
                });
                self.maybe_schedule_tick();
            }
            Event::StatsPush => {
                let k = self.space.k();
                let mut reports: Vec<(MatcherId, DimIdx, DimStats)> = Vec::new();
                for (&id, matcher) in self.matchers.iter_mut() {
                    if !matcher.alive {
                        continue;
                    }
                    for d in 0..k {
                        let dim = DimIdx(d as u16);
                        reports.push((id, dim, matcher.engine.stats_report(dim, self.now)));
                    }
                }
                for &(matcher, dim, stats) in &reports {
                    self.feed_dispatcher(DispatcherEvent::LoadReport {
                        matcher,
                        dim,
                        stats,
                    });
                }
                self.autoscale_round(&reports);
                self.queue
                    .push(self.now + self.cfg.stats_update_interval, Event::StatsPush);
            }
            Event::DetectFailure { m } => {
                self.detected_dead.insert(m);
                self.feed_dispatcher(DispatcherEvent::MatcherDown(m));
            }
            Event::TableSwitch { retire } => {
                for mv in retire {
                    let (dim, range, keep) = (mv.dim, mv.range, mv.keep);
                    let retire = SubLogRecord::Retire { dim, range, keep };
                    self.writes.push((mv.from, mv.from, retire));
                }
                self.apply_writes();
                self.switch_table();
            }
            Event::Decommission { m } => {
                let Some(matcher) = self.matchers.get(&m) else {
                    return;
                };
                // The post-leave table has propagated, so no new frames
                // target this matcher; wait out whatever it still holds
                // (graceful leave means the victim serves its own backlog).
                if matcher.busy || !matcher.engine.is_idle() {
                    self.queue.push(
                        self.now + self.cfg.net_latency.max(1e-6),
                        Event::Decommission { m },
                    );
                    return;
                }
                self.matchers.remove(&m);
            }
            Event::DispatcherTick => {
                self.scheduled_tick = None;
                self.feed_dispatcher(DispatcherEvent::Tick);
                self.maybe_schedule_tick();
            }
            Event::ReplAppend { to, from, frame } => {
                if !self.alive(to) {
                    return;
                }
                let hole = self.with_matcher(to, |e, port| e.on_append(&frame, port));
                if let Some(Some(off)) = hole {
                    let fetch = Event::ReplFetch {
                        stream: frame.stream,
                        from: off,
                        by: to,
                        at: from,
                    };
                    self.queue.push(self.now + self.cfg.net_latency, fetch);
                }
            }
            Event::ReplFetch {
                stream,
                from,
                by,
                at,
            } => {
                if !self.alive(at) {
                    return;
                }
                let served = self.with_matcher(at, |e, _| e.serve(stream, from, false));
                if let Some(Some(frame)) = served {
                    let reply = Event::ReplAppend {
                        to: by,
                        from: at,
                        frame,
                    };
                    self.queue.push(self.now + self.cfg.net_latency, reply);
                }
            }
        }
    }

    /// Hands the dispatcher tier the control plane's next announcement.
    /// Its address book is every member whose death the tier has not
    /// detected (not the control plane's live set: detection lag is what
    /// this host models); detected-dead matchers stay out so their
    /// (permanent) suspicion survives the update's re-listing amnesty.
    fn switch_table(&mut self) {
        let table = self.control.announce();
        let addrs = table
            .strategy
            .as_dyn()
            .matchers()
            .into_iter()
            .filter(|m| !self.detected_dead.contains(m))
            .map(|m| (m, sim_addr(m)))
            .collect();
        self.feed_dispatcher(DispatcherEvent::TableUpdate {
            version: table.version,
            strategy: table.strategy,
            addrs,
            leaders: table.leaders,
        });
    }

    /// Starts service on `m` if it is idle and has queued work: pops the
    /// next job round-robin from the engine, models its cost from the
    /// number of subscriptions examined, and schedules the completion.
    /// The modelled service time is fed into the µ estimator at service
    /// *start* (the simulator knows the duration up front; the threaded
    /// host records it after measuring real work).
    fn try_start_service(&mut self, m: MatcherId) {
        let Some(matcher) = self.matchers.get_mut(&m) else {
            return;
        };
        if matcher.busy || !matcher.alive {
            return;
        }
        let Some(job) = matcher.engine.begin_service(self.now) else {
            return;
        };
        let mut hits = Vec::new();
        let examined = matcher.engine.run_match(&job, self.now, &mut hits);
        let service = self.cfg.service_time(examined);
        matcher.engine.record_service(job.dim, service);
        matcher.busy = true;
        self.metrics.record_busy(m, service);
        self.metrics.record_match_work(examined, hits.len());
        self.queue.push(
            self.now + service,
            Event::ServiceComplete {
                m,
                job,
                hits,
                service,
            },
        );
    }

    // ------------------------------------------------------------------
    // Elasticity (§III-C, Figure 9)
    // ------------------------------------------------------------------

    /// Executes one typed scale request — the single elasticity entry
    /// point shared (by name and semantics) with the threaded cluster.
    /// Autoscaler decisions, manual joins and manual leaves all lower
    /// onto this.
    pub fn apply_scale(&mut self, plan: &ScalePlan) -> Result<ScaleOutcome, ScaleError> {
        match plan {
            ScalePlan::Grow { loads } => self.grow(loads).map(ScaleOutcome::Added),
            ScalePlan::Shrink { victim } => self.remove_matcher(*victim).map(ScaleOutcome::Removed),
        }
    }

    /// Adds a matcher to a BlueDove deployment, splitting by the current
    /// per-dimension subscription counts (a [`ScalePlan::Grow`] built from
    /// live engine state). Fails with [`ScaleError::WrongStrategy`] on the
    /// static baselines.
    pub fn add_matcher(&mut self) -> Result<MatcherId, ScaleError> {
        let k = self.space.k();
        let mut loads = LoadSnapshot::new(self.now);
        for (&id, m) in &self.matchers {
            if !m.alive {
                continue;
            }
            for d in 0..k {
                let dim = DimIdx(d as u16);
                loads.push(
                    id,
                    dim,
                    DimStats {
                        sub_count: m.engine.sub_count(dim),
                        queue_len: 0,
                        lambda: 0.0,
                        mu: 0.0,
                        updated_at: self.now,
                    },
                );
            }
        }
        self.grow(&loads)
    }

    /// The join half of [`Self::apply_scale`]: executes the control
    /// plane's join at once — hands the moved subscriptions over to the
    /// new matcher and commits the post-join table — and schedules the
    /// dispatcher-visible table switch after the propagation delay, when
    /// donors retire the moved ranges (they keep serving their copies
    /// until then, so no message misses matches).
    fn grow(&mut self, loads: &LoadSnapshot) -> Result<MatcherId, ScaleError> {
        let change = self.control.join(loads)?;
        let new_id = change.outcome.matcher();
        let joiner = SimMatcher::new(new_id, &self.space, &self.cfg, self.replicated);
        self.matchers.insert(new_id, joiner);
        for mv in &change.moves {
            self.hand_over(mv);
        }
        self.control.commit(&change, self.now);
        self.hand_table();
        // The dispatcher engine keeps routing by its current table until
        // the switch event hands it the post-join one (propagation lag).
        self.queue.push(
            self.now + self.cfg.table_propagation_delay,
            Event::TableSwitch {
                retire: change.moves,
            },
        );
        Ok(new_id)
    }

    /// Gracefully removes matcher `victim` — the leave half of
    /// [`Self::apply_scale`]. The drain protocol is the inverse of the
    /// join:
    ///
    /// 1. the control plane merges every victim segment into its
    ///    neighbour (predecessor when one exists, successor otherwise);
    /// 2. the heirs receive copies of the affected subscriptions
    ///    immediately, while the victim *keeps* its copies — it must
    ///    serve whatever is already queued on it;
    /// 3. after the propagation delay the dispatcher tier switches to the
    ///    post-leave table, whose address book no longer lists the victim
    ///    (retransmissions from the at-least-once ledger recompute their
    ///    candidates from the new table, so in-flight acked messages
    ///    re-home onto the heirs without special casing);
    /// 4. once every pre-switch frame has arrived and the victim's queue
    ///    is drained, the node is decommissioned.
    pub fn remove_matcher(&mut self, victim: MatcherId) -> Result<MatcherId, ScaleError> {
        let change = self.control.leave(victim)?;
        // The victim serves its remaining backlog with its full
        // subscription set; its copies die with the node.
        for mv in &change.moves {
            self.hand_over(mv);
        }
        // A stream the victim led for a down owner moves on to its heir as
        // at a crash: the victim steps down with its copy, which the heir
        // takes as its replica before it promotes. The members get the
        // post-leave table (the victim's own stream retires with it: its
        // copies were handed over above), and a promotion is announced to
        // the dispatcher tier at once, as after a crash.
        let promotions = self.control.commit(&change, self.now);
        for &(stream, heir, epoch) in &promotions {
            let copy = self.with_matcher(victim, |e, _| e.serve(stream, 0, true));
            if let Some(Some(copy)) = copy {
                self.with_matcher(heir, |e, port| e.on_append(&copy, port));
            }
            self.promote(stream, heir, epoch);
        }
        self.hand_table();
        if !promotions.is_empty() {
            self.switch_table();
        }
        // Nothing to retire at the switch: the heirs keep their new
        // copies, and the victim's disappear at decommission.
        self.queue.push(
            self.now + self.cfg.table_propagation_delay,
            Event::TableSwitch { retire: Vec::new() },
        );
        // The last frame routed by the pre-switch table arrives at most
        // one dispatch + one network hop after the switch; poll for the
        // drain from just past that instant.
        self.queue.push(
            self.now
                + self.cfg.table_propagation_delay
                + self.cfg.dispatch_cost
                + self.cfg.net_latency
                + 1e-9,
            Event::Decommission { m: victim },
        );
        Ok(victim)
    }

    /// One autoscaler observation round (a no-op without an autoscaler),
    /// fed the same reports the dispatcher tier just received; whatever
    /// plan it yields executes in-line.
    fn autoscale_round(&mut self, reports: &[(MatcherId, DimIdx, DimStats)]) {
        if let Ok(Some(plan)) = self.control.observe(self.now, reports.iter().copied()) {
            let _ = self.apply_scale(&plan);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (§III-A-3, Figure 10)
    // ------------------------------------------------------------------

    /// Crashes matcher `m` at the current time: its queued messages are
    /// dropped, and dispatchers keep sending to it until the
    /// failure-detection delay elapses, after which they fail over to the
    /// other candidates. Under fire-and-forget the dropped and in-transit
    /// messages are lost (the Figure 10 window); with acks on the ledger
    /// retransmits them to live candidates.
    pub fn kill_matcher(&mut self, m: MatcherId) {
        let Some(matcher) = self.matchers.get_mut(&m).filter(|mm| mm.alive) else {
            return;
        };
        matcher.alive = false;
        let dropped = matcher.engine.drop_queued();
        if !self.cfg.engine.retry.acks {
            for _ in 0..dropped {
                self.metrics.record_lost(self.now);
            }
        }
        self.queue.push(
            self.now + self.cfg.detection_delay,
            Event::DetectFailure { m },
        );
        // What the victim sent before it died still lands, ahead of the
        // promotion, as on the threaded cluster's first-in first-out
        // inboxes; what was sent to it is lost (its replicas and
        // unreplicated tails die with it). Then, with replication on, the
        // control plane fails every stream the victim led over to its
        // clockwise heir, and the members get the new table.
        let sent = |e: &Event| matches!(e, Event::ReplAppend { from, .. } if *from == m);
        for (_, e) in self.queue.take(sent) {
            self.handle(e);
        }
        for (stream, heir, epoch) in self.control.crash(m) {
            self.promote(stream, heir, epoch);
        }
        self.hand_table();
        // A replicated crash is announced at once, as the threaded
        // orchestrator does: the tier drops the victim from its address
        // book and sends its publications and writes to the promoted
        // leaders. (The port cannot fail a send, so without the new book a
        // write would go to the dead owner and be lost.)
        if self.replicated {
            self.detected_dead.insert(m);
            self.switch_table();
        }
    }

    /// Promotes `heir` to lead `stream` at `epoch` — a `SubLogPromote`
    /// at a threaded matcher.
    fn promote(&mut self, stream: MatcherId, heir: MatcherId, epoch: Epoch) {
        self.with_matcher(heir, |e, port| e.promote(stream, epoch, port));
    }

    /// Per-matcher subscription-copy counts (diagnostics / load split).
    /// Logical counts: covered group members count like any other copy.
    pub fn sub_counts(&self) -> Vec<(MatcherId, usize)> {
        let mut v: Vec<(MatcherId, usize)> = self
            .matchers
            .iter()
            .map(|(&id, m)| (id, m.engine.total_subs()))
            .collect();
        v.sort_unstable_by_key(|&(m, _)| m);
        v
    }

    /// Matcher `m`'s stored copies as sorted `(dimension, subscription)`
    /// pairs; empty for an unknown matcher.
    pub fn copies(&self, m: MatcherId) -> Vec<(DimIdx, SubscriptionId)> {
        let snapshot = self.matchers.get(&m).map(|m| m.engine.snapshot());
        let mut v: Vec<_> = snapshot
            .into_iter()
            .flatten()
            .map(|(d, s)| (d, s.id))
            .collect();
        v.sort_unstable();
        v
    }

    /// Total logical subscription copies across all matchers.
    pub fn total_logical_subs(&self) -> usize {
        self.matchers.values().map(|m| m.engine.total_subs()).sum()
    }

    /// Total physically indexed entries across all matchers —
    /// representatives only where covering is enabled.
    pub fn total_physical_subs(&self) -> usize {
        self.matchers
            .values()
            .map(|m| m.engine.total_physical_subs())
            .sum()
    }

    /// Estimated resident bytes of every matcher's per-dimension indexes.
    pub fn index_memory_bytes(&self) -> usize {
        self.matchers
            .values()
            .map(|m| m.engine.index_memory_bytes())
            .sum()
    }
}

/// The simulated "address" of a matcher — only used as an address-book
/// key; the simulated transport routes by [`MatcherId`] directly.
fn sim_addr(m: MatcherId) -> String {
    format!("m{}", m.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedove_core::AdaptivePolicy;
    use bluedove_engine::RetryPolicy;
    use bluedove_workload::PaperWorkload;

    fn small_cluster(n: u32) -> (SimCluster, MessageGenerator) {
        let w = PaperWorkload {
            seed: 7,
            ..Default::default()
        };
        let space = w.space();
        let mut c = SimCluster::new(
            SimConfig::default(),
            space.clone(),
            Strategy::bluedove(space, n),
            Box::new(AdaptivePolicy),
        );
        c.subscribe_all(w.subscriptions().take(2000));
        (c, w.messages())
    }

    #[test]
    fn messages_flow_end_to_end() {
        let (mut c, mut gen) = small_cluster(5);
        c.run(500.0, 5.0, &mut gen);
        c.drain(2.0);
        assert!(
            c.metrics.total_sent >= 2400,
            "sent {}",
            c.metrics.total_sent
        );
        assert_eq!(c.metrics.total_lost, 0);
        assert_eq!(
            c.metrics.total_delivered, c.metrics.total_sent,
            "all admitted messages must be delivered after drain"
        );
        assert_eq!(c.backlog(), 0);
        assert!(c.metrics.total_examined > 0);
    }

    #[test]
    fn low_rate_response_time_is_latency_plus_service() {
        let (mut c, mut gen) = small_cluster(5);
        c.run(50.0, 4.0, &mut gen);
        c.drain(1.0);
        let mean = c.metrics.mean_response(0.0, 5.0);
        // 2 × net latency + dispatch + service (few hundred µs–ms): well
        // under 50 ms when unloaded.
        assert!(mean > 0.0 && mean < 0.05, "unloaded mean response {mean}");
    }

    #[test]
    fn overload_grows_backlog_underload_does_not() {
        let (mut c, mut gen) = small_cluster(3);
        c.run(100.0, 4.0, &mut gen);
        let calm = c.backlog();
        assert!(calm < 50, "backlog {calm} at low rate");

        let (mut c2, mut gen2) = small_cluster(3);
        c2.run(50_000.0, 4.0, &mut gen2);
        assert!(c2.backlog() > 10_000, "overload backlog {}", c2.backlog());
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, mut ga) = small_cluster(4);
        let (mut b, mut gb) = small_cluster(4);
        a.run(800.0, 3.0, &mut ga);
        b.run(800.0, 3.0, &mut gb);
        assert_eq!(a.metrics.total_delivered, b.metrics.total_delivered);
        assert_eq!(
            a.metrics.mean_response(0.0, 3.0),
            b.metrics.mean_response(0.0, 3.0)
        );
        assert_eq!(a.backlog(), b.backlog());
    }

    #[test]
    fn kill_matcher_loses_then_recovers() {
        let (mut c, mut gen) = small_cluster(8);
        c.run(1000.0, 3.0, &mut gen);
        let victim = MatcherId(0);
        c.kill_matcher(victim);
        c.run(1000.0, 20.0, &mut gen);
        c.drain(2.0);
        // Losses occur only before detection (3.0 + detection_delay 10).
        assert!(c.metrics.total_lost > 0, "no losses recorded");
        let before = c.metrics.loss_rate(3.0, 13.0);
        let after = c.metrics.loss_rate(14.0, 23.0);
        assert!(before > 0.0, "loss before detection: {before}");
        assert_eq!(after, 0.0, "loss after detection must stop: {after}");
        assert_eq!(c.live_matchers(), 7);
    }

    #[test]
    fn acked_pipeline_redelivers_after_matcher_death() {
        // Same crash schedule as the fire-and-forget test above, but with
        // the at-least-once pipeline on: every message the dead matcher
        // swallowed (queued or in transit) is retransmitted to a live
        // candidate from the dispatcher ledger, so nothing is lost.
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
            Strategy::bluedove(space, 8),
            Box::new(AdaptivePolicy),
        );
        c.subscribe_all(w.subscriptions().take(2000));
        let mut gen = w.messages();
        c.run(1000.0, 3.0, &mut gen);
        c.kill_matcher(MatcherId(0));
        c.run(1000.0, 20.0, &mut gen);
        c.drain(40.0);
        assert_eq!(c.metrics.total_lost, 0, "acked pipeline must not lose");
        assert_eq!(
            c.metrics.total_delivered, c.metrics.total_sent,
            "every admitted message is redelivered exactly once"
        );
        assert_eq!(c.in_flight(), 0, "ledger drains once every ack lands");
    }

    #[test]
    fn add_matcher_splits_load_and_preserves_completeness() {
        let (mut c, mut gen) = small_cluster(4);
        let matched_rate_before = {
            c.run(500.0, 3.0, &mut gen);
            c.metrics.total_matches as f64 / c.metrics.total_delivered.max(1) as f64
        };
        let new = c.add_matcher().unwrap();
        assert_eq!(c.live_matchers(), 5);
        // During the propagation window, routing still works and matches.
        c.run(500.0, 1.0, &mut gen);
        // After the switch, the new matcher participates.
        c.run(500.0, 10.0, &mut gen);
        c.drain(2.0);
        let matched_rate_after =
            c.metrics.total_matches as f64 / c.metrics.total_delivered.max(1) as f64;
        // Matches per message should not collapse after the split (copies
        // were moved, not dropped). Allow generous tolerance for workload
        // randomness.
        assert!(
            matched_rate_after > matched_rate_before * 0.7,
            "match rate collapsed: {matched_rate_before} -> {matched_rate_after}"
        );
        let new_subs = c
            .sub_counts()
            .into_iter()
            .find(|&(m, _)| m == new)
            .map(|(_, n)| n)
            .unwrap();
        assert!(new_subs > 0, "new matcher received no subscriptions");
        assert_eq!(c.metrics.total_lost, 0);
    }

    #[test]
    fn remove_matcher_drains_and_loses_nothing() {
        let (mut c, mut gen) = small_cluster(5);
        c.run(500.0, 3.0, &mut gen);
        let victim = MatcherId(2);
        let removed = c.remove_matcher(victim).unwrap();
        assert_eq!(removed, victim);
        // Propagation window: the victim still serves; then it drains and
        // decommissions while traffic continues.
        c.run(500.0, 10.0, &mut gen);
        c.drain(2.0);
        assert_eq!(c.live_matchers(), 4, "victim decommissioned");
        assert!(
            c.sub_counts().iter().all(|&(m, _)| m != victim),
            "victim still holds state"
        );
        assert_eq!(c.metrics.total_lost, 0, "graceful leave must not lose");
        assert_eq!(c.metrics.total_delivered, c.metrics.total_sent);
        assert_eq!(c.backlog(), 0);
    }

    #[test]
    fn scale_errors_are_typed_not_panics() {
        let w = PaperWorkload {
            seed: 3,
            ..Default::default()
        };
        let mut p2p = SimCluster::new(
            SimConfig::default(),
            w.space(),
            Strategy::p2p(w.space(), 4),
            Box::new(bluedove_core::RandomPolicy),
        );
        assert_eq!(p2p.add_matcher(), Err(ScaleError::WrongStrategy));
        assert_eq!(
            p2p.remove_matcher(MatcherId(0)),
            Err(ScaleError::WrongStrategy)
        );

        let (mut c, _) = small_cluster(2);
        assert_eq!(
            c.remove_matcher(MatcherId(99)),
            Err(ScaleError::UnknownMatcher(MatcherId(99)))
        );
        c.kill_matcher(MatcherId(1));
        assert_eq!(
            c.remove_matcher(MatcherId(1)),
            Err(ScaleError::NotAlive(MatcherId(1)))
        );

        // The table refuses to go below one matcher.
        let (mut solo, _) = small_cluster(1);
        assert_eq!(
            solo.remove_matcher(MatcherId(0)),
            Err(ScaleError::LastMatcher)
        );
    }

    #[test]
    fn unsubscribe_removes_all_copies() {
        let (mut c, mut gen) = small_cluster(5);
        let before = c.metrics.clone();
        let _ = before;
        // Add one wildcard subscription we control, measure, remove it.
        let space = c.space().clone();
        let mut wild = Subscription::builder(&space).build().unwrap();
        wild.id = bluedove_core::SubscriptionId(999_999);
        c.subscribe(wild.clone());
        c.run(200.0, 2.0, &mut gen);
        c.drain(2.0);
        let matches_with = c.metrics.total_matches;
        assert!(matches_with > 0);

        c.unsubscribe(&wild);
        let total_before = c.metrics.total_matches;
        // The wildcard is gone: only the workload subscriptions match now.
        let (mut reference, mut gen_ref) = small_cluster(5);
        c.run(200.0, 2.0, &mut gen);
        c.drain(2.0);
        reference.run(200.0, 2.0, &mut gen_ref);
        reference.run(200.0, 2.0, &mut gen_ref);
        reference.drain(2.0);
        let after = c.metrics.total_matches - total_before;
        // The second window of the reference cluster (same seed, no
        // wildcard) must see the same match count as our post-unsubscribe
        // window.
        let ref_second_window = reference.metrics.total_matches / 2;
        let tolerance = (ref_second_window / 5).max(20);
        assert!(
            after.abs_diff(ref_second_window) <= tolerance,
            "unsubscribe left copies behind: {after} vs ~{ref_second_window}"
        );
    }

    #[test]
    fn batching_preserves_forward_sequence_and_delivery() {
        // Identical workload, batching off vs on: the coalescer only
        // changes *when frames travel*, never which matcher a message
        // was forwarded to — so the first-forward trace is bit-identical
        // and nothing is lost or left queued after the drain. A
        // load-independent (seeded random) policy isolates the claim:
        // adaptive policies legitimately see different load-report
        // timing under batching.
        let w = PaperWorkload {
            seed: 7,
            ..Default::default()
        };
        let space = w.space();
        let mk = |max_batch: usize| {
            let engine = bluedove_engine::EngineConfig {
                record_forwards: true,
                batch: bluedove_engine::BatchCfg {
                    max_batch,
                    max_delay: 0.002,
                },
                ..Default::default()
            };
            let mut c = SimCluster::new(
                SimConfig {
                    engine,
                    ..Default::default()
                },
                space.clone(),
                Strategy::bluedove(space.clone(), 5),
                Box::new(bluedove_core::RandomPolicy),
            );
            c.subscribe_all(w.subscriptions().take(2000));
            c
        };
        let (mut plain, mut coalesced) = (mk(1), mk(16));
        let (mut ga, mut gb) = (w.messages(), w.messages());
        plain.run(500.0, 5.0, &mut ga);
        plain.drain(2.0);
        coalesced.run(500.0, 5.0, &mut gb);
        coalesced.drain(2.0);
        assert_eq!(
            plain.forward_log(),
            coalesced.forward_log(),
            "batching must not perturb forwarding decisions"
        );
        assert!(coalesced.forward_log().len() > 2000);
        assert_eq!(
            plain.metrics.total_delivered,
            coalesced.metrics.total_delivered
        );
        assert_eq!(coalesced.metrics.total_lost, 0);
        assert_eq!(coalesced.backlog(), 0);
        assert_eq!(coalesced.in_flight(), 0);
    }

    #[test]
    fn idle_flush_keeps_low_rate_latency_at_the_unbatched_level() {
        // 200 msg/s is far below saturation: the dispatcher tier has
        // nothing queued behind each arrival, so a staged frame leaves at
        // the instant it was staged and never sees the 20 ms deadline —
        // 40 network latencies, which would dominate the response time.
        let w = PaperWorkload {
            seed: 11,
            ..Default::default()
        };
        let space = w.space();
        let mk = |max_batch: usize| {
            let engine = bluedove_engine::EngineConfig {
                record_forwards: true,
                batch: bluedove_engine::BatchCfg {
                    max_batch,
                    max_delay: 0.020,
                },
                ..Default::default()
            };
            let mut c = SimCluster::new(
                SimConfig {
                    engine,
                    ..Default::default()
                },
                space.clone(),
                Strategy::bluedove(space.clone(), 5),
                Box::new(bluedove_core::RandomPolicy),
            );
            c.subscribe_all(w.subscriptions().take(2000));
            c
        };
        let (mut plain, mut coalesced) = (mk(1), mk(64));
        let (mut ga, mut gb) = (w.messages(), w.messages());
        plain.run(200.0, 5.0, &mut ga);
        plain.drain(2.0);
        coalesced.run(200.0, 5.0, &mut gb);
        coalesced.drain(2.0);
        assert_eq!(plain.forward_log(), coalesced.forward_log());
        assert_eq!(
            plain.metrics.total_delivered,
            coalesced.metrics.total_delivered
        );
        let (a, b) = (
            plain.metrics.mean_response(0.0, 7.0),
            coalesced.metrics.mean_response(0.0, 7.0),
        );
        let net_latency = SimConfig::default().net_latency;
        assert!(
            (a - b).abs() <= net_latency,
            "mean response {b} s batched vs {a} s unbatched"
        );
        use bluedove_engine::FlushReason::{Deadline, Idle};
        assert!(coalesced.metrics.batch_flushes(Idle) > 0);
        assert_eq!(coalesced.metrics.batch_flushes(Deadline), 0);
        assert_eq!(plain.metrics.batch_flushes(Idle), 0, "batching is off");
    }

    #[test]
    fn p2p_and_fullrep_strategies_run() {
        let w = PaperWorkload {
            seed: 3,
            ..Default::default()
        };
        for strat in [Strategy::p2p(w.space(), 4), Strategy::full_rep(4)] {
            let mut c = SimCluster::new(
                SimConfig::default(),
                w.space(),
                strat,
                Box::new(bluedove_core::RandomPolicy),
            );
            c.subscribe_all(w.subscriptions().take(500));
            let mut gen = w.messages();
            c.run(200.0, 3.0, &mut gen);
            c.drain(2.0);
            assert_eq!(c.metrics.total_lost, 0);
            assert!(c.metrics.total_delivered > 500);
        }
    }

    #[test]
    fn full_rep_examines_every_subscription_per_message() {
        let w = PaperWorkload {
            seed: 3,
            ..Default::default()
        };
        let mut c = SimCluster::new(
            SimConfig::default(),
            w.space(),
            Strategy::full_rep(3),
            Box::new(bluedove_core::RandomPolicy),
        );
        c.subscribe_all(w.subscriptions().take(400));
        let mut gen = w.messages();
        c.run(100.0, 2.0, &mut gen);
        c.drain(2.0);
        let per_msg = c.metrics.total_examined as f64 / c.metrics.total_delivered as f64;
        assert!(
            (per_msg - 400.0).abs() < 1.0,
            "full-rep examines all: {per_msg}"
        );
    }

    #[test]
    fn bluedove_examines_far_fewer_than_full_rep() {
        let (mut c, mut gen) = small_cluster(10);
        c.run(500.0, 3.0, &mut gen);
        c.drain(2.0);
        let per_msg = c.metrics.total_examined as f64 / c.metrics.total_delivered as f64;
        // 2000 subs over 10 matchers: a candidate set is a few hundred at
        // most; the adaptive policy favours the cold ones.
        assert!(per_msg < 800.0, "examined per message too high: {per_msg}");
    }
}
