//! The cluster orchestrator and client handles.
//!
//! [`Cluster::start`] spawns the two-tier deployment of §II-B —
//! dispatchers at the front, matchers at the back — over an in-process
//! channel transport. Clients interact through [`Cluster::subscribe`] /
//! [`Cluster::publish`] (or a standalone [`Publisher`]); subscribers
//! receive matching messages directly on their own endpoints.
//!
//! Every control decision — the post-join or post-leave segment table,
//! table versions, membership, which heir a crash promotes at which
//! epoch, the autoscaler — is the engine's [`ControlEngine`], the same
//! one the simulator runs; this module executes its plans over threads
//! and the transport. Elasticity runs through one plan-driven entry
//! point, [`Cluster::apply_scale`]: a `Grow` performs the §III-C join —
//! hand the moved subscriptions over, announce the post-join table,
//! retire the donors' stale copies — and a `Shrink` runs the inverse
//! graceful leave — drain the victim's segments into their heirs,
//! announce the table, then hand the victim the `Leave` pill so it exits
//! once idle. An optional load-driven autoscaler
//! ([`ClusterConfig::autoscaler`]) turns gossiped load reports into those
//! plans on [`Cluster::autoscale_tick`]. Fault tolerance
//! ([`Cluster::kill_matcher`]) crashes a matcher; dispatchers fail over
//! on the next send error.

use crate::dispatcher::{DispatcherNode, DispatcherNodeConfig, RoutingState};
use crate::mailbox::MailboxNode;
use crate::matcher::{MatcherNode, MatcherNodeConfig};
use crate::proto::{frames, ControlMsg};
use crate::shared::{
    control_addr, dispatcher_addr, matcher_addr, subscriber_addr, telemetry_addr, Shared,
};
use crate::sublog::SubLogRecord;
use bluedove_baselines::AnyStrategy;
use bluedove_core::{
    AdaptivePolicy, AttributeSpace, CoreError, DimIdx, DimStats, ForwardingPolicy, IndexKind,
    MatcherId, Message, MessageId, RandomPolicy, ResponseTimePolicy, SubscriberId, Subscription,
    SubscriptionCountPolicy, SubscriptionId,
};
use bluedove_engine::{
    Announcement, AutoscalerConfig, ControlEngine, EngineConfig, LoadSnapshot, Move,
    ReplicatedAppend, ScaleError, ScaleOutcome, ScalePlan, SeenWindow, DEDUP_WINDOW,
};
use bluedove_net::{
    to_bytes, ChannelTransport, FaultHandle, FaultTransport, HostTransport, NetError,
    ReactorConfig, ReactorTransport, Transport,
};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Forwarding-policy selector (one policy instance is built per
/// dispatcher).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// The paper's default adaptive policy.
    #[default]
    Adaptive,
    /// Processing-time policy without extrapolation.
    ResponseTime,
    /// Least-subscriptions policy.
    SubscriptionCount,
    /// Uniform random.
    Random,
}

impl PolicyKind {
    /// Builds a policy instance.
    pub fn build(self) -> Box<dyn ForwardingPolicy> {
        match self {
            PolicyKind::Adaptive => Box::new(AdaptivePolicy),
            PolicyKind::ResponseTime => Box::new(ResponseTimePolicy),
            PolicyKind::SubscriptionCount => Box::new(SubscriptionCountPolicy),
            PolicyKind::Random => Box::new(RandomPolicy),
        }
    }
}

/// Base-transport selector: what actually moves bytes between the
/// deployment's nodes. All nodes are address-string driven, so either
/// kind hosts the same engines unchanged.
#[derive(Debug, Clone, Default)]
pub enum TransportKind {
    /// In-process crossbeam channels — zero syscalls, the default for
    /// tests and single-machine experiments.
    #[default]
    Channel,
    /// The nonblocking reactor over real loopback TCP sockets: frames
    /// cross the kernel, yet thread count stays O(event loops) instead
    /// of O(connections), so hundreds of nodes fit one machine.
    Reactor(ReactorConfig),
}

/// Partition-strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// BlueDove's mPartition.
    #[default]
    BlueDove,
    /// Single-dimension P2P.
    P2p,
    /// Full replication.
    FullReplication,
}

/// Deployment configuration (builder-style).
#[derive(Clone)]
pub struct ClusterConfig {
    space: AttributeSpace,
    matchers: u32,
    dispatchers: usize,
    policy: PolicyKind,
    strategy: StrategyKind,
    engine: EngineConfig,
    stats_interval: Duration,
    gossip_interval: Duration,
    table_pull_interval: Duration,
    seed: u64,
    fault_seed: Option<u64>,
    failure_detector: bluedove_overlay::FailureDetectorConfig,
    autoscaler: Option<AutoscalerConfig>,
    telemetry_file: Option<std::path::PathBuf>,
    log_dir: Option<std::path::PathBuf>,
    transport: TransportKind,
}

impl ClusterConfig {
    /// A deployment over `space` with 4 matchers, 1 dispatcher, the
    /// adaptive policy and cell indexes.
    pub fn new(space: AttributeSpace) -> Self {
        ClusterConfig {
            space,
            matchers: 4,
            dispatchers: 1,
            policy: PolicyKind::Adaptive,
            strategy: StrategyKind::BlueDove,
            engine: EngineConfig::default().index(IndexKind::Cell(64)),
            stats_interval: Duration::from_millis(200),
            gossip_interval: Duration::from_millis(250),
            table_pull_interval: Duration::from_millis(200),
            seed: 42,
            fault_seed: None,
            failure_detector: bluedove_overlay::FailureDetectorConfig::default(),
            autoscaler: None,
            telemetry_file: None,
            log_dir: None,
            transport: TransportKind::Channel,
        }
    }

    /// Selects the base transport the deployment's bytes move over
    /// (default: in-process channels). `TransportKind::Reactor` runs the
    /// same nodes over real loopback TCP owned by a fixed set of
    /// event-loop threads.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Enables the durable replicated subscription log, rooted at `dir`
    /// (one file family per matcher; appends are flushed one by one and
    /// fsynced on rotation and compaction). Off by default: without it
    /// the subscription store is memory-only and crash recovery re-ships
    /// every copy from the orchestrator's registration store.
    pub fn log_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.log_dir = Some(dir.into());
        self
    }

    /// Enables the load-driven autoscaler: the orchestrator registers its
    /// control inbox as a load observer, and each
    /// [`Cluster::autoscale_tick`] feeds the gossiped `(queue, λ, µ)`
    /// reports through the control plane's autoscaler, executing
    /// whatever [`ScalePlan`] it emits.
    pub fn autoscaler(mut self, cfg: AutoscalerConfig) -> Self {
        self.autoscaler = Some(cfg);
        self
    }

    /// Sets the number of matchers.
    pub fn matchers(mut self, n: u32) -> Self {
        self.matchers = n.max(1);
        self
    }

    /// Sets the number of dispatchers.
    pub fn dispatchers(mut self, n: usize) -> Self {
        self.dispatchers = n.max(1);
        self
    }

    /// Sets the forwarding policy.
    pub fn policy(mut self, p: PolicyKind) -> Self {
        self.policy = p;
        self
    }

    /// Sets the partition strategy.
    pub fn strategy(mut self, s: StrategyKind) -> Self {
        self.strategy = s;
        self
    }

    /// Sets the per-dimension index structure.
    pub fn index(mut self, k: IndexKind) -> Self {
        self.engine.index = k;
        self
    }

    /// Frames coalesced per destination before a size flush on the
    /// forwarding hot path (`1` = batching off, the default).
    pub fn max_batch(mut self, frames: usize) -> Self {
        self.engine.batch.max_batch = frames;
        self
    }

    /// Longest a staged hot-path frame waits for company — the bound for
    /// a node that never idles; one that runs out of input flushes at
    /// once.
    pub fn max_delay(mut self, d: Duration) -> Self {
        self.engine.batch.max_delay = d.as_secs_f64();
        self
    }

    /// Sets the load-report push interval.
    pub fn stats_interval(mut self, d: Duration) -> Self {
        self.stats_interval = d;
        self
    }

    /// Sets the gossip round interval (§III-C; the paper uses 1 s).
    pub fn gossip_interval(mut self, d: Duration) -> Self {
        self.gossip_interval = d;
        self
    }

    /// Sets how often dispatchers pull the segment table from a random
    /// matcher (§III-C; the paper uses 10 s).
    pub fn table_pull_interval(mut self, d: Duration) -> Self {
        self.table_pull_interval = d;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Enables deterministic fault injection: every node's transport is
    /// wrapped in a [`FaultTransport`] scoped to that node's address, all
    /// sharing one [`FaultHandle`] (retrieved via
    /// [`Cluster::fault_handle`]) seeded with `seed`. With no rules or
    /// partitions installed the wrapper is a pure pass-through.
    pub fn fault_injection(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// Sets the matchers' failure-detector thresholds (chaos tests shrink
    /// these so Suspect/Dead declarations land in test-scale time).
    pub fn failure_detector(mut self, fd: bluedove_overlay::FailureDetectorConfig) -> Self {
        self.failure_detector = fd;
        self
    }

    /// Enables or disables publication acknowledgements (at-least-once
    /// forwarding). On by default; off restores the fire-and-forget
    /// pipeline of one synchronous failover, then drop.
    pub fn publication_acks(mut self, on: bool) -> Self {
        self.engine.retry.acks = on;
        self
    }

    /// Sets the base ack timeout of the retransmit schedule.
    pub fn ack_timeout(mut self, d: Duration) -> Self {
        self.engine.retry.ack_timeout = d.as_secs_f64();
        self
    }

    /// Sets how long a dispatcher shuns a suspected matcher before
    /// re-probing it.
    pub fn suspicion_ttl(mut self, d: Duration) -> Self {
        self.engine.retry.suspicion_ttl = d.as_secs_f64();
        self
    }

    /// Dumps the final telemetry exposition to `path` on
    /// [`Cluster::shutdown`] (Prometheus text format).
    pub fn telemetry_file(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.telemetry_file = Some(path.into());
        self
    }

    /// Records every successful first forward as `(message, matcher, dim)`
    /// in [`Cluster::forward_log`] — the sim/cluster parity probe. Off by
    /// default (the log grows without bound).
    pub fn record_forwards(mut self, on: bool) -> Self {
        self.engine.record_forwards = on;
        self
    }
}

/// Errors surfaced by the cluster API.
#[derive(Debug)]
pub enum ClusterError {
    /// Underlying transport/codec failure.
    Net(NetError),
    /// A synchronous operation timed out waiting for an ack.
    Timeout(&'static str),
    /// The control plane refused a scale operation or a restart.
    Scale(ScaleError),
    /// The operation's precondition does not hold (e.g. unsubscribing an
    /// unknown subscription).
    Invalid(&'static str),
    /// A publication or subscription does not fit the deployment's
    /// attribute space (arity, NaN, domain or an empty range).
    Malformed(CoreError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Net(e) => write!(f, "net: {e}"),
            ClusterError::Timeout(w) => write!(f, "timed out waiting for {w}"),
            ClusterError::Scale(e) => write!(f, "control plane: {e}"),
            ClusterError::Invalid(w) => write!(f, "invalid operation: {w}"),
            ClusterError::Malformed(e) => write!(f, "malformed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<NetError> for ClusterError {
    fn from(e: NetError) -> Self {
        ClusterError::Net(e)
    }
}

impl From<ScaleError> for ClusterError {
    fn from(e: ScaleError) -> Self {
        ClusterError::Scale(e)
    }
}

/// A delivered `(message, subscription)` pair with measured latency.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The subscription that matched.
    pub sub: SubscriptionId,
    /// The delivered message.
    pub msg: Message,
    /// Dispatcher-admission → subscriber-receipt latency.
    pub latency: Duration,
}

/// Blocks up to `secs` for the first frame on `rx` that `pick` accepts,
/// skipping whatever else shares the inbox (load reports, late acks).
fn await_reply<T>(
    rx: &Receiver<Bytes>,
    secs: u64,
    what: &'static str,
    mut pick: impl FnMut(ControlMsg) -> Option<T>,
) -> Result<T, ClusterError> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let payload = rx
            .recv_timeout(remaining)
            .map_err(|_| ClusterError::Timeout(what))?;
        if let Some(reply) = frames(payload).find_map(&mut pick) {
            return Ok(reply);
        }
    }
}

/// A subscriber endpoint receiving direct deliveries.
pub struct SubscriberHandle {
    /// This endpoint's subscriber id.
    pub id: SubscriberId,
    /// The id of the subscription registered by [`Cluster::subscribe`].
    pub subscription: SubscriptionId,
    /// The registered subscription, as stamped by the dispatcher (used to
    /// recompute the deterministic assignment on unsubscribe).
    sub: Subscription,
    rx: Receiver<Bytes>,
    shared: Arc<Shared>,
    /// `(message, subscription)` pairs already observed: retransmissions
    /// upstream make duplicate deliveries possible; this endpoint filter
    /// restores exactly-once observation.
    dedup: Mutex<SeenWindow<(MessageId, SubscriptionId)>>,
    /// Deliveries unwrapped from a coalesced batch but not yet handed to
    /// the caller (`recv_timeout` returns one delivery at a time).
    pending: Mutex<VecDeque<Delivery>>,
    /// Admission → subscriber-receipt latency, shared across all direct
    /// endpoints (and the mailbox).
    e2e: bluedove_telemetry::Histogram,
}

impl SubscriberHandle {
    /// Returns true when the delivery is a duplicate (and counts it).
    fn is_duplicate(&self, sub: SubscriptionId, msg_id: MessageId) -> bool {
        if msg_id == MessageId(0) {
            return false;
        }
        if self.dedup.lock().check_and_insert((msg_id, sub)) {
            self.shared.counters.duplicates_suppressed.inc();
            return true;
        }
        false
    }

    /// Appends every fresh (non-duplicate) delivery in one received
    /// payload to `out`. Stray control traffic and corrupt frames are
    /// skipped.
    fn accept(&self, payload: Bytes, out: &mut impl Extend<Delivery>) {
        // Zero-copy decode: each delivery's payload windows the frame.
        for m in frames(payload) {
            if let ControlMsg::Deliver {
                sub,
                msg,
                admitted_us,
                ..
            } = m
            {
                if self.is_duplicate(sub, msg.id) {
                    continue;
                }
                let latency_us = self.shared.now_us().saturating_sub(admitted_us);
                self.e2e.observe_us(latency_us);
                out.extend(Some(Delivery {
                    sub,
                    msg,
                    latency: Duration::from_micros(latency_us),
                }));
            }
        }
    }

    /// Blocks up to `timeout` for the next delivery.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery> {
        // Serve the rest of an already-unwrapped batch first.
        if let Some(d) = self.pending.lock().pop_front() {
            return Some(d);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let payload = self.rx.recv_timeout(remaining).ok()?;
            let mut pending = self.pending.lock();
            self.accept(payload, &mut *pending);
            if let Some(first) = pending.pop_front() {
                return Some(first);
            }
        }
    }

    /// Drains every delivery currently queued, without blocking.
    pub fn drain(&self) -> Vec<Delivery> {
        let mut out: Vec<Delivery> = self.pending.lock().drain(..).collect();
        while let Ok(payload) = self.rx.try_recv() {
            self.accept(payload, &mut out);
        }
        out
    }

    /// Drains raw queued payloads without decoding (used when re-routing
    /// this endpoint onto the mailbox node).
    pub(crate) fn drain_raw(&self) -> Vec<Bytes> {
        let mut out = Vec::new();
        while let Ok(payload) = self.rx.try_recv() {
            out.push(payload);
        }
        out
    }
}

/// A standalone publishing handle (cheap to clone per producer thread).
/// It sends what it is given; a malformed message is dropped and counted
/// by the dispatcher that receives it.
#[derive(Clone)]
pub struct Publisher {
    transport: Arc<dyn Transport>,
    dispatchers: Vec<String>,
    rr: usize,
    /// The deployment's coalescing depth (1 = batching off).
    max_batch: usize,
}

impl Publisher {
    /// Publishes one message through the next dispatcher (round-robin).
    pub fn publish(&mut self, msg: Message) -> Result<(), ClusterError> {
        let addr = &self.dispatchers[self.rr % self.dispatchers.len()];
        self.rr = self.rr.wrapping_add(1);
        self.transport
            .send(addr, to_bytes(&ControlMsg::Publish(msg)).freeze())?;
        Ok(())
    }

    /// Publishes a whole stream, coalescing up to the deployment's
    /// `max_batch` publications per wire frame and round-robining whole
    /// chunks across dispatchers (a chunk must stay on one dispatcher —
    /// admission stamps ids in arrival order). With batching off this
    /// degenerates to a [`publish`](Self::publish) loop, frame for frame.
    pub fn publish_all<I>(&mut self, msgs: I) -> Result<(), ClusterError>
    where
        I: IntoIterator<Item = Message>,
    {
        let mut staged: Vec<ControlMsg> = Vec::new();
        for msg in msgs {
            if self.max_batch <= 1 {
                self.publish(msg)?;
                continue;
            }
            staged.push(ControlMsg::Publish(msg));
            if staged.len() >= self.max_batch {
                self.flush_staged(&mut staged)?;
            }
        }
        if !staged.is_empty() {
            self.flush_staged(&mut staged)?;
        }
        Ok(())
    }

    fn flush_staged(&mut self, staged: &mut Vec<ControlMsg>) -> Result<(), ClusterError> {
        let addr = &self.dispatchers[self.rr % self.dispatchers.len()];
        self.rr = self.rr.wrapping_add(1);
        let frame = crate::batchio::flush_frame(std::mem::take(staged));
        self.transport.send(addr, to_bytes(&frame).freeze())?;
        Ok(())
    }
}

/// A polling (indirect-delivery) subscriber endpoint: matching messages
/// accumulate in the cluster's mailbox node until [`poll`](Self::poll)ed —
/// the §II-B model for clients that cannot listen for connections.
pub struct IndirectSubscriber {
    /// This endpoint's subscriber id.
    pub id: SubscriberId,
    /// The id of the registered subscription.
    pub subscription: SubscriptionId,
    transport: Arc<dyn Transport>,
    mailbox_addr: String,
    reply_addr: String,
    reply_rx: Receiver<Bytes>,
    shared: Arc<Shared>,
}

impl IndirectSubscriber {
    /// Fetches up to `max` stored deliveries (0 = all currently stored).
    pub fn poll(&self, max: u32) -> Result<Vec<Delivery>, ClusterError> {
        let req = ControlMsg::MailboxPoll {
            subscriber: self.id,
            reply_to: self.reply_addr.clone(),
            max,
        };
        self.transport
            .send(&self.mailbox_addr, to_bytes(&req).freeze())?;
        let entries = await_reply(&self.reply_rx, 5, "mailbox batch", |m| match m {
            ControlMsg::MailboxBatch { entries } => Some(entries),
            _ => None,
        })?;
        let now_us = self.shared.now_us();
        Ok(entries
            .into_iter()
            .map(|(sub, msg, admitted_us)| Delivery {
                sub,
                msg,
                latency: Duration::from_micros(now_us.saturating_sub(admitted_us)),
            })
            .collect())
    }
}

/// The running deployment.
pub struct Cluster {
    cfg: ClusterConfig,
    /// The base transport (channels or reactor) carrying every frame;
    /// also the management-plane path — [`HostTransport`] gives the
    /// orchestrator alias/unbind/wire-stats/shutdown on top of sends.
    base: Arc<dyn HostTransport>,
    transport: Arc<dyn Transport>,
    /// Set when [`ClusterConfig::fault_injection`] was enabled: the shared
    /// fault layer every node's transport is scoped from.
    fault: Option<FaultTransport>,
    shared: Arc<Shared>,
    matchers: HashMap<MatcherId, MatcherNode>,
    dispatchers: Vec<DispatcherNode>,
    mailbox: Option<MailboxNode>,
    ctl_rx: Receiver<Bytes>,
    /// Inbox for `TelemetryText` replies to wire pulls.
    tel_rx: Receiver<Bytes>,
    next_subscriber: u64,
    publish_rr: usize,
    /// The control plane: the authoritative table and its versions,
    /// membership, the sub-log leader book and the autoscaler.
    control: ControlEngine,
    /// Per-matcher gossip incarnation numbers (bumped by
    /// [`restart_matcher`](Self::restart_matcher)).
    generations: HashMap<MatcherId, u64>,
    /// Every acked subscription, by id — the registration store a
    /// restarted matcher recovers its copies from when there is no
    /// sub-log.
    sub_registry: HashMap<SubscriptionId, Subscription>,
    /// Latest gossiped load report per `(matcher, dimension)` — the raw
    /// material [`autoscale_tick`](Self::autoscale_tick) snapshots from.
    load_view: HashMap<(MatcherId, DimIdx), DimStats>,
}

/// The node config of matcher `id`: the deployment's knobs plus what
/// differs per spawn — the gossip bootstrap, the incarnation number and
/// the sub-log leader `epoch`. The sub-log is on when the deployment has
/// a log dir (file names embed the matcher id, so one directory serves
/// every matcher).
fn matcher_config(
    cfg: &ClusterConfig,
    id: MatcherId,
    gossip_seeds: Vec<bluedove_overlay::EndpointState>,
    generation: u64,
    epoch: u64,
) -> MatcherNodeConfig {
    MatcherNodeConfig {
        id,
        addr: matcher_addr(id),
        engine: cfg.engine.clone(),
        stats_interval: cfg.stats_interval,
        gossip_interval: cfg.gossip_interval,
        gossip_seeds,
        generation,
        failure_detector: cfg.failure_detector,
        sublog: cfg.log_dir.as_ref().map(|dir| crate::sublog::SubLogConfig {
            epoch,
            ..crate::sublog::SubLogConfig::new(dir.clone())
        }),
    }
}

/// The address book of `members`: each at its conventional address.
fn address_book(members: &[MatcherId]) -> Vec<(MatcherId, String)> {
    members.iter().map(|&m| (m, matcher_addr(m))).collect()
}

/// `members` as gossip bootstrap states, each carrying its current
/// incarnation number.
fn gossip_seeds(
    members: impl IntoIterator<Item = MatcherId>,
    generations: &HashMap<MatcherId, u64>,
) -> Vec<bluedove_overlay::EndpointState> {
    members
        .into_iter()
        .map(|m| {
            bluedove_overlay::EndpointState::new(
                bluedove_overlay::NodeId(m.0 as u64),
                bluedove_overlay::NodeRole::Matcher,
                matcher_addr(m),
                generations.get(&m).copied().unwrap_or(1),
            )
        })
        .collect()
}

impl Cluster {
    /// Starts the deployment: binds the control inbox, spawns matchers and
    /// dispatchers, and registers all addresses.
    pub fn start(cfg: ClusterConfig) -> Self {
        let base: Arc<dyn HostTransport> = match &cfg.transport {
            TransportKind::Channel => Arc::new(ChannelTransport::new()),
            TransportKind::Reactor(rcfg) => {
                Arc::new(ReactorTransport::start(rcfg.clone()).expect("start reactor event loops"))
            }
        };
        let base_send: Arc<dyn Transport> = base.clone();
        // With fault injection on, every node sends through its own scoped
        // clone of one shared fault layer (so partitions and link rules
        // can tell senders apart); otherwise nodes share the base
        // transport directly.
        let fault = cfg
            .fault_seed
            .map(|seed| FaultTransport::new(base_send.clone(), seed));
        let scope = |origin: &str| -> Arc<dyn Transport> {
            match &fault {
                Some(f) => Arc::new(f.scoped(origin)),
                None => base_send.clone(),
            }
        };
        let transport: Arc<dyn Transport> = scope(&control_addr());
        let strategy = match cfg.strategy {
            StrategyKind::BlueDove => AnyStrategy::bluedove(cfg.space.clone(), cfg.matchers),
            StrategyKind::P2p => AnyStrategy::p2p(cfg.space.clone(), cfg.matchers),
            StrategyKind::FullReplication => AnyStrategy::full_rep(cfg.matchers),
        };
        let mut control = ControlEngine::new(strategy);
        if cfg.log_dir.is_some() {
            control.replicate();
        }
        if let Some(scaler) = &cfg.autoscaler {
            control.enable_autoscaler(scaler.clone());
        }
        let shared = Arc::new(Shared::new(cfg.space.clone()));
        if cfg.engine.record_forwards {
            *shared.forward_log.write() = Some(Vec::new());
        }
        // With the autoscaler on, matchers mirror every load report to the
        // orchestrator's control inbox alongside the dispatchers.
        if cfg.autoscaler.is_some() {
            shared.load_observers.write().push(control_addr());
        }
        let ctl_rx = transport.bind(&control_addr()).expect("bind control inbox");
        let tel_rx = transport
            .bind(&telemetry_addr())
            .expect("bind telemetry inbox");

        // Every initial matcher bootstraps with the endpoint states of the
        // whole initial membership (the paper seeds via a dispatcher).
        let table = control.announce();
        let generations: HashMap<MatcherId, u64> = table.live.iter().map(|&m| (m, 1)).collect();
        let seeds = gossip_seeds(table.live.iter().copied(), &generations);
        let matchers: HashMap<MatcherId, MatcherNode> = table
            .live
            .iter()
            .map(|&id| {
                let cfg = matcher_config(&cfg, id, seeds.clone(), 1, 1);
                let transport = scope(&cfg.addr);
                (id, MatcherNode::spawn(cfg, shared.clone(), transport))
            })
            .collect();
        let bootstrap = RoutingState {
            version: table.version,
            strategy: table.strategy.clone(),
            addrs: address_book(&table.live).into_iter().collect(),
        };
        let mut dispatchers = Vec::new();
        for i in 0..cfg.dispatchers {
            let addr = dispatcher_addr(i);
            shared.dispatcher_addrs.write().push(addr.clone());
            dispatchers.push(DispatcherNode::spawn(
                DispatcherNodeConfig {
                    index: i,
                    addr: addr.clone(),
                    policy: cfg.policy.build(),
                    seed: cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                    bootstrap: bootstrap.clone(),
                    table_pull_interval: cfg.table_pull_interval,
                    engine: cfg.engine.clone(),
                },
                shared.clone(),
                scope(&addr),
            ));
        }
        let mailbox = MailboxNode::spawn_shared("mb/0".to_string(), scope("mb/0"), shared.clone());
        shared.matchers_gauge.set(matchers.len() as i64);
        let cluster = Cluster {
            cfg,
            base,
            transport,
            fault,
            shared,
            matchers,
            dispatchers,
            mailbox: Some(mailbox),
            ctl_rx,
            tel_rx,
            next_subscriber: 1,
            publish_rr: 0,
            control,
            generations,
            sub_registry: HashMap::new(),
            load_view: HashMap::new(),
        };
        // Install the initial table on every matcher so dispatcher pulls
        // have an authoritative source from the first round.
        cluster.push_table(&table);
        cluster
    }

    /// Announces the control plane's current table under a fresh version.
    fn broadcast_table(&mut self) {
        let table = self.control.announce();
        self.push_table(&table);
    }

    /// Pushes `table` (membership, strategy and leader book) to every live
    /// matcher and every dispatcher as a `TableState`. Management-plane
    /// traffic rides the raw channel: the orchestrator's bookkeeping must
    /// not be lost to the faults it is recovering from.
    fn push_table(&self, table: &Announcement) {
        let state = ControlMsg::TableState {
            version: table.version,
            strategy: Some(table.strategy.clone()),
            addrs: address_book(&table.live),
            leaders: table.leaders.clone(),
        };
        let state = to_bytes(&state).freeze();
        let matchers = table.live.iter().map(|&m| matcher_addr(m));
        for a in matchers.chain(self.dispatchers.iter().map(|d| d.addr.clone())) {
            let _ = self.base.send(&a, state.clone());
        }
    }

    /// Ships each move's range from its source to its destination and
    /// blocks until every source has acknowledged on the control inbox
    /// (other control traffic sharing it is skipped).
    fn hand_over(&self, moves: &[Move]) -> Result<(), ClusterError> {
        for mv in moves {
            let handover = ControlMsg::HandOver {
                dim: mv.dim,
                range: mv.range,
                to: mv.to,
                reply_to: control_addr(),
            };
            self.transport
                .send(&matcher_addr(mv.from), to_bytes(&handover).freeze())?;
        }
        for _ in moves {
            await_reply(&self.ctl_rx, 10, "hand-over ack", |m| {
                matches!(m, ControlMsg::HandOverDone { .. }).then_some(())
            })?;
        }
        Ok(())
    }

    /// A transport scoped to `origin` for a node spawned after start.
    fn scoped_transport(&self, origin: &str) -> Arc<dyn Transport> {
        match &self.fault {
            Some(f) => Arc::new(f.scoped(origin)),
            None => self.base.clone(),
        }
    }

    /// The shared fault-injection handle, when
    /// [`ClusterConfig::fault_injection`] was enabled.
    pub fn fault_handle(&self) -> Option<FaultHandle> {
        self.fault.as_ref().map(|f| f.handle())
    }

    /// The attribute space of the deployment.
    pub fn space(&self) -> &AttributeSpace {
        &self.shared.space
    }

    /// Shared counters (published / matched / deliveries / dropped).
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        self.shared.counters.snapshot()
    }

    /// At-least-once pipeline counters
    /// (retried / duplicates_suppressed / dead_lettered).
    pub fn reliability_counters(&self) -> (u64, u64, u64) {
        self.shared.counters.reliability()
    }

    /// Total gossip bytes matchers have sent so far (§IV-C overhead).
    pub fn gossip_bytes(&self) -> u64 {
        self.shared.counters.gossip_bytes.get()
    }

    /// Cumulative `(frames, payload bytes)` the in-process transport has
    /// routed — every control, forward, delivery, gossip and telemetry
    /// frame of the whole deployment. Benches diff this around a
    /// publishing window to attribute wire traffic per message.
    pub fn wire_stats(&self) -> (u64, u64) {
        self.base.wire_stats()
    }

    /// The `(message, matcher, dim)` sequence of successful first
    /// forwards, in admission order. Empty unless the cluster was started
    /// with [`ClusterConfig::record_forwards`].
    pub fn forward_log(&self) -> Vec<(MessageId, MatcherId, DimIdx)> {
        self.shared.forward_log.read().clone().unwrap_or_default()
    }

    /// The process-wide metric registry every node records into.
    pub fn telemetry(&self) -> &Arc<bluedove_telemetry::Registry> {
        &self.shared.telemetry
    }

    /// The current telemetry exposition, rendered locally (Prometheus
    /// text format).
    pub fn telemetry_text(&self) -> String {
        self.shared.telemetry.render()
    }

    /// Pulls the telemetry exposition **over the wire**: sends a
    /// `TelemetryPull` to a running matcher and awaits its
    /// `TelemetryText` reply — the path an external scraper would
    /// exercise. The registry is process-wide, so any matcher can serve
    /// the full exposition.
    pub fn pull_telemetry(&self) -> Result<String, ClusterError> {
        let first = self.control.live().next();
        let target = matcher_addr(first.ok_or(ClusterError::Timeout("live matcher"))?);
        let pull = ControlMsg::TelemetryPull {
            reply_to: telemetry_addr(),
        };
        self.transport.send(&target, to_bytes(&pull).freeze())?;
        await_reply(&self.tel_rx, 5, "telemetry exposition", |m| match m {
            ControlMsg::TelemetryText { text } => Some(text),
            _ => None,
        })
    }

    /// Per-matcher gossip peer counts, as last reported by each matcher's
    /// gossip tick (membership-convergence observability).
    pub fn gossip_peer_counts(&self) -> Vec<(MatcherId, usize)> {
        let mut v: Vec<(MatcherId, usize)> = self
            .shared
            .gossip_peers
            .read()
            .iter()
            .map(|(&m, &n)| (m, n))
            .collect();
        v.sort_unstable_by_key(|&(m, _)| m);
        v
    }

    /// Per-matcher counts of peers each matcher's failure detector deems
    /// Alive, as of its last gossip tick. Entries for killed matchers
    /// linger until overwritten by a restart; filter by
    /// [`matcher_ids`](Self::matcher_ids) to probe only running nodes.
    pub fn gossip_live_counts(&self) -> Vec<(MatcherId, usize)> {
        let mut v: Vec<(MatcherId, usize)> = self
            .shared
            .gossip_live
            .read()
            .iter()
            .map(|(&m, &n)| (m, n))
            .collect();
        v.sort_unstable_by_key(|&(m, _)| m);
        v
    }

    /// Live matcher ids — the table members not known to be down —
    /// ascending.
    pub fn matcher_ids(&self) -> Vec<MatcherId> {
        self.control.live().collect()
    }

    /// Registers `sub` and returns the subscriber endpoint that will
    /// receive its matching messages. Blocks until the registration is
    /// acknowledged, so a subsequent [`publish`](Self::publish) is
    /// guaranteed to be matched against the new subscription. A
    /// subscription that does not fit the space is refused up front with
    /// [`ClusterError::Malformed`].
    pub fn subscribe(&mut self, mut sub: Subscription) -> Result<SubscriberHandle, ClusterError> {
        sub.validate(self.space())
            .map_err(ClusterError::Malformed)?;
        let subscriber = SubscriberId(self.next_subscriber);
        self.next_subscriber += 1;
        sub.subscriber = subscriber;
        let rx = self.transport.bind(&subscriber_addr(subscriber.0))?;
        let d = &self.dispatchers[(subscriber.0 as usize) % self.dispatchers.len()];
        self.transport.send(
            &d.addr,
            to_bytes(&ControlMsg::Subscribe(sub.clone())).freeze(),
        )?;
        // Wait for the ack (skipping nothing: the ack is the first thing
        // this fresh endpoint can receive).
        sub.id = await_reply(&rx, 5, "subscription ack", |m| match m {
            ControlMsg::SubAck { sub } => Some(sub),
            _ => None,
        })?;
        self.sub_registry.insert(sub.id, sub.clone());
        Ok(SubscriberHandle {
            id: subscriber,
            subscription: sub.id,
            sub,
            rx,
            e2e: crate::shared::e2e_latency_histogram(&self.shared.telemetry),
            shared: self.shared.clone(),
            dedup: Mutex::new(SeenWindow::new(DEDUP_WINDOW)),
            pending: Mutex::new(VecDeque::new()),
        })
    }

    /// Unregisters the subscription behind `handle`: every copy is removed
    /// from the matchers (fire-and-forget; in-flight messages may still be
    /// delivered).
    pub fn unsubscribe(&mut self, handle: &SubscriberHandle) -> Result<(), ClusterError> {
        self.sub_registry.remove(&handle.subscription);
        let d = &self.dispatchers[(handle.id.0 as usize) % self.dispatchers.len()];
        self.transport.send(
            &d.addr,
            to_bytes(&ControlMsg::Unsubscribe(handle.sub.clone())).freeze(),
        )?;
        Ok(())
    }

    /// Unregisters a subscription by id, for endpoints without a live
    /// [`SubscriberHandle`] — mailbox ([`subscribe_indirect`]) subscribers
    /// in particular. The registry supplies the full subscription the
    /// matchers need to locate every copy.
    ///
    /// [`subscribe_indirect`]: Self::subscribe_indirect
    pub fn unsubscribe_by_id(&mut self, id: SubscriptionId) -> Result<(), ClusterError> {
        let Some(sub) = self.sub_registry.remove(&id) else {
            return Err(ClusterError::Invalid("unsubscribe of unknown subscription"));
        };
        let d = &self.dispatchers[(sub.subscriber.0 as usize) % self.dispatchers.len()];
        self.transport
            .send(&d.addr, to_bytes(&ControlMsg::Unsubscribe(sub)).freeze())?;
        Ok(())
    }

    /// Registers `sub` with **indirect delivery** (§II-B): matching
    /// messages accumulate in the cluster's mailbox node and the returned
    /// endpoint fetches them with [`IndirectSubscriber::poll`] — the model
    /// for subscribers (e.g. mobile phones) that cannot listen for
    /// incoming connections.
    pub fn subscribe_indirect(
        &mut self,
        sub: Subscription,
    ) -> Result<IndirectSubscriber, ClusterError> {
        // Register with a live endpoint first so the SubAck handshake
        // works unchanged...
        let handle = self.subscribe(sub)?;
        let mailbox_addr = self.mailbox.as_ref().expect("mailbox running").addr.clone();
        // ...then atomically re-route the subscriber address onto the
        // mailbox inbox and forward anything that raced into the
        // temporary endpoint.
        self.base
            .alias(&subscriber_addr(handle.id.0), &mailbox_addr)?;
        for raced in handle.drain_raw() {
            let _ = self.transport.send(&mailbox_addr, raced);
        }
        let reply_addr = format!("poll/{}", handle.id.0);
        let reply_rx = self.transport.bind(&reply_addr)?;
        Ok(IndirectSubscriber {
            id: handle.id,
            subscription: handle.subscription,
            transport: self.transport.clone(),
            mailbox_addr,
            reply_addr,
            reply_rx,
            shared: self.shared.clone(),
        })
    }

    /// Publishes one message through the next dispatcher (round-robin).
    /// A message that does not fit the space is refused up front with
    /// [`ClusterError::Malformed`].
    pub fn publish(&mut self, msg: Message) -> Result<(), ClusterError> {
        msg.validate(self.space())
            .map_err(ClusterError::Malformed)?;
        let addr = &self.dispatchers[self.publish_rr % self.dispatchers.len()].addr;
        self.publish_rr = self.publish_rr.wrapping_add(1);
        self.transport
            .send(addr, to_bytes(&ControlMsg::Publish(msg)).freeze())?;
        Ok(())
    }

    /// Creates a standalone publishing handle for producer threads.
    pub fn publisher(&self) -> Publisher {
        Publisher {
            transport: self.transport.clone(),
            dispatchers: self.dispatchers.iter().map(|d| d.addr.clone()).collect(),
            rr: 0,
            max_batch: self.cfg.engine.batch.normalized().max_batch,
        }
    }

    /// Executes one [`ScalePlan`] — the single elasticity entry point both
    /// hosts share with the autoscaler. `Grow` performs the §III-C join,
    /// `Shrink` the graceful leave. Only valid under the BlueDove
    /// strategy.
    pub fn apply_scale(&mut self, plan: &ScalePlan) -> Result<ScaleOutcome, ClusterError> {
        match plan {
            ScalePlan::Grow { loads } => self.grow(loads).map(ScaleOutcome::Added),
            ScalePlan::Shrink { victim } => self.remove_matcher(*victim).map(ScaleOutcome::Removed),
        }
    }

    /// Elastic join (§III-C): adds the matcher the control plane plans,
    /// splitting the segment of the matcher `loads` reports heaviest on
    /// each dimension (uniform when the snapshot is empty), synchronously
    /// handing the affected subscriptions over before the post-join table
    /// is announced — dispatchers keep routing by the old table until
    /// then.
    fn grow(&mut self, loads: &LoadSnapshot) -> Result<MatcherId, ClusterError> {
        let change = self.control.join(loads)?;
        let new_id = change.outcome.matcher();
        // Spawn the newcomer, seeded with the current membership so it
        // can join the gossip mesh immediately, then hand over: donors
        // ship copies, we await the acks.
        let cfg = matcher_config(
            &self.cfg,
            new_id,
            gossip_seeds(self.control.live(), &self.generations),
            1,
            1,
        );
        let transport = self.scoped_transport(&cfg.addr);
        let node = MatcherNode::spawn(cfg, self.shared.clone(), transport);
        self.matchers.insert(new_id, node);
        self.generations.insert(new_id, 1);
        if let Err(e) = self.hand_over(&change.moves) {
            // Never committed: stop the joiner, and the donors keep what
            // they shipped it.
            if let Some(node) = self.matchers.remove(&new_id) {
                self.base.unbind(&node.addr);
                node.crash();
                node.join();
            }
            self.generations.remove(&new_id);
            return Err(e);
        }

        // Flip the routing table: matchers install it and dispatchers get
        // it pushed (they also pull it) — safe now that every hand-over
        // has completed.
        self.control.commit(&change, self.shared.now());
        self.broadcast_table();

        // Dispatchers may route by the old table for up to one pull
        // interval; donors keep their copies until then, so completeness
        // holds throughout. Retire the stale copies afterwards.
        std::thread::sleep(self.cfg.table_pull_interval * 2);
        for mv in &change.moves {
            let retire = ControlMsg::Retire {
                dim: mv.dim,
                range: mv.range,
                keep: mv.keep.clone(),
            };
            let _ = self
                .transport
                .send(&matcher_addr(mv.from), to_bytes(&retire).freeze());
        }
        self.shared.counters.scale_ups.inc();
        self.shared.matchers_gauge.set(self.matchers.len() as i64);
        Ok(new_id)
    }

    /// Elastic join with uniform load (splits the lowest-id matcher's
    /// widest segments). Equivalent to `apply_scale(&ScalePlan::grow())`.
    pub fn add_matcher(&mut self) -> Result<MatcherId, ClusterError> {
        self.grow(&LoadSnapshot::empty())
    }

    /// Graceful elastic leave — the §III-C join run in reverse: removes
    /// matcher `victim`, handing each of its segments to the neighbour the
    /// segment table picks, flipping the routing table, and only then
    /// telling the victim to drain and exit. Acked in-flight publications
    /// re-home automatically: once the table switches, the dispatcher
    /// ledger recomputes candidates from the new table on every
    /// retransmit. Equivalent to `apply_scale` with a `Shrink` plan.
    pub fn remove_matcher(&mut self, victim: MatcherId) -> Result<MatcherId, ClusterError> {
        // Synchronous hand-over, inverted: the victim ships a copy of each
        // outgoing segment to its heir while continuing to serve its own
        // copies (routing may still point at it for one pull interval).
        let change = self.control.leave(victim)?;
        self.hand_over(&change.moves)?;

        // Flip the routing table with the victim deregistered and its own
        // stream forgotten (its copies went to the heirs); a stream it led
        // for a down owner moves on to its heir, which takes the victim's
        // copy as its replica and leads. After the push no *new* work is
        // routed to the victim — retransmissions recompute candidates from
        // this table too, so the ledger re-homes its in-flight
        // publications onto the heirs.
        let mut handed = Ok(victim);
        for (stream, heir, epoch) in self.control.commit(&change, self.shared.now()) {
            let (heir, fetch_from) = (matcher_addr(heir), String::new());
            let replica = |append| ControlMsg::SubLogAppend { append, fetch_from };
            handed = handed.and(
                self.step_down(victim, stream, &heir, replica)
                    .map(|_| victim),
            );
            let promote = ControlMsg::SubLogPromote { stream, epoch };
            let _ = self.base.send(&heir, to_bytes(&promote).freeze());
        }
        self.broadcast_table();

        // Publications routed by the old table may still arrive for up to
        // one pull interval; the victim serves them from the copies it
        // kept. Only then does it get the Leave pill: it announces its
        // departure on the gossip mesh and exits once its queues are
        // quiesced. Join before unbinding so any frame sent while the
        // victim drains still lands in a live inbox.
        std::thread::sleep(self.cfg.table_pull_interval * 2);
        let _ = self
            .base
            .send(&matcher_addr(victim), to_bytes(&ControlMsg::Leave).freeze());
        if let Some(node) = self.matchers.remove(&victim) {
            let addr = node.addr.clone();
            node.join();
            self.base.unbind(&addr);
        }
        // Drop the retiree's stale observability entries so convergence
        // probes don't count a node that left cleanly.
        self.shared.gossip_peers.write().remove(&victim);
        self.shared.gossip_live.write().remove(&victim);
        self.load_view.retain(|&(m, _), _| m != victim);
        self.shared.counters.scale_downs.inc();
        self.shared.matchers_gauge.set(self.matchers.len() as i64);
        handed
    }

    /// Steps `leader` down from `stream` and sends its copy of it, taken
    /// in the same step, to `to` as `relay` frames it: the copy holds
    /// every write the leader applied, and the leader passes any later
    /// one on.
    fn step_down(
        &self,
        leader: MatcherId,
        stream: MatcherId,
        to: &str,
        relay: impl FnOnce(ReplicatedAppend<SubLogRecord>) -> ControlMsg,
    ) -> Result<(), ClusterError> {
        let fetch = ControlMsg::SubLogFetch {
            stream,
            from: 0,
            reply_to: control_addr(),
            step_down: true,
        };
        self.base
            .send(&matcher_addr(leader), to_bytes(&fetch).freeze())?;
        let copy = await_reply(&self.ctl_rx, 5, "sub-log hand-back", |msg| match msg {
            ControlMsg::SubLogAppend { append, .. } if append.stream == stream => Some(append),
            _ => None,
        })?;
        Ok(self.base.send(to, to_bytes(&relay(copy)).freeze())?)
    }

    /// Drains gossiped load reports from the control inbox into the load
    /// view and feeds it through the control plane's autoscaler,
    /// executing whatever plan the decision lowers to. Call it on the
    /// cadence you would run a control loop — every stats interval or two.
    ///
    /// Returns `Ok(None)` when the controller holds, and
    /// [`ScaleError::NoAutoscaler`] when none was configured.
    pub fn autoscale_tick(&mut self) -> Result<Option<ScaleOutcome>, ClusterError> {
        while let Ok(payload) = self.ctl_rx.try_recv() {
            for msg in frames(payload) {
                if let ControlMsg::LoadReport {
                    matcher,
                    dim,
                    stats,
                } = msg
                {
                    self.load_view.insert((matcher, dim), stats);
                }
            }
        }
        let reports = self.load_view.iter().map(|(&(m, dim), &s)| (m, dim, s));
        let plan = self.control.observe(self.shared.now(), reports)?;
        plan.map(|p| self.apply_scale(&p)).transpose()
    }

    /// Feeds one explicit snapshot through the autoscaler and executes the
    /// resulting plan — the cross-host parity probe: the simulator's
    /// recorded snapshots replayed here must produce the same decision
    /// sequence (the controller is deterministic in its inputs).
    pub fn autoscale_with(
        &mut self,
        snap: &LoadSnapshot,
    ) -> Result<Option<ScaleOutcome>, ClusterError> {
        let plan = self
            .control
            .observe(snap.now, snap.samples().iter().copied())?;
        plan.map(|p| self.apply_scale(&p)).transpose()
    }

    /// The control plane: membership, the authoritative table, the
    /// stream-leader book, and the autoscaler's decision and scale-event
    /// logs (manual and autoscaler-driven scale operations alike).
    pub fn control(&self) -> &ControlEngine {
        &self.control
    }

    /// Crashes matcher `m`: its inbox vanishes and its thread stops.
    /// Dispatchers fail over on their next send to it. With the sub-log
    /// on, the control plane promotes every stream the victim led onto
    /// its clockwise heir at a bumped epoch — the heir replays its replica
    /// into its engine (failover as log replay) — and the table broadcast
    /// at once carries the new leader book, so dispatchers send the
    /// victim's publications and writes to the heir.
    pub fn kill_matcher(&mut self, m: MatcherId) {
        let Some(node) = self.matchers.remove(&m) else {
            return;
        };
        self.base.unbind(&node.addr);
        node.crash();
        node.join();
        self.shared.matchers_gauge.set(self.matchers.len() as i64);
        let promotions = self.control.crash(m);
        if self.cfg.log_dir.is_none() {
            return;
        }
        for (stream, heir, epoch) in promotions {
            let promote = ControlMsg::SubLogPromote { stream, epoch };
            let _ = self
                .base
                .send(&matcher_addr(heir), to_bytes(&promote).freeze());
        }
        self.broadcast_table();
    }

    /// Restarts a matcher previously removed by
    /// [`kill_matcher`](Self::kill_matcher): respawns the node under the
    /// same id and address with a **bumped gossip generation** (so peers
    /// that declared the previous incarnation dead re-admit it), installs
    /// the current routing table, pushes the fresh table straight to every
    /// dispatcher (clearing their fail-over dead lists for re-listed
    /// matchers), and recovers its subscription copies — a crashed
    /// matcher's in-memory state is gone: from its sub-log and the
    /// downtime delta when the deployment has one, else from the
    /// orchestrator's registration store. Refused, with nothing spawned
    /// or announced, unless the control plane lists `m` as a crashed
    /// member (a matcher that left gracefully is no member).
    pub fn restart_matcher(&mut self, m: MatcherId) -> Result<(), ClusterError> {
        // With the sub-log on, the rejoin epoch is above whatever epoch
        // the heir was promoted at, so the heir's in-flight appends fence
        // instead of diverging.
        let (epoch, interim_leader) = self.control.rejoin(m)?;
        let generation = {
            let g = self.generations.entry(m).or_insert(1);
            *g += 1;
            *g
        };
        let addr = matcher_addr(m);
        // Bind the inbox but do **not** start the serve loop yet: the
        // moment the address is routable again, dispatchers may send it
        // publications (their suspicion of the dead incarnation expires on
        // its own). Served against the empty subscription set a crashed
        // matcher boots with, such a publication would be acked with zero
        // deliveries — silent loss. Queueing the recovery replay below
        // before the loop starts closes that window: the loop drains its
        // whole inbox before serving anything.
        let bound = MatcherNode::bind(
            matcher_config(
                &self.cfg,
                m,
                gossip_seeds(self.control.live(), &self.generations),
                generation,
                epoch,
            ),
            self.scoped_transport(&addr),
        );

        // Local-log-first recovery: the bound matcher replays its own
        // durable stream when its serve loop opens the log, so only the
        // *delta* — the writes its stream's interim leader journaled
        // meanwhile — comes from the network: the leader steps down with
        // its copy, queued here on the bound inbox ahead of any traffic,
        // and the matcher installs it past the divergence point.
        let mut handed = Ok(());
        if let (Some(_), Some(leader)) = (&self.cfg.log_dir, interim_leader) {
            let install = |served| ControlMsg::SubLogInstall { epoch, served };
            handed = self.step_down(leader, m, &addr, install);
        }

        // Re-announce the membership (and leader book) under a fresh
        // table version: dispatchers drop re-listed matchers from their
        // dead lists and route `m`'s assignments to it again.
        self.broadcast_table();

        // Without a sub-log, or with no live member that led its stream
        // meanwhile, the registry is the only record of the writes the
        // matcher missed: re-ship its copies, queued on the bound inbox
        // ahead of any publication (per the ordering argument above).
        if self.cfg.log_dir.is_none() || interim_leader.is_none() {
            for sub in self.sub_registry.values() {
                let assign = self.control.strategy().as_dyn().assign(sub);
                for dim in assign.iter().filter(|a| a.matcher == m).map(|a| a.dim) {
                    let (sub, stream) = (sub.clone(), m);
                    let store = ControlMsg::StoreSub { dim, sub, stream };
                    self.base.send(&addr, to_bytes(&store).freeze())?;
                }
            }
        }
        self.matchers.insert(m, bound.start(self.shared.clone()));
        self.shared.matchers_gauge.set(self.matchers.len() as i64);
        // Leadership is back with `m`: it drops the copies its log kept
        // from streams it led before its crash, and — once dispatchers
        // route by the new table, as a join's donor retires — so does the
        // interim leader with what it held for `m`'s stream.
        if self.cfg.log_dir.is_some() {
            let prune = to_bytes(&ControlMsg::Prune).freeze();
            let _ = self.base.send(&addr, prune.clone());
            if let Some(leader) = interim_leader {
                std::thread::sleep(self.cfg.table_pull_interval * 2);
                let _ = self.base.send(&matcher_addr(leader), prune);
            }
        }
        handed
    }

    /// Orderly shutdown: stops every node and joins the threads.
    pub fn shutdown(mut self) {
        // Shutdown is management-plane: sent over the raw base transport
        // so an installed drop rule cannot eat the poison pill and wedge
        // the joins below.
        let shutdown = to_bytes(&ControlMsg::Shutdown).freeze();
        for d in &self.dispatchers {
            let _ = self.base.send(&d.addr, shutdown.clone());
        }
        for node in self.matchers.values() {
            let _ = self.base.send(&node.addr, shutdown.clone());
        }
        if let Some(mb) = self.mailbox.take() {
            let _ = self.base.send(&mb.addr, shutdown.clone());
            mb.join();
        }
        for d in self.dispatchers.drain(..) {
            d.join();
        }
        for (_, node) in self.matchers.drain() {
            node.join();
        }
        // Every node has stopped recording: dump the final exposition.
        if let Some(path) = &self.cfg.telemetry_file {
            if let Err(e) = self.shared.telemetry.write_to_file(path) {
                eprintln!("telemetry dump to {} failed: {e}", path.display());
            }
        }
        // Nodes are gone; tear down the base transport (joins the
        // reactor's event loops — a no-op for channels).
        self.base.shutdown();
    }
}
