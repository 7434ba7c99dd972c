//! The dispatcher node: the threaded host around the sans-IO
//! [`DispatcherEngine`] (§II-B).
//!
//! All forwarding decisions — candidate choice, fail-over, the
//! at-least-once ledger and its retransmit schedule, suspicion — live in
//! `bluedove_engine::DispatcherEngine`; this module supplies what the
//! engine deliberately lacks: the real clock (`Shared::now`, seconds
//! since the cluster epoch), the crossbeam/TCP transport behind the
//! port's fallible `send`, id stamping from the shared allocators, the
//! periodic table pull, and the mapping of engine effects onto the
//! cluster's counters and histograms. The simulator drives the *same*
//! engine under virtual time (see `bluedove_sim::cluster`). The loop
//! itself is [`crate::node::run`].

use crate::batchio::{wake_in, BatchMetrics, Outbox};
use crate::node::{Node, Step};
use crate::proto::ControlMsg;
use crate::shared::Shared;
use bluedove_baselines::AnyStrategy;
use bluedove_core::{ForwardingPolicy, MatcherId, MessageId, SubscriberId, SubscriptionId, Time};
use bluedove_engine::{
    Coalescer, DispatcherEffect, DispatcherEngine, DispatcherEngineConfig, DispatcherEvent,
    DispatcherOut, DispatcherPort, EngineConfig, Flush,
};
use bluedove_net::Transport;
use bluedove_telemetry::{Counter, Histogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-dispatcher runtime configuration.
pub struct DispatcherNodeConfig {
    /// Index of this dispatcher (addresses, seeds).
    pub index: usize,
    /// Transport address the dispatcher binds.
    pub addr: String,
    /// The forwarding policy (one instance per dispatcher).
    pub policy: Box<dyn ForwardingPolicy>,
    /// RNG seed (random policy, tie-breaking).
    pub seed: u64,
    /// Bootstrap routing state: the initial strategy and matcher address
    /// book (the paper's dispatchers bootstrap from any matcher; ours are
    /// handed the same state at spawn).
    pub bootstrap: RoutingState,
    /// How often this dispatcher pulls a fresh table from a random
    /// matcher (§III-C; the paper uses 10 s).
    pub table_pull_interval: Duration,
    /// The deployment's engine knobs. The dispatcher uses the retry
    /// policy of the at-least-once pipeline and the coalescing of
    /// outbound `Match` frames.
    pub engine: EngineConfig,
}

/// The dispatcher's private routing state, refreshed by table pulls.
#[derive(Clone)]
pub struct RoutingState {
    /// Monotone table version.
    pub version: u64,
    /// The partition strategy routed by.
    pub strategy: AnyStrategy,
    /// Matcher address book.
    pub addrs: HashMap<MatcherId, String>,
}

/// Handle to a running dispatcher thread.
pub struct DispatcherNode {
    /// The dispatcher's transport address.
    pub addr: String,
    join: Option<JoinHandle<()>>,
}

impl DispatcherNode {
    /// Spawns the dispatcher thread.
    pub fn spawn(
        cfg: DispatcherNodeConfig,
        shared: Arc<Shared>,
        transport: Arc<dyn Transport>,
    ) -> Self {
        let rx = transport.bind(&cfg.addr).expect("bind dispatcher inbox");
        let addr = cfg.addr.clone();
        let join = std::thread::Builder::new()
            .name(format!("dispatcher-{}", cfg.index))
            .spawn(move || {
                let node = Dispatcher::new(cfg, shared.clone(), transport);
                // Dispatchers are never crashed: they stop on `Shutdown`.
                crate::node::run(node, &shared, &rx, &AtomicBool::new(false))
            })
            .expect("spawn dispatcher thread");
        DispatcherNode {
            addr,
            join: Some(join),
        }
    }

    /// Waits for the thread to exit (after `Shutdown`).
    pub fn join(mut self) {
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Telemetry handles recorded on the dispatcher's hot path. All
/// dispatchers running the same policy share the estimation-error series
/// (registration is idempotent).
struct DispatcherMetrics {
    /// Admission → latest successful forward, µs (retransmissions record
    /// the cumulative latency, so the tail shows the backoff schedule).
    forward_latency: Histogram,
    /// Candidates skipped because of a send error or a missing address.
    failovers: Counter,
    /// `|estimated − actual|` processing time per acked publication, µs,
    /// labelled by forwarding policy.
    est_error: Histogram,
    /// Acks whose estimate was at or above the actual (overestimates).
    est_over: Counter,
    /// Acks whose estimate was below the actual (underestimates).
    est_under: Counter,
}

impl DispatcherMetrics {
    fn register(shared: &Shared, policy: &str) -> Self {
        let r = &shared.telemetry;
        let policy_label = vec![("policy", policy.to_string())];
        DispatcherMetrics {
            forward_latency: r.histogram(
                "bluedove_dispatcher_forward_latency_us",
                "admission to latest successful forward, microseconds",
                &[],
            ),
            failovers: r.counter(
                "bluedove_dispatcher_failovers_total",
                "candidates skipped on send error or missing address",
                &[],
            ),
            est_error: r.histogram(
                "bluedove_policy_estimation_error_us",
                "absolute error of the policy's estimated processing time, microseconds",
                &policy_label,
            ),
            est_over: r.counter(
                "bluedove_policy_overestimates_total",
                "acked publications whose processing time was overestimated",
                &policy_label,
            ),
            est_under: r.counter(
                "bluedove_policy_underestimates_total",
                "acked publications whose processing time was underestimated",
                &policy_label,
            ),
        }
    }
}

/// The threaded [`DispatcherPort`]: engine frames go out over the real
/// transport (a send error is the `false` that triggers in-engine
/// fail-over), effects land on the cluster's counters and histograms.
///
/// With batching on, `Match` frames are staged in the coalescer instead
/// of sent; a size-triggered flush still reports the transport result
/// synchronously (the flush contains the frame just pushed), while a
/// later idle or deadline flush that fails is surfaced by queueing the
/// matcher onto `failed` — the node turns those into `MatcherDown`
/// events, and the ack ledger re-forwards whatever the lost batch
/// carried.
struct HostPort {
    shared: Arc<Shared>,
    metrics: DispatcherMetrics,
    /// This dispatcher's own address, stamped as `ack_to` on acked sends.
    self_addr: String,
    /// The transport, and the per-matcher-address coalescer for `Match`
    /// frames.
    out: Outbox,
    /// Which matcher each lane address belongs to (failure attribution
    /// for flushes that happen outside an engine `send`).
    lane_matcher: HashMap<String, MatcherId>,
    /// Matchers whose flush failed; drained into `MatcherDown` events.
    failed: Vec<MatcherId>,
}

impl HostPort {
    /// Sends flushes made outside an engine `send`; a refused one queues
    /// its matcher on `failed`.
    fn send_flushes(&mut self, flushes: Vec<Flush<ControlMsg>>) {
        for flush in flushes {
            let target = self.lane_matcher.get(&flush.dest).copied();
            if !self.out.send_flush(flush) {
                self.failed.extend(target);
            }
        }
    }
}

impl DispatcherPort for HostPort {
    fn send(&mut self, to: MatcherId, addr: &str, out: DispatcherOut) -> bool {
        let wire = ControlMsg::from_dispatcher_out(out, &self.self_addr);
        match wire {
            m @ ControlMsg::MatchMsg { .. } => {
                // A refused size flush is this frame's synchronous send
                // result: the engine fails over, and the ledger recovers
                // the earlier frames the flush also carried.
                let lanes = self.out.batcher.lanes();
                let ok = self.out.stage(addr, m);
                if self.out.batcher.lanes() > lanes {
                    self.lane_matcher.insert(addr.to_string(), to);
                }
                ok
            }
            m => {
                // Control frames stay synchronous (their send result
                // drives subscription failover), but anything staged for
                // this destination must go first: per-destination FIFO is
                // part of the transport contract batching must not break.
                if let Some(flush) = self.out.batcher.flush_dest(addr) {
                    if !self.out.send_flush(flush) {
                        self.failed.push(to);
                    }
                }
                self.out.send(addr, &m)
            }
        }
    }

    fn sub_ack(&mut self, subscriber: SubscriberId, sub: SubscriptionId) {
        let addr = crate::shared::subscriber_addr(subscriber.0);
        self.out.send(&addr, &ControlMsg::SubAck { sub });
    }

    fn effect(&mut self, effect: DispatcherEffect) {
        match effect {
            DispatcherEffect::Forwarded {
                msg_id,
                matcher,
                dim,
                admitted_us,
                retransmission,
            } => {
                self.metrics
                    .forward_latency
                    .observe_us(self.shared.now_us().saturating_sub(admitted_us));
                if retransmission {
                    self.shared.counters.retried.inc();
                } else if let Some(log) = self.shared.forward_log.write().as_mut() {
                    log.push((msg_id, matcher, dim));
                }
            }
            DispatcherEffect::Failover => self.metrics.failovers.inc(),
            DispatcherEffect::DeadLettered { .. } => self.shared.counters.dead_lettered.inc(),
            DispatcherEffect::Dropped { .. } => self.shared.counters.dropped.inc(),
            DispatcherEffect::Rejected(kind) => self.shared.counters.rejected(kind).inc(),
            DispatcherEffect::Estimation { est_us, actual_us } => {
                self.metrics
                    .est_error
                    .observe_us(est_us.abs_diff(actual_us));
                if est_us >= actual_us {
                    self.metrics.est_over.inc();
                } else {
                    self.metrics.est_under.inc();
                }
            }
        }
    }
}

/// Longest the run loop blocks whatever its timers say.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// One dispatcher's run-loop state. All times are host-clock seconds
/// ([`Shared::now`]).
struct Dispatcher {
    engine: DispatcherEngine,
    port: HostPort,
    /// Pull-target selection draws from its own stream so host-side
    /// scheduling never perturbs the engine's (replayable) rng.
    pull_rng: StdRng,
    table_pull_interval: Time,
    next_pull: Time,
}

impl Dispatcher {
    fn new(cfg: DispatcherNodeConfig, shared: Arc<Shared>, transport: Arc<dyn Transport>) -> Self {
        let table_pull_interval = cfg.table_pull_interval.as_secs_f64();
        let now = shared.now();
        let metrics = DispatcherMetrics::register(&shared, cfg.policy.name());
        Dispatcher {
            engine: DispatcherEngine::new(DispatcherEngineConfig {
                policy: cfg.policy,
                seed: cfg.seed,
                retry: cfg.engine.retry,
                version: cfg.bootstrap.version,
                strategy: cfg.bootstrap.strategy,
                addrs: cfg.bootstrap.addrs,
            }),
            pull_rng: StdRng::seed_from_u64(cfg.seed ^ 0xD15),
            table_pull_interval,
            next_pull: now + table_pull_interval,
            port: HostPort {
                metrics,
                self_addr: cfg.addr,
                out: Outbox {
                    transport,
                    metrics: BatchMetrics::register(&shared.telemetry, "dispatcher"),
                    batcher: Coalescer::new(cfg.engine.batch),
                    now,
                },
                lane_matcher: HashMap::new(),
                failed: Vec::new(),
                shared,
            },
        }
    }

    /// Feeds one event to the engine, then surfaces whatever flush
    /// failures it met as `MatcherDown`, promptly, so the rest of a batch
    /// routes around the dead matcher.
    fn feed(&mut self, now: Time, event: DispatcherEvent) {
        self.port.out.now = now;
        self.engine.on_event(now, event, &mut self.port);
        while let Some(m) = self.port.failed.pop() {
            self.engine
                .on_event(now, DispatcherEvent::MatcherDown(m), &mut self.port);
        }
    }
}

impl Node for Dispatcher {
    fn timer_due(&self, now: Time) -> bool {
        let due = |deadline: Option<Time>| deadline.is_some_and(|d| d <= now);
        now >= self.next_pull
            || due(self.engine.next_deadline())
            || due(self.port.out.batcher.next_deadline())
    }

    /// The timer work: the periodic table pull, the engine's retransmit
    /// timers and suspicion expiry, and the coalescer's flushes — every
    /// lane when the node is `idle` (nothing else is left to do), and in
    /// any case the lanes whose oldest frame has waited `max_delay`.
    fn upkeep(&mut self, now: Time, idle: bool) {
        // Periodic table pull from a random live matcher (§III-C).
        if now >= self.next_pull {
            let live = self.engine.live_addrs(now);
            if !live.is_empty() {
                let target = &live[self.pull_rng.gen_range(0..live.len())];
                let pull = ControlMsg::TablePull {
                    reply_to: self.port.self_addr.clone(),
                };
                self.port.out.send(target, &pull);
            }
            self.next_pull += self.table_pull_interval;
        }
        // Before the flushes: a retransmission staged here leaves with them.
        self.feed(now, DispatcherEvent::Tick);
        if idle {
            let flushes = self.port.out.batcher.drain_idle();
            self.port.send_flushes(flushes);
        }
        let flushes = self.port.out.batcher.poll(now);
        self.port.send_flushes(flushes);
        if let Some(m) = self.port.failed.pop() {
            self.feed(now, DispatcherEvent::MatcherDown(m));
        }
    }

    /// The upkeep an idle node owes, so nothing staged and no failed
    /// flush waits out the sleep; then block until the next pull or
    /// retransmit deadline (no coalescer deadline is pending once it is
    /// drained).
    fn idle(&mut self, now: Time) -> Option<Duration> {
        self.upkeep(now, true);
        let pull = wake_in(self.next_pull, now, MAX_WAIT);
        Some(match self.engine.next_deadline() {
            Some(deadline) => wake_in(deadline, now, pull),
            None => pull,
        })
    }

    fn handle(&mut self, now: Time, msg: ControlMsg) -> Step {
        let shared = &self.port.shared;
        let event = match msg {
            ControlMsg::Subscribe(mut sub) => {
                sub.id = SubscriptionId(shared.next_sub_id.fetch_add(1, Ordering::Relaxed));
                DispatcherEvent::Subscribe(sub)
            }
            ControlMsg::Publish(mut m) => {
                m.id = MessageId(shared.next_msg_id.fetch_add(1, Ordering::Relaxed));
                shared.counters.published.inc();
                DispatcherEvent::Publish {
                    msg: m,
                    admitted_us: shared.now_us(),
                }
            }
            ControlMsg::Unsubscribe(sub) => DispatcherEvent::Unsubscribe(sub),
            ControlMsg::MatchAck {
                msg_id,
                matcher,
                actual_us,
            } => DispatcherEvent::MatchAck {
                msg_id,
                matcher,
                actual_us,
            },
            ControlMsg::LoadReport {
                matcher,
                dim,
                stats,
            } => DispatcherEvent::LoadReport {
                matcher,
                dim,
                stats,
            },
            // The leader book rides the same monotone table path: the
            // engine resolves a down owner's assignments to its stream's
            // leader for publications and writes alike.
            ControlMsg::TableState {
                version,
                strategy: Some(strategy),
                addrs,
                leaders,
            } => DispatcherEvent::TableUpdate {
                version,
                strategy,
                addrs,
                leaders,
            },
            ControlMsg::Shutdown => return Step::Exit,
            _ => return Step::Continue,
        };
        self.feed(now, event);
        Step::Continue
    }

    fn flush_all(&mut self) {
        let flushes = self.port.out.batcher.flush_all();
        self.port.send_flushes(flushes);
    }
}
