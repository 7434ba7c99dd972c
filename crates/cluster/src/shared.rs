//! State shared between the orchestrator, dispatchers and client handles.

use bluedove_core::{AttributeSpace, DimIdx, MatcherId, MessageId};
use bluedove_engine::Rejected;
use bluedove_telemetry::{Counter, Gauge, Histogram, Registry};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// Cluster-wide counters (all relaxed: they are diagnostics, not
/// synchronization). Since the telemetry layer landed these are handles
/// onto [`Registry`] series, so the same numbers show up in the
/// Prometheus-style exposition under the `bluedove_*_total` families.
#[derive(Debug)]
pub struct Counters {
    /// Messages admitted by dispatchers.
    pub published: Counter,
    /// Messages matched by matchers (per message, not per hit).
    pub matched: Counter,
    /// (message, subscription) deliveries sent to subscribers.
    pub deliveries: Counter,
    /// Messages dropped because no live candidate matcher remained.
    pub dropped: Counter,
    /// Subscription copies stored across all matchers.
    pub stored_copies: Counter,
    /// Total gossip bytes sent by all matchers (§IV-C overhead).
    pub gossip_bytes: Counter,
    /// Publications re-forwarded after an ack timeout (each retransmission
    /// counts once, whatever candidate it went to).
    pub retried: Counter,
    /// Duplicate arrivals suppressed by idempotency layers: matcher-side
    /// per-dim dedup windows, subscriber endpoints and the mailbox.
    pub duplicates_suppressed: Counter,
    /// Publications abandoned after exhausting the retry budget (counted
    /// instead of being silently dropped).
    pub dead_lettered: Counter,
    /// Elastic joins executed (autoscaler-driven or manual).
    pub scale_ups: Counter,
    /// Graceful elastic leaves executed (autoscaler-driven or manual).
    pub scale_downs: Counter,
    /// Sub-log records appended by stream leaders (durable mutations).
    pub sublog_appended: Counter,
    /// Sub-log records accepted and persisted by followers.
    pub sublog_replicated: Counter,
    /// Deposed-epoch sub-log appends rejected by followers (fencing).
    pub sublog_fenced: Counter,
    /// Sub-log records replayed from a matcher's own local log at
    /// restart (local-log-first recovery).
    pub sublog_replayed: Counter,
    /// Subscription copies restored onto an heir by promotion replay
    /// (failover as log replay).
    pub sublog_promoted: Counter,
    /// Sub-log records a recovered matcher installed from its heir's
    /// delta (the mutations it missed while down).
    pub sublog_caught_up: Counter,
    /// Malformed frames dropped by dispatchers and matchers, one
    /// `bluedove_rejected_total{kind}` series per [`Rejected::ALL`] entry;
    /// read through [`Counters::rejected`].
    rejected: [Counter; Rejected::ALL.len()],
}

impl Counters {
    /// Registers the counter families on `registry` and returns the
    /// handles. Registration is idempotent: a second call returns handles
    /// onto the same series.
    pub fn register(registry: &Registry) -> Self {
        let c = |name, help| registry.counter(name, help, &[]);
        Counters {
            published: c(
                "bluedove_published_total",
                "messages admitted by dispatchers",
            ),
            matched: c(
                "bluedove_matched_total",
                "messages matched by matchers (per message, not per hit)",
            ),
            deliveries: c(
                "bluedove_deliveries_total",
                "(message, subscription) deliveries sent to subscribers",
            ),
            dropped: c(
                "bluedove_dropped_total",
                "messages dropped with no live candidate matcher",
            ),
            stored_copies: c(
                "bluedove_stored_copies_total",
                "subscription copies stored across all matchers",
            ),
            gossip_bytes: c(
                "bluedove_gossip_bytes_total",
                "gossip bytes sent by all matchers",
            ),
            retried: c(
                "bluedove_retried_total",
                "publications re-forwarded after an ack timeout",
            ),
            duplicates_suppressed: c(
                "bluedove_duplicates_suppressed_total",
                "duplicate arrivals suppressed by idempotency layers",
            ),
            dead_lettered: c(
                "bluedove_dead_lettered_total",
                "publications abandoned after exhausting the retry budget",
            ),
            scale_ups: c(
                "bluedove_scale_ups_total",
                "elastic joins executed (autoscaler-driven or manual)",
            ),
            scale_downs: c(
                "bluedove_scale_downs_total",
                "graceful elastic leaves executed (autoscaler-driven or manual)",
            ),
            sublog_appended: c(
                "bluedove_sublog_appended_total",
                "sub-log records appended by stream leaders",
            ),
            sublog_replicated: c(
                "bluedove_sublog_replicated_total",
                "sub-log records accepted and persisted by followers",
            ),
            sublog_fenced: c(
                "bluedove_sublog_fenced_total",
                "deposed-epoch sub-log appends rejected by followers",
            ),
            sublog_replayed: c(
                "bluedove_sublog_replayed_total",
                "sub-log records replayed from a matcher's local log at restart",
            ),
            sublog_promoted: c(
                "bluedove_sublog_promoted_total",
                "subscription copies restored onto an heir by promotion replay",
            ),
            sublog_caught_up: c(
                "bluedove_sublog_caught_up_total",
                "sub-log records installed from an heir's delta at recovery",
            ),
            rejected: Rejected::ALL.map(|kind| {
                registry.counter(
                    "bluedove_rejected_total",
                    "malformed frames dropped by dispatchers and matchers",
                    &[("kind", kind.label().to_string())],
                )
            }),
        }
    }

    /// The `bluedove_rejected_total` series for `kind`.
    pub fn rejected(&self, kind: Rejected) -> &Counter {
        &self.rejected[kind as usize]
    }

    /// Snapshot of `(published, matched, deliveries, dropped)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.published.get(),
            self.matched.get(),
            self.deliveries.get(),
            self.dropped.get(),
        )
    }

    /// Snapshot of the at-least-once pipeline counters:
    /// `(retried, duplicates_suppressed, dead_lettered)`.
    pub fn reliability(&self) -> (u64, u64, u64) {
        (
            self.retried.get(),
            self.duplicates_suppressed.get(),
            self.dead_lettered.get(),
        )
    }
}

impl Default for Counters {
    /// Standalone counters backed by a private registry (tests, nodes
    /// spawned without a cluster).
    fn default() -> Self {
        Self::register(&Registry::new())
    }
}

/// The end-to-end delivery latency histogram (dispatcher admission →
/// receipt at a delivery endpoint). One unlabelled family shared by
/// direct subscriber endpoints and the mailbox, so the cluster-wide
/// distribution reads off a single series.
pub fn e2e_latency_histogram(registry: &Registry) -> Histogram {
    registry.histogram(
        "bluedove_e2e_delivery_latency_us",
        "dispatcher admission to delivery receipt, microseconds",
        &[],
    )
}

/// State every node thread shares: the attribute space, the clock epoch,
/// id allocators, telemetry and the load-report fan-out. Routing state is
/// not here: the orchestrator's control plane announces it.
pub struct Shared {
    /// The attribute space of the deployment.
    pub space: AttributeSpace,
    /// Dispatcher transport addresses (load reports fan out to these).
    pub dispatcher_addrs: RwLock<Vec<String>>,
    /// Extra addresses matcher load reports are mirrored to, beyond the
    /// dispatchers. The orchestrator registers its control inbox here
    /// when an autoscaler is configured (and only then, so an idle
    /// control inbox is not flooded with reports).
    pub load_observers: RwLock<Vec<String>>,
    /// Cluster epoch; all timestamps are seconds (or µs) since this.
    pub epoch: Instant,
    /// Allocator for subscription ids.
    pub next_sub_id: AtomicU64,
    /// Allocator for message ids.
    pub next_msg_id: AtomicU64,
    /// The process-wide metric registry every node records into (and the
    /// source of the `TelemetryPull` exposition).
    pub telemetry: std::sync::Arc<Registry>,
    /// Diagnostics (handles onto `telemetry` series).
    pub counters: Counters,
    /// Current matcher-node count (updated on start, join, leave, crash
    /// and restart) — the elasticity experiment's step curve.
    pub matchers_gauge: Gauge,
    /// Per-matcher gossip peer counts (membership convergence metric,
    /// refreshed by each matcher on its gossip tick).
    pub gossip_peers: RwLock<HashMap<MatcherId, usize>>,
    /// Per-matcher counts of peers currently deemed **Alive** by each
    /// matcher's failure detector (refreshed on every gossip tick; the
    /// chaos suite's membership-reconvergence probe).
    pub gossip_live: RwLock<HashMap<MatcherId, usize>>,
    /// When `Some`, every successful (non-retransmission) forward is
    /// appended as `(message, matcher, dim)` in admission order — the
    /// sim/cluster parity probe. `None` (the default) keeps the hot path
    /// free of the lock-and-push.
    pub forward_log: RwLock<Option<Vec<(MessageId, MatcherId, DimIdx)>>>,
}

impl Shared {
    /// Creates shared state for a deployment over `space`.
    pub fn new(space: AttributeSpace) -> Self {
        let telemetry = std::sync::Arc::new(Registry::new());
        let counters = Counters::register(&telemetry);
        let matchers_gauge = telemetry.gauge(
            "bluedove_matchers",
            "current matcher-node count (elasticity step curve)",
            &[],
        );
        Shared {
            space,
            dispatcher_addrs: RwLock::new(Vec::new()),
            load_observers: RwLock::new(Vec::new()),
            epoch: Instant::now(),
            next_sub_id: AtomicU64::new(1),
            next_msg_id: AtomicU64::new(1),
            telemetry,
            counters,
            matchers_gauge,
            gossip_peers: RwLock::new(HashMap::new()),
            gossip_live: RwLock::new(HashMap::new()),
            forward_log: RwLock::new(None),
        }
    }

    /// Seconds since the cluster epoch.
    #[inline]
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Microseconds since the cluster epoch.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// Conventional in-process address for a matcher.
pub fn matcher_addr(id: MatcherId) -> String {
    format!("m/{}", id.0)
}

/// Conventional in-process address for a dispatcher.
pub fn dispatcher_addr(i: usize) -> String {
    format!("d/{i}")
}

/// Conventional in-process address for a subscriber endpoint.
pub fn subscriber_addr(id: u64) -> String {
    let mut addr = String::new();
    write_subscriber_addr(&mut addr, id);
    addr
}

/// Overwrites `addr` with [`subscriber_addr`]`(id)`, reusing its
/// allocation (the per-hit form of the delivery path).
pub fn write_subscriber_addr(addr: &mut String, id: u64) {
    use std::fmt::Write;
    addr.clear();
    write!(addr, "c/{id}").expect("writing to a String cannot fail");
}

/// Conventional in-process address for the orchestrator control inbox.
pub fn control_addr() -> String {
    "ctl/0".to_string()
}

/// Conventional in-process address for the orchestrator's telemetry
/// inbox (`TelemetryText` replies to wire pulls land here).
pub fn telemetry_addr() -> String {
    "tel/0".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let s = Shared::new(AttributeSpace::uniform(2, 0.0, 1.0));
        let a = s.now();
        let b = s.now();
        assert!(b >= a);
        assert!(s.now_us() >= (a * 1e6) as u64);
    }

    #[test]
    fn address_conventions() {
        assert_eq!(matcher_addr(MatcherId(3)), "m/3");
        assert_eq!(dispatcher_addr(1), "d/1");
        assert_eq!(subscriber_addr(42), "c/42");
        let mut reused = String::from("c/123456");
        write_subscriber_addr(&mut reused, 7);
        assert_eq!(reused, "c/7");
        assert_eq!(control_addr(), "ctl/0");
        assert_eq!(telemetry_addr(), "tel/0");
    }

    #[test]
    fn counters_snapshot() {
        let c = Counters::default();
        c.published.add(5);
        c.dropped.inc();
        assert_eq!(c.snapshot(), (5, 0, 0, 1));
    }

    #[test]
    fn counters_show_up_in_the_registry() {
        let r = Registry::new();
        let c = Counters::register(&r);
        c.published.add(3);
        assert_eq!(r.counter_value("bluedove_published_total", &[]), Some(3));
        // Re-registration returns handles onto the same series.
        let again = Counters::register(&r);
        again.published.inc();
        assert_eq!(c.published.get(), 4);
    }

    #[test]
    fn reliability_counters_snapshot() {
        let c = Counters::default();
        c.retried.add(3);
        c.duplicates_suppressed.add(2);
        c.dead_lettered.inc();
        assert_eq!(c.reliability(), (3, 2, 1));
    }
}
