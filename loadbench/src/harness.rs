//! The live run: set-up, closed-loop capacity windows, the paced phase and
//! the correctness gate, against the real threaded `Cluster` through its
//! public API only.
//!
//! Exactly two generator threads. The *publisher* (the calling thread)
//! owns the `Cluster`, publishes one `Publisher::publish` call per message
//! and performs churn inline at its due times. The *collector* blocks on
//! the wildcard tap, stamps receipt at once, and between tap receipts
//! drains at most [`SWEEP`] background endpoints round-robin, so the tap is
//! never left unattended and background channels stay bounded.
//!
//! Neither thread spins: the publisher parks when the closed-loop window
//! is full and sleeps until the next due time when pacing. A spinning
//! pacer takes one of the two cores this is sized for and made the paced
//! median vary 162–381 µs across identical runs (sleeping: 217–282 µs).

use crate::stats;
use crate::trace::{Span, Spans};
use crate::workloads::{self, Inputs, Workload};
use bluedove::cluster::{Cluster, Publisher, SubscriberHandle};
use bluedove::core::{Subscription, SubscriptionId};
use bluedove::telemetry::Registry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Background endpoints drained between two tap receipts.
const SWEEP: usize = 64;
/// One publication in this many has its delivered subscription set kept.
pub const SAMPLE_EVERY: u64 = 64;
/// Sampled publications verified against brute force per run.
const VERIFY_CAP: usize = 512;
/// Pool points the fan-out expectation averages over.
const FANOUT_POINTS: usize = 2048;
/// More set-ups steady the median, but every `fanout_reactor` set-up leaves
/// some 1 300 loopback sockets in TIME_WAIT for a minute; at 13–15 set-ups
/// a run, back-to-back runs filled the ephemeral port range enough to make
/// every third run's set-ups four times slower.
const MAX_SETUPS: usize = 5;
/// One closed-loop publication in this many has its tap latency kept.
const CLOSED_LAT_EVERY: u64 = 16;
const NOT_YET: u64 = u64::MAX;
/// Subscribes (and unsubscribes) per second in the subscribe phase, and
/// how many of them stay registered.
const PROBE_PER_S: f64 = 100.0;
pub const PROBE_LIVE: usize = 50;
/// The tap must be silent this long, with nothing outstanding, to quiesce.
const QUIET: Duration = Duration::from_millis(300);
const QUIESCE_CAP: Duration = Duration::from_secs(5);
/// A paced phase in which one send in ten started later than this measured
/// the generator, not the system. (The limit is on p90, not p99: with both
/// cores busy moving `fanout_reactor`'s socket traffic the sleeping
/// generator's p99 wake-up is about 1.6 ms however healthy the run.)
const LAG_LIMIT_NS: u32 = 1_000_000;

/// How one run divides `--seconds`.
pub struct Plan {
    /// Set-ups timed before the run: at least `min_setups`, then more
    /// while they (and their teardowns) fit in `setup_budget`.
    pub min_setups: usize,
    pub setup_budget: Duration,
    pub warm: Duration,
    /// `true` marks a window taken with harness spans on.
    pub windows: Vec<bool>,
    pub window: Duration,
    pub paced: Duration,
    pub subscribe: Duration,
    pub trace: bool,
}

impl Plan {
    /// Untraced: 3 to 5 set-ups, then 10% warm-up, 50% in five capacity
    /// windows, 40% paced. Traced: one set-up, untraced and traced windows
    /// alternating so their ratio is the tracing overhead, and a subscribe
    /// phase; the rest of the time goes to the replays.
    pub fn new(seconds: f64, trace: bool) -> Plan {
        let part = |share: f64| Duration::from_secs_f64(seconds * share);
        if trace {
            Plan {
                min_setups: 1,
                setup_budget: Duration::ZERO,
                warm: part(0.1),
                windows: vec![false, true, false, true],
                window: part(0.075),
                paced: part(0.15),
                subscribe: part(0.1),
                trace,
            }
        } else {
            Plan {
                min_setups: 3,
                setup_budget: Duration::from_secs(3),
                warm: part(0.1),
                windows: vec![false; 5],
                window: part(0.1),
                paced: part(0.4),
                subscribe: Duration::ZERO,
                trace,
            }
        }
    }
}

/// State both generator threads touch.
struct Shared {
    epoch: Instant,
    sent: AtomicU64,
    received: AtomicU64,
    last_recv_ns: AtomicU64,
    /// First `seq` of the capacity phase and of the paced phase
    /// ([`NOT_YET`] until the publisher gets there). Stored before that
    /// `seq` is published, so the collector reads them settled.
    capacity_from: AtomicU64,
    paced_from: AtomicU64,
    /// First `seq` of the subscribe phase, whose tap latencies are not
    /// kept: the generator is busy subscribing there.
    subscribe_from: AtomicU64,
    tracing: AtomicBool,
    stop: AtomicBool,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Latencies of one phase, ns, ascending.
pub struct Latencies(pub Vec<u32>);

impl Latencies {
    pub fn pct_us(&self, pct: f64) -> f64 {
        f64::from(stats::percentile(&self.0, pct)) / 1e3
    }
    pub fn mean_us(&self) -> f64 {
        let sum: f64 = self.0.iter().map(|&ns| f64::from(ns)).sum();
        sum / self.0.len().max(1) as f64 / 1e3
    }
    fn from_unsorted(mut v: Vec<u32>) -> Self {
        v.sort_unstable();
        Latencies(v)
    }
}

/// Cumulative live readings; two of them bracket the measured span.
pub struct Reading {
    pub at_s: f64,
    pub published: f64,
    pub deliveries: f64,
    pub dropped: f64,
    pub retried: f64,
    pub duplicates: f64,
    pub dead_lettered: f64,
    pub frames: f64,
    pub bytes: f64,
    pub gossip_bytes: f64,
    pub failovers: f64,
    pub sublog_appended: f64,
    pub sublog_replicated: f64,
    /// `(sum µs, count)` per histogram family.
    pub forward: (f64, f64),
    pub queue_wait: (f64, f64),
    pub match_time: (f64, f64),
    pub e2e: (f64, f64),
    pub est_error: (f64, f64),
    pub batch_dispatcher: (f64, f64),
    pub batch_matcher: (f64, f64),
    pub served: Vec<f64>,
}

fn read(cluster: &Cluster, shared: &Shared) -> Reading {
    let at_s = shared.epoch.elapsed().as_secs_f64();
    let reg: &Registry = cluster.telemetry();
    let (published, _matched, deliveries, dropped) = cluster.counters();
    let (retried, duplicates, dead_lettered) = cluster.reliability_counters();
    let (frames, bytes) = cluster.wire_stats();
    let counter = |name: &str| reg.counter_value(name, &[]).unwrap_or(0) as f64;
    let hist = |name: &str, labels: &[(&str, String)]| {
        reg.histogram_snapshot(name, labels)
            .map_or((0.0, 0.0), |s| (s.sum_us as f64, s.count as f64))
    };
    let component = |c: &str| [("component", c.to_string())];
    Reading {
        at_s,
        published: published as f64,
        deliveries: deliveries as f64,
        dropped: dropped as f64,
        retried: retried as f64,
        duplicates: duplicates as f64,
        dead_lettered: dead_lettered as f64,
        frames: frames as f64,
        bytes: bytes as f64,
        gossip_bytes: cluster.gossip_bytes() as f64,
        failovers: counter("bluedove_dispatcher_failovers_total"),
        sublog_appended: counter("bluedove_sublog_appended_total"),
        sublog_replicated: counter("bluedove_sublog_replicated_total"),
        forward: hist("bluedove_dispatcher_forward_latency_us", &[]),
        queue_wait: hist("bluedove_matcher_queue_wait_us", &[]),
        match_time: hist("bluedove_matcher_match_time_us", &[]),
        e2e: hist("bluedove_e2e_delivery_latency_us", &[]),
        est_error: hist(
            "bluedove_policy_estimation_error_us",
            &[("policy", "adaptive".to_string())],
        ),
        batch_dispatcher: hist("bluedove_batch_frames", &component("dispatcher")),
        batch_matcher: hist("bluedove_batch_frames", &component("matcher")),
        served: cluster
            .matcher_ids()
            .iter()
            .map(|m| {
                reg.counter_value(
                    "bluedove_matcher_served_total",
                    &[("matcher", m.0.to_string())],
                )
                .unwrap_or(0) as f64
            })
            .collect(),
    }
}

fn queue_depth_max(cluster: &Cluster, dims: usize) -> i64 {
    let reg = cluster.telemetry();
    let mut max = 0;
    for m in cluster.matcher_ids() {
        for d in 0..dims {
            let labels = [("dim", d.to_string()), ("matcher", m.0.to_string())];
            max = max.max(
                reg.gauge_value("bluedove_matcher_queue_depth", &labels)
                    .unwrap_or(0),
            );
        }
    }
    max
}

/// What one live run measured.
pub struct LiveRun {
    pub setup_s: Vec<f64>,
    /// Tap receipts per second, per capacity window, spans off / on.
    pub untraced_rates: Vec<f64>,
    pub traced_rates: Vec<f64>,
    pub cpu_us_per_msg: f64,
    pub capacity_lat: Latencies,
    pub paced_lat: Latencies,
    pub gen_lag: Latencies,
    pub sub_ack: Latencies,
    pub rss_peak_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Live readings at the start of the first capacity window, once the
    /// capacity phase quiesced, and once the paced phase quiesced.
    pub before: Reading,
    pub between: Reading,
    pub after: Reading,
    /// Deliveries per publication over the capacity windows.
    pub fanout: f64,
    pub queue_depth_max: i64,
    pub publish_call_ns: f64,
    pub drain_ns_per_delivery: f64,
    pub sweep_us: f64,
    pub paced_reruns: u32,
    pub spans: Vec<Span>,
}

/// The run's scratch directory, `<root>/tmp/<pid>/`; removed on every
/// exit path, failure and unwinding included.
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn create(root: &Path) -> Result<TmpDir, String> {
        let dir = root.join("tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TmpDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The running deployment; shut down on every exit path.
struct Deployment(Option<Cluster>);

impl std::ops::Deref for Deployment {
    type Target = Cluster;
    fn deref(&self) -> &Cluster {
        self.0.as_ref().expect("present until drop")
    }
}

impl std::ops::DerefMut for Deployment {
    fn deref_mut(&mut self) -> &mut Cluster {
        self.0.as_mut().expect("present until drop")
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if let Some(cluster) = self.0.take() {
            cluster.shutdown();
        }
    }
}

/// Closed-loop window accounting. The publisher stops at `limit`
/// publications outstanding and is woken once receipts bring it back down
/// to `low`, so a saturated system costs one wake-up per quarter window
/// instead of one per message.
#[derive(Clone, Copy)]
struct Window {
    limit: u64,
    low: u64,
}

impl Window {
    fn new(limit: u64) -> Self {
        Window {
            limit,
            low: limit - limit / 4,
        }
    }
    fn full(self, sent: u64, received: u64) -> bool {
        sent.saturating_sub(received) >= self.limit
    }
    fn refill(self, sent: u64, received: u64) -> bool {
        sent.saturating_sub(received) <= self.low
    }
}

/// Inline churn: one subscribe and one unsubscribe per `interval`, half a
/// period apart, keeping about `live_target` pool subscriptions
/// registered. `interval` is `None` while churn is off.
struct Churn {
    interval: Option<Duration>,
    live_target: usize,
    next_sub: Instant,
    next_unsub: Instant,
    cursor: usize,
    live: VecDeque<SubscriptionId>,
    /// Whether subscribe round trips are being kept as samples.
    record: bool,
}

impl Churn {
    fn set_rate(&mut self, per_s: f64, live_target: usize) {
        self.interval = (per_s > 0.0).then(|| Duration::from_secs_f64(1.0 / per_s));
        self.live_target = live_target;
        let now = Instant::now();
        self.next_sub = now;
        self.next_unsub = now + self.interval.unwrap_or_default() / 2;
    }
}

/// The publisher thread's state.
struct Driver<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    shared: Arc<Shared>,
    cluster: Deployment,
    publisher: Publisher,
    handles: mpsc::Sender<SubscriberHandle>,
    churn: Churn,
    sent: u64,
    ops: u64,
    errors: u64,
    sub_ack_ns: Vec<u32>,
    publish_ns: u64,
    publish_calls: u64,
    spans: Spans,
}

impl Driver<'_> {
    fn publish(&mut self, due_us: u64) {
        let seq = self.sent;
        let msg = workloads::message(self.inputs, seq, due_us, self.w.payload);
        let tracing = self.shared.tracing.load(Relaxed);
        // Counted before the call: the collector may see `seq` come back
        // before `publish` returns.
        self.sent += 1;
        self.shared.sent.store(self.sent, Relaxed);
        let start = if tracing { self.shared.now_ns() } else { 0 };
        if self.publisher.publish(msg).is_err() {
            self.errors += 1;
        }
        if tracing {
            let end = self.shared.now_ns();
            self.publish_ns += end - start;
            self.publish_calls += 1;
            self.spans.sampled("publish_call", start, end, seq);
        }
        self.ops += 1;
    }

    /// Fires the churn operations due by `now`, at most one of each kind
    /// per call so a stall is not followed by a burst.
    fn churn_due(&mut self, now: Instant) {
        let Some(interval) = self.churn.interval else {
            return;
        };
        if now >= self.churn.next_sub {
            self.churn.next_sub = (self.churn.next_sub + interval).max(now);
            let sub =
                self.inputs.churn_pool[self.churn.cursor % self.inputs.churn_pool.len()].clone();
            self.churn.cursor += 1;
            let start = self.shared.now_ns();
            self.ops += 1;
            match self.cluster.subscribe(sub) {
                Ok(handle) => {
                    let end = self.shared.now_ns();
                    if self.churn.record {
                        self.sub_ack_ns
                            .push((end - start).min(u64::from(u32::MAX)) as u32);
                    }
                    if self.shared.tracing.load(Relaxed) {
                        self.spans
                            .push("subscribe_call", start, end, handle.subscription.0);
                    }
                    self.churn.live.push_back(handle.subscription);
                    // The collector drains it from here on.
                    let _ = self.handles.send(handle);
                }
                Err(_) => self.errors += 1,
            }
        }
        if now >= self.churn.next_unsub {
            self.churn.next_unsub = (self.churn.next_unsub + interval).max(now);
            if self.churn.live.len() > self.churn.live_target {
                let id = self.churn.live.pop_front().expect("checked non-empty");
                self.ops += 1;
                if self.cluster.unsubscribe_by_id(id).is_err() {
                    self.errors += 1;
                }
            }
        }
    }

    fn outstanding(&self) -> u64 {
        self.sent - self.shared.received.load(Relaxed)
    }

    /// Closed loop until `end`: at most `window` publications outstanding.
    fn closed_loop(&mut self, end: Instant) {
        let window = Window::new(self.w.window);
        let mut parked = false;
        loop {
            let now = Instant::now();
            if now >= end {
                return;
            }
            self.churn_due(now);
            let received = self.shared.received.load(Relaxed);
            if window.full(self.sent, received) {
                parked = true;
            }
            if parked && !window.refill(self.sent, received) {
                // The collector unparks this thread at the low-water mark;
                // the timeout only keeps churn and the deadline serviced.
                thread::park_timeout(Duration::from_micros(500));
                continue;
            }
            parked = false;
            let due_us = self.shared.now_ns() / 1_000;
            self.publish(due_us);
        }
    }

    /// Open loop at the workload's fixed rate for `span`, sleeping until
    /// each due time. Returns how late each send started, ns. Churn is off
    /// in the paced phase proper: a subscribe round trip (milliseconds over
    /// the reactor) stalls the one generator thread, and the latencies
    /// would measure that.
    fn paced(&mut self, span: Duration) -> Vec<u32> {
        let count = (span.as_secs_f64() * self.w.ref_rate) as u64;
        let mut lag = Vec::with_capacity(count as usize);
        let t0 = Instant::now();
        let t0_us = self.shared.now_ns() / 1_000;
        for i in 0..count {
            let offset_us = workloads::due_offset_us(i, self.w.ref_rate);
            let due = t0 + Duration::from_micros(offset_us);
            let mut now = Instant::now();
            self.churn_due(now);
            if due > now {
                thread::sleep(due - now);
                now = Instant::now();
            }
            let late = now.saturating_duration_since(due).as_nanos();
            lag.push(late.min(u128::from(u32::MAX)) as u32);
            self.publish(t0_us + offset_us);
        }
        lag
    }

    /// Waits until nothing is outstanding and the tap has been silent for
    /// [`QUIET`]; gives up after [`QUIESCE_CAP`].
    fn quiesce(&self) {
        let start = Instant::now();
        while start.elapsed() < QUIESCE_CAP {
            let silent = self.shared.now_ns() - self.shared.last_recv_ns.load(Relaxed);
            if self.outstanding() == 0 && silent >= QUIET.as_nanos() as u64 {
                return;
            }
            thread::sleep(Duration::from_millis(10));
        }
    }
}

/// What the collector thread hands back.
struct Collected {
    /// One bit per `seq` the tap saw.
    seen: Vec<u64>,
    seen_count: u64,
    /// Tap latency, ns: one in [`CLOSED_LAT_EVERY`] of the capacity phase,
    /// and all of the (latest) paced phase.
    capacity_lat_ns: Vec<u32>,
    paced_lat_ns: Vec<u32>,
    paced_from: u64,
    duplicates: u64,
    malformed: u64,
    /// Subscription ids delivered per sampled `seq` (tap excluded).
    sampled: HashMap<u64, Vec<u64>>,
    deliveries: u64,
    drain_ns: u64,
    drained: u64,
    sweep_ns: u64,
    sweeps: u64,
    spans: Spans,
}

struct Collector {
    shared: Arc<Shared>,
    publisher: Thread,
    window: Window,
    tap: SubscriberHandle,
    background: Vec<SubscriberHandle>,
    incoming: mpsc::Receiver<SubscriberHandle>,
    cursor: usize,
    out: Collected,
}

impl Collector {
    fn run(mut self) -> Collected {
        while !self.shared.stop.load(Relaxed) {
            if let Some(d) = self.tap.recv_timeout(Duration::from_millis(1)) {
                self.tap_receipt(&d.msg.payload);
            }
            while let Ok(h) = self.incoming.try_recv() {
                self.background.push(h);
            }
            self.sweep(SWEEP);
        }
        // The publisher quiesced before stopping: whatever is still queued
        // is already in the channels. Sweep until a whole pass is empty.
        self.background.extend(self.incoming.try_iter());
        loop {
            let before = self.out.deliveries;
            self.sweep(self.background.len());
            if self.out.deliveries == before {
                break;
            }
        }
        for d in self.tap.drain() {
            self.tap_receipt(&d.msg.payload);
        }
        self.out
    }

    fn tap_receipt(&mut self, payload: &[u8]) {
        let now = self.shared.now_ns();
        // A `seq` the publisher has not sent is as malformed as no header
        // (and must not size the bitmap).
        let Some((seq, due_us)) =
            workloads::header(payload).filter(|&(seq, _)| seq < self.shared.sent.load(Relaxed))
        else {
            self.out.malformed += 1;
            return;
        };
        let (word, bit) = ((seq / 64) as usize, 1u64 << (seq % 64));
        if word >= self.out.seen.len() {
            self.out
                .seen
                .resize((word + 1).max(self.out.seen.len() * 2), 0);
        }
        if self.out.seen[word] & bit == 0 {
            self.out.seen[word] |= bit;
            self.out.seen_count += 1;
            let lat = now.saturating_sub(due_us * 1_000).min(u64::from(u32::MAX)) as u32;
            let paced_from = self.shared.paced_from.load(Relaxed);
            if paced_from != self.out.paced_from {
                // A paced phase (re)started: earlier samples are void.
                self.out.paced_from = paced_from;
                self.out.paced_lat_ns.clear();
            }
            if seq >= self.shared.subscribe_from.load(Relaxed) {
                // Not a latency sample.
            } else if seq >= paced_from {
                self.out.paced_lat_ns.push(lat);
            } else if seq % CLOSED_LAT_EVERY == 0 && seq >= self.shared.capacity_from.load(Relaxed)
            {
                self.out.capacity_lat_ns.push(lat);
            }
        } else {
            self.out.duplicates += 1;
        }
        let received = self.shared.received.fetch_add(1, Relaxed) + 1;
        self.shared.last_recv_ns.store(now, Relaxed);
        if self.window.refill(self.shared.sent.load(Relaxed), received) {
            self.publisher.unpark();
        }
        if self.shared.tracing.load(Relaxed) {
            let end = self.shared.now_ns();
            self.out.spans.sampled("tap_receipt", now, end, seq);
        }
    }

    /// Drains the next `n` background endpoints in round-robin order.
    fn sweep(&mut self, n: usize) {
        let n = n.min(self.background.len());
        if n == 0 {
            return;
        }
        let tracing = self.shared.tracing.load(Relaxed);
        let start = if tracing { self.shared.now_ns() } else { 0 };
        let before = self.out.deliveries;
        for _ in 0..n {
            self.cursor = (self.cursor + 1) % self.background.len();
            for d in self.background[self.cursor].drain() {
                self.out.deliveries += 1;
                match workloads::header(&d.msg.payload) {
                    Some((seq, _)) if seq % SAMPLE_EVERY == 0 => {
                        self.out.sampled.entry(seq).or_default().push(d.sub.0)
                    }
                    Some(_) => {}
                    None => self.out.malformed += 1,
                }
            }
        }
        if tracing {
            let end = self.shared.now_ns();
            let got = self.out.deliveries - before;
            self.out.sweep_ns += end - start;
            self.out.sweeps += 1;
            if got > 0 {
                self.out.drain_ns += end - start;
                self.out.drained += got;
            }
            self.out
                .spans
                .sampled("drain_call", start, end, self.out.sweeps);
        }
    }
}

/// Starts the deployment and registers the tap and every background
/// subscription, timed from `Cluster::start` through the last `SubAck`.
fn set_up(
    w: &Workload,
    inputs: &Inputs,
    log_dir: &Path,
) -> Result<(Deployment, SubscriberHandle, Vec<SubscriberHandle>, f64), String> {
    let start = Instant::now();
    let mut cluster = Deployment(Some(Cluster::start(
        w.config(inputs.space.clone(), log_dir),
    )));
    let failed = |e| format!("set-up registration failed: {e}");
    let tap = cluster.subscribe(inputs.tap()).map_err(failed)?;
    let mut background = Vec::with_capacity(inputs.subs.len());
    for sub in &inputs.subs {
        background.push(cluster.subscribe(sub.clone()).map_err(failed)?);
    }
    Ok((cluster, tap, background, start.elapsed().as_secs_f64()))
}

/// What the correctness gate found.
struct Gate {
    /// Comparisons made, on top of the calls already counted.
    checks: u64,
    failed: u64,
    failures: Vec<String>,
}

/// The correctness gate: every publication at the tap exactly once, no
/// failed call, sampled delivery sets equal to brute force, and the
/// capacity-phase `fanout` within 10% of the seeded expectation.
fn gate(
    w: &Workload,
    inputs: &Inputs,
    registered: &[u64],
    sent: u64,
    errors: u64,
    collected: &Collected,
    fanout: f64,
) -> Gate {
    let mut failures = Vec::new();
    let mut failed = errors;
    if errors > 0 {
        failures.push(format!(
            "{errors} publish/subscribe/unsubscribe calls returned Err"
        ));
    }
    let lost = sent - collected.seen_count.min(sent);
    let wrong = lost + collected.duplicates + collected.malformed;
    if wrong > 0 {
        failed += wrong;
        failures.push(format!(
            "tap: {lost} of {sent} publications missing, {} seen twice, {} malformed",
            collected.duplicates, collected.malformed
        ));
    }

    // Churned subscriptions come and go mid-run: compare stable ones.
    let stable: Vec<(u64, &Subscription)> = registered.iter().copied().zip(&inputs.subs).collect();
    let stable_ids: HashSet<u64> = registered.iter().copied().collect();
    let recorded = sent.div_ceil(SAMPLE_EVERY) as usize;
    let stride = recorded.div_ceil(VERIFY_CAP).max(1);
    let (mut verified, mut mismatches) = (0, 0);
    for seq in (0..sent).step_by(SAMPLE_EVERY as usize * stride) {
        let mut got: Vec<u64> = collected
            .sampled
            .get(&seq)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|id| stable_ids.contains(id))
                    .collect()
            })
            .unwrap_or_default();
        got.sort_unstable();
        verified += 1;
        if got != workloads::brute_force(&stable, inputs.point(seq)) {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        failed += mismatches;
        failures.push(format!(
            "{mismatches} of {verified} sampled publications reached a subscription set other than brute force"
        ));
    }

    let mean_matches = |subs: &[Subscription]| {
        let all: Vec<(u64, &Subscription)> = subs.iter().map(|s| (0, s)).collect();
        let hits: usize = (0..FANOUT_POINTS as u64)
            .map(|p| workloads::brute_force(&all, inputs.point(p)).len())
            .sum();
        hits as f64 / FANOUT_POINTS as f64
    };
    // Tap + stable subscriptions + the share of the churn pool live at once.
    let churning = w.churn_live() as f64 / inputs.churn_pool.len() as f64;
    let expected = 1.0 + mean_matches(&inputs.subs) + mean_matches(&inputs.churn_pool) * churning;
    if (fanout - expected).abs() > 0.1 * expected {
        failed += 1;
        failures.push(format!(
            "fan-out {fanout:.3} per publication is not within 10% of the seeded {expected:.3}"
        ));
    }
    Gate {
        checks: verified + 1,
        failed,
        failures,
    }
}

/// Runs workload `w` once on `inputs`; sublogs go under `tmp`.
pub fn run(w: &Workload, inputs: &Inputs, plan: &Plan, tmp: &Path) -> Result<LiveRun, String> {
    // Set up several times and keep the last deployment: one set-up is a
    // single sample of a seconds-long operation.
    let mut setup_s = Vec::new();
    let mut last = None;
    let first_setup = Instant::now();
    for round in 0..MAX_SETUPS {
        if round >= plan.min_setups && first_setup.elapsed() >= plan.setup_budget {
            break;
        }
        // The previous round's endpoints and deployment go first.
        drop(last.take());
        let (cluster, tap, background, secs) = set_up(w, inputs, &tmp.join(format!("log{round}")))?;
        setup_s.push(secs);
        last = Some((cluster, tap, background));
    }
    let (cluster, tap, background) = last.expect("plans have at least one set-up");
    let registered: Vec<u64> = background.iter().map(|h| h.subscription.0).collect();

    let shared = Arc::new(Shared {
        epoch: Instant::now(),
        sent: AtomicU64::new(0),
        received: AtomicU64::new(0),
        last_recv_ns: AtomicU64::new(0),
        capacity_from: AtomicU64::new(NOT_YET),
        paced_from: AtomicU64::new(NOT_YET),
        subscribe_from: AtomicU64::new(NOT_YET),
        tracing: AtomicBool::new(false),
        stop: AtomicBool::new(false),
    });
    let (handle_tx, handle_rx) = mpsc::channel();
    let collector = Collector {
        shared: shared.clone(),
        publisher: thread::current(),
        window: Window::new(w.window),
        tap,
        background,
        incoming: handle_rx,
        cursor: 0,
        out: Collected {
            seen: Vec::new(),
            seen_count: 0,
            capacity_lat_ns: Vec::new(),
            paced_lat_ns: Vec::new(),
            paced_from: NOT_YET,
            duplicates: 0,
            malformed: 0,
            sampled: HashMap::new(),
            deliveries: 0,
            drain_ns: 0,
            drained: 0,
            sweep_ns: 0,
            sweeps: 0,
            spans: Spans::new(SAMPLE_EVERY),
        },
    };
    let collector = thread::Builder::new()
        .name("collector".into())
        .spawn(move || collector.run())
        .map_err(|e| format!("spawn collector: {e}"))?;

    let mut driver = Driver {
        w,
        inputs,
        shared: shared.clone(),
        publisher: cluster.publisher(),
        cluster,
        handles: handle_tx,
        churn: Churn {
            interval: None,
            live_target: 0,
            next_sub: Instant::now(),
            next_unsub: Instant::now(),
            cursor: 0,
            live: VecDeque::new(),
            record: false,
        },
        sent: 0,
        ops: (inputs.subs.len() + 1) as u64,
        errors: 0,
        sub_ack_ns: Vec::new(),
        publish_ns: 0,
        publish_calls: 0,
        spans: Spans::new(SAMPLE_EVERY),
    };

    // Warm-up, discarded. The workload's own churn runs from here to the
    // end of the capacity phase.
    driver.churn.set_rate(w.churn_per_s, w.churn_live());
    driver.closed_loop(Instant::now() + plan.warm);

    // Capacity phase.
    shared.capacity_from.store(driver.sent, Relaxed);
    let before = read(&driver.cluster, &shared);
    let mut queue_depth = 0;
    let mut untraced_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let cpu0 = stats::cpu_us();
    let recv0 = shared.received.load(Relaxed);
    for &traced in &plan.windows {
        shared.tracing.store(traced, Relaxed);
        let (t, r) = (Instant::now(), shared.received.load(Relaxed));
        driver.closed_loop(t + plan.window);
        let rate = (shared.received.load(Relaxed) - r) as f64 / t.elapsed().as_secs_f64();
        if traced {
            &mut traced_rates
        } else {
            &mut untraced_rates
        }
        .push(rate);
        queue_depth = queue_depth.max(queue_depth_max(&driver.cluster, inputs.space.k()));
    }
    let cpu_us_per_msg = (stats::cpu_us() - cpu0) / (shared.received.load(Relaxed) - recv0) as f64;
    shared.tracing.store(false, Relaxed);
    driver.churn.set_rate(0.0, 0);
    driver.quiesce();
    let between = read(&driver.cluster, &shared);

    // Paced phase; once more if the generator itself ran late.
    let mut paced_reruns = 0;
    let gen_lag = loop {
        shared.tracing.store(plan.trace, Relaxed);
        shared.paced_from.store(driver.sent, Relaxed);
        let lag = Latencies::from_unsorted(driver.paced(plan.paced));
        shared.tracing.store(false, Relaxed);
        driver.quiesce();
        if stats::percentile(&lag.0, 90.0) < LAG_LIMIT_NS || paced_reruns == 1 {
            break lag;
        }
        eprintln!(
            "paced phase invalid: generator lag p90 {:.0} µs; running it again",
            lag.pct_us(90.0)
        );
        paced_reruns += 1;
    };
    let after = read(&driver.cluster, &shared);

    // Subscribe phase (traced runs): the same paced traffic, with subscribe
    // round trips timed inline. Its tap latencies are not kept.
    if !plan.subscribe.is_zero() {
        shared.tracing.store(plan.trace, Relaxed);
        shared.subscribe_from.store(driver.sent, Relaxed);
        driver
            .churn
            .set_rate(PROBE_PER_S, PROBE_LIVE.max(driver.churn.live.len()));
        driver.churn.record = true;
        driver.paced(plan.subscribe);
        shared.tracing.store(false, Relaxed);
        driver.quiesce();
    }

    shared.stop.store(true, Relaxed);
    let collected = collector.join();
    let Driver {
        cluster,
        sent,
        ops,
        errors,
        sub_ack_ns,
        publish_ns,
        publish_calls,
        spans,
        ..
    } = driver;
    drop(cluster);
    let collected = collected.map_err(|_| "collector thread panicked".to_string())?;

    let capacity_msgs = between.published - before.published;
    let fanout = (between.deliveries - before.deliveries) / capacity_msgs;
    let gate = gate(w, inputs, &registered, sent, errors, &collected, fanout);

    let mut all_spans = spans.into_vec();
    all_spans.extend(collected.spans.into_vec());
    all_spans.sort_by_key(|s| s.start_ns);
    let per = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
    Ok(LiveRun {
        setup_s,
        untraced_rates,
        traced_rates,
        cpu_us_per_msg,
        capacity_lat: Latencies::from_unsorted(collected.capacity_lat_ns),
        paced_lat: Latencies::from_unsorted(collected.paced_lat_ns),
        gen_lag,
        sub_ack: Latencies::from_unsorted(sub_ack_ns),
        rss_peak_mib: stats::rss_peak_mib(),
        attempted: ops + gate.checks,
        failed: gate.failed,
        failures: gate.failures,
        before,
        between,
        after,
        fanout,
        queue_depth_max: queue_depth,
        publish_call_ns: per(publish_ns, publish_calls),
        drain_ns_per_delivery: per(collected.drain_ns, collected.drained),
        sweep_us: per(collected.sweep_ns, collected.sweeps) / 1e3,
        paced_reruns,
        spans: all_spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_divide_the_budget() {
        let p = Plan::new(15.0, false);
        assert_eq!((p.min_setups, p.windows.len()), (3, 5));
        assert!(p.subscribe.is_zero());
        let measured = p.warm + p.window * 5 + p.paced;
        assert!((measured.as_secs_f64() - 15.0).abs() < 1e-6);
        let t = Plan::new(15.0, true);
        assert_eq!(t.windows, vec![false, true, false, true]);
        assert!(t.warm + t.window * 4 + t.paced + t.subscribe < Duration::from_secs(15));
    }

    #[test]
    fn window_accounting_stops_at_the_limit_and_refills_at_low_water() {
        let w = Window::new(256);
        assert!(!w.full(255, 0));
        assert!(w.full(256, 0));
        assert!(w.full(1_256, 1_000));
        // Full until receipts bring the count outstanding down to 192.
        assert!(!w.refill(1_256, 1_063));
        assert!(w.refill(1_256, 1_064));
        // A receipt counted before the send it answers is not underflow.
        assert!(w.refill(10, 11) && !w.full(10, 11));
        assert_eq!(Window::new(4096).low, 3072);
    }

    fn collected(seen_count: u64) -> Collected {
        Collected {
            seen: Vec::new(),
            seen_count,
            capacity_lat_ns: Vec::new(),
            paced_lat_ns: Vec::new(),
            paced_from: NOT_YET,
            duplicates: 0,
            malformed: 0,
            sampled: HashMap::new(),
            deliveries: 0,
            drain_ns: 0,
            drained: 0,
            sweep_ns: 0,
            sweeps: 0,
            spans: Spans::new(SAMPLE_EVERY),
        }
    }

    #[test]
    fn gate_counts_losses_mismatches_and_fanout() {
        let tap_only = workloads::by_name("bare_forward").unwrap();
        let inputs = Inputs::generate(tap_only, 3);
        let clean = gate(tap_only, &inputs, &[], 6_400, 0, &collected(6_400), 1.0);
        assert_eq!((clean.failed, clean.checks), (0, 101));
        // Two lost at the tap, one failed call, fan-out 20% off.
        let bad = gate(tap_only, &inputs, &[], 6_400, 1, &collected(6_398), 1.2);
        assert_eq!(bad.failed, 4);
        assert_eq!(bad.failures.len(), 3);

        // Nothing delivered to 256 wide subscriptions: sampled sets differ.
        let wide = workloads::by_name("fanout_reactor").unwrap();
        let inputs = Inputs::generate(wide, 3);
        let ids: Vec<u64> = (1..=256).collect();
        let silent = gate(wide, &inputs, &ids, 6_400, 0, &collected(6_400), 1.0);
        assert!(silent.failed > 50, "{}", silent.failed);
    }

    #[test]
    fn tmp_dir_is_removed_on_drop() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
        let tmp = TmpDir::create(&root).unwrap();
        let dir = tmp.path().to_path_buf();
        std::fs::create_dir_all(dir.join("log0")).unwrap();
        drop(tmp);
        assert!(!dir.exists());
    }
}
