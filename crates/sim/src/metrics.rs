//! Run metrics: binned response-time series, loss accounting and
//! per-matcher busy time (the simulator's `/proc/loadavg` analogue).

use bluedove_core::{MatcherId, Time};
use bluedove_engine::FlushReason;
use std::collections::HashMap;

/// One time bin of aggregated response-time samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Bin {
    /// Deliveries completing in this bin.
    pub count: u64,
    /// Sum of response times (seconds).
    pub sum: f64,
    /// Maximum response time seen.
    pub max: f64,
    /// Messages lost (sent to a dead matcher) in this bin.
    pub lost: u64,
    /// Messages admitted by dispatchers in this bin.
    pub sent: u64,
}

impl Bin {
    /// Mean response time of the bin (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Loss rate = lost / sent (0 when nothing sent).
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }
}

/// Log-scale latency histogram: exponential buckets from 1 µs to ~1000 s,
/// supporting percentile queries with bounded (±6 %) relative error.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    min_value: f64,
    log_factor: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        // 1 µs … ~1166 s over 360 buckets ⇒ factor ≈ 1.0595 (±3 %).
        LogHistogram {
            buckets: vec![0; 360],
            count: 0,
            min_value: 1e-6,
            log_factor: (1e9f64).ln() / 360.0,
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (seconds).
    pub fn record(&mut self, v: f64) {
        let idx = if v <= self.min_value {
            0
        } else {
            (((v / self.min_value).ln() / self.log_factor) as usize).min(self.buckets.len() - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `p`-th percentile (`0 < p ≤ 100`) as the upper edge of the
    /// containing bucket; 0.0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.min_value * ((i + 1) as f64 * self.log_factor).exp();
            }
        }
        self.min_value * (self.buckets.len() as f64 * self.log_factor).exp()
    }
}

/// All metrics of one simulation run.
#[derive(Debug, Clone)]
pub struct Metrics {
    bin_width: Time,
    bins: Vec<Bin>,
    /// Distribution of all response times (for percentile reporting).
    pub response_hist: LogHistogram,
    /// Cumulative busy seconds per matcher.
    busy: HashMap<MatcherId, f64>,
    /// Totals.
    pub total_sent: u64,
    /// Total deliveries (a message with multiple matching subscriptions
    /// still counts once — response time is per message).
    pub total_delivered: u64,
    /// Total messages lost to undetected failures.
    pub total_lost: u64,
    /// Total subscription-examinations performed by matchers (cost proxy).
    pub total_examined: u64,
    /// Total (message, subscription) match pairs found.
    pub total_matches: u64,
    /// Coalescer flushes by trigger — the simulator's
    /// `bluedove_batch_flush_total{reason}`.
    batch_flushes: HashMap<FlushReason, u64>,
}

impl Metrics {
    /// Creates metrics with the given aggregation bin width (seconds).
    pub fn new(bin_width: Time) -> Self {
        assert!(bin_width > 0.0);
        Metrics {
            bin_width,
            bins: Vec::new(),
            response_hist: LogHistogram::new(),
            busy: HashMap::new(),
            total_sent: 0,
            total_delivered: 0,
            total_lost: 0,
            total_examined: 0,
            total_matches: 0,
            batch_flushes: HashMap::new(),
        }
    }

    fn bin_mut(&mut self, t: Time) -> &mut Bin {
        let idx = (t / self.bin_width).floor().max(0.0) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, Bin::default());
        }
        &mut self.bins[idx]
    }

    /// Records a message admission at `t`.
    pub fn record_sent(&mut self, t: Time) {
        self.total_sent += 1;
        self.bin_mut(t).sent += 1;
    }

    /// Records a completed delivery at `t` with the given response time.
    pub fn record_response(&mut self, t: Time, response: f64) {
        self.total_delivered += 1;
        self.response_hist.record(response);
        let b = self.bin_mut(t);
        b.count += 1;
        b.sum += response;
        if response > b.max {
            b.max = response;
        }
    }

    /// Records a lost message at `t`.
    pub fn record_lost(&mut self, t: Time) {
        self.total_lost += 1;
        self.bin_mut(t).lost += 1;
    }

    /// Accumulates `seconds` of busy time for `matcher`.
    pub fn record_busy(&mut self, matcher: MatcherId, seconds: f64) {
        *self.busy.entry(matcher).or_insert(0.0) += seconds;
    }

    /// Records matching work: `examined` subscriptions scanned, `matched`
    /// hits produced.
    pub fn record_match_work(&mut self, examined: usize, matched: usize) {
        self.total_examined += examined as u64;
        self.total_matches += matched as u64;
    }

    /// Records one coalescer flush.
    pub fn record_batch_flush(&mut self, reason: FlushReason) {
        *self.batch_flushes.entry(reason).or_insert(0) += 1;
    }

    /// Coalescer flushes triggered by `reason` so far.
    pub fn batch_flushes(&self, reason: FlushReason) -> u64 {
        self.batch_flushes.get(&reason).copied().unwrap_or(0)
    }

    /// The aggregation bins (index × bin width = start time).
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Bin width in seconds.
    pub fn bin_width(&self) -> Time {
        self.bin_width
    }

    /// Mean response time over `[from, to)`.
    pub fn mean_response(&self, from: Time, to: Time) -> f64 {
        let (mut sum, mut count) = (0.0, 0u64);
        for (i, b) in self.bins.iter().enumerate() {
            let t = i as f64 * self.bin_width;
            if t >= from && t < to {
                sum += b.sum;
                count += b.count;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Loss rate over `[from, to)`.
    pub fn loss_rate(&self, from: Time, to: Time) -> f64 {
        let (mut lost, mut sent) = (0u64, 0u64);
        for (i, b) in self.bins.iter().enumerate() {
            let t = i as f64 * self.bin_width;
            if t >= from && t < to {
                lost += b.lost;
                sent += b.sent;
            }
        }
        if sent == 0 {
            0.0
        } else {
            lost as f64 / sent as f64
        }
    }

    /// Busy fraction per matcher over a run of `duration` seconds — the
    /// CPU-load analogue plotted in Figure 8.
    pub fn cpu_loads(&self, duration: Time) -> Vec<(MatcherId, f64)> {
        let mut v: Vec<(MatcherId, f64)> =
            self.busy.iter().map(|(&m, &b)| (m, b / duration)).collect();
        v.sort_unstable_by_key(|&(m, _)| m);
        v
    }

    /// Normalized standard deviation (σ/µ) of per-matcher CPU loads — the
    /// paper quotes 0.14 for BlueDove vs 0.82 for P2P.
    pub fn load_imbalance(&self, duration: Time) -> f64 {
        let loads: Vec<f64> = self
            .cpu_loads(duration)
            .into_iter()
            .map(|(_, l)| l)
            .collect();
        normalized_std(&loads)
    }
}

/// σ/µ of a sample (0 when empty or zero-mean).
pub fn normalized_std(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_aggregate_by_time() {
        let mut m = Metrics::new(1.0);
        m.record_sent(0.2);
        m.record_response(0.5, 0.010);
        m.record_response(0.9, 0.030);
        m.record_response(1.5, 0.100);
        assert_eq!(m.bins().len(), 2);
        assert!((m.bins()[0].mean() - 0.020).abs() < 1e-12);
        assert_eq!(m.bins()[0].max, 0.030);
        assert!((m.bins()[1].mean() - 0.100).abs() < 1e-12);
    }

    #[test]
    fn loss_rate_per_window() {
        let mut m = Metrics::new(1.0);
        for _ in 0..90 {
            m.record_sent(0.5);
        }
        for _ in 0..10 {
            m.record_sent(0.5);
            m.record_lost(0.5);
        }
        assert!((m.loss_rate(0.0, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(m.loss_rate(1.0, 2.0), 0.0);
    }

    #[test]
    fn mean_response_windows() {
        let mut m = Metrics::new(0.5);
        m.record_response(0.1, 1.0);
        m.record_response(2.1, 3.0);
        assert_eq!(m.mean_response(0.0, 1.0), 1.0);
        assert_eq!(m.mean_response(2.0, 3.0), 3.0);
        assert_eq!(m.mean_response(0.0, 3.0), 2.0);
        assert_eq!(m.mean_response(10.0, 20.0), 0.0);
    }

    #[test]
    fn cpu_loads_and_imbalance() {
        let mut m = Metrics::new(1.0);
        m.record_busy(MatcherId(0), 5.0);
        m.record_busy(MatcherId(1), 5.0);
        let loads = m.cpu_loads(10.0);
        assert_eq!(loads, vec![(MatcherId(0), 0.5), (MatcherId(1), 0.5)]);
        assert_eq!(m.load_imbalance(10.0), 0.0);
        m.record_busy(MatcherId(1), 5.0);
        assert!(m.load_imbalance(10.0) > 0.3);
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1 ms … 1 s uniform
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((0.45..0.60).contains(&p50), "p50 = {p50}");
        assert!((0.90..1.15).contains(&p99), "p99 = {p99}");
        assert!(h.percentile(100.0) >= p99);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = LogHistogram::new();
        assert_eq!(h.percentile(99.0), 0.0);
        h.record(0.0); // clamps into the first bucket
        h.record(1e12); // clamps into the last bucket
        assert!(h.percentile(1.0) <= 2e-6);
        assert!(h.percentile(100.0) > 1e2);
    }

    #[test]
    fn metrics_expose_response_percentiles() {
        let mut m = Metrics::new(1.0);
        for i in 0..100 {
            m.record_response(0.1, 0.001 * (i + 1) as f64);
        }
        assert_eq!(m.response_hist.count(), 100);
        assert!(m.response_hist.percentile(90.0) > m.response_hist.percentile(10.0));
    }

    #[test]
    fn normalized_std_edge_cases() {
        assert_eq!(normalized_std(&[]), 0.0);
        assert_eq!(normalized_std(&[0.0, 0.0]), 0.0);
        assert!((normalized_std(&[1.0, 1.0, 1.0]) - 0.0).abs() < 1e-12);
    }
}
