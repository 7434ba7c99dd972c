//! Simulator configuration: the cost model standing in for the paper's
//! 24-VM testbed.
//!
//! The evaluation's quantities (saturation rate, response time, CPU load,
//! loss rate) are functions of queueing plus matching cost; the simulator
//! models matching cost as `match_base + match_per_sub × (subscriptions
//! examined)` — the linear-scan model the paper's §IV reasoning uses
//! ("the matching time is not reduced because each matcher needs to search
//! all subscriptions").

use bluedove_core::Time;
use bluedove_engine::{EngineConfig, RetryPolicy};

/// All tunables of the simulated deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// One-way network latency between any two servers (data-center LAN).
    pub net_latency: Time,
    /// Dispatcher per-message handling cost; §IV-B measured dispatching
    /// "almost two orders of magnitude faster" than matching, hence the
    /// 1:10 dispatcher:matcher ratio.
    pub dispatch_cost: Time,
    /// Fixed per-message matching overhead (dequeue, parse, deliver).
    pub match_base: Time,
    /// Marginal cost of examining one subscription during matching.
    pub match_per_sub: Time,
    /// How often matchers push `(q, λ, µ)` load reports to dispatchers
    /// (the staleness the adaptive policy's extrapolation bridges).
    pub stats_update_interval: Time,
    /// How long after a matcher dies dispatchers learn about it (gossip +
    /// failure-detector latency; drives the Figure 10 loss window).
    pub detection_delay: Time,
    /// How long a segment-table change takes to reach all dispatchers
    /// (join/leave propagation; drives the Figure 9 adaptation lag).
    pub table_propagation_delay: Time,
    /// Number of front-end dispatchers (paper: 2 for 20 matchers).
    pub num_dispatchers: usize,
    /// RNG seed for arrival jitter and random policies.
    pub seed: u64,
    /// The host-independent engine knobs (index kind, retry policy,
    /// forward recording, batching) shared with `ClusterConfig`. The
    /// simulator's default keeps [`IndexKind::Linear`] — the
    /// `examined`-driven service-time model above *is* the paper's
    /// linear-scan cost model, and sub-linear indexes would decouple
    /// `examined` from the modelled cost — and
    /// [`RetryPolicy::fire_and_forget`]: no acks, permanent suspicion —
    /// the loss semantics of the paper's Figure 10 experiment. Switch
    /// `acks` on to run the at-least-once pipeline (ledger, exponential
    /// backoff retransmissions, dead-lettering) under virtual time.
    ///
    /// [`IndexKind::Linear`]: bluedove_core::IndexKind::Linear
    pub engine: EngineConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            net_latency: 0.0005,
            dispatch_cost: 10e-6,
            match_base: 50e-6,
            match_per_sub: 1e-6,
            stats_update_interval: 1.0,
            detection_delay: 10.0,
            table_propagation_delay: 2.0,
            num_dispatchers: 2,
            seed: 42,
            engine: EngineConfig::default().retry(RetryPolicy::fire_and_forget()),
        }
    }
}

impl SimConfig {
    /// Default data-center cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Service time for matching one message against `examined`
    /// subscriptions.
    #[inline]
    pub fn service_time(&self, examined: usize) -> Time {
        self.match_base + self.match_per_sub * examined as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_is_affine_in_examined() {
        let c = SimConfig::default();
        let t0 = c.service_time(0);
        let t1000 = c.service_time(1000);
        assert!((t0 - 50e-6).abs() < 1e-12);
        assert!((t1000 - (50e-6 + 1000e-6)).abs() < 1e-12);
    }

    #[test]
    fn defaults_are_data_center_scale() {
        let c = SimConfig::default();
        assert!(c.net_latency < 0.01, "LAN latency");
        assert!(
            c.dispatch_cost < c.match_base,
            "dispatching much cheaper than matching"
        );
    }
}
