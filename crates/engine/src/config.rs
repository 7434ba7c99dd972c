//! The engine-level configuration shared by both hosts.
//!
//! `SimConfig` and `ClusterConfig` used to re-declare the same knobs —
//! index kind, retry policy, dedup window, forward recording — with
//! subtly different defaults and spellings. [`EngineConfig`] is the
//! single declaration both hosts embed; each host's config keeps only
//! what is genuinely host-specific (cost models and virtual-time
//! intervals on the sim side, thread/socket intervals on the cluster
//! side).

use crate::batch::BatchCfg;
use crate::timer::RetryPolicy;
use bluedove_core::{IndexKind, Time};

/// The knobs the engines themselves consume, identical across hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Matching-index structure every matcher engine builds per dimension.
    pub index: IndexKind,
    /// The at-least-once delivery policy (ack mode, timeout, retry
    /// budget, suspicion TTL) dispatch engines run with.
    pub retry: RetryPolicy,
    /// Per-subscriber dedup window (entries) used when acks are on.
    pub dedup_window: usize,
    /// Record every dispatcher forward into the shared forward log
    /// (the engine-parity harness's trace source).
    pub record_forwards: bool,
    /// Hot-path frame coalescing (`max_batch`, `max_delay`); the default
    /// `max_batch = 1` turns batching off and keeps the wire traffic
    /// byte-identical to an unbatched build.
    pub batch: BatchCfg,
}

impl Default for EngineConfig {
    /// Linear index, the cluster's default reliability policy (acks on),
    /// an 8192-entry dedup window, and no forward recording.
    fn default() -> Self {
        EngineConfig {
            index: IndexKind::Linear,
            retry: RetryPolicy::default(),
            dedup_window: 8192,
            record_forwards: false,
            batch: BatchCfg::default(),
        }
    }
}

impl EngineConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }

    /// Sets the matching-index kind.
    pub fn index(mut self, kind: IndexKind) -> Self {
        self.index = kind;
        self
    }

    /// Replaces the whole retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Fluent builder for [`EngineConfig`]; each setter mirrors one knob the
/// host configs used to declare separately.
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Matching-index structure.
    pub fn index(mut self, kind: IndexKind) -> Self {
        self.cfg.index = kind;
        self
    }

    /// Replaces the whole retry policy at once.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Turns publication acknowledgements on or off.
    pub fn acks(mut self, on: bool) -> Self {
        self.cfg.retry.acks = on;
        self
    }

    /// Base ack timeout, in seconds.
    pub fn ack_timeout(mut self, secs: Time) -> Self {
        self.cfg.retry.ack_timeout = secs;
        self
    }

    /// Retransmissions allowed per publication before dead-lettering.
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.cfg.retry.retry_budget = budget;
        self
    }

    /// Suspicion TTL, in seconds (`Time::INFINITY` = permanent).
    pub fn suspicion_ttl(mut self, secs: Time) -> Self {
        self.cfg.retry.suspicion_ttl = secs;
        self
    }

    /// Per-subscriber dedup window, in entries.
    pub fn dedup_window(mut self, entries: usize) -> Self {
        self.cfg.dedup_window = entries;
        self
    }

    /// Record dispatcher forwards into the shared forward log.
    pub fn record_forwards(mut self, on: bool) -> Self {
        self.cfg.record_forwards = on;
        self
    }

    /// Frames coalesced per destination before a size flush (`1` = off).
    pub fn max_batch(mut self, frames: usize) -> Self {
        self.cfg.batch.max_batch = frames;
        self
    }

    /// Longest a staged frame waits for company, in seconds (reached only
    /// when the node never idles).
    pub fn max_delay(mut self, secs: Time) -> Self {
        self.cfg.batch.max_delay = secs;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> EngineConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_mirrors_every_knob() {
        let cfg = EngineConfig::builder()
            .index(IndexKind::Cell(32))
            .acks(false)
            .ack_timeout(0.5)
            .retry_budget(3)
            .suspicion_ttl(Time::INFINITY)
            .dedup_window(16)
            .record_forwards(true)
            .max_batch(32)
            .max_delay(0.002)
            .build();
        assert_eq!(cfg.index, IndexKind::Cell(32));
        assert!(!cfg.retry.acks);
        assert_eq!(cfg.retry.ack_timeout, 0.5);
        assert_eq!(cfg.retry.retry_budget, 3);
        assert!(cfg.retry.suspicion_ttl.is_infinite());
        assert_eq!(cfg.dedup_window, 16);
        assert!(cfg.record_forwards);
        assert_eq!(cfg.batch.max_batch, 32);
        assert_eq!(cfg.batch.max_delay, 0.002);
    }

    #[test]
    fn defaults_match_the_cluster_policy() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.index, IndexKind::Linear);
        assert!(cfg.retry.acks);
        assert_eq!(cfg.dedup_window, 8192);
        assert!(!cfg.record_forwards);
        assert!(!cfg.batch.enabled(), "batching defaults to off");
    }
}
