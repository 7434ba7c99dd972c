//! The engine-level configuration shared by both hosts.
//!
//! `SimConfig` and `ClusterConfig` used to re-declare the same knobs —
//! index kind, retry policy, forward recording — with subtly different
//! defaults and spellings. [`EngineConfig`] is the single declaration both
//! hosts embed; each host's config keeps only what is genuinely
//! host-specific (cost models and virtual-time intervals on the sim side,
//! thread/socket intervals on the cluster side).

use crate::batch::BatchCfg;
use crate::timer::RetryPolicy;
use bluedove_core::IndexKind;

/// The knobs the engines themselves consume, identical across hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Matching-index structure every matcher engine builds per dimension.
    pub index: IndexKind,
    /// The at-least-once delivery policy (ack mode, timeout, retry
    /// budget, suspicion TTL) dispatch engines run with.
    pub retry: RetryPolicy,
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
    /// no forward recording and batching off.
    fn default() -> Self {
        EngineConfig {
            index: IndexKind::Linear,
            retry: RetryPolicy::default(),
            record_forwards: false,
            batch: BatchCfg::default(),
        }
    }
}

impl EngineConfig {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_cluster_policy() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.index, IndexKind::Linear);
        assert!(cfg.retry.acks);
        assert!(!cfg.record_forwards);
        assert!(!cfg.batch.enabled(), "batching defaults to off");
    }
}
