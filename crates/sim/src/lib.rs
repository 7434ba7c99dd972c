#![warn(missing_docs)]

//! # bluedove-sim
//!
//! A deterministic discrete-event simulator standing in for the paper's
//! 24-VM IBM Research Compute Cloud testbed (§IV-B). It models:
//!
//! - matchers as single servers draining one FIFO queue per dimension,
//!   with matching cost affine in the number of subscriptions examined
//!   (the paper's linear-scan cost model);
//! - dispatchers applying a forwarding policy over the shared partition
//!   strategy and periodically refreshed load reports (staleness =
//!   `stats_update_interval`, the gap the adaptive policy extrapolates
//!   across);
//! - failure-detection delay (Figure 10's loss window) and segment-table
//!   propagation delay (Figure 9's adaptation lag).
//!
//! Every figure in `EXPERIMENTS.md` is regenerated from this crate by the
//! `experiments` binary in `bluedove-bench`.

pub mod cluster;
pub mod config;
pub mod events;
pub mod metrics;
pub mod saturation;
pub mod scenario;

pub use cluster::{Replication, SimCluster, Strategy};
pub use config::SimConfig;
// The shared elasticity/config surface, re-exported so simulator users
// reach the whole scaling API from one crate.
pub use bluedove_engine::{
    Autoscaler, AutoscalerConfig, EngineConfig, LoadSnapshot, RetryPolicy, ScaleDecision,
    ScaleError, ScaleOutcome, ScalePlan,
};
pub use events::EventQueue;
pub use metrics::{normalized_std, Bin, Metrics};
pub use saturation::SaturationProbe;
