#![warn(missing_docs)]

//! # bluedove-workload
//!
//! Seeded workload generators reproducing the BlueDove evaluation
//! distributions (§IV-B, §IV-F), organized around the composable
//! [`scenario::Scenario`] trait:
//!
//! - [`dist::ValueDist`] — uniform, cropped-normal (the paper's skewed
//!   subscription distribution) and Zipf value distributions;
//! - [`gen::SubscriptionGenerator`] / [`gen::MessageGenerator`] —
//!   deterministic streams of subscriptions and publications;
//! - [`scenario`] — the [`scenario::Scenario`] trait (attribute space +
//!   subscription stream + message arrival process + churn schedule)
//!   both hosts consume directly, and the shipped scenarios:
//!   [`scenario::PaperWorkload`] (§IV-B knob-for-knob),
//!   [`scenario::CoverableWorkload`], [`scenario::TrafficMonitoring`],
//!   [`scenario::StockTicker`], [`scenario::SpatioTextual`] and
//!   [`scenario::HighChurn`].
//!
//! All generators are seeded; identical seeds reproduce identical streams
//! and churn schedules, which the experiment harness and the engine-parity
//! suite rely on.

pub mod dist;
pub mod gen;
pub mod scenario;

pub use dist::ValueDist;
pub use gen::{CoverableSubGenerator, MessageGenerator, SubDimConfig, SubscriptionGenerator};
pub use scenario::{
    hot_spot_ratio, ChurnAction, ChurnEvent, ChurnKey, ChurnSchedule, CoverableWorkload, HighChurn,
    MsgStream, PaperWorkload, Scenario, ScenarioConfig, ScenarioRun, SpatioTextual, StockTicker,
    SubStream, TrafficMonitoring,
};
