#![warn(missing_docs)]

//! # bluedove-cluster
//!
//! A real multi-threaded BlueDove deployment: dispatcher and matcher
//! nodes running as threads, communicating over `bluedove-net` transports
//! with the same protocol a multi-host deployment would use over TCP.
//!
//! - [`cluster::Cluster`] — orchestrator: start/shutdown, subscribe,
//!   publish, elastic [`cluster::Cluster::add_matcher`], crash-injection
//!   [`cluster::Cluster::kill_matcher`];
//! - [`matcher`] — the matcher node (per-dimension sets + queues, real
//!   matching, load reports);
//! - [`dispatcher`] — the front-end (policy-driven one-hop forwarding with
//!   fail-over);
//! - [`chaos`] — deterministic fault schedules ([`chaos::FaultSchedule`])
//!   replayed against a live cluster, with invariant probes;
//! - [`proto`] — the wire protocol.
//!
//! ```
//! use bluedove_cluster::{Cluster, ClusterConfig};
//! use bluedove_core::{AttributeSpace, Subscription, Message};
//! use std::time::Duration;
//!
//! let space = AttributeSpace::uniform(2, 0.0, 100.0);
//! let mut cluster = Cluster::start(ClusterConfig::new(space.clone()).matchers(2));
//! let sub = Subscription::builder(&space).range(0, 10.0, 20.0).build().unwrap();
//! let subscriber = cluster.subscribe(sub).unwrap();
//! cluster.publish(Message::new(vec![15.0, 50.0])).unwrap();
//! let delivery = subscriber.recv_timeout(Duration::from_secs(5)).unwrap();
//! assert_eq!(delivery.msg.values[0], 15.0);
//! cluster.shutdown();
//! ```

pub mod batchio;
pub mod chaos;
pub mod cluster;
pub mod dispatcher;
pub mod log;
pub mod mailbox;
pub mod matcher;
mod node;
pub mod proto;
pub mod scenario;
pub mod shared;
pub mod sublog;
pub mod wal;

pub use chaos::{ChaosEvent, ChaosReport, ChaosStep, FaultSchedule};
pub use cluster::{
    Cluster, ClusterConfig, ClusterError, Delivery, IndirectSubscriber, PolicyKind, Publisher,
    StrategyKind, SubscriberHandle, TransportKind,
};
pub use log::{FsyncPolicy, Log, LogConfig};
pub use proto::ControlMsg;
pub use sublog::{SubLogConfig, SubLogRecord};
