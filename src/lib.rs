//! # BlueDove
//!
//! A scalable and elastic attribute-based publish/subscribe service — a
//! from-scratch Rust reproduction of Li, Ye, Kim, Chen & Lei (IPDPS 2011).
//!
//! This umbrella crate re-exports the workspace crates:
//!
//! - [`core`] — attribute-space model, mPartition, matching indexes and
//!   performance-aware forwarding policies.
//! - [`overlay`] — the gossip-based one-hop overlay (membership, failure
//!   detection, segment dissemination).
//! - [`workload`] — seeded generators reproducing the paper's evaluation
//!   distributions.
//! - [`baselines`] — the P2P (single-dimension DHT) and full-replication
//!   comparators from the paper's evaluation.
//! - [`net`] — wire codec and transports (in-process channels, the TCP
//!   reactor).
//! - [`cluster`] — a real multi-threaded deployment of dispatchers and
//!   matchers.
//! - [`sim`] — a deterministic discrete-event simulator standing in for the
//!   paper's 24-VM testbed.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`:
//!
//! ```no_run
//! use bluedove::cluster::{Cluster, ClusterConfig};
//! use bluedove::core::{space::AttributeSpace, subscription::Subscription, message::Message};
//!
//! let space = AttributeSpace::uniform(4, 0.0, 1000.0);
//! let mut cluster = Cluster::start(ClusterConfig::new(space.clone()).matchers(4).dispatchers(1));
//! let sub = Subscription::builder(&space).range(0, 10.0, 20.0).build().unwrap();
//! let subscriber = cluster.subscribe(sub).unwrap();
//! cluster.publish(Message::new(vec![15.0, 1.0, 2.0, 3.0])).unwrap();
//! let delivery = subscriber.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
//! println!("got {:?}", delivery);
//! cluster.shutdown();
//! ```

pub use bluedove_baselines as baselines;
pub use bluedove_bench as bench_support;
pub use bluedove_cluster as cluster;
pub use bluedove_core as core;
pub use bluedove_engine as engine;
pub use bluedove_net as net;
pub use bluedove_overlay as overlay;
pub use bluedove_sim as sim;
pub use bluedove_telemetry as telemetry;
pub use bluedove_workload as workload;
