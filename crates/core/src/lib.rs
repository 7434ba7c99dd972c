#![warn(missing_docs)]

//! # bluedove-core
//!
//! The core model of the BlueDove attribute-based publish/subscribe
//! service (Li, Ye, Kim, Chen & Lei, IPDPS 2011): the multi-dimensional
//! attribute space, messages and subscriptions, the **mPartition**
//! subscription-space partitioning scheme, matching indexes, and the
//! **performance-aware forwarding** policies.
//!
//! ## Model recap (§II-A)
//!
//! Messages are points in a `k`-dimensional attribute space; subscriptions
//! are hyper-cuboids of half-open ranges (one per dimension, conjunctive).
//! A message matches a subscription iff the point lies inside the cuboid.
//!
//! ## mPartition (§III-A)
//!
//! Each dimension's domain is split into contiguous segments owned by
//! matchers ([`partition::SegmentTable`]). A subscription is assigned once
//! per dimension to every matcher whose segment overlaps its predicate
//! ([`partition::MPartition`]); therefore every message has `k` candidate
//! matchers, any of which completes the match alone.
//!
//! ## Forwarding (§III-B)
//!
//! Dispatchers choose among the candidates with a
//! [`policy::ForwardingPolicy`]; the default [`policy::AdaptivePolicy`]
//! extrapolates each candidate's queue between load updates.

pub mod error;
pub mod ids;
pub mod index;
pub mod matcher;
pub mod message;
pub mod partition;
pub mod policy;
pub mod space;
pub mod stats;
pub mod subscription;

pub use error::{CoreError, CoreResult};
pub use ids::{DimIdx, DispatcherId, MatcherId, MessageId, SubscriberId, SubscriptionId};
pub use index::{CoveringIndex, IndexKind, InnerKind, MatchHit, MatchIndex};
pub use matcher::MatcherCore;
pub use message::Message;
pub use partition::{Assignment, MPartition, PartitionStrategy, Segment, SegmentTable};
pub use policy::{
    all_policies, AdaptivePolicy, ForwardingPolicy, RandomPolicy, ResponseTimePolicy,
    SubscriptionCountPolicy,
};
pub use space::{AttributeSpace, Dimension};
pub use stats::{DimStats, RateEstimator, StatsView, Time};
pub use subscription::{Range, SubLogRecord, Subscription, SubscriptionBuilder};
