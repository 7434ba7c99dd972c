#![deny(missing_docs)]

//! # bluedove-engine
//!
//! The sans-IO decision layer of the BlueDove deployment: the dispatcher
//! and matcher protocol logic as transport-agnostic, clock-agnostic state
//! machines. Every input is an explicit event stamped with a [`Time`], and
//! every output goes through a port trait the host implements — the
//! engines never touch a socket, a channel, a thread or a wall clock.
//!
//! Two hosts drive the same engines:
//!
//! - `bluedove-cluster` runs them on real threads: `Instant`s mapped onto
//!   the cluster epoch, crossbeam/TCP transports behind the ports, and
//!   measured wall time fed into `record_service`;
//! - `bluedove-sim` runs them under virtual time in a discrete-event loop,
//!   with the linear-scan cost model supplying service times.
//!
//! Because the at-least-once machinery — the in-flight ledger, the
//! exponential-backoff retransmit timers, clockwise failover, the
//! suspicion TTL and the dedup windows — lives *inside* the engines, the
//! full reliability protocol is deterministically replayable (and
//! property-testable) in virtual time at simulation speed.
//!
//! ## Event/action model
//!
//! [`DispatcherEngine`] consumes [`DispatcherEvent`]s
//! (`Subscribe`/`Publish`/`MatchAck`/`LoadReport`/`TableUpdate`/
//! `MatcherDown`/`Tick`) and acts through a [`DispatcherPort`]:
//! fallible `send`s of [`DispatcherOut`] frames (a `false` return is the
//! synchronous send failure that triggers in-dispatch failover),
//! subscription acks, and [`DispatcherEffect`] telemetry the host maps
//! onto its counters and histograms. Retransmit deadlines are exposed via
//! [`DispatcherEngine::next_deadline`]; the host wakes the engine with
//! `Tick` events at (or after) those times.
//!
//! [`MatcherEngine`] consumes store/remove/match events and serves queued
//! work in a three-phase split — [`MatcherEngine::begin_service`] pops the
//! round-robin job, the host times (or models) the match around
//! [`MatcherEngine::run_match`], and [`MatcherEngine::complete`] emits
//! deliveries and the `MatchAck` through a [`MatcherPort`]. It also runs
//! every matcher-side step of the replicated subscription log — journal,
//! forward, replicate to the heir, accept, serve, promote, install — so
//! the hosts only carry its frames.
//!
//! Both engines drop malformed publications and subscriptions at the edge
//! and report them as [`Rejected`] kinds instead of acting on them.
//!
//! [`ControlEngine`] is the control plane both hosts execute: it owns the
//! segment table, table versions, membership, the stream-leader
//! book and the autoscaler, and hands back join/leave/crash/rejoin plans.

pub mod autoscaler;
pub mod batch;
pub mod config;
pub mod control;
pub mod dedup;
pub mod dispatcher;
pub mod matcher;
pub mod reject;
pub mod replication;
pub mod suspect;
pub mod timer;

pub use autoscaler::{
    Autoscaler, AutoscalerConfig, LoadSnapshot, ScaleDecision, ScaleOutcome, ScalePlan,
};
pub use batch::{BatchCfg, Coalescer, Flush, FlushReason, MAX_BATCH};
pub use config::EngineConfig;
pub use control::{clockwise_heir, Announcement, Change, ControlEngine, Move, ScaleError};
pub use dedup::{Admit, DedupWindow, SeenWindow, DEDUP_WINDOW};
pub use dispatcher::{
    DispatcherEffect, DispatcherEngine, DispatcherEngineConfig, DispatcherEvent, DispatcherOut,
    DispatcherPort,
};
pub use matcher::{MatcherEngine, MatcherPort, ServiceJob, SubLogCount};
pub use reject::Rejected;
pub use replication::{
    AppendVerdict, Epoch, FollowerLog, FollowerOutcome, Journal, ReplicatedAppend,
    ReplicatedStream, StreamSet,
};
pub use suspect::SuspectList;
pub use timer::{backoff_delay, jitter_bound, retransmit_delay, RetryPolicy};

pub use bluedove_core::Time;
