#![warn(missing_docs)]

//! # bluedove-net
//!
//! Wire codec, framing and transports for the threaded BlueDove cluster:
//!
//! - [`wire`] — a compact hand-rolled binary codec ([`Wire`]) for every
//!   type that crosses the network (the offline crate set ships `serde`
//!   but no serializer back-end, so the codec is local);
//! - [`frame`] — `u32`-length-prefixed framing over byte streams;
//! - [`transport`] — the [`Transport`] trait, its in-process
//!   implementation ([`ChannelTransport`]) and the [`HostTransport`]
//!   management surface cluster hosts need;
//! - [`reactor`] — the TCP transport ([`ReactorTransport`]): a std-only
//!   nonblocking readiness loop that owns all sockets on a fixed set of
//!   event-loop threads (O(event loops) threads, not O(connections));
//! - [`fault`] — a deterministic fault-injecting decorator
//!   ([`FaultTransport`]) for chaos testing any transport.

pub mod error;
pub mod fault;
pub mod frame;
pub mod reactor;
pub mod transport;
pub mod wire;

pub use error::{NetError, NetResult};
pub use fault::{AddrSet, FaultHandle, FaultRule, FaultStats, FaultTransport, LinkRule};
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use reactor::{ReactorConfig, ReactorStats, ReactorTransport};
pub use transport::{ChannelTransport, HostTransport, Transport};
pub use wire::{from_bytes, from_bytes_shared, to_bytes, Wire};
