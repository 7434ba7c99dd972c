//! Transports: how payloads move between BlueDove nodes.
//!
//! Two implementations of one [`Transport`] trait:
//!
//! - [`ChannelTransport`] — crossbeam channels inside one process; the
//!   default for tests, examples and single-machine experiments.
//! - [`crate::reactor::ReactorTransport`] — TCP: length-prefixed frames
//!   over nonblocking sockets owned by a fixed set of event-loop threads,
//!   so thread count is O(event loops), not O(connections).
//!
//! Addresses are opaque strings: channel keys in-process; the reactor
//! resolves logical names through its own registry and takes a literal
//! `host:port` as is.
//!
//! [`HostTransport`] extends [`Transport`] with the management surface the
//! cluster orchestrator needs from its *base* transport (aliasing, unbind,
//! wire accounting, shutdown); both transports implement it, which is what
//! makes the reactor selectable as a cluster host without touching any
//! node code.

use crate::error::{NetError, NetResult};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Datagram-style reliable transport with per-address inboxes.
pub trait Transport: Send + Sync {
    /// Binds an inbox at `addr`; incoming payloads arrive on the returned
    /// receiver in order per sender.
    fn bind(&self, addr: &str) -> NetResult<Receiver<Bytes>>;

    /// Sends `payload` to the inbox bound at `addr`.
    fn send(&self, addr: &str, payload: Bytes) -> NetResult<()>;
}

/// The management surface the cluster orchestrator needs from its base
/// transport, beyond plain [`Transport`] sends: address aliasing (indirect
/// delivery), unbinding (crash simulation), wire accounting (bench
/// attribution) and orderly teardown. Implemented by [`ChannelTransport`]
/// and [`crate::reactor::ReactorTransport`] — the two base transports a
/// cluster deployment can select between.
pub trait HostTransport: Transport {
    /// Routes `addr` to the inbox already bound at `target`.
    fn alias(&self, addr: &str, target: &str) -> NetResult<()>;

    /// Removes a binding (simulates a crashed node whose inbox vanishes).
    fn unbind(&self, addr: &str);

    /// Cumulative `(frames, payload bytes)` successfully routed since
    /// construction.
    fn wire_stats(&self) -> (u64, u64);

    /// A plain-`Transport` handle onto the same underlying transport
    /// (what gets wrapped in fault layers and handed to nodes).
    fn as_transport(&self) -> Arc<dyn Transport>;

    /// Orderly teardown: stop any event loops and release sockets. A
    /// no-op for transports without background threads.
    fn shutdown(&self) {}
}

/// In-process transport backed by crossbeam channels. Cloning shares the
/// routing table, so one instance serves a whole simulated deployment.
///
/// Sends from every thread share the table's read lock and push into the
/// inbox's channel under it; only `bind`, `alias` and `unbind` take the
/// write lock. The channel wakes its receiver only when one is blocked, so
/// a send to an inbox that is being polled makes no syscall.
#[derive(Clone, Default)]
pub struct ChannelTransport {
    routes: Arc<RwLock<HashMap<String, Sender<Bytes>>>>,
    /// Frames successfully routed (shared across clones).
    frames_sent: Arc<AtomicU64>,
    /// Payload bytes successfully routed (shared across clones).
    bytes_sent: Arc<AtomicU64>,
}

impl ChannelTransport {
    /// Creates an empty routing table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative `(frames, payload bytes)` successfully routed since
    /// construction, summed over every clone of this transport. Benches
    /// use the deltas to attribute wire traffic per message.
    pub fn wire_stats(&self) -> (u64, u64) {
        (
            self.frames_sent.load(Ordering::Relaxed),
            self.bytes_sent.load(Ordering::Relaxed),
        )
    }

    /// Removes a binding (simulates a crashed node whose inbox vanishes).
    pub fn unbind(&self, addr: &str) {
        self.routes.write().remove(addr);
    }

    /// Routes `addr` to the inbox already bound at `target` — payloads
    /// sent to either address arrive on the same receiver. Used for
    /// indirect delivery, where many subscriber addresses funnel into one
    /// mailbox node.
    pub fn alias(&self, addr: &str, target: &str) -> NetResult<()> {
        let mut routes = self.routes.write();
        let tx = routes
            .get(target)
            .cloned()
            .ok_or_else(|| NetError::Unroutable(target.to_string()))?;
        routes.insert(addr.to_string(), tx);
        Ok(())
    }
}

impl Transport for ChannelTransport {
    fn bind(&self, addr: &str) -> NetResult<Receiver<Bytes>> {
        let (tx, rx) = unbounded();
        self.routes.write().insert(addr.to_string(), tx);
        Ok(rx)
    }

    fn send(&self, addr: &str, payload: Bytes) -> NetResult<()> {
        let routes = self.routes.read();
        match routes.get(addr) {
            Some(tx) => {
                let len = payload.len() as u64;
                tx.send(payload).map_err(|_| NetError::Disconnected)?;
                self.frames_sent.fetch_add(1, Ordering::Relaxed);
                self.bytes_sent.fetch_add(len, Ordering::Relaxed);
                Ok(())
            }
            None => Err(NetError::Unroutable(addr.to_string())),
        }
    }
}

impl HostTransport for ChannelTransport {
    fn alias(&self, addr: &str, target: &str) -> NetResult<()> {
        ChannelTransport::alias(self, addr, target)
    }

    fn unbind(&self, addr: &str) {
        ChannelTransport::unbind(self, addr)
    }

    fn wire_stats(&self) -> (u64, u64) {
        ChannelTransport::wire_stats(self)
    }

    fn as_transport(&self) -> Arc<dyn Transport> {
        Arc::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_transport_routes_by_address() {
        let t = ChannelTransport::new();
        let rx_a = t.bind("a").unwrap();
        let rx_b = t.bind("b").unwrap();
        t.send("a", Bytes::from_static(b"to-a")).unwrap();
        t.send("b", Bytes::from_static(b"to-b")).unwrap();
        assert_eq!(&rx_a.recv().unwrap()[..], b"to-a");
        assert_eq!(&rx_b.recv().unwrap()[..], b"to-b");
    }

    #[test]
    fn channel_transport_unroutable_and_unbind() {
        let t = ChannelTransport::new();
        assert!(matches!(
            t.send("ghost", Bytes::new()),
            Err(NetError::Unroutable(_))
        ));
        let _rx = t.bind("x").unwrap();
        t.unbind("x");
        assert!(t.send("x", Bytes::new()).is_err());
    }

    #[test]
    fn alias_routes_to_existing_inbox() {
        let t = ChannelTransport::new();
        let rx = t.bind("mailbox").unwrap();
        t.alias("c/1", "mailbox").unwrap();
        t.alias("c/2", "mailbox").unwrap();
        t.send("c/1", Bytes::from_static(b"one")).unwrap();
        t.send("c/2", Bytes::from_static(b"two")).unwrap();
        assert_eq!(&rx.recv().unwrap()[..], b"one");
        assert_eq!(&rx.recv().unwrap()[..], b"two");
        // Aliasing to a missing target fails.
        assert!(t.alias("c/3", "ghost").is_err());
    }

    #[test]
    fn channel_transport_preserves_order() {
        let t = ChannelTransport::new();
        let rx = t.bind("dest").unwrap();
        for i in 0..100u8 {
            t.send("dest", Bytes::from(vec![i])).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(rx.recv().unwrap()[0], i);
        }
    }

    #[test]
    fn concurrent_sends_survive_route_churn() {
        const SENDERS: u8 = 8;
        const FRAMES: u32 = 2_000;
        let t = ChannelTransport::new();
        let rx = t.bind("dest").unwrap();
        let (done_tx, done_rx) = unbounded();
        let worker = {
            let t = t.clone();
            std::thread::spawn(move || {
                let start = std::sync::Barrier::new(SENDERS as usize + 1);
                std::thread::scope(|s| {
                    for i in 0..SENDERS {
                        let (t, start) = (&t, &start);
                        s.spawn(move || {
                            start.wait();
                            for seq in 0..FRAMES {
                                let mut frame = vec![i];
                                frame.extend_from_slice(&seq.to_le_bytes());
                                t.send("dest", Bytes::from(frame)).unwrap();
                            }
                        });
                    }
                    // Binds, aliases and unbinds other addresses while the
                    // senders run: every one takes the write lock.
                    start.wait();
                    for j in 0..500 {
                        let own = format!("tmp/{j}");
                        let alias = format!("alias/{j}");
                        let _inbox = t.bind(&own).unwrap();
                        t.alias(&alias, &own).unwrap();
                        t.unbind(&alias);
                        t.unbind(&own);
                    }
                });
                let _ = done_tx.send(());
            })
        };
        assert!(
            done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .is_ok(),
            "senders or route churn deadlocked"
        );
        worker.join().unwrap();
        let mut next = [0u32; SENDERS as usize];
        while let Ok(frame) = rx.try_recv() {
            let i = frame[0] as usize;
            let seq = u32::from_le_bytes(frame[1..5].try_into().unwrap());
            assert_eq!(seq, next[i], "sender {i} out of order");
            next[i] += 1;
        }
        assert!(next.iter().all(|&n| n == FRAMES), "lost frames: {next:?}");
        let frames = SENDERS as u64 * FRAMES as u64;
        assert_eq!(t.wire_stats(), (frames, frames * 5));
    }

    #[test]
    fn channel_transport_shared_via_clone() {
        let t = ChannelTransport::new();
        let t2 = t.clone();
        let rx = t.bind("shared").unwrap();
        t2.send("shared", Bytes::from_static(b"hi")).unwrap();
        assert_eq!(&rx.recv().unwrap()[..], b"hi");
    }
}
