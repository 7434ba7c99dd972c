//! Indirect delivery (§II-B): the mailbox node.
//!
//! "Otherwise, messages can be delivered indirectly: after receiving a
//! subscription from a client, a dispatcher returns a handle to some
//! temporary storage (e.g., a message queue) that the subscriber polls
//! periodically to retrieve matching messages. […] This delivery model is
//! suitable for subscribers such as mobile phones that may not be able to
//! listen on an IP/port waiting for incoming messages."
//!
//! Implementation: indirect subscribers' addresses are aliased onto the
//! mailbox node's inbox, so matchers deliver exactly as they would to a
//! direct subscriber; the mailbox demultiplexes on the `subscriber` field
//! and stores deliveries per subscriber (bounded FIFO) until the client
//! polls with [`ControlMsg::MailboxPoll`].

use crate::proto::{frames, ControlMsg};
use crate::shared::{e2e_latency_histogram, Shared};
use crate::wal::{Wal, WalRecord};
use bluedove_core::{MessageId, SubscriberId, SubscriptionId};
use bluedove_engine::{SeenWindow, DEDUP_WINDOW};
use bluedove_net::{to_bytes, Transport};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Maximum deliveries retained per subscriber; the oldest are dropped
/// first when a subscriber stops polling (simple overload protection, the
/// "message persistence" future-work item in its minimal form).
pub const MAILBOX_CAPACITY: usize = 16_384;

/// Handle to a running mailbox node.
pub struct MailboxNode {
    /// The mailbox's transport address.
    pub addr: String,
    join: Option<JoinHandle<()>>,
}

impl MailboxNode {
    /// Spawns the mailbox thread bound at `addr` (volatile storage).
    pub fn spawn(addr: String, transport: Arc<dyn Transport>) -> Self {
        Self::spawn_inner(addr, transport, None, None)
    }

    /// Spawns the mailbox with a write-ahead log at `wal_path`: stored
    /// deliveries survive a mailbox restart (the §VI "message
    /// persistence" future-work item). Existing log contents are replayed
    /// on startup.
    pub fn spawn_persistent(
        addr: String,
        transport: Arc<dyn Transport>,
        wal_path: PathBuf,
    ) -> Self {
        Self::spawn_inner(addr, transport, Some(wal_path), None)
    }

    /// Spawns the mailbox wired to a cluster's shared state so suppressed
    /// duplicates show up in the cluster-wide counters.
    pub fn spawn_shared(addr: String, transport: Arc<dyn Transport>, shared: Arc<Shared>) -> Self {
        Self::spawn_inner(addr, transport, None, Some(shared))
    }

    fn spawn_inner(
        addr: String,
        transport: Arc<dyn Transport>,
        wal_path: Option<PathBuf>,
        shared: Option<Arc<Shared>>,
    ) -> Self {
        let rx = transport.bind(&addr).expect("bind mailbox inbox");
        let a = addr.clone();
        let join = std::thread::Builder::new()
            .name("mailbox".into())
            .spawn(move || run(transport, rx, wal_path, shared))
            .expect("spawn mailbox thread");
        MailboxNode {
            addr: a,
            join: Some(join),
        }
    }

    /// Waits for the thread to exit (after `Shutdown`).
    pub fn join(mut self) {
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

type Stored = (bluedove_core::SubscriptionId, bluedove_core::Message, u64);

/// One mailbox delivery as the duplicate filter keys it, id first so the
/// window evicts the oldest admission.
type DeliveryKey = (MessageId, SubscriberId, SubscriptionId);

/// Compact the WAL after this many appended records.
const WAL_COMPACT_THRESHOLD: u64 = 10_000;

fn run(
    transport: Arc<dyn Transport>,
    rx: Receiver<Bytes>,
    wal_path: Option<PathBuf>,
    shared: Option<Arc<Shared>>,
) {
    // Recover state from the log, then reopen it for appending.
    let mut boxes: HashMap<SubscriberId, VecDeque<Stored>> = match &wal_path {
        Some(p) => Wal::replay(p).unwrap_or_default(),
        None => HashMap::new(),
    };
    let mut wal = wal_path.and_then(|p| Wal::open(p).ok());
    let mut seen = reseeded_window(&boxes);
    // For the mailbox, "delivered" is when the copy reaches the box — a
    // subscriber's polling cadence is its own choice, not pipeline
    // latency.
    let e2e = shared.as_ref().map(|s| e2e_latency_histogram(&s.telemetry));

    'recv: for payload in rx.iter() {
        // Zero-copy decode: stored payloads window the received frame.
        for msg in frames(payload) {
            match msg {
                ControlMsg::Deliver {
                    subscriber,
                    sub,
                    msg,
                    admitted_us,
                } => {
                    if msg.id != MessageId(0) && seen.check_and_insert((msg.id, subscriber, sub)) {
                        if let Some(s) = &shared {
                            s.counters.duplicates_suppressed.inc();
                        }
                        continue;
                    }
                    if let (Some(s), Some(e2e)) = (&shared, &e2e) {
                        e2e.observe_us(s.now_us().saturating_sub(admitted_us));
                    }
                    if let Some(w) = wal.as_mut() {
                        let _ = w.append(&WalRecord::Deliver {
                            subscriber,
                            sub,
                            msg: msg.clone(),
                            admitted_us,
                        });
                    }
                    let q = boxes.entry(subscriber).or_default();
                    if q.len() >= MAILBOX_CAPACITY {
                        q.pop_front();
                    }
                    q.push_back((sub, msg, admitted_us));
                }
                ControlMsg::MailboxPoll {
                    subscriber,
                    reply_to,
                    max,
                } => {
                    let q = boxes.entry(subscriber).or_default();
                    let take = if max == 0 {
                        q.len()
                    } else {
                        q.len().min(max as usize)
                    };
                    let entries: Vec<Stored> = q.drain(..take).collect();
                    if let Some(w) = wal.as_mut() {
                        let _ = w.append(&WalRecord::Polled {
                            subscriber,
                            count: entries.len() as u32,
                        });
                        if w.appended() > WAL_COMPACT_THRESHOLD {
                            let _ = w.compact(&boxes);
                        }
                    }
                    let batch = ControlMsg::MailboxBatch { entries };
                    let _ = transport.send(&reply_to, to_bytes(&batch).freeze());
                }
                ControlMsg::Shutdown => break 'recv,
                _ => {}
            }
        }
    }
}

/// Idempotency over dispatcher retransmissions, keyed by `(message,
/// subscriber, subscription)`: a retransmission can re-deliver a message
/// the mailbox already stored, and a poll must hand each pair out once.
/// One window serves every subscriber of the mailbox. Reseeded from the
/// WAL replay so a restart doesn't re-store what is already boxed; the
/// window keeps the largest keys whatever order they are inserted in, so
/// the reseeded verdicts do not depend on `boxes`' iteration order.
/// (Entries polled before the restart are gone from the window, so a very
/// late duplicate of those can slip through — bounded, not exact.)
fn reseeded_window(boxes: &HashMap<SubscriberId, VecDeque<Stored>>) -> SeenWindow<DeliveryKey> {
    let mut seen = SeenWindow::new(DEDUP_WINDOW);
    for (subscriber, q) in boxes {
        for &(sub, ref msg, _) in q {
            if msg.id != MessageId(0) {
                seen.check_and_insert((msg.id, *subscriber, sub));
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedove_core::Message;

    #[test]
    fn wal_reseed_gives_the_same_verdicts_on_every_replay() {
        let dir =
            std::env::temp_dir().join(format!("bluedove-mailbox-reseed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("box.wal");
        // More deliveries than the window holds, spread over many
        // subscribers so each replay's map iterates them differently.
        let total = DEDUP_WINDOW as u64 + 2_000;
        let key = |i: u64| {
            (
                MessageId(i + 1),
                SubscriberId(i % 97),
                SubscriptionId(i % 5),
            )
        };
        {
            let mut wal = Wal::open(&path).unwrap();
            for i in 0..total {
                let (id, subscriber, sub) = key(i);
                let mut msg = Message::new(vec![i as f64]);
                msg.id = id;
                wal.append(&WalRecord::Deliver {
                    subscriber,
                    sub,
                    msg,
                    admitted_us: i,
                })
                .unwrap();
            }
        }
        let verdicts = || {
            let seen = reseeded_window(&Wal::replay(&path).unwrap());
            (0..total)
                .map(|i| seen.contains(&key(i)))
                .collect::<Vec<bool>>()
        };
        let first = verdicts();
        assert_eq!(first, verdicts());
        // Exactly the newest `DEDUP_WINDOW` admissions are remembered.
        let remembered = first.iter().filter(|&&d| d).count();
        assert_eq!(remembered, DEDUP_WINDOW);
        assert!(first[total as usize - DEDUP_WINDOW..].iter().all(|&d| d));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
