//! Bounded sliding-window duplicate suppression.
//!
//! Dispatcher retransmissions make duplicate arrivals possible at every
//! hop that follows a retransmitting one. [`SeenWindow`] is the one
//! bounded filter: matcher dimensions keep one per [`DedupWindow`] (so the
//! engine queues a message at most once and re-acks, instead of
//! re-delivering, ids it already served), and delivery endpoints keep one
//! keyed by `(message, subscription)` to turn at-least-once forwarding
//! into exactly-once observation.

use bluedove_core::MessageId;
use std::collections::{HashSet, VecDeque};

/// Keys every duplicate filter remembers: a matcher dimension's served
/// ids, a subscriber endpoint's or the mailbox's deliveries.
pub const DEDUP_WINDOW: usize = 8_192;

/// Bounded duplicate filter: remembers the `cap` largest distinct keys
/// seen, in one sorted ring (no per-key allocation, `size_of::<K>()`
/// bytes per key plus the ring's spare capacity).
///
/// Keys lead with a [`MessageId`], and dispatchers allocate ids in
/// admission order, so arrivals land at or near the tail (a `push_back`)
/// and the evicted smallest key is the oldest admission — the one least
/// able to still be retransmitted. Within the window the verdict is exact:
/// a key never seen is never a duplicate, and a repeat of any of the `cap`
/// largest keys seen always is.
#[derive(Debug)]
pub struct SeenWindow<K> {
    /// Strictly increasing.
    keys: VecDeque<K>,
    cap: usize,
}

impl<K: Ord + Copy> SeenWindow<K> {
    /// An empty window remembering up to `cap` keys (floored at 1).
    pub fn new(cap: usize) -> Self {
        SeenWindow {
            keys: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Whether `k` is in the window.
    pub fn contains(&self, k: &K) -> bool {
        self.keys.binary_search(k).is_ok()
    }

    /// Records `k`; returns `true` when it was already in the window
    /// (i.e. this occurrence is a duplicate).
    pub fn check_and_insert(&mut self, k: K) -> bool {
        let at = match self.keys.back() {
            Some(last) if k <= *last => match self.keys.binary_search(&k) {
                Ok(_) => return true,
                Err(at) => at,
            },
            _ => self.keys.len(),
        };
        if self.keys.len() < self.cap {
            self.keys.insert(at, k);
        } else if at > 0 {
            // Full: `k` displaces the smallest key. Evicting before the
            // insert keeps the ring at `cap`, so it never grows past it.
            self.keys.pop_front();
            self.keys.insert(at - 1, k);
        }
        // Else `k` is below everything remembered: fresh, but already
        // outside the window.
        false
    }

    /// Keys currently remembered (never above `cap`).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether nothing is remembered yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// What to do with an arriving `MatchMsg` according to the per-dim
/// idempotency window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// First sight: queue it.
    Fresh,
    /// Already queued but not yet served: drop silently (the ack will go
    /// out when the queued copy is served, so no false ack here).
    Pending,
    /// Already served: re-ack immediately, don't re-deliver.
    Served,
}

/// Bounded sliding-window dedup for one dimension, keyed by [`MessageId`].
///
/// `pending` tracks ids queued but not yet served (bounded by the queue);
/// `served` is a window of the `cap` newest served ids. Id 0 (unstamped,
/// from senders that bypass a dispatcher) is exempt so such messages are
/// never misidentified as duplicates of each other.
#[derive(Debug)]
pub struct DedupWindow {
    pending: HashSet<MessageId>,
    served: SeenWindow<MessageId>,
}

impl DedupWindow {
    /// A window remembering up to `cap` served ids (floored at 1).
    pub fn new(cap: usize) -> Self {
        DedupWindow {
            pending: HashSet::new(),
            served: SeenWindow::new(cap),
        }
    }

    /// Classifies an arriving id and records fresh ids as pending.
    pub fn admit(&mut self, id: MessageId) -> Admit {
        if id == MessageId(0) {
            return Admit::Fresh;
        }
        if self.served.contains(&id) {
            return Admit::Served;
        }
        if !self.pending.insert(id) {
            return Admit::Pending;
        }
        Admit::Fresh
    }

    /// Moves `id` from pending into the bounded served window.
    pub fn mark_served(&mut self, id: MessageId) {
        if id == MessageId(0) {
            return;
        }
        self.pending.remove(&id);
        self.served.check_and_insert(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seen_window_dedups_within_cap() {
        let mut w = SeenWindow::new(2);
        assert!(!w.check_and_insert(1u64));
        assert!(w.check_and_insert(1));
        assert!(!w.check_and_insert(2));
        // Inserting a third key evicts the smallest (1), which then reads
        // as fresh again — the window is bounded, not exact — and is not
        // remembered, since it is below everything kept.
        assert!(!w.check_and_insert(3));
        assert!(!w.check_and_insert(1));
        assert!(w.check_and_insert(3));
        assert!(w.check_and_insert(2));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn seen_window_keeps_the_largest_keys_under_reorder() {
        let mut w = SeenWindow::new(3);
        for k in [5u64, 2, 9, 7] {
            assert!(!w.check_and_insert(k));
        }
        // 2 was the smallest and went; a late 6 displaces 5.
        assert!(!w.contains(&2));
        assert!(!w.check_and_insert(6));
        assert!(!w.contains(&5));
        for k in [6, 7, 9] {
            assert!(w.check_and_insert(k));
        }
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn fresh_pending_served_lifecycle() {
        let mut w = DedupWindow::new(4);
        assert_eq!(w.admit(MessageId(1)), Admit::Fresh);
        assert_eq!(w.admit(MessageId(1)), Admit::Pending);
        w.mark_served(MessageId(1));
        assert_eq!(w.admit(MessageId(1)), Admit::Served);
        // Id 0 is exempt from dedup entirely.
        assert_eq!(w.admit(MessageId(0)), Admit::Fresh);
        assert_eq!(w.admit(MessageId(0)), Admit::Fresh);
    }

    #[test]
    fn served_window_is_bounded() {
        let mut w = DedupWindow::new(2);
        for i in 1..=3u64 {
            w.admit(MessageId(i));
            w.mark_served(MessageId(i));
        }
        // Id 1 was evicted: it reads as fresh again.
        assert_eq!(w.admit(MessageId(1)), Admit::Fresh);
        assert_eq!(w.admit(MessageId(3)), Admit::Served);
    }
}
