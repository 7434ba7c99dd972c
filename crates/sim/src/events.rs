//! Deterministic discrete-event queue.
//!
//! Events fire in non-decreasing time order; ties break on a monotonically
//! increasing sequence number so identical runs replay identically — the
//! property every experiment in `EXPERIMENTS.md` depends on.

use bluedove_core::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event.
struct Scheduled<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest
        // first. NaN times are rejected at push.
        other
            .at
            .partial_cmp(&self.at)
            .expect("event times are never NaN")
            .then(other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of timed events with deterministic FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics when `at` is NaN (events must be orderable).
    pub fn push(&mut self, at: Time, event: E) {
        assert!(!at.is_nan(), "event time must not be NaN");
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Removes the events `pick` selects and returns them in firing
    /// order.
    pub fn take(&mut self, pick: impl Fn(&E) -> bool) -> Vec<(Time, E)> {
        let all = std::mem::take(&mut self.heap).into_vec();
        let (mut picked, kept): (Vec<_>, Vec<_>) = all.into_iter().partition(|s| pick(&s.event));
        self.heap = kept.into();
        picked.sort_unstable_by(|a, b| b.cmp(a));
        picked.into_iter().map(|s| (s.at, s.event)).collect()
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, 1);
        q.push(1.0, 2);
        q.push(1.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(5.0, ());
        q.push(4.0, ());
        assert_eq!(q.peek_time(), Some(4.0));
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }
}
