//! Per-destination frame coalescing for the forwarding hot path.
//!
//! Both hosts funnel their high-rate frames (dispatcher→matcher `Match`,
//! matcher→subscriber `Deliver`, matcher→dispatcher `MatchAck`) through a
//! [`Coalescer`] so several frames to the same destination ride one
//! transport send. The coalescer is pure state — no clocks, no sockets —
//! so the threaded cluster and the virtual-time simulator make *identical*
//! flush decisions from identical event streams:
//!
//! - **flush-on-size**: the lane for a destination reaches
//!   [`BatchCfg::max_batch`] staged frames;
//! - **flush-on-idle**: the host has drained its input and is about to
//!   block, so sending what is staged is the only useful work left (hosts
//!   call [`Coalescer::drain_idle`]). This is what makes the coalescer
//!   self-clocking: under load the input never runs dry and lanes fill to
//!   `max_batch` on their own; at a low rate a frame leaves as soon as the
//!   node has nothing else to do instead of waiting out a timer;
//! - **flush-on-deadline**: the *oldest* staged frame in a lane has waited
//!   [`BatchCfg::max_delay`] seconds — the bound for a node that never
//!   idles (hosts learn the earliest such moment from
//!   [`Coalescer::next_deadline`] and call [`Coalescer::poll`]);
//! - **explicit**: the host drains lanes itself (shutdown, a destination
//!   declared dead, or a synchronous operation that must not reorder past
//!   staged frames).
//!
//! With `max_batch == 1` (the default) every push flushes immediately as a
//! single-frame [`Flush`], which hosts send unwrapped — the wire traffic is
//! byte-identical to a build without batching.
//!
//! Ordering invariant: frames staged for one destination are flushed in
//! the order they were pushed, and a later push is never flushed before an
//! earlier one. (Property-tested in `crates/engine/tests/batch_prop.rs`.)

use bluedove_core::Time;
use std::collections::HashMap;

/// Hard cap on frames per batch, mirrored by the wire decoder's
/// pre-allocation guard. [`BatchCfg::normalized`] clamps `max_batch` here.
pub const MAX_BATCH: usize = 4096;

/// Coalescing knobs (engine-level; both host configs embed them via
/// `EngineConfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCfg {
    /// Frames staged per destination before a size flush. `1` disables
    /// batching (every frame flushes alone and is sent unwrapped).
    pub max_batch: usize,
    /// Longest a staged frame may wait for company, in seconds — an upper
    /// bound, reached only when the node never idles (an idle host drains
    /// its lanes at once). Measured from the *oldest* frame in the lane,
    /// so a trickle of pushes cannot starve the first one.
    pub max_delay: Time,
}

impl Default for BatchCfg {
    /// Batching off (`max_batch = 1`), 1 ms deadline when it is turned on.
    fn default() -> Self {
        BatchCfg {
            max_batch: 1,
            max_delay: 0.001,
        }
    }
}

impl BatchCfg {
    /// Returns the config with `max_batch` clamped into `1..=MAX_BATCH`
    /// and a non-negative `max_delay`.
    pub fn normalized(self) -> Self {
        BatchCfg {
            max_batch: self.max_batch.clamp(1, MAX_BATCH),
            // NaN or negative delays degrade to "flush on next poll";
            // +inf is legitimate (size-only flushing).
            max_delay: if self.max_delay >= 0.0 {
                self.max_delay
            } else {
                0.0
            },
        }
    }

    /// True when the config coalesces at all (`max_batch > 1`).
    pub fn enabled(&self) -> bool {
        self.max_batch > 1
    }
}

/// Why a [`Flush`] happened — hosts feed this into the
/// `batch_flush_total{reason=…}` telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushReason {
    /// The lane reached `max_batch` staged frames.
    Size,
    /// The host ran out of input with the lane staged.
    Idle,
    /// The lane's oldest frame aged past `max_delay`.
    Deadline,
    /// The host drained the lane itself.
    Explicit,
}

impl FlushReason {
    /// Telemetry label for the reason.
    pub fn label(&self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Idle => "idle",
            FlushReason::Deadline => "deadline",
            FlushReason::Explicit => "explicit",
        }
    }
}

/// One coalesced run of frames, ready to send to `dest`.
#[derive(Debug, Clone, PartialEq)]
pub struct Flush<T> {
    /// Transport address the frames are bound for.
    pub dest: String,
    /// The staged frames, in push order. Never empty; never longer than
    /// the configured `max_batch`.
    pub items: Vec<T>,
    /// What triggered the flush.
    pub reason: FlushReason,
}

/// "No lane": the end of the armed list, or a lane that is not on it.
const NIL: usize = usize::MAX;

/// One destination's staged frames.
#[derive(Debug, Clone)]
struct Lane<T> {
    dest: String,
    items: Vec<T>,
    /// Stage time of the oldest frame — the lane's deadline anchor.
    oldest_at: Time,
    /// Neighbours on the armed list (lane indices, [`NIL`] at the ends).
    prev: usize,
    next: usize,
}

/// Pure per-destination frame coalescer (see the module docs).
///
/// A matcher talks to as many destinations as it has subscribers, and an
/// idle-flushing host consults the coalescer every time its input runs
/// dry, so nothing here scans the lanes:
///
/// - `lanes` holds every destination ever staged for, in first-touch
///   order (a lane's index is its rank in every multi-lane flush, which
///   keeps flush order deterministic across hosts); `by_dest` finds a
///   lane by address, after a check of the lane the previous push used;
/// - the *armed list* threads the non-empty lanes, through `prev`/`next`,
///   in the order their oldest frame was staged. Stage times never
///   decrease, so its head is the earliest deadline and the lanes a
///   `poll` must flush are a prefix of it.
#[derive(Debug, Clone)]
pub struct Coalescer<T> {
    cfg: BatchCfg,
    lanes: Vec<Lane<T>>,
    by_dest: HashMap<String, usize>,
    /// The lane the previous push went to.
    last: usize,
    /// Ends of the armed list.
    head: usize,
    tail: usize,
    /// Frames staged across all lanes.
    staged: usize,
}

impl<T> Coalescer<T> {
    /// Creates a coalescer; `cfg` is normalized (see
    /// [`BatchCfg::normalized`]).
    pub fn new(cfg: BatchCfg) -> Self {
        Coalescer {
            cfg: cfg.normalized(),
            lanes: Vec::new(),
            by_dest: HashMap::new(),
            last: NIL,
            head: NIL,
            tail: NIL,
            staged: 0,
        }
    }

    /// The normalized config in force.
    pub fn cfg(&self) -> &BatchCfg {
        &self.cfg
    }

    /// Stages `item` for `dest` at time `now`. Returns a [`Flush`] when
    /// the lane hit `max_batch` (or immediately, when batching is off).
    ///
    /// `now` must not run backwards between pushes (host clocks are
    /// monotone); an earlier `now` is read as the latest one seen.
    pub fn push(&mut self, now: Time, dest: &str, item: T) -> Option<Flush<T>> {
        if self.cfg.max_batch <= 1 {
            return Some(Flush {
                dest: dest.to_string(),
                items: vec![item],
                reason: FlushReason::Size,
            });
        }
        let i = self.lane_of(dest);
        if self.lanes[i].items.is_empty() {
            self.arm(i, now);
        }
        let lane = &mut self.lanes[i];
        lane.items.push(item);
        self.staged += 1;
        (lane.items.len() >= self.cfg.max_batch).then(|| self.take(i, FlushReason::Size))
    }

    /// Index of the lane for `dest`, created on first touch.
    fn lane_of(&mut self, dest: &str) -> usize {
        if self.lanes.get(self.last).is_some_and(|l| l.dest == dest) {
            return self.last;
        }
        self.last = match self.by_dest.get(dest) {
            Some(&i) => i,
            None => {
                let i = self.lanes.len();
                self.lanes.push(Lane {
                    dest: dest.to_string(),
                    items: Vec::new(),
                    oldest_at: 0.0,
                    prev: NIL,
                    next: NIL,
                });
                self.by_dest.insert(dest.to_string(), i);
                i
            }
        };
        self.last
    }

    /// Appends the (empty) lane `i` to the armed list, anchored at `now`.
    fn arm(&mut self, i: usize, now: Time) {
        let tail = self.tail;
        // Keeps the list sorted should a host clock ever step back.
        let floor = self.lanes.get(tail).map_or(now, |t| t.oldest_at);
        let lane = &mut self.lanes[i];
        lane.oldest_at = now.max(floor);
        lane.prev = tail;
        lane.next = NIL;
        match self.lanes.get_mut(tail) {
            Some(t) => t.next = i,
            None => self.head = i,
        }
        self.tail = i;
    }

    /// The armed lanes, oldest first.
    fn armed(&self) -> impl Iterator<Item = usize> + '_ {
        let link = |i: usize| (i != NIL).then_some(i);
        std::iter::successors(link(self.head), move |&i| link(self.lanes[i].next))
    }

    /// Empties the armed lane `i` into a [`Flush`], unlinking it.
    fn take(&mut self, i: usize, reason: FlushReason) -> Flush<T> {
        let lane = &mut self.lanes[i];
        let (prev, next) = (lane.prev, lane.next);
        let flush = Flush {
            dest: lane.dest.clone(),
            items: std::mem::take(&mut lane.items),
            reason,
        };
        self.staged -= flush.items.len();
        match self.lanes.get_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.lanes.get_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
        flush
    }

    /// Empties the given armed lanes, in lane (first-touch) order.
    fn take_all(&mut self, mut lanes: Vec<usize>, reason: FlushReason) -> Vec<Flush<T>> {
        lanes.sort_unstable();
        lanes.into_iter().map(|i| self.take(i, reason)).collect()
    }

    /// The earliest instant any staged frame must be flushed by, or `None`
    /// when nothing is staged. Hosts bound their blocking waits by this.
    pub fn next_deadline(&self) -> Option<Time> {
        self.lanes
            .get(self.head)
            .map(|l| l.oldest_at + self.cfg.max_delay)
    }

    /// Flushes every lane whose oldest frame has aged past `max_delay` as
    /// of `now`, in lane (first-touch) order. Costs O(1) when none has.
    pub fn poll(&mut self, now: Time) -> Vec<Flush<T>> {
        let max_delay = self.cfg.max_delay;
        let due = self
            .armed()
            .take_while(|&i| now >= self.lanes[i].oldest_at + max_delay)
            .collect();
        self.take_all(due, FlushReason::Deadline)
    }

    /// Drains every non-empty lane because the host ran out of input, in
    /// lane (first-touch) order. Afterwards nothing is staged and no
    /// deadline is pending.
    pub fn drain_idle(&mut self) -> Vec<Flush<T>> {
        let all = self.armed().collect();
        self.take_all(all, FlushReason::Idle)
    }

    /// Drains the lane for `dest`, if it has staged frames.
    pub fn flush_dest(&mut self, dest: &str) -> Option<Flush<T>> {
        let &i = self.by_dest.get(dest)?;
        (!self.lanes[i].items.is_empty()).then(|| self.take(i, FlushReason::Explicit))
    }

    /// Drains every non-empty lane, in lane (first-touch) order.
    pub fn flush_all(&mut self) -> Vec<Flush<T>> {
        let all = self.armed().collect();
        self.take_all(all, FlushReason::Explicit)
    }

    /// Total frames currently staged across all lanes.
    pub fn staged(&self) -> usize {
        self.staged
    }

    /// True when no frames are staged.
    pub fn is_empty(&self) -> bool {
        self.staged == 0
    }

    /// Destinations staged for so far (lanes are never retired). A push
    /// that raises this was the first touch of its destination.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_batch_one_flushes_every_push_alone() {
        let mut c = Coalescer::new(BatchCfg::default());
        let f = c.push(0.0, "m/0", 1).expect("immediate flush");
        assert_eq!(f.items, vec![1]);
        assert_eq!(f.reason, FlushReason::Size);
        assert!(c.is_empty());
        assert_eq!(c.next_deadline(), None);
    }

    #[test]
    fn size_flush_at_max_batch() {
        let cfg = BatchCfg {
            max_batch: 3,
            max_delay: 1.0,
        };
        let mut c = Coalescer::new(cfg);
        assert!(c.push(0.0, "m/0", 1).is_none());
        assert!(c.push(0.1, "m/0", 2).is_none());
        let f = c.push(0.2, "m/0", 3).expect("size flush");
        assert_eq!(f.items, vec![1, 2, 3]);
        assert_eq!(f.reason, FlushReason::Size);
        assert!(c.is_empty());
    }

    #[test]
    fn deadline_anchored_to_oldest_frame() {
        let cfg = BatchCfg {
            max_batch: 10,
            max_delay: 0.5,
        };
        let mut c = Coalescer::new(cfg);
        c.push(1.0, "m/0", 1);
        c.push(1.4, "m/0", 2);
        // Deadline stays anchored at the *first* push.
        assert_eq!(c.next_deadline(), Some(1.5));
        assert!(c.poll(1.49).is_empty());
        let flushed = c.poll(1.5);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].items, vec![1, 2]);
        assert_eq!(flushed[0].reason, FlushReason::Deadline);
        assert!(c.is_empty());
    }

    #[test]
    fn lanes_are_per_destination() {
        let cfg = BatchCfg {
            max_batch: 2,
            max_delay: 1.0,
        };
        let mut c = Coalescer::new(cfg);
        assert!(c.push(0.0, "m/0", 1).is_none());
        assert!(c.push(0.0, "m/1", 2).is_none());
        let f = c.push(0.0, "m/0", 3).expect("m/0 lane full");
        assert_eq!(f.dest, "m/0");
        assert_eq!(f.items, vec![1, 3]);
        assert_eq!(c.staged(), 1); // m/1 still holds its frame
    }

    #[test]
    fn flush_all_drains_in_first_touch_order() {
        let cfg = BatchCfg {
            max_batch: 8,
            max_delay: 1.0,
        };
        let mut c = Coalescer::new(cfg);
        c.push(0.0, "m/1", 1);
        c.push(0.0, "m/0", 2);
        c.push(0.0, "m/1", 3);
        let all = c.flush_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].dest, "m/1");
        assert_eq!(all[0].items, vec![1, 3]);
        assert_eq!(all[1].dest, "m/0");
        assert!(all.iter().all(|f| f.reason == FlushReason::Explicit));
        assert!(c.is_empty());
    }

    #[test]
    fn idle_drain_empties_every_lane_in_first_touch_order() {
        let cfg = BatchCfg {
            max_batch: 8,
            max_delay: 1.0,
        };
        let mut c = Coalescer::new(cfg);
        c.push(0.0, "m/1", 1);
        c.push(0.1, "m/0", 2);
        // m/1 flushes and re-arms behind m/0: it is the younger lane now,
        // and still the first in first-touch order.
        assert!(c.flush_dest("m/1").is_some());
        c.push(0.2, "m/1", 3);
        assert_eq!(c.next_deadline(), Some(1.1));
        let all = c.drain_idle();
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].dest.as_str(), &all[0].items), ("m/1", &vec![3]));
        assert_eq!((all[1].dest.as_str(), &all[1].items), ("m/0", &vec![2]));
        assert!(all.iter().all(|f| f.reason == FlushReason::Idle));
        assert!(c.is_empty());
        assert_eq!(c.next_deadline(), None);
        assert!(c.drain_idle().is_empty());
        assert_eq!(c.lanes(), 2);
    }

    #[test]
    fn a_clock_stepping_back_cannot_reorder_deadlines() {
        let cfg = BatchCfg {
            max_batch: 8,
            max_delay: 1.0,
        };
        let mut c = Coalescer::new(cfg);
        c.push(5.0, "m/0", 1);
        c.push(4.0, "m/1", 2); // read as staged at 5.0
        assert_eq!(c.next_deadline(), Some(6.0));
        assert_eq!(c.poll(5.5).len(), 0);
        assert_eq!(c.poll(6.0).len(), 2);
    }

    #[test]
    fn flush_dest_targets_one_lane() {
        let cfg = BatchCfg {
            max_batch: 8,
            max_delay: 1.0,
        };
        let mut c = Coalescer::new(cfg);
        c.push(0.0, "m/0", 1);
        c.push(0.0, "m/1", 2);
        let f = c.flush_dest("m/1").expect("lane has frames");
        assert_eq!(f.items, vec![2]);
        assert!(c.flush_dest("m/1").is_none());
        assert_eq!(c.staged(), 1);
    }

    #[test]
    fn normalization_clamps_degenerate_configs() {
        let cfg = BatchCfg {
            max_batch: 0,
            max_delay: -3.0,
        }
        .normalized();
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.max_delay, 0.0);
        let cfg = BatchCfg {
            max_batch: usize::MAX,
            max_delay: Time::INFINITY,
        }
        .normalized();
        assert_eq!(cfg.max_batch, MAX_BATCH);
        // +inf is legal: size-only flushing.
        assert!(cfg.max_delay.is_infinite());
    }
}
