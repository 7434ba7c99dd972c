//! Property tests over the hand-over primitives the elastic join/leave
//! protocols are built on: for every index structure, handing the copies
//! overlapping a range over, storing them at the recipient and retiring
//! the range at the donor is lossless, free of duplicates, and
//! **boundary-exact** — `Range::overlaps` is strict
//! (`lo < other.hi && other.lo < hi`), so a predicate that merely touches
//! the moved segment's endpoint stays where it is.

use bluedove_core::{
    AttributeSpace, DimIdx, IndexKind, InnerKind, MatcherId, Message, MessageId, Range,
    SubLogRecord, SubscriberId, Subscription, SubscriptionId,
};
use bluedove_engine::{MatcherEngine, MatcherPort, Rejected};
use proptest::prelude::*;
use std::collections::BTreeSet;

const DIM: DimIdx = DimIdx(0);
const LO: f64 = 0.0;
const HI: f64 = 1000.0;

fn space() -> AttributeSpace {
    AttributeSpace::uniform(2, LO, HI)
}

fn engine(kind: IndexKind, id: u32) -> MatcherEngine {
    MatcherEngine::new(MatcherId(id), space(), kind, 64)
}

/// Every frame here is well formed, so a rejection is a bug.
#[derive(Default)]
struct Port(Vec<Subscription>);

impl MatcherPort for Port {
    fn deliver(&mut self, _: SubscriberId, _: SubscriptionId, _: &Message, _: u64) {}
    fn ack(&mut self, _: &str, _: MessageId, _: u64) {}
    fn duplicate_suppressed(&mut self) {}
    fn rejected(&mut self, kind: Rejected) {
        panic!("well-formed input rejected as {kind:?}");
    }
    fn forward(&mut self, _: MatcherId, _: MatcherId, rec: SubLogRecord) {
        if let SubLogRecord::Store { sub, .. } = rec {
            self.0.push(sub);
        }
    }
}

fn store(e: &mut MatcherEngine, sub: Subscription) {
    assert!(e.apply(&SubLogRecord::Store { dim: DIM, sub }, &mut Port::default()));
}

/// The donor side: hand the copies overlapping `cut` over, then retire
/// the range with nothing kept.
fn move_out(e: &mut MatcherEngine, cut: Range) -> Vec<Subscription> {
    let mut port = Port::default();
    e.hand_over(DIM, &cut, MatcherId(99), &mut port);
    let moved = port.0;
    let retire = SubLogRecord::Retire {
        dim: DIM,
        range: cut,
        keep: Vec::new(),
    };
    assert!(e.apply(&retire, &mut Port::default()));
    moved
}

// Covering-wrapped kinds ride the same properties: extraction must
// dissolve or re-home covering groups without ever losing a covered
// member or moving a boundary-touching one.
fn every_kind() -> [IndexKind; 6] {
    [
        IndexKind::Linear,
        IndexKind::Cell(16),
        IndexKind::IntervalTree,
        IndexKind::Covering {
            inner: InnerKind::Linear,
        },
        IndexKind::Covering {
            inner: InnerKind::Cell(16),
        },
        IndexKind::Covering {
            inner: InnerKind::IntervalTree,
        },
    ]
}

/// A subscription with predicate `[lo, hi)` on the copy dimension.
fn sub(space: &AttributeSpace, id: u64, lo: f64, hi: f64) -> Subscription {
    let mut s = Subscription::builder(space)
        .subscriber(SubscriberId(id))
        .range(0, lo, hi)
        .build()
        .unwrap();
    s.id = SubscriptionId(id);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hand-over + store + retire round-trips the full copy set for every
    /// index kind: nothing lost, nothing duplicated, and the split is
    /// exactly the strict-overlap partition.
    #[test]
    fn extract_reinsert_is_lossless_and_boundary_exact(
        cut_a in 100f64..900.0,
        width in 10f64..400.0,
        preds in proptest::collection::vec((0f64..1.0, 0f64..1.0, 0u8..8), 1..60),
    ) {
        let cut = Range::new(cut_a, (cut_a + width).min(HI));
        let sp = space();
        // Materialize predicates through the snapping generator logic.
        let ranges: Vec<(f64, f64)> = preds
            .iter()
            .map(|&(a, b, snap)| {
                let (mut lo, mut hi) = (LO + a * (HI - LO), LO + b * (HI - LO));
                if lo > hi {
                    std::mem::swap(&mut lo, &mut hi);
                }
                if hi - lo < 1.0 {
                    hi = (lo + 1.0).min(HI);
                    lo = hi - 1.0;
                }
                match snap {
                    0 => ((cut.lo - 10.0).max(LO), cut.lo),
                    1 => (cut.hi, (cut.hi + 10.0).min(HI)),
                    _ => (lo, hi),
                }
            })
            .filter(|&(lo, hi)| hi > lo)
            .collect();
        for kind in every_kind() {
            let mut donor = engine(kind, 0);
            let mut heir = engine(kind, 1);
            let mut all_ids = BTreeSet::new();
            for (i, &(lo, hi)) in ranges.iter().enumerate() {
                store(&mut donor, sub(&sp, i as u64 + 1, lo, hi));
                all_ids.insert(SubscriptionId(i as u64 + 1));
            }
            let before = donor.sub_count(DIM);
            prop_assert_eq!(before, all_ids.len(), "{:?}: duplicate-id inserts must replace", kind);

            let moved = move_out(&mut donor, cut);

            // Boundary-exactness: moved ⟺ strictly overlapping the cut.
            for s in &moved {
                prop_assert!(
                    s.predicate(DIM).overlaps(&cut),
                    "{:?}: extracted {:?} does not overlap cut {:?}", kind, s.predicate(DIM), cut
                );
            }
            let kept: Vec<Subscription> =
                donor.snapshot().into_iter().map(|(_, s)| s).collect();
            for s in &kept {
                prop_assert!(
                    !s.predicate(DIM).overlaps(&cut),
                    "{:?}: kept {:?} overlaps cut {:?} (touching must not count)",
                    kind, s.predicate(DIM), cut
                );
            }

            // Lossless and duplicate-free across the split.
            let mut seen = BTreeSet::new();
            for s in moved.iter().chain(kept.iter()) {
                prop_assert!(seen.insert(s.id), "{:?}: id {:?} appears twice", kind, s.id);
            }
            prop_assert_eq!(&seen, &all_ids, "{:?}: ids lost in extraction", kind);

            // Re-insert the moved copies into the heir (the hand-over) and
            // once more into the heir (duplicate delivery): idempotent.
            for s in &moved {
                store(&mut heir, s.clone());
            }
            for s in &moved {
                store(&mut heir, s.clone());
            }
            prop_assert_eq!(heir.sub_count(DIM), moved.len(), "{:?}: heir insert not idempotent", kind);

            // Union of the two engines is the original set.
            let mut union: BTreeSet<SubscriptionId> = kept.iter().map(|s| s.id).collect();
            union.extend(heir.snapshot().into_iter().map(|(_, s)| s.id));
            prop_assert_eq!(&union, &all_ids, "{:?}: hand-over lost copies", kind);
        }
    }

    /// A predicate touching the cut on either endpoint never moves, for
    /// every index kind (the strict-overlap boundary pinned exactly).
    #[test]
    fn touching_endpoints_never_move(cut_lo in 200f64..600.0, width in 50f64..300.0) {
        let cut = Range::new(cut_lo, cut_lo + width);
        let sp = space();
        for kind in every_kind() {
            let mut e = engine(kind, 0);
            store(&mut e, sub(&sp, 1, (cut.lo - 40.0).max(LO), cut.lo)); // touches from below
            store(&mut e, sub(&sp, 2, cut.hi, (cut.hi + 40.0).min(HI))); // touches from above
            store(&mut e, sub(&sp, 3, cut.lo, cut.hi)); // the segment itself
            let moved = move_out(&mut e, cut);
            prop_assert_eq!(moved.len(), 1, "{:?}: only the in-cut copy moves", kind);
            prop_assert_eq!(moved[0].id, SubscriptionId(3));
            prop_assert_eq!(e.sub_count(DIM), 2);
        }
    }
}
