//! Property-based tests for the core invariants:
//!
//! 1. **Single-candidate completeness** — for any subscriptions and any
//!    message, matching via any one candidate's `(matcher, dim)` set finds
//!    exactly the globally matching subscriptions (§III-A-1).
//! 2. **Index equivalence** — under random insert / remove / re-insert
//!    sequences, every index kind (bare and covering) returns the match
//!    set a brute-force `Subscription::matches` over the live set returns,
//!    including on predicate bounds and domain edges; linear indexes
//!    examine exactly the live set and cell grids exactly the live rows
//!    whose box meets the probed cell, also across rebuilds in both
//!    directions; snapshots hold exactly the live set.
//! 3. **Segment-table coverage** — after arbitrary join/leave sequences,
//!    every dimension stays contiguous, hole-free and fully covering.

use bluedove_core::index::{CellIndex, MatchIndex};
use bluedove_core::{
    Assignment, AttributeSpace, DimIdx, IndexKind, InnerKind, MPartition, MatcherId, Message,
    PartitionStrategy, SegmentTable, SubscriberId, Subscription, SubscriptionId,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

const DOMAIN: f64 = 1000.0;

fn arb_range() -> impl Strategy<Value = (f64, f64)> {
    (0.0..DOMAIN - 1.0, 1.0..400.0).prop_map(|(lo, w): (f64, f64)| (lo, (lo + w).min(DOMAIN)))
}

fn arb_sub(k: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec(arb_range(), k)
}

fn make_sub(space: &AttributeSpace, id: u64, ranges: &[(f64, f64)]) -> Subscription {
    let mut b = Subscription::builder(space).subscriber(SubscriberId(id));
    for (d, &(lo, hi)) in ranges.iter().enumerate() {
        b = b.range(d, lo, hi);
    }
    let mut s = b.build().unwrap();
    s.id = SubscriptionId(id);
    s
}

fn arb_point(k: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..DOMAIN, k)
}

/// One mutation of an index: a fresh id, a removal of a live id, or a
/// re-insertion of any id issued so far (picked modulo the live or issued
/// count when the op is applied).
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<(f64, f64)>),
    Remove(usize),
    Reinsert(usize, Vec<(f64, f64)>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted 3 : 1 : 1 over insert / remove / re-insert.
    (0u8..5, any::<usize>(), arb_sub(2)).prop_map(|(tag, pick, r)| match tag {
        0..=2 => Op::Insert(r),
        3 => Op::Remove(pick),
        _ => Op::Reinsert(pick, r),
    })
}

fn every_kind(cells: usize) -> Vec<IndexKind> {
    let inner = [
        InnerKind::Linear,
        InnerKind::Cell(cells),
        InnerKind::IntervalTree,
    ];
    inner
        .iter()
        .map(|i| i.bare())
        .chain(inner.iter().map(|&inner| IndexKind::Covering { inner }))
        .collect()
}

fn id_of(id: u64) -> SubscriptionId {
    SubscriptionId(id)
}

/// Live subscriptions whose box meets the cell `grid` reads for a probe
/// at `values` (its edge cells are open-ended): what that probe must
/// examine.
fn cell_population(live: &BTreeMap<u64, Subscription>, grid: &CellIndex, values: &[f64]) -> usize {
    let cell = grid.probe_cell(values);
    live.values()
        .filter(|s| s.predicates.iter().zip(&cell).all(|(p, c)| p.overlaps(c)))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_candidate_completeness(
        subs in proptest::collection::vec(arb_sub(3), 1..60),
        point in arb_point(3),
        n in 2u32..12,
    ) {
        let space = AttributeSpace::uniform(3, 0.0, DOMAIN);
        let ids: Vec<MatcherId> = (0..n).map(MatcherId).collect();
        let part = MPartition::new(SegmentTable::uniform(space.clone(), &ids));

        let subs: Vec<Subscription> = subs
            .iter()
            .enumerate()
            .map(|(i, r)| make_sub(&space, i as u64 + 1, r))
            .collect();

        // Simulated per-(matcher, dim) storage.
        let mut store: HashMap<(MatcherId, DimIdx), Vec<usize>> = HashMap::new();
        for (i, s) in subs.iter().enumerate() {
            for Assignment { matcher, dim } in part.assign(s) {
                store.entry((matcher, dim)).or_default().push(i);
            }
        }

        let msg = Message::new(point);
        let mut truth: Vec<u64> = subs
            .iter()
            .filter(|s| s.matches(&msg))
            .map(|s| s.id.0)
            .collect();
        truth.sort_unstable();

        for cand in part.candidates(&msg) {
            let mut found: Vec<u64> = store
                .get(&(cand.matcher, cand.dim))
                .map(|v| {
                    v.iter()
                        .filter(|&&i| subs[i].matches(&msg))
                        .map(|&i| subs[i].id.0)
                        .collect()
                })
                .unwrap_or_default();
            found.sort_unstable();
            prop_assert_eq!(&found, &truth, "candidate {:?} incomplete", cand);
        }
    }

    #[test]
    fn indexes_agree_with_brute_force_reference(
        ops in proptest::collection::vec(arb_op(), 0..120),
        points in proptest::collection::vec(arb_point(2), 1..12),
        dim in 0usize..2,
        cells in 1usize..64,
    ) {
        let space = AttributeSpace::uniform(2, 0.0, DOMAIN);
        let dim = DimIdx(dim as u16);
        let mut indexes: Vec<(IndexKind, Box<dyn MatchIndex>)> = every_kind(cells)
            .into_iter()
            .map(|kind| (kind, kind.build(&space, dim)))
            .collect();
        // The cell kinds' twin, fed the same writes, shows which cell a
        // probe reads.
        let mut grid = CellIndex::new(&space, dim);

        // The reference is the live set itself, matched by brute force.
        let mut live: BTreeMap<u64, Subscription> = BTreeMap::new();
        let mut next_id = 1u64;
        for op in ops {
            let (id, sub) = match op {
                Op::Insert(r) => {
                    next_id += 1;
                    (next_id - 1, Some(r))
                }
                Op::Remove(pick) if !live.is_empty() => {
                    (*live.keys().nth(pick % live.len()).unwrap(), None)
                }
                // Any id ever issued: a removed one reuses a freed slot,
                // a live one replaces its row in place.
                Op::Reinsert(pick, r) if next_id > 1 => (1 + pick as u64 % (next_id - 1), Some(r)),
                Op::Remove(_) | Op::Reinsert(..) => continue,
            };
            match sub {
                Some(r) => {
                    let s = make_sub(&space, id, &r);
                    for (_, idx) in &mut indexes {
                        idx.insert(s.clone());
                    }
                    grid.insert(s.clone());
                    live.insert(id, s);
                }
                None => {
                    let expect = live.remove(&id);
                    grid.remove(id_of(id));
                    for (kind, idx) in &mut indexes {
                        prop_assert_eq!(idx.remove(id_of(id)), expect.clone(), "{:?} remove", kind);
                    }
                }
            }
        }

        let mut probes: Vec<Vec<f64>> = points;
        // Exactly on predicate bounds: lo is inside, hi is outside.
        for s in live.values().take(8) {
            for d in 0..2 {
                let p = s.predicate(DimIdx(d as u16));
                for v in [p.lo, p.hi] {
                    let mut at = s.predicates.iter().map(|r| r.lo).collect::<Vec<_>>();
                    at[d] = v;
                    probes.push(at);
                }
            }
        }
        // Domain edges, and the first value past the domain.
        let top = DOMAIN - DOMAIN * f64::EPSILON;
        for v in [0.0, top, DOMAIN] {
            probes.push(vec![v, v]);
            probes.push(vec![v, DOMAIN / 2.0]);
        }

        for p in probes {
            let msg = Message::new(p);
            let truth: Vec<u64> = live
                .values()
                .filter(|s| s.matches(&msg))
                .map(|s| s.id.0)
                .collect();
            for (kind, idx) in &mut indexes {
                let mut out = Vec::new();
                let examined = idx.matching(&msg, &mut out);
                let mut ids: Vec<u64> = out.iter().map(|h| h.0 .0).collect();
                ids.sort_unstable();
                prop_assert_eq!(&ids, &truth, "{:?} diverged on {:?}", kind, &msg.values);
                for (id, subscriber) in out {
                    prop_assert_eq!(subscriber, live[&id.0].subscriber, "{:?} hit", kind);
                }
                prop_assert!(examined >= truth.len(), "{:?} examined < matched", kind);
                match kind {
                    IndexKind::Linear => prop_assert_eq!(examined, live.len()),
                    IndexKind::Cell(_) => prop_assert_eq!(
                        examined,
                        cell_population(&live, &grid, &msg.values),
                        "cell examined is its population"
                    ),
                    _ => {}
                }
            }
        }

        // Snapshots hold exactly the live set and rebuild an index that
        // matches the same way.
        for (kind, idx) in &mut indexes {
            let mut snap = idx.snapshot();
            snap.sort_unstable_by_key(|s| s.id);
            prop_assert_eq!(&snap, &live.values().cloned().collect::<Vec<_>>(), "{:?} snapshot", kind);
            prop_assert_eq!(idx.logical_len(), live.len());
            let mut rebuilt = kind.build(&space, dim);
            for s in snap {
                rebuilt.insert(s);
            }
            for v in [0.0, 250.0, 500.0, 750.0, top] {
                let msg = Message::new(vec![v, v]);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                idx.matching(&msg, &mut a);
                rebuilt.matching(&msg, &mut b);
                a.sort_unstable_by_key(|h| h.0);
                b.sort_unstable_by_key(|h| h.0);
                prop_assert_eq!(a, b, "{:?} rebuilt from its snapshot", kind);
            }
        }
    }

    #[test]
    fn segment_table_survives_join_leave_sequences(
        ops in proptest::collection::vec(any::<bool>(), 1..30),
        n0 in 1u32..6,
        probes in proptest::collection::vec(0.0..DOMAIN, 5),
    ) {
        let space = AttributeSpace::uniform(3, 0.0, DOMAIN);
        let ids: Vec<MatcherId> = (0..n0).map(MatcherId).collect();
        let mut table = SegmentTable::uniform(space, &ids);
        let mut next = n0;

        for join in ops {
            if join {
                table.split_join(MatcherId(next), |m, _| Some(m.0 as f64)).unwrap();
                next += 1;
            } else {
                let ms = table.matchers();
                if ms.len() > 1 {
                    // Remove a pseudo-random live matcher.
                    let victim = ms[(next as usize * 7) % ms.len()];
                    table.remove_matcher(victim).unwrap();
                }
            }
            // Coverage invariant: every probe has exactly one owner per dim
            // (owner_of's debug_assert catches holes), and segments are
            // contiguous.
            for di in 0..3 {
                let dim = DimIdx(di);
                for &p in &probes {
                    let _ = table.owner_of(dim, p);
                }
                let segs = table.segments(dim);
                for w in segs.windows(2) {
                    prop_assert_eq!(w[0].range.hi, w[1].range.lo);
                    prop_assert!(w[0].owner != w[1].owner, "uncoalesced neighbours");
                }
            }
        }
    }

    #[test]
    fn assignment_covers_each_dimension(
        ranges in arb_sub(4),
        n in 1u32..15,
    ) {
        let space = AttributeSpace::uniform(4, 0.0, DOMAIN);
        let ids: Vec<MatcherId> = (0..n).map(MatcherId).collect();
        let part = MPartition::new(SegmentTable::uniform(space.clone(), &ids));
        let s = make_sub(&space, 1, &ranges);
        let a = part.assign(&s);
        for di in 0..4u16 {
            prop_assert!(a.iter().any(|x| x.dim == DimIdx(di)), "dim {} uncovered", di);
        }
        // Candidates are one per dimension, always.
        let msg = Message::new(vec![1.0, 2.0, 3.0, 4.0]);
        prop_assert_eq!(part.candidates(&msg).len(), 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The grid across rebuilds both ways: grows past 2 000 rows with
    /// tap-like wildcard rows among them, re-registers a share with moved
    /// ranges and some to end exactly on a cell boundary, then shrinks to
    /// a few dozen. After every phase each probe —
    /// random points, and points on and just below the probed cell's
    /// boundaries — returns the brute-force match set and examines
    /// exactly the live rows whose box meets the cell it reads.
    #[test]
    fn cell_grid_examines_exactly_its_cell_across_rebuilds(
        rows in proptest::collection::vec(arb_sub(3), 2_000..2_400),
        moved in proptest::collection::vec(arb_sub(3), 300),
        taps in 1usize..6,
        points in proptest::collection::vec(arb_point(3), 24),
        dim in 0usize..3,
    ) {
        let space = AttributeSpace::uniform(3, 0.0, DOMAIN);
        let mut grid = CellIndex::new(&space, DimIdx(dim as u16));
        let mut live: BTreeMap<u64, Subscription> = BTreeMap::new();
        let check = |grid: &mut CellIndex, live: &BTreeMap<u64, Subscription>| {
            let mut probes = points.clone();
            for p in &points {
                for (d, c) in grid.probe_cell(p).into_iter().enumerate() {
                    for v in [c.lo, c.lo.next_down(), c.hi, c.hi.next_down()] {
                        if v.is_finite() {
                            let mut at = p.clone();
                            at[d] = v;
                            probes.push(at);
                        }
                    }
                }
            }
            for p in probes {
                let msg = Message::new(p);
                let truth: Vec<u64> = live
                    .values()
                    .filter(|s| s.matches(&msg))
                    .map(|s| s.id.0)
                    .collect();
                let mut out = Vec::new();
                let examined = grid.matching(&msg, &mut out);
                let mut ids: Vec<u64> = out.iter().map(|h| h.0 .0).collect();
                ids.sort_unstable();
                prop_assert_eq!(&ids, &truth, "match set at {:?}", &msg.values);
                prop_assert_eq!(examined, cell_population(live, grid, &msg.values));
            }
            prop_assert_eq!(grid.logical_len(), live.len());
        };
        let wildcard = vec![(0.0, DOMAIN); 3];
        for (i, r) in rows.iter().enumerate() {
            let id = i as u64 + 1;
            let s = make_sub(&space, id, if i % 400 < taps { &wildcard } else { r });
            grid.insert(s.clone());
            live.insert(id, s);
        }
        check(&mut grid, &live);
        for (i, r) in moved.iter().enumerate() {
            let id = (i * 7 % rows.len()) as u64 + 1;
            let s = make_sub(&space, id, r);
            grid.insert(s.clone());
            live.insert(id, s);
        }
        // Rows that end exactly on a cell boundary: `hi` is exclusive.
        for (i, p) in points.iter().enumerate().take(8) {
            for (d, c) in grid.probe_cell(p).into_iter().enumerate() {
                if c.lo.is_finite() {
                    let mut r = rows[i].clone();
                    r[d] = ((c.lo - 20.0).max(0.0), c.lo);
                    let id = (i * 3 + d) as u64 + 1;
                    let s = make_sub(&space, id, &r);
                    grid.insert(s.clone());
                    live.insert(id, s);
                }
            }
        }
        check(&mut grid, &live);
        let gone: Vec<u64> = live.keys().copied().filter(|id| id % 50 != 0).collect();
        for (n, id) in gone.into_iter().enumerate() {
            prop_assert_eq!(grid.remove(id_of(id)), live.remove(&id));
            if n % 500 == 0 {
                check(&mut grid, &live);
            }
        }
        check(&mut grid, &live);
    }
}
