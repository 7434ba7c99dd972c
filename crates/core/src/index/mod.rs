//! Matching indexes: the per-`(matcher, dimension)` subscription sets.
//!
//! A matcher stores the subscriptions received along each dimension in a
//! *separate* set with its own index (§III-A calls this separation
//! "critical for high performance"). When a dispatcher forwards a message
//! marked with dimension `i`, the matcher matches it against the dimension-
//! `i` set only.
//!
//! Three index structures are provided and benchmarked against each other
//! (`bench_index` in `bluedove-bench`):
//!
//! - [`LinearScanIndex`] — no index; scan the whole set. The cost model of
//!   the paper's evaluation (matching time ∝ subscriptions searched) is
//!   this structure's behaviour, so the simulator uses its examined-count
//!   as the canonical service-time driver.
//! - [`CellIndex`] — a grid over the copy dimension and the selective
//!   other dimensions, sized from its own population and rebuilt when it
//!   halves or doubles; each cell lists the subscriptions whose box meets
//!   it. A point query scans one cell.
//! - [`IntervalTreeIndex`] — a centered interval tree over the copy
//!   dimension's predicate ranges; stabbing queries in `O(log n + m)`.
//!
//! A fourth kind, [`CoveringIndex`], is a *decorator* around any of the
//! three: subscriptions whose hyper-cuboid is subsumed by an already-stored
//! representative are held as covered group members and never enter the
//! inner structure, so physical state and per-message examined counts
//! shrink with workload redundancy while the logical subscription set — and
//! every match set — is unchanged.
//!
//! ## Storage and verification
//!
//! Every structure stores subscriptions as flat `Rows`: row `i` is the
//! `(subscription, subscriber)` hit plus `k` contiguous `lo, hi` pairs of
//! `f64`. The bare indexes address rows by stable slot through a `Slab`
//! (id → slot map, free list); a freed slot holds an empty range on every
//! dimension, so it never matches and a scan needs no liveness test.
//! Grid cells (as `u32`) and tree nodes list slots; covering groups hold
//! their members as rows of their own, in insertion order.
//!
//! `Rows::matches` is the one verifier. It compares all `k` predicates
//! and combines them with a non-short-circuit `&`, so verifying a
//! candidate is one contiguous load of its row and no data-dependent
//! branch; the hit is loaded only on a match. A [`Subscription`] is
//! rebuilt from its row only when it leaves the index (`remove`,
//! `extract_overlapping`) or is snapshotted.
//!
//! What is examined: linear scans count the live subscriptions, a cell
//! probe counts the probed cell's population (cells list live slots
//! only), the tree counts its stabbed intervals, and covering adds the
//! members of matched representatives. Match sets and hit order are those
//! of the slot and cell order.

mod cell;
mod covering;
mod interval_tree;
mod linear;

pub use cell::CellIndex;
pub use covering::CoveringIndex;
pub use interval_tree::IntervalTreeIndex;
pub use linear::LinearScanIndex;

use crate::ids::{DimIdx, SubscriberId, SubscriptionId};
use crate::message::Message;
use crate::space::AttributeSpace;
use crate::subscription::{Range, Subscription};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A match result: which subscription matched and whose subscriber to
/// notify.
pub type MatchHit = (SubscriptionId, SubscriberId);

/// The interface every per-dimension subscription index implements.
///
/// All implementations verify the *full* conjunction of predicates before
/// reporting a hit; the index structure only prunes candidates.
pub trait MatchIndex: Send {
    /// The copy dimension this set was populated along.
    fn dim(&self) -> DimIdx;

    /// Inserts a subscription copy. Duplicate ids replace the previous
    /// entry (subscriptions are immutable once registered, so this only
    /// happens on re-registration).
    fn insert(&mut self, sub: Subscription);

    /// Removes a subscription by id, returning it when present.
    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription>;

    /// Appends every subscription matching `msg` to `out` and returns the
    /// number of subscriptions *examined* (the quantity the paper's
    /// matching-cost argument is about). Under covering this counts the
    /// physical work actually done — inner-index probes plus covered
    /// members scanned — not the logical set size.
    fn matching(&mut self, msg: &Message, out: &mut Vec<MatchHit>) -> usize;

    /// Number of subscriptions *logically* stored — every registration a
    /// subscriber made, whether physically indexed or held as a covered
    /// group member. This is the `|Si(Mj)|` the subscription-count
    /// forwarding policy and the autoscaler's `LoadSnapshot` key on.
    fn logical_len(&self) -> usize;

    /// Number of entries *physically* present in the index structure —
    /// the per-message matching-cost driver. Equal to [`logical_len`]
    /// for bare indexes; under covering only representatives count.
    ///
    /// [`logical_len`]: MatchIndex::logical_len
    fn physical_len(&self) -> usize {
        self.logical_len()
    }

    /// Estimated resident bytes of the index (slab slots, id maps, cell
    /// or tree structure, covering group tables). An estimate — used for
    /// the covering-vs-bare footprint comparison, not an allocator query.
    fn memory_bytes(&self) -> usize;

    /// Covering groups as `(representative id, covered member ids)` in
    /// ascending representative order, or `None` for bare indexes.
    /// Member order is insertion order — deterministic, so replayed and
    /// live-built indexes can be compared verbatim.
    fn covering_groups(&self) -> Option<Vec<(SubscriptionId, Vec<SubscriptionId>)>> {
        None
    }

    /// Whether the set is logically empty.
    fn is_empty(&self) -> bool {
        self.logical_len() == 0
    }

    /// Removes and returns every subscription whose predicate along the
    /// copy dimension overlaps `range` — the handover primitive used when
    /// segments move between matchers (elastic join/leave).
    fn extract_overlapping(&mut self, range: &Range) -> Vec<Subscription>;

    /// All stored subscriptions, for tests and state transfer.
    fn snapshot(&self) -> Vec<Subscription>;
}

/// Selector for the index structure a matcher builds per dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Scan every subscription (the paper's implicit cost model).
    Linear,
    /// Self-sizing cell grid over the copy dimension and the selective
    /// other dimensions ([`CellIndex`]). The count sizes nothing: the
    /// grid sizes itself from its population.
    Cell(usize),
    /// Centered interval tree (rebuilt lazily after mutation).
    IntervalTree,
    /// Covering decorator: subsumed subscriptions are held as covered
    /// members of a representative and only representatives enter the
    /// wrapped structure. Match sets are identical to the bare inner
    /// kind; physical state and examined counts shrink with workload
    /// redundancy.
    Covering {
        /// The physically indexed structure representatives live in.
        inner: InnerKind,
    },
}

/// The index structures a [`CoveringIndex`] can wrap. A separate enum
/// (rather than `Box<IndexKind>`) keeps [`IndexKind`] `Copy` and rules
/// out covering-of-covering by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InnerKind {
    /// Scan every representative.
    Linear,
    /// Self-sizing cell grid; the count sizes nothing.
    Cell(usize),
    /// Centered interval tree.
    IntervalTree,
}

impl InnerKind {
    /// The equivalent bare (uncovered) index kind.
    pub fn bare(self) -> IndexKind {
        match self {
            InnerKind::Linear => IndexKind::Linear,
            InnerKind::Cell(cells) => IndexKind::Cell(cells),
            InnerKind::IntervalTree => IndexKind::IntervalTree,
        }
    }
}

impl IndexKind {
    /// Builds an index of this kind for `dim` of `space`.
    pub fn build(self, space: &AttributeSpace, dim: DimIdx) -> Box<dyn MatchIndex> {
        match self {
            IndexKind::Linear => Box::new(LinearScanIndex::new(dim)),
            IndexKind::Cell(_) => Box::new(CellIndex::new(space, dim)),
            IndexKind::IntervalTree => Box::new(IntervalTreeIndex::new(dim)),
            IndexKind::Covering { inner } => Box::new(CoveringIndex::new(space, dim, inner)),
        }
    }
}

/// Flat subscription rows: row `i` is `hits[i]`, the `(subscription,
/// subscriber)` pair a match reports, plus `k` predicates stored as
/// contiguous `lo, hi` pairs at `bounds[2k·i .. 2k·i + 2k]`.
///
/// A row always holds `k` predicates: extra ones are dropped and missing
/// ones are unbounded. Arity is checked before a subscription reaches an
/// index (`Subscription::validate`), so neither happens on a validated
/// path, and no arity can make a row operation panic.
#[derive(Debug, Default)]
pub(crate) struct Rows {
    k: usize,
    hits: Vec<MatchHit>,
    bounds: Vec<f64>,
}

/// The `[lo, hi)` pair of a row that must never match.
const EMPTY: [f64; 2] = [f64::INFINITY, f64::NEG_INFINITY];

impl Rows {
    /// No rows, each `k` predicates wide.
    pub(crate) fn new(k: usize) -> Self {
        Rows {
            k,
            ..Rows::default()
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.hits.len()
    }

    /// Appends `sub` as the last row and returns its index.
    pub(crate) fn push(&mut self, sub: &Subscription) -> usize {
        self.hits.push((sub.id, sub.subscriber));
        self.bounds.resize(self.bounds.len() + 2 * self.k, 0.0);
        let row = self.hits.len() - 1;
        self.set(row, sub);
        row
    }

    /// Overwrites row `row` with `sub`.
    pub(crate) fn set(&mut self, row: usize, sub: &Subscription) {
        self.hits[row] = (sub.id, sub.subscriber);
        let unbounded = Range::new(f64::NEG_INFINITY, f64::INFINITY);
        let preds = sub.predicates.iter().chain(std::iter::repeat(&unbounded));
        for (pair, p) in self.row_mut(row).chunks_exact_mut(2).zip(preds) {
            pair.copy_from_slice(&[p.lo, p.hi]);
        }
    }

    /// Makes row `row` empty on every dimension, so it never matches.
    pub(crate) fn clear(&mut self, row: usize) {
        for pair in self.row_mut(row).chunks_exact_mut(2) {
            pair.copy_from_slice(&EMPTY);
        }
    }

    /// Removes row `row`, shifting the later rows down (their order is
    /// kept), and returns it as a subscription.
    pub(crate) fn remove(&mut self, row: usize) -> Subscription {
        let sub = self.subscription(row);
        self.hits.remove(row);
        self.bounds.drain(2 * self.k * row..2 * self.k * (row + 1));
        sub
    }

    /// The first row holding `id`.
    pub(crate) fn position(&self, id: SubscriptionId) -> Option<usize> {
        self.hits.iter().position(|h| h.0 == id)
    }

    /// Whether row `row` contains the point `values`. Every predicate is
    /// compared and the results are combined with a non-short-circuit
    /// `&`, so the loop has no data-dependent branch. This is the one
    /// verifier every index calls.
    #[inline]
    pub(crate) fn matches(&self, row: usize, values: &[f64]) -> bool {
        self.row(row)
            .chunks_exact(2)
            .zip(values)
            .fold(true, |ok, (b, &v)| ok & (v >= b[0]) & (v < b[1]))
    }

    /// The hit a match on row `row` reports.
    #[inline]
    pub(crate) fn hit(&self, row: usize) -> MatchHit {
        self.hits[row]
    }

    /// The predicate of row `row` on dimension `dim`; unbounded past the
    /// row's `k`, as a missing predicate is.
    pub(crate) fn range(&self, row: usize, dim: DimIdx) -> Range {
        if dim.index() >= self.k {
            return Range::new(f64::NEG_INFINITY, f64::INFINITY);
        }
        let at = 2 * (self.k * row + dim.index());
        Range::new(self.bounds[at], self.bounds[at + 1])
    }

    /// Row `row`, rebuilt as a subscription.
    pub(crate) fn subscription(&self, row: usize) -> Subscription {
        let (id, subscriber) = self.hits[row];
        let predicates = self
            .row(row)
            .chunks_exact(2)
            .map(|b| Range::new(b[0], b[1]))
            .collect();
        Subscription {
            id,
            subscriber,
            predicates,
        }
    }

    /// The subscription ids of every row, in row order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = SubscriptionId> + '_ {
        self.hits.iter().map(|h| h.0)
    }

    /// Every row, rebuilt as subscriptions in row order.
    pub(crate) fn subscriptions(&self) -> impl Iterator<Item = Subscription> + '_ {
        (0..self.len()).map(|row| self.subscription(row))
    }

    /// Estimated resident bytes of the hit and bounds vectors.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.hits.capacity() * size_of::<MatchHit>() + self.bounds.capacity() * size_of::<f64>()
    }

    #[inline]
    fn row(&self, row: usize) -> &[f64] {
        &self.bounds[2 * self.k * row..][..2 * self.k]
    }

    fn row_mut(&mut self, row: usize) -> &mut [f64] {
        &mut self.bounds[2 * self.k * row..][..2 * self.k]
    }
}

/// Shared storage of the bare indexes: [`Rows`] addressed by stable
/// slots, with an id → slot map and a free list.
///
/// A slot keeps its row until its subscription is removed; a freed slot
/// holds an empty range on every dimension, so it can never match and a
/// full scan needs no liveness test. Cells and tree nodes link slots, and
/// every probe verifies through [`Rows::matches`].
#[derive(Debug, Default)]
pub(crate) struct Slab {
    rows: Rows,
    by_id: HashMap<SubscriptionId, usize>,
    free: Vec<usize>,
}

impl Slab {
    /// An empty slab whose rows hold `k` predicates. A slab built with
    /// `k = 0` takes its `k` from the first insert.
    pub(crate) fn with_k(k: usize) -> Self {
        Slab {
            rows: Rows::new(k),
            ..Slab::default()
        }
    }

    /// The rows, indexed by slot.
    #[inline]
    pub(crate) fn rows(&self) -> &Rows {
        &self.rows
    }

    /// Stores `sub` and returns its slot. A re-registered id keeps its
    /// slot and has its row overwritten.
    pub(crate) fn insert(&mut self, sub: &Subscription) -> usize {
        if self.rows.k == 0 && self.rows.len() == 0 {
            self.rows.k = sub.k();
        }
        match self.by_id.entry(sub.id) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                self.rows.set(slot, sub);
                slot
            }
            Entry::Vacant(e) => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.rows.set(slot, sub);
                        slot
                    }
                    None => self.rows.push(sub),
                };
                e.insert(slot);
                slot
            }
        }
    }

    /// The slot holding `id`, if stored.
    pub(crate) fn slot(&self, id: SubscriptionId) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// Removes `id`, returning its former slot and the subscription
    /// rebuilt from the row. The slot's row becomes empty.
    pub(crate) fn remove(&mut self, id: SubscriptionId) -> Option<(usize, Subscription)> {
        let slot = self.by_id.remove(&id)?;
        let sub = self.rows.subscription(slot);
        self.rows.clear(slot);
        self.free.push(slot);
        Some((slot, sub))
    }

    /// Number of stored subscriptions.
    pub(crate) fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Live slots in ascending order.
    pub(crate) fn live_slots(&self) -> Vec<usize> {
        let mut slots: Vec<usize> = self.by_id.values().copied().collect();
        slots.sort_unstable();
        slots
    }

    /// Ids of the stored subscriptions whose `dim` predicate overlaps
    /// `range`, in slot order: what `extract_overlapping` removes.
    pub(crate) fn overlapping(&self, dim: DimIdx, range: &Range) -> Vec<SubscriptionId> {
        self.live_slots()
            .into_iter()
            .filter(|&s| self.rows.range(s, dim).overlaps(range))
            .map(|s| self.rows.hit(s).0)
            .collect()
    }

    /// Every stored subscription, rebuilt in slot order.
    pub(crate) fn snapshot(&self) -> Vec<Subscription> {
        self.live_slots()
            .into_iter()
            .map(|s| self.rows.subscription(s))
            .collect()
    }

    /// Estimated resident bytes: rows, id map (entry + one control byte
    /// per bucket), free list.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let map = self.by_id.capacity() * (size_of::<(SubscriptionId, usize)>() + 1);
        let free = self.free.capacity() * size_of::<usize>();
        self.rows.memory_bytes() + map + free
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::ids::SubscriberId;

    /// Builds a subscription with sequential id over a uniform space.
    pub fn sub(space: &AttributeSpace, id: u64, ranges: &[(usize, f64, f64)]) -> Subscription {
        let mut b = Subscription::builder(space).subscriber(SubscriberId(id));
        for &(d, lo, hi) in ranges {
            b = b.range(d, lo, hi);
        }
        let mut s = b.build().unwrap();
        s.id = SubscriptionId(id);
        s
    }

    /// Exercises the full MatchIndex contract against a reference linear
    /// implementation; used by each concrete index's tests.
    pub fn check_index_contract(mut idx: Box<dyn MatchIndex>, space: &AttributeSpace) {
        let subs: Vec<Subscription> = (0..40)
            .map(|i| {
                let lo = (i as f64 * 53.0) % 900.0;
                sub(
                    space,
                    i,
                    &[
                        (0, lo, lo + 60.0),
                        (
                            1,
                            (i as f64 * 91.0) % 800.0,
                            (i as f64 * 91.0) % 800.0 + 120.0,
                        ),
                    ],
                )
            })
            .collect();
        for s in &subs {
            idx.insert(s.clone());
        }
        assert_eq!(idx.logical_len(), 40);
        assert!(idx.physical_len() <= idx.logical_len());
        assert!(idx.memory_bytes() > 0);

        for probe in 0..25 {
            let msg = Message::new(vec![
                (probe as f64 * 41.0) % 1000.0,
                (probe as f64 * 17.0) % 1000.0,
            ]);
            let mut got = Vec::new();
            let examined = idx.matching(&msg, &mut got);
            let mut expect: Vec<MatchHit> = subs
                .iter()
                .filter(|s| s.matches(&msg))
                .map(|s| (s.id, s.subscriber))
                .collect();
            got.sort_unstable_by_key(|h| h.0);
            expect.sort_unstable_by_key(|h| h.0);
            assert_eq!(got, expect, "wrong match set for probe {probe}");
            assert!(examined >= got.len(), "examined < matched");
            assert!(examined <= 40, "examined more than stored");
        }

        // Removal.
        let removed = idx.remove(SubscriptionId(0)).expect("sub 0 present");
        assert_eq!(removed.id, SubscriptionId(0));
        assert!(idx.remove(SubscriptionId(0)).is_none());
        assert_eq!(idx.logical_len(), 39);

        // Extraction along the copy dimension.
        let extracted = idx.extract_overlapping(&Range::new(0.0, 300.0));
        for s in &extracted {
            assert!(s.predicate(idx.dim()).overlaps(&Range::new(0.0, 300.0)));
        }
        let remaining = idx.snapshot();
        for s in &remaining {
            assert!(!s.predicate(idx.dim()).overlaps(&Range::new(0.0, 300.0)));
        }
        assert_eq!(extracted.len() + remaining.len(), 39);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SubscriberId;

    #[test]
    fn slab_reuses_slots() {
        let space = AttributeSpace::uniform(2, 0.0, 1000.0);
        let mut slab = Slab::default();
        let s1 = test_support::sub(&space, 1, &[(0, 0.0, 10.0)]);
        let s2 = test_support::sub(&space, 2, &[(0, 20.0, 30.0)]);
        let slot1 = slab.insert(&s1);
        assert_eq!(slab.remove(SubscriptionId(1)), Some((slot1, s1)));
        let slot2 = slab.insert(&s2);
        assert_eq!(slot1, slot2, "freed slot should be reused");
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.rows().len(), 1);
        assert_eq!(slab.snapshot(), vec![s2]);
    }

    #[test]
    fn slab_insert_replaces_duplicate_id() {
        let space = AttributeSpace::uniform(2, 0.0, 1000.0);
        let mut slab = Slab::default();
        let s1 = test_support::sub(&space, 7, &[(0, 0.0, 10.0)]);
        let s1b = test_support::sub(&space, 7, &[(0, 50.0, 60.0)]);
        let slot = slab.insert(&s1);
        assert_eq!(slab.insert(&s1b), slot, "same slot");
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.rows().range(slot, DimIdx(0)), Range::new(50.0, 60.0));
        assert_eq!(slab.snapshot(), vec![s1b]);
    }

    #[test]
    fn rows_remove_keeps_order() {
        let space = AttributeSpace::uniform(2, 0.0, 1000.0);
        let mut rows = Rows::new(2);
        let subs: Vec<Subscription> = (0..4)
            .map(|i| test_support::sub(&space, i, &[(0, i as f64, 10.0 + i as f64)]))
            .collect();
        for s in &subs {
            rows.push(s);
        }
        assert_eq!(rows.position(SubscriptionId(1)), Some(1));
        assert_eq!(rows.remove(1), subs[1]);
        let left: Vec<Subscription> = (0..rows.len()).map(|r| rows.subscription(r)).collect();
        assert_eq!(
            left,
            vec![subs[0].clone(), subs[2].clone(), subs[3].clone()]
        );
        assert!(rows.matches(1, &[5.0, 0.0]), "row 1 is now subscription 2");
        assert!(!rows.matches(1, &[1.0, 0.0]));
    }

    #[test]
    fn slab_rows_verify_half_open_and_free_slots_never_match() {
        let space = AttributeSpace::uniform(2, 0.0, 1000.0);
        let mut slab = Slab::with_k(2);
        let s = test_support::sub(&space, 3, &[(0, 100.0, 200.0), (1, 0.0, 50.0)]);
        let slot = slab.insert(&s);
        let rows = slab.rows();
        assert!(rows.matches(slot, &[100.0, 0.0]), "lo is inclusive");
        assert!(!rows.matches(slot, &[200.0, 0.0]), "hi is exclusive");
        assert!(!rows.matches(slot, &[150.0, 50.0]), "every predicate");
        assert_eq!(rows.hit(slot), (SubscriptionId(3), SubscriberId(3)));
        slab.remove(SubscriptionId(3)).unwrap();
        for v in [0.0, 100.0, 999.0, f64::INFINITY, f64::NEG_INFINITY] {
            let freed = slab.rows().matches(slot, &[v, v]);
            assert!(!freed, "freed slot matched {v}");
        }
        assert!(slab.live_slots().is_empty());
    }

    #[test]
    fn slab_pads_and_truncates_rows_to_its_arity() {
        let mut slab = Slab::with_k(2);
        let narrow = Subscription {
            id: SubscriptionId(1),
            subscriber: SubscriberId(1),
            predicates: vec![Range::new(0.0, 10.0)],
        };
        let slot = slab.insert(&narrow);
        assert!(slab.rows().matches(slot, &[5.0, 1e300]));
        let wide = Subscription {
            id: SubscriptionId(2),
            subscriber: SubscriberId(2),
            predicates: vec![Range::new(0.0, 10.0); 3],
        };
        let slot = slab.insert(&wide);
        assert_eq!(slab.snapshot()[1].k(), 2);
        assert_eq!(slab.rows().range(slot, DimIdx(2)).width(), f64::INFINITY);
        assert!(slab.rows().matches(slot, &[5.0, 5.0]));
    }

    #[test]
    fn index_kind_builds_each_structure() {
        let space = AttributeSpace::uniform(2, 0.0, 1000.0);
        for kind in [
            IndexKind::Linear,
            IndexKind::Cell(64),
            IndexKind::IntervalTree,
            IndexKind::Covering {
                inner: InnerKind::Linear,
            },
            IndexKind::Covering {
                inner: InnerKind::Cell(64),
            },
            IndexKind::Covering {
                inner: InnerKind::IntervalTree,
            },
        ] {
            let idx = kind.build(&space, DimIdx(1));
            assert_eq!(idx.dim(), DimIdx(1));
            assert!(idx.is_empty());
        }
    }
}
