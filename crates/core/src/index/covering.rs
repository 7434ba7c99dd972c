//! Subscription covering: index representatives, expand to covered
//! members at delivery time.
//!
//! Following Shi et al. ("Towards Scalable Subscription Aggregation and
//! Real Time Event Matching"), subscription A *covers* B when A's
//! hyper-cuboid contains B's on every dimension (`A.lo <= B.lo` and
//! `A.hi >= B.hi` for all k predicates). Then any message matching B also
//! matches A, so it is safe to keep only A in the matching structure:
//! probing the index with A standing in for its group yields no false
//! negatives, and each covered member is verified individually before a
//! hit is reported — match sets are bit-identical to the uncovered index.
//!
//! The decorator wraps any bare [`InnerKind`] structure. Logical state
//! (every registered subscription; what the forwarding policy and the
//! autoscaler key on) is the inner entries plus all group members;
//! physical state (what a probe pays for) is the inner entries alone.
//!
//! Members are stored per group as flat rows and verified with the same
//! branch-free check as the bare indexes.
//!
//! Determinism: the representative a subscription joins is the *minimum
//! id* among stored representatives that cover it. Candidate lookup goes
//! through a uniform grid over the copy dimension — a covering rep's
//! copy-dimension range contains the member's `lo`, so scanning the single
//! grid cell holding `lo` enumerates every possible cover — and each grid
//! cell keeps its rep ids sorted ascending, so the first covering
//! candidate found *is* the minimum and the scan can stop there. Group
//! member vectors preserve insertion order, and dissolving a removed
//! representative re-homes members in that same order, so any host that
//! replays the same insert/remove sequence (live path, sublog replay,
//! handover re-insertion) rebuilds identical groups.

use super::{InnerKind, MatchHit, MatchIndex, Rows};
use crate::ids::{DimIdx, SubscriptionId};
use crate::message::Message;
use crate::space::AttributeSpace;
use crate::subscription::{Range, Subscription};
use std::collections::HashMap;

/// Grid resolution for representative candidate lookup. Insert cost is
/// O(reps overlapping one cell) with an early exit at the first cover, so
/// a modest resolution suffices even at millions of subscriptions.
const GRID_CELLS: usize = 256;

/// Covering decorator around a bare per-dimension index.
pub struct CoveringIndex {
    dim: DimIdx,
    /// The physically indexed structure; holds representatives only.
    inner: Box<dyn MatchIndex>,
    /// Representatives by id. The inner index has no get-by-id, so reps
    /// are duplicated here for cover tests; counted in `memory_bytes`.
    reps: HashMap<SubscriptionId, Subscription>,
    /// Representative id → its covered members as flat rows in insertion
    /// order, verified by the same branch-free [`Rows::matches`] the bare
    /// indexes use. A representative without members may have no entry.
    groups: HashMap<SubscriptionId, Rows>,
    /// Covered member id → its representative's id.
    member_to_rep: HashMap<SubscriptionId, SubscriptionId>,
    /// Predicates per row.
    k: usize,
    /// `grid[c]` = ids (sorted ascending) of reps whose copy-dimension
    /// range overlaps cell `c`.
    grid: Vec<Vec<SubscriptionId>>,
    /// Domain bounds of the copy dimension.
    min: f64,
    max: f64,
}

impl CoveringIndex {
    /// Creates a covering index over `dim` wrapping a fresh `inner`.
    pub fn new(space: &AttributeSpace, dim: DimIdx, inner: InnerKind) -> Self {
        let d = space.dim(dim);
        CoveringIndex {
            dim,
            inner: inner.bare().build(space, dim),
            reps: HashMap::new(),
            groups: HashMap::new(),
            member_to_rep: HashMap::new(),
            k: space.k(),
            grid: vec![Vec::new(); GRID_CELLS],
            min: d.min,
            max: d.max,
        }
    }

    #[inline]
    fn cell_of(&self, v: f64) -> usize {
        let n = self.grid.len();
        let frac = (v - self.min) / (self.max - self.min);
        ((frac * n as f64) as usize).min(n - 1)
    }

    /// Inclusive cell range overlapped by `[lo, hi)`.
    fn cell_span(&self, r: &Range) -> (usize, usize) {
        let first = self.cell_of(r.lo.max(self.min));
        let last = self.cell_of((r.hi.min(self.max)) - f64::EPSILON * self.max.abs().max(1.0));
        (first, last.max(first))
    }

    fn link_rep(&mut self, id: SubscriptionId, r: &Range) {
        let (first, last) = self.cell_span(r);
        for c in first..=last {
            let cell = &mut self.grid[c];
            if let Err(pos) = cell.binary_search(&id) {
                cell.insert(pos, id);
            }
        }
    }

    fn unlink_rep(&mut self, id: SubscriptionId, r: &Range) {
        let (first, last) = self.cell_span(r);
        for c in first..=last {
            let cell = &mut self.grid[c];
            if let Ok(pos) = cell.binary_search(&id) {
                cell.remove(pos);
            }
        }
    }

    /// The subsumption rule: `a` covers `b` when a's cuboid contains b's
    /// on every dimension.
    fn covers(a: &Subscription, b: &Subscription) -> bool {
        a.predicates
            .iter()
            .zip(b.predicates.iter())
            .all(|(ra, rb)| ra.lo <= rb.lo && ra.hi >= rb.hi)
    }

    /// Minimum-id stored representative covering `sub`, if any. Any cover
    /// contains `sub.lo` on the copy dimension, so one grid cell holds
    /// every candidate; the cell is id-sorted, so the first hit is the
    /// minimum.
    fn find_covering_rep(&self, sub: &Subscription) -> Option<SubscriptionId> {
        let lo = sub.predicate(self.dim).lo;
        let cell = self.cell_of(lo.clamp(self.min, self.max));
        self.grid[cell]
            .iter()
            .copied()
            .find(|rid| self.reps.get(rid).is_some_and(|rep| Self::covers(rep, sub)))
    }

    /// Inserts a subscription whose id is not currently stored.
    fn insert_fresh(&mut self, sub: Subscription) {
        match self.find_covering_rep(&sub) {
            Some(rep_id) => {
                self.member_to_rep.insert(sub.id, rep_id);
                let k = self.k;
                self.groups
                    .entry(rep_id)
                    .or_insert_with(|| Rows::new(k))
                    .push(&sub);
            }
            None => {
                let r = sub.predicate(self.dim);
                self.link_rep(sub.id, &r);
                self.reps.insert(sub.id, sub.clone());
                self.inner.insert(sub);
            }
        }
    }
}

impl MatchIndex for CoveringIndex {
    fn dim(&self) -> DimIdx {
        self.dim
    }

    fn insert(&mut self, sub: Subscription) {
        // Re-registration replaces: drop the previous entry through the
        // normal removal path (which may dissolve a group) first.
        if self.member_to_rep.contains_key(&sub.id) || self.reps.contains_key(&sub.id) {
            self.remove(sub.id);
        }
        self.insert_fresh(sub);
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        // Covered member: leave the group; nothing physical changes.
        if let Some(rep_id) = self.member_to_rep.remove(&id) {
            let members = self
                .groups
                .get_mut(&rep_id)
                .expect("member's rep must have a group");
            let pos = members
                .position(id)
                .expect("member must be in its rep's group");
            return Some(members.remove(pos));
        }
        // Representative: dissolve the group and re-home the members in
        // insertion order — each either joins a surviving cover or is
        // promoted to representative itself.
        let removed = self.inner.remove(id)?;
        let r = removed.predicate(self.dim);
        self.unlink_rep(id, &r);
        self.reps.remove(&id);
        if let Some(members) = self.groups.remove(&id) {
            for m in members.subscriptions() {
                self.member_to_rep.remove(&m.id);
                self.insert_fresh(m);
            }
        }
        Some(removed)
    }

    fn matching(&mut self, msg: &Message, out: &mut Vec<MatchHit>) -> usize {
        let start = out.len();
        let mut examined = self.inner.matching(msg, out);
        // Expand each matched representative's group. Members are smaller
        // cuboids than their rep, so each is verified individually; the
        // scan is still physical work and counts as examined.
        let matched_reps = out.len();
        for i in start..matched_reps {
            let rep_id = out[i].0;
            if let Some(members) = self.groups.get(&rep_id) {
                examined += members.len();
                for row in 0..members.len() {
                    if members.matches(row, &msg.values) {
                        out.push(members.hit(row));
                    }
                }
            }
        }
        examined
    }

    fn logical_len(&self) -> usize {
        self.inner.logical_len() + self.member_to_rep.len()
    }

    fn physical_len(&self) -> usize {
        self.inner.physical_len()
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        fn sub_heap(s: &Subscription) -> usize {
            s.predicates.capacity() * size_of::<Range>()
        }
        let reps = self.reps.capacity() * (size_of::<(SubscriptionId, Subscription)>() + 1)
            + self.reps.values().map(sub_heap).sum::<usize>();
        let groups = self.groups.capacity() * (size_of::<(SubscriptionId, Rows)>() + 1)
            + self.groups.values().map(Rows::memory_bytes).sum::<usize>();
        let map =
            self.member_to_rep.capacity() * (size_of::<(SubscriptionId, SubscriptionId)>() + 1);
        let grid = self.grid.capacity() * size_of::<Vec<SubscriptionId>>()
            + self
                .grid
                .iter()
                .map(|c| c.capacity() * size_of::<SubscriptionId>())
                .sum::<usize>();
        size_of::<Self>() + self.inner.memory_bytes() + reps + groups + map + grid
    }

    fn covering_groups(&self) -> Option<Vec<(SubscriptionId, Vec<SubscriptionId>)>> {
        let mut v: Vec<(SubscriptionId, Vec<SubscriptionId>)> = self
            .reps
            .keys()
            .map(|rid| {
                (
                    *rid,
                    self.groups
                        .get(rid)
                        .into_iter()
                        .flat_map(Rows::ids)
                        .collect(),
                )
            })
            .collect();
        v.sort_unstable_by_key(|g| g.0);
        Some(v)
    }

    fn extract_overlapping(&mut self, range: &Range) -> Vec<Subscription> {
        // A rep's copy-dimension range contains every member's, so a
        // member overlapping `range` implies its rep does too: extracting
        // the inner's overlapping reps visits every group that can hold
        // overlapping members. Members of an extracted rep that do NOT
        // overlap stay behind and are re-homed in insertion order.
        let reps = self.inner.extract_overlapping(range);
        let mut out = Vec::new();
        let mut rehome = Vec::new();
        for rep in reps {
            let r = rep.predicate(self.dim);
            self.unlink_rep(rep.id, &r);
            self.reps.remove(&rep.id);
            let members = self.groups.remove(&rep.id).unwrap_or_default();
            out.push(rep);
            for m in members.subscriptions() {
                self.member_to_rep.remove(&m.id);
                if m.predicate(self.dim).overlaps(range) {
                    out.push(m);
                } else {
                    rehome.push(m);
                }
            }
        }
        for m in rehome {
            self.insert_fresh(m);
        }
        out
    }

    fn snapshot(&self) -> Vec<Subscription> {
        // Inner order (deterministic per structure), each rep followed by
        // its members in insertion order.
        let mut out = Vec::new();
        for rep in self.inner.snapshot() {
            let members = self.groups.get(&rep.id);
            out.push(rep);
            out.extend(members.into_iter().flat_map(Rows::subscriptions));
        }
        out
    }
}

impl std::fmt::Debug for CoveringIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoveringIndex")
            .field("dim", &self.dim)
            .field("logical", &self.logical_len())
            .field("physical", &self.physical_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::IndexKind;
    use super::*;
    use crate::index::test_support::{check_index_contract, sub};

    fn space() -> AttributeSpace {
        AttributeSpace::uniform(2, 0.0, 1000.0)
    }

    fn every_inner() -> [InnerKind; 3] {
        [
            InnerKind::Linear,
            InnerKind::Cell(16),
            InnerKind::IntervalTree,
        ]
    }

    #[test]
    fn satisfies_index_contract_all_inner_kinds() {
        for inner in every_inner() {
            let kind = IndexKind::Covering { inner };
            check_index_contract(kind.build(&space(), DimIdx(0)), &space());
            check_index_contract(kind.build(&space(), DimIdx(1)), &space());
        }
    }

    #[test]
    fn covered_member_never_enters_inner() {
        let sp = space();
        let mut idx = CoveringIndex::new(&sp, DimIdx(0), InnerKind::Cell(16));
        idx.insert(sub(&sp, 1, &[(0, 100.0, 400.0), (1, 0.0, 1000.0)]));
        idx.insert(sub(&sp, 2, &[(0, 150.0, 300.0), (1, 200.0, 600.0)]));
        assert_eq!(idx.logical_len(), 2);
        assert_eq!(idx.physical_len(), 1, "specialization should be covered");

        // Message inside the member: both hit.
        let mut out = Vec::new();
        idx.matching(&Message::new(vec![200.0, 300.0]), &mut out);
        let mut ids: Vec<u64> = out.iter().map(|h| h.0 .0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);

        // Message inside the rep but outside the member: rep only —
        // members are verified individually, never blanket-delivered.
        out.clear();
        idx.matching(&Message::new(vec![120.0, 100.0]), &mut out);
        let ids: Vec<u64> = out.iter().map(|h| h.0 .0).collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn removing_rep_rehomes_members_without_loss() {
        let sp = space();
        let mut idx = CoveringIndex::new(&sp, DimIdx(0), InnerKind::Linear);
        idx.insert(sub(&sp, 1, &[(0, 0.0, 500.0), (1, 0.0, 1000.0)]));
        idx.insert(sub(&sp, 2, &[(0, 100.0, 400.0), (1, 100.0, 900.0)]));
        idx.insert(sub(&sp, 3, &[(0, 150.0, 300.0), (1, 200.0, 800.0)]));
        assert_eq!(idx.physical_len(), 1);

        let removed = idx.remove(SubscriptionId(1)).expect("rep present");
        assert_eq!(removed.id, SubscriptionId(1));
        assert_eq!(idx.logical_len(), 2);
        // Member 2 covers member 3, so re-homing promotes 2 and re-covers 3.
        assert_eq!(idx.physical_len(), 1, "2 should be promoted, 3 re-covered");
        let groups = idx.covering_groups().unwrap();
        assert_eq!(
            groups,
            vec![(SubscriptionId(2), vec![SubscriptionId(3)])],
            "promotion must be deterministic"
        );

        let mut out = Vec::new();
        idx.matching(&Message::new(vec![200.0, 500.0]), &mut out);
        let mut ids: Vec<u64> = out.iter().map(|h| h.0 .0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn removing_member_leaves_group_intact() {
        let sp = space();
        let mut idx = CoveringIndex::new(&sp, DimIdx(0), InnerKind::IntervalTree);
        idx.insert(sub(&sp, 1, &[(0, 0.0, 500.0), (1, 0.0, 1000.0)]));
        idx.insert(sub(&sp, 2, &[(0, 100.0, 400.0), (1, 100.0, 900.0)]));
        let gone = idx.remove(SubscriptionId(2)).expect("member present");
        assert_eq!(gone.id, SubscriptionId(2));
        assert_eq!(idx.logical_len(), 1);
        assert_eq!(idx.physical_len(), 1);
        assert!(idx.remove(SubscriptionId(2)).is_none());
    }

    #[test]
    fn extract_rehomes_non_overlapping_members() {
        let sp = space();
        let mut idx = CoveringIndex::new(&sp, DimIdx(0), InnerKind::Cell(16));
        // Rep spans [0,100); member sits at [80,90) — outside the
        // extraction range, so it must stay behind and be re-homed.
        idx.insert(sub(&sp, 1, &[(0, 0.0, 100.0), (1, 0.0, 1000.0)]));
        idx.insert(sub(&sp, 2, &[(0, 80.0, 90.0), (1, 100.0, 900.0)]));
        let moved = idx.extract_overlapping(&Range::new(0.0, 50.0));
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].id, SubscriptionId(1));
        assert_eq!(idx.logical_len(), 1);
        assert_eq!(idx.physical_len(), 1, "survivor promoted to rep");

        let mut out = Vec::new();
        idx.matching(&Message::new(vec![85.0, 500.0]), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, SubscriptionId(2));
    }

    #[test]
    fn min_id_representative_is_chosen() {
        let sp = space();
        let mut idx = CoveringIndex::new(&sp, DimIdx(0), InnerKind::Linear);
        // Two disjoint-id covers for the later narrow sub; both are reps.
        idx.insert(sub(&sp, 9, &[(0, 0.0, 600.0), (1, 0.0, 1000.0)]));
        idx.insert(sub(&sp, 4, &[(0, 0.0, 700.0), (1, 0.0, 1000.0)]));
        idx.insert(sub(&sp, 20, &[(0, 100.0, 200.0), (1, 100.0, 200.0)]));
        let groups = idx.covering_groups().unwrap();
        assert_eq!(
            groups,
            vec![
                (SubscriptionId(4), vec![SubscriptionId(20)]),
                (SubscriptionId(9), vec![]),
            ],
            "the minimum-id cover wins regardless of insertion order"
        );
    }

    #[test]
    fn reregistration_replaces_across_roles() {
        let sp = space();
        let mut idx = CoveringIndex::new(&sp, DimIdx(0), InnerKind::Cell(8));
        idx.insert(sub(&sp, 1, &[(0, 0.0, 500.0), (1, 0.0, 1000.0)]));
        idx.insert(sub(&sp, 2, &[(0, 100.0, 200.0), (1, 100.0, 200.0)]));
        assert_eq!(idx.physical_len(), 1);
        // Re-register the member as a giant box: it must become a rep.
        idx.insert(sub(&sp, 2, &[(0, 600.0, 900.0), (1, 0.0, 1000.0)]));
        assert_eq!(idx.logical_len(), 2);
        assert_eq!(idx.physical_len(), 2);
        let mut out = Vec::new();
        idx.matching(&Message::new(vec![150.0, 150.0]), &mut out);
        assert_eq!(out.len(), 1, "old member predicate must be gone");
        assert_eq!(out[0].0, SubscriptionId(1));
    }

    /// The parity oracle in miniature: random coverable workload against a
    /// bare twin, identical match sets throughout.
    #[test]
    fn random_workload_matches_bare_twin() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let sp = space();
        for inner in every_inner() {
            let mut covered = CoveringIndex::new(&sp, DimIdx(0), inner);
            let mut bare = inner.bare().build(&sp, DimIdx(0));
            let mut rng = StdRng::seed_from_u64(99);
            for i in 0..300u64 {
                let lo0 = rng.gen_range(0.0..800.0);
                let w0 = rng.gen_range(10.0..200.0);
                let lo1 = rng.gen_range(0.0..800.0);
                let w1 = rng.gen_range(10.0..200.0);
                let s = sub(
                    &sp,
                    i % 120, // id collisions exercise re-registration
                    &[(0, lo0, lo0 + w0), (1, lo1, lo1 + w1)],
                );
                covered.insert(s.clone());
                bare.insert(s);
                if rng.gen_bool(0.2) {
                    let id = SubscriptionId(rng.gen_range(0..120));
                    assert_eq!(covered.remove(id).is_some(), bare.remove(id).is_some());
                }
                let msg =
                    Message::new(vec![rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)]);
                let (mut a, mut c) = (Vec::new(), Vec::new());
                covered.matching(&msg, &mut a);
                bare.matching(&msg, &mut c);
                a.sort_unstable();
                c.sort_unstable();
                assert_eq!(a, c, "match sets diverged at step {i} ({inner:?})");
                assert_eq!(covered.logical_len(), bare.logical_len());
            }
        }
    }
}
