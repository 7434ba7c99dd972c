//! mPartition: BlueDove's multi-dimensional subscription-space partitioning
//! (§III-A).
//!
//! Every subscription is assigned `k` times, once along each searchable
//! dimension: along dimension `Li` it is stored on every matcher whose
//! segment overlaps the predicate range `Si`. Consequently every message
//! `m` has `k` candidate matchers — the owners of the segments its values
//! fall into — and **any one** of them can complete the match alone,
//! because all subscriptions matching `m` must overlap `m`'s segment on
//! every dimension.

use super::segments::SegmentTable;
use super::{Assignment, PartitionStrategy};
use crate::ids::{DimIdx, MatcherId};
use crate::message::Message;
use crate::subscription::Subscription;

/// The mPartition strategy: a [`SegmentTable`] plus the degenerate-case
/// replication rule from §III-A(1).
#[derive(Debug, Clone, PartialEq)]
pub struct MPartition {
    table: SegmentTable,
    /// When `true` (the default) a subscription whose `k` copies all land
    /// on a single matcher is additionally replicated on that matcher's
    /// clockwise neighbours, one per remaining dimension, yielding up to
    /// `k − 1` extra *distinct* matchers for fault tolerance.
    replicate_degenerate: bool,
}

impl MPartition {
    /// Wraps a segment table with degenerate replication enabled.
    pub fn new(table: SegmentTable) -> Self {
        MPartition {
            table,
            replicate_degenerate: true,
        }
    }

    /// Disables the degenerate-case replication (used by the ablation
    /// benchmarks; the paper estimates the case occurs with probability
    /// `1/N^(k−1)` under uniform predicates).
    pub fn without_degenerate_replication(mut self) -> Self {
        self.replicate_degenerate = false;
        self
    }

    /// Whether the degenerate-case replication rule is active.
    #[inline]
    pub fn degenerate_replication(&self) -> bool {
        self.replicate_degenerate
    }

    /// Read access to the underlying segment table.
    #[inline]
    pub fn table(&self) -> &SegmentTable {
        &self.table
    }

    /// Mutable access for elastic join/leave (callers must redistribute
    /// subscriptions according to the returned move lists).
    #[inline]
    pub fn table_mut(&mut self) -> &mut SegmentTable {
        &mut self.table
    }

    /// Fallback candidates for `msg`: on every dimension but the first,
    /// the primary candidate's clockwise neighbour, where the degenerate
    /// replication places copies — elsewhere a neighbour holds only the
    /// copies that also overlap its own segment, a subset of the matches.
    pub fn fallback_candidates(&self, msg: &Message) -> Vec<Assignment> {
        if !self.replicate_degenerate {
            return Vec::new();
        }
        self.candidates(msg)
            .into_iter()
            .skip(1)
            .filter_map(|a| {
                self.table
                    .clockwise_neighbor(a.dim, a.matcher)
                    .ok()
                    .map(|m| Assignment::new(m, a.dim))
            })
            .collect()
    }
}

impl PartitionStrategy for MPartition {
    fn assign(&self, sub: &Subscription) -> Vec<Assignment> {
        debug_assert_eq!(sub.k(), self.table.k(), "subscription arity mismatch");
        let mut out = Vec::with_capacity(self.table.k());
        for di in 0..self.table.k() {
            let dim = DimIdx(di as u16);
            let range = sub.predicate(dim);
            for m in self.table.overlapping(dim, &range) {
                out.push(Assignment::new(m, dim));
            }
        }
        // Degenerate case: all copies on one matcher. Replicate on the
        // clockwise neighbour along each dimension but the first, which
        // with high probability yields k−1 additional distinct matchers.
        if self.replicate_degenerate && out.len() >= 2 {
            let first = out[0].matcher;
            if out.iter().all(|a| a.matcher == first) {
                for di in 1..self.table.k() {
                    let dim = DimIdx(di as u16);
                    if let Ok(nb) = self.table.clockwise_neighbor(dim, first) {
                        if nb != first {
                            out.push(Assignment::new(nb, dim));
                        }
                    }
                }
            }
        }
        out
    }

    fn candidates(&self, msg: &Message) -> Vec<Assignment> {
        debug_assert_eq!(msg.k(), self.table.k(), "message arity mismatch");
        (0..self.table.k())
            .map(|di| {
                let dim = DimIdx(di as u16);
                Assignment::new(self.table.owner_of(dim, msg.value(dim)), dim)
            })
            .collect()
    }

    fn matchers(&self) -> Vec<MatcherId> {
        self.table.matchers()
    }

    fn name(&self) -> &'static str {
        "bluedove"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::AttributeSpace;

    fn mp(n: u32, k: usize) -> MPartition {
        let ids: Vec<MatcherId> = (0..n).map(MatcherId).collect();
        MPartition::new(SegmentTable::uniform(
            AttributeSpace::uniform(k, 0.0, 1000.0),
            &ids,
        ))
    }

    fn sub(mp: &MPartition, ranges: &[(usize, f64, f64)]) -> Subscription {
        let mut b = Subscription::builder(mp.table().space());
        for &(d, lo, hi) in ranges {
            b = b.range(d, lo, hi);
        }
        b.build().unwrap()
    }

    #[test]
    fn assignment_hits_every_dimension_at_least_once() {
        let p = mp(6, 3);
        let s = sub(&p, &[(0, 100.0, 120.0), (1, 700.0, 740.0), (2, 0.0, 25.0)]);
        let a = p.assign(&s);
        for di in 0..3 {
            assert!(
                a.iter().any(|x| x.dim == DimIdx(di)),
                "no assignment along dimension {di}"
            );
        }
    }

    #[test]
    fn paper_figure_2_example() {
        // Figure 2: 6 matchers A..F (0..5), 3 dims split into 6 segments of
        // width 1000/6. A subscription overlapping 2 segments on one
        // dimension is stored on both owners along that dimension.
        let p = mp(6, 3);
        let seg = 1000.0 / 6.0;
        // Predicate on dim 2 straddles the boundary between segment 0 and 1.
        let s = sub(
            &p,
            &[
                (0, 10.0, 20.0),
                (1, 700.0, 710.0),
                (2, seg - 5.0, seg + 5.0),
            ],
        );
        let a = p.assign(&s);
        let dim2: Vec<MatcherId> = a
            .iter()
            .filter(|x| x.dim == DimIdx(2))
            .map(|x| x.matcher)
            .collect();
        assert_eq!(dim2, vec![MatcherId(0), MatcherId(1)]);
        assert_eq!(a.len(), 4); // 1 + 1 + 2 copies
    }

    #[test]
    fn candidates_one_per_dimension() {
        let p = mp(5, 4);
        let m = Message::new(vec![10.0, 500.0, 999.0, 250.0]);
        let c = p.candidates(&m);
        assert_eq!(c.len(), 4);
        for (i, a) in c.iter().enumerate() {
            assert_eq!(a.dim, DimIdx(i as u16));
        }
    }

    #[test]
    fn single_candidate_completeness() {
        // The §III-A(1) proof, checked concretely: matching via any single
        // candidate's (matcher, dim) set finds every matching subscription.
        let p = mp(7, 3);
        let mut subs: Vec<Subscription> = (0..50)
            .map(|i| {
                let lo = (i as f64 * 37.0) % 900.0;
                sub(
                    &p,
                    &[
                        (0, lo, lo + 80.0),
                        (1, (lo * 1.7) % 800.0, (lo * 1.7) % 800.0 + 150.0),
                        (2, 0.0, 1000.0),
                    ],
                )
            })
            .collect();
        // Guarantee matches for the probe point (123, 456, 789).
        subs.push(sub(
            &p,
            &[(0, 100.0, 200.0), (1, 400.0, 500.0), (2, 700.0, 800.0)],
        ));
        subs.push(sub(
            &p,
            &[(0, 0.0, 1000.0), (1, 450.0, 460.0), (2, 788.0, 790.0)],
        ));
        // Simulate matcher storage: (matcher, dim) -> sub indices.
        let mut store: std::collections::HashMap<(MatcherId, DimIdx), Vec<usize>> =
            std::collections::HashMap::new();
        for (i, s) in subs.iter().enumerate() {
            for a in p.assign(s) {
                store.entry((a.matcher, a.dim)).or_default().push(i);
            }
        }
        let msg = Message::new(vec![123.0, 456.0, 789.0]);
        let truth: Vec<usize> = subs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.matches(&msg))
            .map(|(i, _)| i)
            .collect();
        assert!(!truth.is_empty(), "test needs at least one match");
        for cand in p.candidates(&msg) {
            let found: Vec<usize> = store
                .get(&(cand.matcher, cand.dim))
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|&i| subs[i].matches(&msg))
                        .collect()
                })
                .unwrap_or_default();
            assert_eq!(found, truth, "candidate {cand:?} missed matches");
        }
    }

    #[test]
    fn degenerate_subscription_gets_replicas() {
        // Craft a subscription whose every predicate falls into matcher 2's
        // segment on each dimension: 4 matchers, segments of width 250.
        let p = mp(4, 3);
        let s = sub(
            &p,
            &[(0, 510.0, 520.0), (1, 510.0, 520.0), (2, 510.0, 520.0)],
        );
        let a = p.assign(&s);
        let distinct: std::collections::HashSet<MatcherId> = a.iter().map(|x| x.matcher).collect();
        // Without replication all 3 copies sit on M2; with it we get the
        // clockwise neighbour M3 on dims 1 and 2 as well.
        assert!(distinct.len() >= 2, "degenerate replication missing: {a:?}");
        assert!(distinct.contains(&MatcherId(2)));
        assert!(distinct.contains(&MatcherId(3)));

        let p2 = mp(4, 3).without_degenerate_replication();
        let a2 = p2.assign(&s);
        assert!(a2.iter().all(|x| x.matcher == MatcherId(2)));
        assert_eq!(a2.len(), 3);
    }

    #[test]
    fn wildcard_subscription_lands_on_every_matcher_every_dimension() {
        let p = mp(5, 2);
        let s = Subscription::builder(p.table().space()).build().unwrap();
        let a = p.assign(&s);
        assert_eq!(a.len(), 10); // 5 matchers × 2 dims
    }

    #[test]
    fn fallback_candidates_are_clockwise_neighbors() {
        let p = mp(4, 2);
        let m = Message::new(vec![10.0, 10.0]); // owner M0 on both dims
        let fb = p.fallback_candidates(&m);
        assert_eq!(fb, vec![Assignment::new(MatcherId(1), DimIdx(1))]);
        let bare = p.without_degenerate_replication();
        assert!(bare.fallback_candidates(&m).is_empty());
    }

    #[test]
    fn strategy_name_and_matchers() {
        let p = mp(3, 2);
        assert_eq!(p.name(), "bluedove");
        assert_eq!(p.matchers(), vec![MatcherId(0), MatcherId(1), MatcherId(2)]);
    }
}
