//! Centered interval tree over the copy dimension's predicate ranges.
//!
//! Stabbing queries (`which predicates contain value v?`) run in
//! `O(log n + m)`. The tree is static and rebuilt lazily: mutations mark it
//! dirty and the next query rebuilds in `O(n log n)`. BlueDove's workload
//! loads subscriptions up front and then serves a long message stream, so
//! amortized rebuilds are essentially free; the `bench_index` benchmark
//! quantifies this.

use super::{MatchHit, MatchIndex, Slab};
use crate::ids::{DimIdx, SubscriptionId};
use crate::message::Message;
use crate::subscription::{Range, Subscription};

#[derive(Debug)]
struct Node {
    center: f64,
    /// Slots of intervals containing `center`, sorted ascending by `lo`.
    by_lo: Vec<(f64, usize)>,
    /// Same intervals, sorted descending by `hi`.
    by_hi: Vec<(f64, usize)>,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

/// Lazily rebuilt centered interval tree.
#[derive(Debug)]
pub struct IntervalTreeIndex {
    dim: DimIdx,
    slab: Slab,
    root: Option<Box<Node>>,
    dirty: bool,
}

impl IntervalTreeIndex {
    /// Creates an empty tree for copy dimension `dim`.
    pub fn new(dim: DimIdx) -> Self {
        IntervalTreeIndex {
            dim,
            slab: Slab::default(),
            root: None,
            dirty: false,
        }
    }

    fn rebuild(&mut self) {
        let mut items: Vec<(Range, usize)> = self
            .slab
            .live_slots()
            .into_iter()
            .map(|slot| (self.slab.rows().range(slot, self.dim), slot))
            .collect();
        // Sort by lo for deterministic construction.
        items.sort_by(|a, b| a.0.lo.total_cmp(&b.0.lo).then(a.1.cmp(&b.1)));
        self.root = Self::build(&mut items);
        self.dirty = false;
    }

    fn build(items: &mut [(Range, usize)]) -> Option<Box<Node>> {
        if items.is_empty() {
            return None;
        }
        // Median endpoint as the center keeps the tree balanced.
        let mut endpoints: Vec<f64> = items.iter().flat_map(|(r, _)| [r.lo, r.hi]).collect();
        endpoints.sort_by(f64::total_cmp);
        let center = endpoints[endpoints.len() / 2];

        let mut here = Vec::new();
        let mut left_items = Vec::new();
        let mut right_items = Vec::new();
        for &(r, slot) in items.iter() {
            if r.hi <= center && !(r.lo <= center && center < r.hi) {
                // Entirely left of center (half-open: hi <= center means
                // center not contained).
                left_items.push((r, slot));
            } else if r.lo > center {
                right_items.push((r, slot));
            } else {
                here.push((r, slot));
            }
        }
        // Degenerate guard: if partitioning made no progress (all items at
        // one center), keep them all here to terminate recursion.
        if here.is_empty() && (left_items.is_empty() || right_items.is_empty()) {
            here = std::mem::take(&mut left_items);
            here.extend(std::mem::take(&mut right_items));
        }
        let mut by_lo: Vec<(f64, usize)> = here.iter().map(|(r, s)| (r.lo, *s)).collect();
        by_lo.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut by_hi: Vec<(f64, usize)> = here.iter().map(|(r, s)| (r.hi, *s)).collect();
        by_hi.sort_by(|a, b| b.0.total_cmp(&a.0));

        Some(Box::new(Node {
            center,
            by_lo,
            by_hi,
            left: Self::build(&mut left_items),
            right: Self::build(&mut right_items),
        }))
    }

    /// Walks the tree pushing slots of intervals containing `v`.
    fn stab(node: &Node, v: f64, hits: &mut Vec<usize>, examined: &mut usize) {
        if v < node.center {
            // Intervals at this node all have hi > center > v, so an
            // interval contains v iff lo <= v.
            for &(lo, slot) in &node.by_lo {
                if lo > v {
                    break;
                }
                *examined += 1;
                hits.push(slot);
            }
            if let Some(l) = &node.left {
                Self::stab(l, v, hits, examined);
            }
        } else {
            // v >= center: intervals here have lo <= center <= v, so an
            // interval contains v iff hi > v (half-open).
            for &(hi, slot) in &node.by_hi {
                if hi <= v {
                    break;
                }
                *examined += 1;
                hits.push(slot);
            }
            if let Some(r) = &node.right {
                Self::stab(r, v, hits, examined);
            }
        }
    }
}

impl MatchIndex for IntervalTreeIndex {
    fn dim(&self) -> DimIdx {
        self.dim
    }

    fn insert(&mut self, sub: Subscription) {
        self.slab.insert(&sub);
        self.dirty = true;
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let (_, sub) = self.slab.remove(id)?;
        self.dirty = true;
        Some(sub)
    }

    fn matching(&mut self, msg: &Message, out: &mut Vec<MatchHit>) -> usize {
        if self.dirty {
            self.rebuild();
        }
        let Some(root) = &self.root else { return 0 };
        let v = msg.value(self.dim);
        let mut slots = Vec::new();
        let mut examined = 0;
        Self::stab(root, v, &mut slots, &mut examined);
        let rows = self.slab.rows();
        for slot in slots {
            // Verify the full conjunction: the degenerate-partition guard in
            // `build` can park intervals at a node whose center they do not
            // span, so the stab alone does not prove copy-dimension
            // containment.
            if rows.matches(slot, &msg.values) {
                out.push(rows.hit(slot));
            }
        }
        examined
    }

    fn logical_len(&self) -> usize {
        self.slab.len()
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        fn node_bytes(n: &Node) -> usize {
            size_of::<Node>()
                + (n.by_lo.capacity() + n.by_hi.capacity()) * size_of::<(f64, usize)>()
                + n.left.as_deref().map_or(0, node_bytes)
                + n.right.as_deref().map_or(0, node_bytes)
        }
        size_of::<Self>() + self.slab.memory_bytes() + self.root.as_deref().map_or(0, node_bytes)
    }

    fn extract_overlapping(&mut self, range: &Range) -> Vec<Subscription> {
        self.slab
            .overlapping(self.dim, range)
            .into_iter()
            .filter_map(|id| self.remove(id))
            .collect()
    }

    fn snapshot(&self) -> Vec<Subscription> {
        self.slab.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::{check_index_contract, sub};
    use crate::space::AttributeSpace;

    fn space() -> AttributeSpace {
        AttributeSpace::uniform(2, 0.0, 1000.0)
    }

    #[test]
    fn satisfies_index_contract() {
        check_index_contract(Box::new(IntervalTreeIndex::new(DimIdx(0))), &space());
        check_index_contract(Box::new(IntervalTreeIndex::new(DimIdx(1))), &space());
    }

    #[test]
    fn stabbing_respects_half_open_bounds() {
        let sp = space();
        let mut idx = IntervalTreeIndex::new(DimIdx(0));
        idx.insert(sub(&sp, 1, &[(0, 100.0, 200.0)]));
        let mut out = Vec::new();
        idx.matching(&Message::new(vec![100.0, 0.0]), &mut out);
        assert_eq!(out.len(), 1, "lo is inclusive");
        out.clear();
        idx.matching(&Message::new(vec![200.0, 0.0]), &mut out);
        assert!(out.is_empty(), "hi is exclusive");
    }

    #[test]
    fn identical_intervals_all_found() {
        let sp = space();
        let mut idx = IntervalTreeIndex::new(DimIdx(0));
        for i in 0..20 {
            idx.insert(sub(&sp, i, &[(0, 400.0, 600.0)]));
        }
        let mut out = Vec::new();
        idx.matching(&Message::new(vec![500.0, 0.0]), &mut out);
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn nested_and_disjoint_intervals() {
        let sp = space();
        let mut idx = IntervalTreeIndex::new(DimIdx(0));
        idx.insert(sub(&sp, 1, &[(0, 0.0, 1000.0)]));
        idx.insert(sub(&sp, 2, &[(0, 400.0, 600.0)]));
        idx.insert(sub(&sp, 3, &[(0, 450.0, 550.0)]));
        idx.insert(sub(&sp, 4, &[(0, 0.0, 100.0)]));
        let mut out = Vec::new();
        idx.matching(&Message::new(vec![500.0, 0.0]), &mut out);
        let mut ids: Vec<u64> = out.iter().map(|h| h.0 .0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn rebuild_amortizes_after_bulk_load() {
        let sp = space();
        let mut idx = IntervalTreeIndex::new(DimIdx(0));
        for i in 0..500 {
            let lo = (i as f64 * 7.0) % 900.0;
            idx.insert(sub(&sp, i, &[(0, lo, lo + 50.0)]));
        }
        let mut out = Vec::new();
        // First query rebuilds; examined should be far below 500 for a
        // narrow stab.
        let examined = idx.matching(&Message::new(vec![10.0, 0.0]), &mut out);
        assert!(examined < 500, "tree should prune, examined={examined}");
        // Mutation re-dirties.
        idx.remove(SubscriptionId(0));
        let mut out2 = Vec::new();
        idx.matching(&Message::new(vec![10.0, 0.0]), &mut out2);
        assert!(out2.iter().all(|h| h.0 != SubscriptionId(0)));
    }

    #[test]
    fn empty_tree_matches_nothing() {
        let mut idx = IntervalTreeIndex::new(DimIdx(0));
        let mut out = Vec::new();
        assert_eq!(idx.matching(&Message::new(vec![1.0, 2.0]), &mut out), 0);
        assert!(out.is_empty());
    }
}
