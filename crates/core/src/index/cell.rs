//! Cell (grid-bucket) index over the copy dimension.
//!
//! The copy dimension's domain is divided into `cells` uniform buckets.
//! Every subscription is registered in each bucket its copy-dimension
//! predicate overlaps; a point query touches exactly one bucket and then
//! verifies the full conjunction. This trades insert-time fan-out and
//! memory for O(bucket population) queries, and is the sweet spot for the
//! paper's workload, where predicate widths (250) are comparable to the
//! domain (1000).

use super::{MatchHit, MatchIndex, Slab};
use crate::ids::{DimIdx, SubscriptionId};
use crate::message::Message;
use crate::space::AttributeSpace;
use crate::subscription::{Range, Subscription};

/// Uniform-bucket index on the copy dimension.
#[derive(Debug)]
pub struct CellIndex {
    dim: DimIdx,
    slab: Slab,
    /// Domain bounds of the copy dimension.
    min: f64,
    max: f64,
    /// `cells[c]` = slots of subscriptions overlapping bucket `c`.
    cells: Vec<Vec<usize>>,
}

impl CellIndex {
    /// Creates an index with `cells` uniform buckets over `dim`'s domain.
    ///
    /// # Panics
    /// Panics when `cells == 0`.
    pub fn new(space: &AttributeSpace, dim: DimIdx, cells: usize) -> Self {
        assert!(cells > 0, "need at least one cell");
        let d = space.dim(dim);
        CellIndex {
            dim,
            slab: Slab::with_k(space.k()),
            min: d.min,
            max: d.max,
            cells: vec![Vec::new(); cells],
        }
    }

    #[inline]
    fn cell_of(&self, v: f64) -> usize {
        let n = self.cells.len();
        let frac = (v - self.min) / (self.max - self.min);
        ((frac * n as f64) as usize).min(n - 1)
    }

    /// Inclusive cell range overlapped by `[lo, hi)`.
    fn cell_span(&self, r: &Range) -> (usize, usize) {
        let first = self.cell_of(r.lo.max(self.min));
        // hi is exclusive: the point just below hi decides the last cell.
        let last = self.cell_of((r.hi.min(self.max)) - f64::EPSILON * self.max.abs().max(1.0));
        (first, last.max(first))
    }

    /// Drops `slot` from every cell `r` spans. Each cell lists a slot at
    /// most once, so the first occurrence is the only one, and removing
    /// it in place keeps the cell's order (and so the hit order).
    fn unlink(&mut self, slot: usize, r: &Range) {
        let (first, last) = self.cell_span(r);
        for cell in &mut self.cells[first..=last] {
            if let Some(pos) = cell.iter().position(|&s| s == slot) {
                cell.remove(pos);
            }
        }
    }
}

impl MatchIndex for CellIndex {
    fn dim(&self) -> DimIdx {
        self.dim
    }

    fn insert(&mut self, sub: Subscription) {
        // Re-registration keeps the slot: unlink it from the cells of its
        // previous range before linking the new one.
        let (slot, prev) = self.slab.insert(&sub, self.dim);
        if let Some(prev) = prev {
            self.unlink(slot, &prev);
        }
        let (first, last) = self.cell_span(&self.slab.rows().range(slot, self.dim));
        for cell in &mut self.cells[first..=last] {
            cell.push(slot);
        }
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let (slot, sub) = self.slab.remove(id)?;
        self.unlink(slot, &sub.predicate(self.dim));
        Some(sub)
    }

    fn matching(&mut self, msg: &Message, out: &mut Vec<MatchHit>) -> usize {
        let v = msg.value(self.dim);
        if v < self.min || v >= self.max {
            return 0;
        }
        // A cell lists live slots only, so its population is the examined
        // count. Cell overlap does not imply point containment on the copy
        // dimension, so the full row is verified; the hit is loaded only
        // on a match.
        let cell = &self.cells[self.cell_of(v)];
        let rows = self.slab.rows();
        for &slot in cell {
            if rows.matches(slot, &msg.values) {
                out.push(rows.hit(slot));
            }
        }
        cell.len()
    }

    fn logical_len(&self) -> usize {
        self.slab.len()
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let buckets = self.cells.capacity() * size_of::<Vec<usize>>();
        let links: usize = self
            .cells
            .iter()
            .map(|c| c.capacity() * size_of::<usize>())
            .sum();
        size_of::<Self>() + self.slab.memory_bytes() + buckets + links
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

    fn space() -> AttributeSpace {
        AttributeSpace::uniform(2, 0.0, 1000.0)
    }

    #[test]
    fn satisfies_index_contract_various_cell_counts() {
        for cells in [1, 3, 16, 100, 1000] {
            check_index_contract(
                Box::new(CellIndex::new(&space(), DimIdx(0), cells)),
                &space(),
            );
        }
    }

    #[test]
    fn satisfies_contract_on_second_dimension() {
        check_index_contract(Box::new(CellIndex::new(&space(), DimIdx(1), 32)), &space());
    }

    #[test]
    fn point_query_examines_only_one_cell() {
        let sp = space();
        let mut idx = CellIndex::new(&sp, DimIdx(0), 10); // cells of width 100
                                                          // 50 subs in [0,100), 1 sub in [900,1000).
        for i in 0..50 {
            idx.insert(sub(&sp, i, &[(0, 10.0, 60.0)]));
        }
        idx.insert(sub(&sp, 99, &[(0, 910.0, 960.0)]));
        let mut out = Vec::new();
        let examined = idx.matching(&Message::new(vec![930.0, 0.0]), &mut out);
        assert_eq!(examined, 1, "should only scan the populated right cell");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn predicate_spanning_cells_registered_in_all() {
        let sp = space();
        let mut idx = CellIndex::new(&sp, DimIdx(0), 4); // width 250
        idx.insert(sub(&sp, 1, &[(0, 200.0, 600.0)])); // cells 0,1,2
        let mut out = Vec::new();
        for v in [210.0, 300.0, 550.0] {
            out.clear();
            idx.matching(&Message::new(vec![v, 0.0]), &mut out);
            assert_eq!(out.len(), 1, "value {v} should match");
        }
        out.clear();
        idx.matching(&Message::new(vec![700.0, 0.0]), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn boundary_value_at_domain_edges() {
        let sp = space();
        let mut idx = CellIndex::new(&sp, DimIdx(0), 8);
        idx.insert(sub(&sp, 1, &[(0, 0.0, 1000.0)]));
        let mut out = Vec::new();
        idx.matching(&Message::new(vec![0.0, 0.0]), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        idx.matching(&Message::new(vec![999.999, 0.0]), &mut out);
        assert_eq!(out.len(), 1);
        // Out-of-domain point matches nothing and doesn't panic.
        out.clear();
        assert_eq!(idx.matching(&Message::new(vec![1000.0, 0.0]), &mut out), 0);
    }

    #[test]
    fn remove_unlinks_from_every_cell() {
        let sp = space();
        let mut idx = CellIndex::new(&sp, DimIdx(0), 4);
        idx.insert(sub(&sp, 1, &[(0, 0.0, 1000.0)]));
        idx.remove(SubscriptionId(1)).unwrap();
        let mut out = Vec::new();
        for v in [10.0, 400.0, 990.0] {
            assert_eq!(idx.matching(&Message::new(vec![v, 0.0]), &mut out), 0);
        }
        assert_eq!(idx.logical_len(), 0);
    }
}
