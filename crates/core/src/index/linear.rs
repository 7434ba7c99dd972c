//! Linear scan: the un-indexed baseline.
//!
//! Matching examines every stored subscription, which is exactly the cost
//! model the paper's evaluation reasons about ("each matcher needs to
//! search through all subscriptions" for full replication, and through
//! `|Si(Mj)|` for BlueDove). The simulator therefore uses this structure's
//! examined-count as the canonical matching-cost unit.

use super::{MatchHit, MatchIndex, Slab};
use crate::ids::{DimIdx, SubscriptionId};
use crate::message::Message;
use crate::subscription::{Range, Subscription};

/// Scan-everything index.
#[derive(Debug)]
pub struct LinearScanIndex {
    dim: DimIdx,
    slab: Slab,
}

impl LinearScanIndex {
    /// Creates an empty set for copy dimension `dim`.
    pub fn new(dim: DimIdx) -> Self {
        LinearScanIndex {
            dim,
            slab: Slab::default(),
        }
    }
}

impl MatchIndex for LinearScanIndex {
    fn dim(&self) -> DimIdx {
        self.dim
    }

    fn insert(&mut self, sub: Subscription) {
        self.slab.insert(&sub);
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        self.slab.remove(id).map(|(_, sub)| sub)
    }

    fn matching(&mut self, msg: &Message, out: &mut Vec<MatchHit>) -> usize {
        // Freed slots hold empty rows, so the scan runs over every slot
        // without a liveness test; only live subscriptions count as
        // examined.
        let rows = self.slab.rows();
        for slot in 0..rows.len() {
            if rows.matches(slot, &msg.values) {
                out.push(rows.hit(slot));
            }
        }
        self.slab.len()
    }

    fn logical_len(&self) -> usize {
        self.slab.len()
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.slab.memory_bytes()
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

    #[test]
    fn satisfies_index_contract() {
        let space = AttributeSpace::uniform(2, 0.0, 1000.0);
        check_index_contract(Box::new(LinearScanIndex::new(DimIdx(0))), &space);
    }

    #[test]
    fn examined_equals_stored_count() {
        let space = AttributeSpace::uniform(2, 0.0, 1000.0);
        let mut idx = LinearScanIndex::new(DimIdx(0));
        for i in 0..10 {
            idx.insert(sub(&space, i, &[(0, 0.0, 1.0)]));
        }
        let mut out = Vec::new();
        let examined = idx.matching(&Message::new(vec![500.0, 500.0]), &mut out);
        assert_eq!(examined, 10);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_insert_replaces() {
        let space = AttributeSpace::uniform(2, 0.0, 1000.0);
        let mut idx = LinearScanIndex::new(DimIdx(0));
        idx.insert(sub(&space, 5, &[(0, 0.0, 10.0)]));
        idx.insert(sub(&space, 5, &[(0, 100.0, 110.0)]));
        assert_eq!(idx.logical_len(), 1);
        let mut out = Vec::new();
        idx.matching(&Message::new(vec![105.0, 0.0]), &mut out);
        assert_eq!(out.len(), 1);
    }
}
