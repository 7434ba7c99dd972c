//! A closed enum over the three partition strategies the evaluation
//! compares, so deployments (simulated or threaded) can switch systems by
//! value and still reach strategy-specific operations (mPartition's
//! elastic table mutations, the degenerate-case fallbacks).

use crate::{FullReplication, P2pPartitioning};
use bluedove_core::{
    AttributeSpace, DimIdx, MPartition, MatcherId, PartitionStrategy, SegmentTable,
};

/// BlueDove, P2P or full replication.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyStrategy {
    /// BlueDove's mPartition (§III-A).
    BlueDove(MPartition),
    /// Single-dimension P2P partitioning (§IV-B comparator).
    P2p(P2pPartitioning),
    /// Full replication (§IV-B comparator).
    FullRep(FullReplication),
}

impl AnyStrategy {
    /// The strategy as the shared trait object.
    pub fn as_dyn(&self) -> &dyn PartitionStrategy {
        match self {
            AnyStrategy::BlueDove(s) => s,
            AnyStrategy::P2p(s) => s,
            AnyStrategy::FullRep(s) => s,
        }
    }

    /// The attribute space the strategy partitions, or `None` for full
    /// replication, which places copies without looking at predicates.
    pub fn space(&self) -> Option<&AttributeSpace> {
        match self {
            AnyStrategy::BlueDove(s) => Some(s.table().space()),
            AnyStrategy::P2p(s) => Some(s.table().space()),
            AnyStrategy::FullRep(_) => None,
        }
    }

    /// BlueDove with uniform segments over matchers `0..n`.
    pub fn bluedove(space: AttributeSpace, n: u32) -> Self {
        let ids: Vec<MatcherId> = (0..n).map(MatcherId).collect();
        AnyStrategy::BlueDove(MPartition::new(SegmentTable::uniform(space, &ids)))
    }

    /// P2P over dimension 0 with uniform segments over matchers `0..n`.
    pub fn p2p(space: AttributeSpace, n: u32) -> Self {
        let ids: Vec<MatcherId> = (0..n).map(MatcherId).collect();
        AnyStrategy::P2p(P2pPartitioning::new(
            SegmentTable::uniform(space, &ids),
            DimIdx(0),
        ))
    }

    /// Full replication over matchers `0..n`.
    pub fn full_rep(n: u32) -> Self {
        AnyStrategy::FullRep(FullReplication::new((0..n).map(MatcherId).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_dispatch() {
        let space = AttributeSpace::uniform(2, 0.0, 100.0);
        assert_eq!(
            AnyStrategy::bluedove(space.clone(), 3).as_dyn().name(),
            "bluedove"
        );
        assert_eq!(AnyStrategy::p2p(space.clone(), 3).as_dyn().name(), "p2p");
        assert_eq!(AnyStrategy::full_rep(3).as_dyn().name(), "full-rep");
        assert_eq!(AnyStrategy::full_rep(3).as_dyn().matchers().len(), 3);
        assert_eq!(
            AnyStrategy::bluedove(space.clone(), 3).space(),
            Some(&space)
        );
        assert!(AnyStrategy::full_rep(3).space().is_none());
    }
}
