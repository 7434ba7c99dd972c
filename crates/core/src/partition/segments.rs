//! The segment table: per-dimension partitioning of the value domain.
//!
//! mPartition splits every searchable dimension `Li` into contiguous,
//! non-overlapping segments `{Vij}` that jointly cover the whole domain.
//! Each segment is owned by exactly one matcher; initially every matcher
//! owns one segment per dimension (§III-A). Elastic joins split the most
//! loaded matcher's segment in half; leaves hand segments to the ring
//! neighbour. The table is the "global view" that dispatchers replicate via
//! the gossip overlay, so every mutation bumps a version counter.

use crate::error::{CoreError, CoreResult};
use crate::ids::{DimIdx, MatcherId};
use crate::space::AttributeSpace;
use crate::subscription::Range;

/// One contiguous segment of a dimension's domain, owned by one matcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The half-open interval of the domain this segment covers.
    pub range: Range,
    /// The matcher responsible for subscriptions overlapping this segment.
    pub owner: MatcherId,
}

/// Per-dimension segment assignment for a whole deployment.
///
/// Invariants (checked by `debug_assert` and the property tests):
/// - every dimension's segments are sorted, contiguous and cover exactly
///   the dimension's `[min, max)` domain;
/// - adjacent segments never share an owner (they are coalesced);
/// - every matcher in [`matchers`](Self::matchers) owns at least one
///   segment on every dimension... except transiently after a removal on a
///   dimension where it owned the only segment (impossible: removal is
///   all-dimensions at once).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentTable {
    space: AttributeSpace,
    /// `dims[i]` = segments of dimension `i`, sorted by `range.lo`.
    dims: Vec<Vec<Segment>>,
    /// Monotone version, bumped on every mutation; lets gossip recipients
    /// keep the freshest table.
    version: u64,
}

impl SegmentTable {
    /// Builds the initial table: each dimension split into
    /// `matchers.len()` equal segments, segment `j` owned by `matchers[j]`
    /// (the paper's Figure 2 layout).
    ///
    /// # Panics
    /// Panics when `matchers` is empty.
    pub fn uniform(space: AttributeSpace, matchers: &[MatcherId]) -> Self {
        assert!(!matchers.is_empty(), "need at least one matcher");
        let n = matchers.len();
        let dims = space
            .dims()
            .iter()
            .map(|d| {
                let step = d.len() / n as f64;
                (0..n)
                    .map(|j| {
                        let lo = d.min + step * j as f64;
                        // Last segment closes exactly at the domain max so
                        // rounding never leaves a gap.
                        let hi = if j + 1 == n {
                            d.max
                        } else {
                            d.min + step * (j + 1) as f64
                        };
                        Segment {
                            range: Range::new(lo, hi),
                            owner: matchers[j],
                        }
                    })
                    .collect()
            })
            .collect();
        let table = SegmentTable {
            space,
            dims,
            version: 1,
        };
        table.debug_check();
        table
    }

    /// Reassembles a table from its parts (wire decoding, snapshots).
    /// Validates the coverage invariants; `version` is taken verbatim.
    pub fn from_parts(
        space: AttributeSpace,
        dims: Vec<Vec<Segment>>,
        version: u64,
    ) -> CoreResult<Self> {
        if dims.len() != space.k() {
            return Err(CoreError::DimensionMismatch {
                expected: space.k(),
                got: dims.len(),
            });
        }
        for (i, segs) in dims.iter().enumerate() {
            let d = &space.dims()[i];
            let dim = DimIdx(i as u16);
            if segs.is_empty()
                || segs[0].range.lo != d.min
                || segs.last().unwrap().range.hi != d.max
            {
                return Err(CoreError::WouldUncover { dim });
            }
            for w in segs.windows(2) {
                if w[0].range.hi != w[1].range.lo {
                    return Err(CoreError::WouldUncover { dim });
                }
            }
            for s in segs {
                if s.range.lo >= s.range.hi {
                    return Err(CoreError::EmptyRange {
                        dim,
                        lo: s.range.lo,
                        hi: s.range.hi,
                    });
                }
            }
        }
        Ok(SegmentTable {
            space,
            dims,
            version,
        })
    }

    /// The attribute space this table partitions.
    #[inline]
    pub fn space(&self) -> &AttributeSpace {
        &self.space
    }

    /// Number of dimensions.
    #[inline]
    pub fn k(&self) -> usize {
        self.dims.len()
    }

    /// The current table version (monotone across mutations).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Segments of dimension `dim`, sorted by lower bound.
    #[inline]
    pub fn segments(&self, dim: DimIdx) -> &[Segment] {
        &self.dims[dim.index()]
    }

    /// All distinct matchers present in the table, ascending.
    pub fn matchers(&self) -> Vec<MatcherId> {
        let mut ids: Vec<MatcherId> = self
            .dims
            .iter()
            .flat_map(|segs| segs.iter().map(|s| s.owner))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Number of distinct matchers.
    pub fn matcher_count(&self) -> usize {
        self.matchers().len()
    }

    /// The matcher owning the segment that contains `value` on `dim`.
    ///
    /// `value` outside the domain is clamped — dispatchers never reject a
    /// message because of floating-point edge rounding.
    pub fn owner_of(&self, dim: DimIdx, value: f64) -> MatcherId {
        let segs = &self.dims[dim.index()];
        let v = self.space.dim(dim).clamp(value);
        // Binary search for the last segment with lo <= v.
        let idx = match segs.binary_search_by(|s| s.range.lo.partial_cmp(&v).unwrap()) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        debug_assert!(segs[idx].range.contains(v), "segment table coverage hole");
        segs[idx].owner
    }

    /// All matchers whose segment on `dim` overlaps `range` — the
    /// assignment set `Mi(S) = {Mj | Vij ∩ Si ≠ ∅}` from §III-A.
    pub fn overlapping(&self, dim: DimIdx, range: &Range) -> Vec<MatcherId> {
        self.dims[dim.index()]
            .iter()
            .filter(|s| s.range.overlaps(range))
            .map(|s| s.owner)
            .collect()
    }

    /// The segments owned by `matcher`, as `(dim, range)` pairs.
    pub fn segments_of(&self, matcher: MatcherId) -> Vec<(DimIdx, Range)> {
        let mut out = Vec::new();
        for (i, segs) in self.dims.iter().enumerate() {
            for s in segs {
                if s.owner == matcher {
                    out.push((DimIdx(i as u16), s.range));
                }
            }
        }
        out
    }

    /// The clockwise neighbour of `matcher` on `dim`: the owner of the
    /// segment following `matcher`'s first segment, wrapping around the
    /// ring. Used for the degenerate-replication rule of §III-A(1).
    pub fn clockwise_neighbor(&self, dim: DimIdx, matcher: MatcherId) -> CoreResult<MatcherId> {
        let segs = &self.dims[dim.index()];
        let pos = segs
            .iter()
            .position(|s| s.owner == matcher)
            .ok_or(CoreError::UnknownMatcher(matcher.0))?;
        Ok(segs[(pos + 1) % segs.len()].owner)
    }

    /// Admits a new matcher by splitting, on every dimension, the segment
    /// of the matcher reported most loaded by `load` (ties break to the
    /// lowest id); `load` gives `None` for a matcher that may not donate.
    /// The new matcher takes the upper half. Returns the `(dim, donor,
    /// transferred_range)` triples so the caller can move the affected
    /// subscriptions (§III-C / §IV-E), or, with the table unchanged, the
    /// first dimension no owner of which may donate.
    pub fn split_join(
        &mut self,
        new: MatcherId,
        mut load: impl FnMut(MatcherId, DimIdx) -> Option<f64>,
    ) -> Result<Vec<(DimIdx, MatcherId, Range)>, DimIdx> {
        // Pick the most loaded eligible owner on every dimension first.
        let mut donors = Vec::with_capacity(self.k());
        for di in 0..self.dims.len() {
            let dim = DimIdx(di as u16);
            let mut owners: Vec<MatcherId> = self.dims[di].iter().map(|s| s.owner).collect();
            owners.sort_unstable();
            owners.dedup();
            let donor = owners
                .into_iter()
                .filter_map(|m| Some((m, load(m, dim)?)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
                .ok_or(dim)?
                .0;
            donors.push(donor);
        }
        let mut moves = Vec::with_capacity(self.k());
        for (di, donor) in donors.into_iter().enumerate() {
            let dim = DimIdx(di as u16);
            // Split the donor's widest segment on this dimension in half.
            let segs = &mut self.dims[di];
            let (pos, _) = segs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.owner == donor)
                .max_by(|a, b| a.1.range.width().partial_cmp(&b.1.range.width()).unwrap())
                .expect("donor owns a segment");
            let old = segs[pos];
            let mid = old.range.lo + old.range.width() / 2.0;
            segs[pos] = Segment {
                range: Range::new(old.range.lo, mid),
                owner: donor,
            };
            let upper = Segment {
                range: Range::new(mid, old.range.hi),
                owner: new,
            };
            segs.insert(pos + 1, upper);
            moves.push((dim, donor, upper.range));
        }
        self.version += 1;
        self.debug_check();
        Ok(moves)
    }

    /// Removes a matcher, handing each of its segments to the adjacent
    /// segment's owner (predecessor when one exists, successor otherwise) —
    /// the reverse of joining. Returns `(dim, heir, absorbed_range)`
    /// triples so the caller can transfer subscriptions.
    ///
    /// Fails with [`CoreError::LastMatcher`] when `matcher` is the only
    /// matcher left, and [`CoreError::UnknownMatcher`] when it owns nothing.
    pub fn remove_matcher(
        &mut self,
        matcher: MatcherId,
    ) -> CoreResult<Vec<(DimIdx, MatcherId, Range)>> {
        let all = self.matchers();
        if !all.contains(&matcher) {
            return Err(CoreError::UnknownMatcher(matcher.0));
        }
        if all.len() == 1 {
            return Err(CoreError::LastMatcher);
        }
        let mut moves = Vec::new();
        for di in 0..self.dims.len() {
            let dim = DimIdx(di as u16);
            loop {
                let segs = &mut self.dims[di];
                let Some(pos) = segs.iter().position(|s| s.owner == matcher) else {
                    break;
                };
                let absorbed = segs[pos].range;
                let heir = if pos > 0 {
                    segs[pos - 1].owner
                } else {
                    segs[pos + 1].owner
                };
                if pos > 0 {
                    segs[pos - 1].range.hi = absorbed.hi;
                    segs.remove(pos);
                } else {
                    segs[pos + 1].range.lo = absorbed.lo;
                    segs.remove(pos);
                }
                moves.push((dim, heir, absorbed));
            }
            // Coalesce any adjacent same-owner segments the merge created.
            Self::coalesce(&mut self.dims[di]);
        }
        self.version += 1;
        self.debug_check();
        Ok(moves)
    }

    fn coalesce(segs: &mut Vec<Segment>) {
        let mut i = 0;
        while i + 1 < segs.len() {
            if segs[i].owner == segs[i + 1].owner {
                segs[i].range.hi = segs[i + 1].range.hi;
                segs.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    /// Verifies the coverage invariants in debug builds.
    fn debug_check(&self) {
        if cfg!(debug_assertions) {
            for (i, segs) in self.dims.iter().enumerate() {
                let d = &self.space.dims()[i];
                assert!(!segs.is_empty());
                assert_eq!(segs[0].range.lo, d.min, "dimension {i} lower gap");
                assert_eq!(
                    segs.last().unwrap().range.hi,
                    d.max,
                    "dimension {i} upper gap"
                );
                for w in segs.windows(2) {
                    assert_eq!(w[0].range.hi, w[1].range.lo, "dimension {i} hole");
                    assert!(w[0].range.lo < w[0].range.hi, "dimension {i} empty segment");
                }
            }
        }
    }

    /// Total serialized size of the table in bytes, for overhead
    /// accounting: per segment 8+8 bounds + 4 owner, per dimension a count.
    pub fn wire_size(&self) -> usize {
        8 + self
            .dims
            .iter()
            .map(|segs| 4 + segs.len() * 20)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: u32) -> SegmentTable {
        let ids: Vec<MatcherId> = (0..n).map(MatcherId).collect();
        SegmentTable::uniform(AttributeSpace::uniform(3, 0.0, 1000.0), &ids)
    }

    #[test]
    fn uniform_split_covers_domain() {
        let t = table(6);
        for di in 0..3 {
            let segs = t.segments(DimIdx(di));
            assert_eq!(segs.len(), 6);
            assert_eq!(segs[0].range.lo, 0.0);
            assert_eq!(segs[5].range.hi, 1000.0);
        }
        assert_eq!(t.matcher_count(), 6);
    }

    #[test]
    fn owner_lookup_uses_binary_search_correctly() {
        let t = table(4); // segments of width 250
        assert_eq!(t.owner_of(DimIdx(0), 0.0), MatcherId(0));
        assert_eq!(t.owner_of(DimIdx(0), 249.9), MatcherId(0));
        assert_eq!(t.owner_of(DimIdx(0), 250.0), MatcherId(1));
        assert_eq!(t.owner_of(DimIdx(0), 999.9), MatcherId(3));
        // Out-of-domain values are clamped, not panicked on.
        assert_eq!(t.owner_of(DimIdx(0), 1000.0), MatcherId(3));
        assert_eq!(t.owner_of(DimIdx(0), -5.0), MatcherId(0));
    }

    #[test]
    fn overlapping_returns_all_touched_segments() {
        let t = table(4);
        // [200, 600) touches segments [0,250),[250,500),[500,750).
        let r = Range::new(200.0, 600.0);
        assert_eq!(
            t.overlapping(DimIdx(1), &r),
            vec![MatcherId(0), MatcherId(1), MatcherId(2)]
        );
        // Touching boundary exactly: [250, 500) only overlaps M1.
        assert_eq!(
            t.overlapping(DimIdx(1), &Range::new(250.0, 500.0)),
            vec![MatcherId(1)]
        );
    }

    #[test]
    fn clockwise_neighbor_wraps() {
        let t = table(3);
        assert_eq!(
            t.clockwise_neighbor(DimIdx(0), MatcherId(0)).unwrap(),
            MatcherId(1)
        );
        assert_eq!(
            t.clockwise_neighbor(DimIdx(0), MatcherId(2)).unwrap(),
            MatcherId(0)
        );
        assert!(t.clockwise_neighbor(DimIdx(0), MatcherId(9)).is_err());
    }

    #[test]
    fn split_join_gives_new_matcher_half_of_most_loaded() {
        let mut t = table(2); // two matchers, segments of width 500
        let v0 = t.version();
        // M1 is the most loaded everywhere.
        let moves = t
            .split_join(MatcherId(2), |m, _| {
                Some(if m == MatcherId(1) { 10.0 } else { 1.0 })
            })
            .unwrap();
        assert_eq!(moves.len(), 3);
        for (dim, donor, range) in &moves {
            assert_eq!(*donor, MatcherId(1));
            assert_eq!(range.width(), 250.0);
            assert_eq!(t.owner_of(*dim, range.lo + 1.0), MatcherId(2));
        }
        assert_eq!(t.matcher_count(), 3);
        assert!(t.version() > v0);
    }

    #[test]
    fn split_join_takes_only_eligible_donors() {
        let mut t = table(2);
        // M0 may not donate: M1 does although it is less loaded.
        let moves = t
            .split_join(MatcherId(2), |m, _| (m != MatcherId(0)).then_some(1.0))
            .unwrap();
        assert!(moves.iter().all(|&(_, donor, _)| donor == MatcherId(1)));
        // No eligible owner: refused, table untouched.
        let before = t.clone();
        assert_eq!(t.split_join(MatcherId(3), |_, _| None), Err(DimIdx(0)));
        assert_eq!(t, before);
    }

    #[test]
    fn remove_matcher_hands_to_neighbor_and_coalesces() {
        let mut t = table(3);
        let moves = t.remove_matcher(MatcherId(1)).unwrap();
        assert_eq!(moves.len(), 3);
        for (dim, heir, _) in &moves {
            assert_eq!(*heir, MatcherId(0)); // predecessor absorbs
            let _ = dim;
        }
        assert_eq!(t.matcher_count(), 2);
        // Coverage still exact.
        assert_eq!(t.owner_of(DimIdx(0), 400.0), MatcherId(0));
    }

    #[test]
    fn remove_first_matcher_hands_to_successor() {
        let mut t = table(3);
        let moves = t.remove_matcher(MatcherId(0)).unwrap();
        for (_, heir, _) in &moves {
            assert_eq!(*heir, MatcherId(1));
        }
        assert_eq!(t.owner_of(DimIdx(0), 0.0), MatcherId(1));
    }

    #[test]
    fn cannot_remove_last_matcher() {
        let mut t = table(1);
        assert_eq!(t.remove_matcher(MatcherId(0)), Err(CoreError::LastMatcher));
        assert_eq!(
            t.remove_matcher(MatcherId(5)),
            Err(CoreError::UnknownMatcher(5))
        );
    }

    #[test]
    fn join_then_leave_round_trips_coverage() {
        let mut t = table(4);
        t.split_join(MatcherId(4), |_, _| Some(1.0)).unwrap();
        t.split_join(MatcherId(5), |_, _| Some(1.0)).unwrap();
        t.remove_matcher(MatcherId(4)).unwrap();
        t.remove_matcher(MatcherId(5)).unwrap();
        assert_eq!(t.matcher_count(), 4);
        // Every value still has exactly one owner per dimension.
        for v in [0.0, 123.4, 499.9, 500.0, 999.9] {
            let _ = t.owner_of(DimIdx(0), v);
        }
    }

    #[test]
    fn wire_size_scales_with_segments() {
        let small = table(2).wire_size();
        let big = table(20).wire_size();
        assert!(big > small);
    }
}
