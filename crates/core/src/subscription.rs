//! Subscriptions: hyper-cuboids of half-open range predicates (§II-A).
//!
//! A subscription is the logical conjunction of `k` range predicates, one
//! per dimension: `(l1 ≤ v1 < u1) ∧ … ∧ (lk ≤ vk < uk)`. Equivalently it is
//! the hyper-cuboid `S = [l1,u1) × … × [lk,uk)`, and a message `m` matches
//! `S` iff `m ∈ S`. A predicate left unspecified defaults to the full
//! domain of its dimension ("don't care").

use crate::error::{CoreError, CoreResult};
use crate::ids::{DimIdx, SubscriberId, SubscriptionId};
use crate::message::Message;
use crate::space::AttributeSpace;

/// A half-open interval `[lo, hi)` on one dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Range {
    /// Creates `[lo, hi)`. Callers must guarantee `lo < hi`; the
    /// subscription builder enforces this with a [`CoreError::EmptyRange`].
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Self {
        Range { lo, hi }
    }

    /// Whether the point `v` satisfies `lo ≤ v < hi`.
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v < self.hi
    }

    /// Whether two half-open intervals overlap.
    #[inline]
    pub fn overlaps(&self, other: &Range) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// Width `hi - lo` of the interval.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// A registered subscription.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Unique id; `SubscriptionId(0)` until stamped by a dispatcher.
    pub id: SubscriptionId,
    /// The subscriber endpoint that deliveries are routed to.
    pub subscriber: SubscriberId,
    /// One predicate per dimension of the space (conjunction).
    pub predicates: Vec<Range>,
}

impl Subscription {
    /// Starts building a subscription over `space`. Unspecified dimensions
    /// default to the dimension's full domain.
    pub fn builder(space: &AttributeSpace) -> SubscriptionBuilder<'_> {
        SubscriptionBuilder {
            space,
            subscriber: SubscriberId(0),
            predicates: space
                .dims()
                .iter()
                .map(|d| Range::new(d.min, d.max))
                .collect(),
            error: None,
        }
    }

    /// Returns the predicate on dimension `dim`.
    ///
    /// # Panics
    /// Panics when `dim` is out of bounds.
    #[inline]
    pub fn predicate(&self, dim: DimIdx) -> Range {
        self.predicates[dim.index()]
    }

    /// Number of predicates (= dimensions of the space it was built for).
    #[inline]
    pub fn k(&self) -> usize {
        self.predicates.len()
    }

    /// Whether the message satisfies **all** predicates (the definition of
    /// matching, `m ∈ S`).
    ///
    /// The indexes do not call this: they verify against their flat rows
    /// with a branch-free check (`index` module docs). This is the
    /// reference the property tests hold every index to.
    #[inline]
    pub fn matches(&self, msg: &Message) -> bool {
        debug_assert_eq!(self.predicates.len(), msg.values.len());
        self.predicates
            .iter()
            .zip(&msg.values)
            .all(|(p, &v)| p.contains(v))
    }

    /// Validates the subscription against a space: one predicate per
    /// dimension, no NaN bound, and `min ≤ lo < hi ≤ max` on every
    /// dimension. The builder guarantees all of this; copies that arrive
    /// off the wire are checked again before they reach an index.
    pub fn validate(&self, space: &AttributeSpace) -> CoreResult<()> {
        if self.predicates.len() != space.k() {
            return Err(CoreError::DimensionMismatch {
                expected: space.k(),
                got: self.predicates.len(),
            });
        }
        for (i, (p, d)) in self.predicates.iter().zip(space.dims()).enumerate() {
            let dim = DimIdx(i as u16);
            if p.lo.is_nan() || p.hi.is_nan() {
                return Err(CoreError::NotANumber { dim });
            }
            if p.lo >= p.hi {
                return Err(CoreError::EmptyRange {
                    dim,
                    lo: p.lo,
                    hi: p.hi,
                });
            }
            if p.lo < d.min || p.hi > d.max {
                let value = if p.lo < d.min { p.lo } else { p.hi };
                return Err(CoreError::OutOfDomain { dim, value });
            }
        }
        Ok(())
    }

    /// Approximate wire size in bytes: id + subscriber + 16 per predicate.
    pub fn wire_size(&self) -> usize {
        16 + 16 * self.predicates.len()
    }
}

/// Builder validating predicates against an [`AttributeSpace`].
#[derive(Debug)]
pub struct SubscriptionBuilder<'a> {
    space: &'a AttributeSpace,
    subscriber: SubscriberId,
    predicates: Vec<Range>,
    error: Option<CoreError>,
}

impl<'a> SubscriptionBuilder<'a> {
    /// Sets the subscriber endpoint the subscription delivers to.
    pub fn subscriber(mut self, id: SubscriberId) -> Self {
        self.subscriber = id;
        self
    }

    /// Constrains dimension `dim` to `[lo, hi)`.
    ///
    /// Bounds are clipped to the dimension's domain; an empty or inverted
    /// range, NaN bound, or out-of-bounds dimension index turns into an
    /// error at [`build`](Self::build) time.
    pub fn range(mut self, dim: usize, lo: f64, hi: f64) -> Self {
        if self.error.is_some() {
            return self;
        }
        let di = DimIdx(dim as u16);
        if dim >= self.space.k() {
            self.error = Some(CoreError::DimensionMismatch {
                expected: self.space.k(),
                got: dim + 1,
            });
            return self;
        }
        if lo.is_nan() || hi.is_nan() {
            self.error = Some(CoreError::NotANumber { dim: di });
            return self;
        }
        let d = self.space.dim(di);
        let lo = lo.max(d.min);
        let hi = hi.min(d.max);
        if lo >= hi {
            self.error = Some(CoreError::EmptyRange { dim: di, lo, hi });
            return self;
        }
        self.predicates[dim] = Range::new(lo, hi);
        self
    }

    /// Finalizes the subscription, reporting the first validation error
    /// encountered while building.
    pub fn build(self) -> CoreResult<Subscription> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(Subscription {
            id: SubscriptionId(0),
            subscriber: self.subscriber,
            predicates: self.predicates,
        })
    }
}

/// One replayable mutation of a matcher's subscription store: the record
/// type of every matcher's journal (stream), on disk and on the wire, in
/// both hosts. Replaying a stream from its first retained offset rebuilds
/// the store exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum SubLogRecord {
    /// A subscription copy was installed on dimension `dim`.
    Store {
        /// Dimension the copy lives on.
        dim: DimIdx,
        /// The full subscription (identity + predicate).
        sub: Subscription,
    },
    /// A subscription was removed from dimension `dim`.
    Remove {
        /// Dimension the copy lived on.
        dim: DimIdx,
        /// Which subscription.
        sub: SubscriptionId,
    },
    /// Subscriptions overlapping `range` on `dim` were retired after a
    /// hand-over, except those still overlapping a retained range.
    Retire {
        /// Dimension being shrunk.
        dim: DimIdx,
        /// The donated range.
        range: Range,
        /// Ranges this matcher still serves on `dim`.
        keep: Vec<Range>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AttributeSpace {
        AttributeSpace::uniform(3, 0.0, 1000.0)
    }

    #[test]
    fn range_semantics_are_half_open() {
        let r = Range::new(10.0, 20.0);
        assert!(r.contains(10.0));
        assert!(r.contains(19.999));
        assert!(!r.contains(20.0));
        assert!(!r.contains(9.999));
        assert_eq!(r.width(), 10.0);
    }

    #[test]
    fn overlap_is_symmetric_and_exclusive_of_touching() {
        let a = Range::new(0.0, 10.0);
        let b = Range::new(5.0, 15.0);
        let c = Range::new(10.0, 20.0);
        assert!(a.overlaps(&b) && b.overlaps(&a));
        // [0,10) and [10,20) share no point.
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
    }

    #[test]
    fn builder_defaults_to_full_domain() {
        let s = Subscription::builder(&space()).build().unwrap();
        assert_eq!(s.k(), 3);
        for p in &s.predicates {
            assert_eq!((p.lo, p.hi), (0.0, 1000.0));
        }
        // A wildcard subscription matches everything in-domain.
        assert!(s.matches(&Message::new(vec![0.0, 999.9, 500.0])));
    }

    #[test]
    fn builder_clips_to_domain() {
        let s = Subscription::builder(&space())
            .range(0, -50.0, 2000.0)
            .build()
            .unwrap();
        assert_eq!(
            (s.predicate(DimIdx(0)).lo, s.predicate(DimIdx(0)).hi),
            (0.0, 1000.0)
        );
    }

    #[test]
    fn builder_rejects_empty_range() {
        let err = Subscription::builder(&space()).range(1, 7.0, 7.0).build();
        assert!(matches!(err, Err(CoreError::EmptyRange { .. })));
    }

    #[test]
    fn builder_rejects_bad_dimension() {
        let err = Subscription::builder(&space()).range(9, 0.0, 1.0).build();
        assert!(matches!(err, Err(CoreError::DimensionMismatch { .. })));
    }

    #[test]
    fn builder_rejects_nan() {
        let err = Subscription::builder(&space())
            .range(0, f64::NAN, 1.0)
            .build();
        assert!(matches!(err, Err(CoreError::NotANumber { .. })));
    }

    #[test]
    fn validate_accepts_built_and_rejects_malformed() {
        let sp = space();
        let built = Subscription::builder(&sp)
            .range(0, 10.0, 20.0)
            .build()
            .unwrap();
        assert_eq!(built.validate(&sp), Ok(()));
        let with = |predicates: Vec<Range>| Subscription {
            predicates,
            ..built.clone()
        };
        let full = Range::new(0.0, 1000.0);
        assert!(matches!(
            with(vec![full]).validate(&sp),
            Err(CoreError::DimensionMismatch {
                expected: 3,
                got: 1
            })
        ));
        assert!(matches!(
            with(vec![full, Range::new(f64::NAN, 5.0), full]).validate(&sp),
            Err(CoreError::NotANumber { dim: DimIdx(1) })
        ));
        assert!(matches!(
            with(vec![full, full, Range::new(5.0, 5.0)]).validate(&sp),
            Err(CoreError::EmptyRange { .. })
        ));
        assert!(matches!(
            with(vec![Range::new(-1.0, 5.0), full, full]).validate(&sp),
            Err(CoreError::OutOfDomain { value, .. }) if value == -1.0
        ));
        assert!(matches!(
            with(vec![full, full, Range::new(5.0, 1000.5)]).validate(&sp),
            Err(CoreError::OutOfDomain { value, .. }) if value == 1000.5
        ));
    }

    #[test]
    fn matching_is_conjunctive() {
        let s = Subscription::builder(&space())
            .range(0, 10.0, 20.0)
            .range(1, 100.0, 200.0)
            .build()
            .unwrap();
        assert!(s.matches(&Message::new(vec![15.0, 150.0, 999.0])));
        assert!(!s.matches(&Message::new(vec![15.0, 99.0, 999.0])));
        assert!(!s.matches(&Message::new(vec![25.0, 150.0, 999.0])));
    }

    #[test]
    fn paper_traffic_example_from_section_2a() {
        // [−42 ≤ long < −41) ∧ [70 ≤ lat < 74) ∧ [0 ≤ s < 25)
        let space = AttributeSpace::new(vec![
            crate::space::Dimension::new("longitude", -180.0, 180.0),
            crate::space::Dimension::new("latitude", -90.0, 90.0),
            crate::space::Dimension::new("speed", 0.0, 120.0),
        ])
        .unwrap();
        let s = Subscription::builder(&space)
            .range(0, -42.0, -41.0)
            .range(1, 70.0, 74.0)
            .range(2, 0.0, 25.0)
            .build()
            .unwrap();
        assert!(s.matches(&Message::new(vec![-41.5, 72.0, 10.0])));
        assert!(!s.matches(&Message::new(vec![-41.5, 72.0, 30.0])));
    }
}
