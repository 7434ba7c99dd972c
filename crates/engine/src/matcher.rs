//! The matcher decision engine: per-dimension subscription sets, FIFO
//! queues, duplicate suppression and round-robin service (§II-B, §III-B).
//!
//! The host owns the transport and the clock; the engine owns the order
//! of work. Service is split into three phases so both hosts can wrap
//! their own notion of "how long matching took" around the same logic:
//!
//! 1. [`MatcherEngine::begin_service`] pops the next queued message in
//!    round-robin dimension order and computes its queue wait;
//! 2. the host runs [`MatcherEngine::run_match`] and *times* it (threaded
//!    cluster) or *models* it with the linear-scan cost model (simulator),
//!    then feeds the resulting duration into
//!    [`MatcherEngine::record_service`];
//! 3. [`MatcherEngine::complete`] marks the id served, emits one delivery
//!    per hit and the `MatchAck` through the [`MatcherPort`].

use crate::dedup::{Admit, DedupWindow};
use crate::reject::Rejected;
use bluedove_core::{
    AttributeSpace, DimIdx, DimStats, IndexKind, MatchHit, MatcherCore, MatcherId, Message,
    MessageId, Range, SubscriberId, Subscription, SubscriptionId, Time,
};
use std::collections::VecDeque;

/// A queued publication awaiting round-robin service on one dimension.
struct QueuedMsg {
    msg: Message,
    admitted_us: u64,
    ack_to: String,
    /// Virtual time the message entered the queue; the queue-wait
    /// component of the matcher-reported actual processing time.
    enqueued: Time,
}

/// A popped unit of work: one publication to match on one dimension.
/// Produced by [`MatcherEngine::begin_service`], consumed by
/// [`MatcherEngine::complete`].
#[derive(Debug)]
pub struct ServiceJob {
    /// The dimension whose subscription set is matched.
    pub dim: DimIdx,
    /// The publication.
    pub msg: Message,
    /// Admission timestamp, µs since the host epoch (carried into
    /// deliveries for end-to-end response time).
    pub admitted_us: u64,
    /// Dispatcher address expecting the `MatchAck`; empty when
    /// acknowledgements are disabled.
    pub ack_to: String,
    /// Seconds the message waited in the FIFO queue before service.
    pub waited: Time,
}

/// The host side of the matcher engine: deliveries, acks and duplicate
/// counting. No call is fallible — a vanished subscriber is not an error
/// for the matcher, so hosts swallow transport failures here.
pub trait MatcherPort {
    /// Delivers `msg` to a matched subscriber.
    fn deliver(
        &mut self,
        subscriber: SubscriberId,
        sub: SubscriptionId,
        msg: &Message,
        admitted_us: u64,
    );
    /// Sends a `MatchAck` to the dispatcher at `ack_to`. `actual_us` is
    /// the measured queue-wait + match time (clamped nonzero), or zero on
    /// the re-ack of an already-served duplicate.
    fn ack(&mut self, ack_to: &str, msg_id: MessageId, actual_us: u64);
    /// A duplicate `MatchMsg` arrival was suppressed.
    fn duplicate_suppressed(&mut self);
    /// A malformed frame was dropped. Hosts that count rejections
    /// override this; the default ignores it.
    fn rejected(&mut self, kind: Rejected) {
        let _ = kind;
    }
}

/// The matcher's transport- and clock-agnostic state machine: the
/// subscription store ([`MatcherCore`]) plus per-dimension FIFO queues,
/// dedup windows and the round-robin service pointer.
pub struct MatcherEngine {
    core: MatcherCore,
    queues: Vec<VecDeque<QueuedMsg>>,
    dedup: Vec<DedupWindow>,
    /// Round-robin dimension pointer: the dimension the next
    /// [`begin_service`](Self::begin_service) scan starts from.
    rr: usize,
}

impl MatcherEngine {
    /// A fresh engine for matcher `id` over `space`, with one queue, one
    /// subscription set (indexed per `kind`) and one idempotency window of
    /// `served_ids` ids per dimension (the hosts pass
    /// [`DEDUP_WINDOW`](crate::DEDUP_WINDOW)).
    pub fn new(id: MatcherId, space: AttributeSpace, kind: IndexKind, served_ids: usize) -> Self {
        let k = space.k();
        MatcherEngine {
            core: MatcherCore::new(id, space, kind),
            queues: (0..k).map(|_| VecDeque::new()).collect(),
            dedup: (0..k).map(|_| DedupWindow::new(served_ids)).collect(),
            rr: 0,
        }
    }

    /// This matcher's id.
    pub fn id(&self) -> MatcherId {
        self.core.id()
    }

    /// The attribute space the matcher operates in.
    pub fn space(&self) -> &AttributeSpace {
        self.core.space()
    }

    /// Whether `dim` names a dimension of this matcher's space.
    fn has_dim(&self, dim: DimIdx) -> bool {
        dim.index() < self.space().k()
    }

    /// Checks an arriving `StoreSub` before the host logs and stores it:
    /// `dim` must name a dimension of the space and `sub` must validate
    /// against it. A malformed copy is reported through `port` and the
    /// host drops it.
    pub fn admit_store(&self, dim: DimIdx, sub: &Subscription, port: &mut dyn MatcherPort) -> bool {
        let ok = self.has_dim(dim) && sub.validate(self.space()).is_ok();
        if !ok {
            port.rejected(Rejected::StoreSub);
        }
        ok
    }

    /// Stores a subscription copy in the per-`dim` set.
    pub fn insert(&mut self, dim: DimIdx, sub: Subscription) {
        self.core.insert(dim, sub);
    }

    /// Removes the subscription copy with id `sub` from the per-`dim` set.
    pub fn remove(&mut self, dim: DimIdx, sub: SubscriptionId) {
        self.core.remove(dim, sub);
    }

    /// Extracts (removes and returns) every copy in the per-`dim` set
    /// whose predicate overlaps `range` — the handover donor side.
    pub fn extract_overlapping(&mut self, dim: DimIdx, range: &Range) -> Vec<Subscription> {
        self.core.extract_overlapping(dim, range)
    }

    /// Retires this matcher from `range` on `dim`: drops every copy
    /// overlapping it except those still overlapping a `keep` range the
    /// matcher continues to own.
    pub fn retire(&mut self, dim: DimIdx, range: &Range, keep: &[Range]) {
        let extracted = self.core.extract_overlapping(dim, range);
        for sub in extracted {
            if keep.iter().any(|r| sub.predicate(dim).overlaps(r)) {
                self.core.insert(dim, sub);
            }
        }
    }

    /// Copies stored in the per-`dim` set.
    pub fn sub_count(&self, dim: DimIdx) -> usize {
        self.core.sub_count(dim)
    }

    /// Copies stored across all dimensions.
    pub fn total_subs(&self) -> usize {
        self.core.total_subs()
    }

    /// Entries physically indexed in the per-`dim` set (representatives
    /// only under covering).
    pub fn physical_sub_count(&self, dim: DimIdx) -> usize {
        self.core.physical_sub_count(dim)
    }

    /// Physically indexed entries across all dimensions.
    pub fn total_physical_subs(&self) -> usize {
        self.core.total_physical_subs()
    }

    /// Estimated resident bytes of the per-dimension indexes.
    pub fn index_memory_bytes(&self) -> usize {
        self.core.index_memory_bytes()
    }

    /// Covering groups of the per-`dim` set; `None` for bare indexes.
    pub fn covering_groups(
        &self,
        dim: DimIdx,
    ) -> Option<Vec<(SubscriptionId, Vec<SubscriptionId>)>> {
        self.core.covering_groups(dim)
    }

    /// Depth of the per-`dim` FIFO queue.
    pub fn queue_len(&self, dim: DimIdx) -> usize {
        self.queues[dim.index()].len()
    }

    /// Total queued publications across all dimensions.
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Whether every queue is drained — the condition a gracefully
    /// leaving matcher waits for before retiring.
    pub fn is_idle(&self) -> bool {
        self.backlog() == 0
    }

    /// Drops every queued publication (a crash host losing its volatile
    /// queues); returns how many were lost.
    pub fn drop_queued(&mut self) -> usize {
        let n = self.backlog();
        for q in &mut self.queues {
            q.clear();
        }
        n
    }

    /// The per-`dim` `(q, λ, µ)` load report at `now`, with the current
    /// queue depth folded in.
    pub fn stats_report(&mut self, dim: DimIdx, now: Time) -> DimStats {
        let q = self.queue_len(dim);
        self.core.stats_report(dim, q, now)
    }

    /// A snapshot of the matcher's per-dimension stored copies.
    pub fn snapshot(&self) -> Vec<(DimIdx, Subscription)> {
        self.core.snapshot()
    }

    /// An arriving `MatchMsg`: classify against the per-`dim` idempotency
    /// window, queue fresh ids (recording the arrival for λ), suppress
    /// pending duplicates, and re-ack served ones with `actual_us = 0`
    /// (nothing was measured — the dispatcher skips estimation recording).
    /// A message on an unknown dimension or one that does not fit the
    /// space is dropped unacked and reported through `port`.
    pub fn on_match_msg(
        &mut self,
        now: Time,
        dim: DimIdx,
        msg: Message,
        admitted_us: u64,
        ack_to: String,
        port: &mut dyn MatcherPort,
    ) {
        if !self.has_dim(dim) || msg.validate(self.space()).is_err() {
            port.rejected(Rejected::MatchMsg);
            return;
        }
        match self.dedup[dim.index()].admit(msg.id) {
            Admit::Fresh => {
                self.core.record_arrival(dim, now);
                self.queues[dim.index()].push_back(QueuedMsg {
                    msg,
                    admitted_us,
                    ack_to,
                    enqueued: now,
                });
            }
            Admit::Pending => {
                // The queued copy will ack when served; acking now would
                // falsely claim the deliveries are out.
                port.duplicate_suppressed();
            }
            Admit::Served => {
                port.duplicate_suppressed();
                if !ack_to.is_empty() {
                    port.ack(&ack_to, msg.id, 0);
                }
            }
        }
    }

    /// Pops the next unit of work in round-robin dimension order, or
    /// `None` when every queue is empty. The job's `waited` is `now`
    /// minus its enqueue time.
    pub fn begin_service(&mut self, now: Time) -> Option<ServiceJob> {
        let k = self.queues.len();
        for off in 0..k {
            let d = (self.rr + off) % k;
            if let Some(q) = self.queues[d].pop_front() {
                self.rr = (d + 1) % k;
                return Some(ServiceJob {
                    dim: DimIdx(d as u16),
                    msg: q.msg,
                    admitted_us: q.admitted_us,
                    ack_to: q.ack_to,
                    waited: (now - q.enqueued).max(0.0),
                });
            }
        }
        None
    }

    /// Phase 2: matches the job's message against its dimension set,
    /// appending `(subscription, subscriber)` hits to `out` and returning
    /// how many stored copies were examined (the cost-model input).
    pub fn run_match(&mut self, job: &ServiceJob, now: Time, out: &mut Vec<MatchHit>) -> usize {
        self.core.match_message(job.dim, &job.msg, now, out)
    }

    /// Feeds one measured (or modelled) service duration into the per-dim
    /// µ estimator. Separate from [`complete`](Self::complete) because the
    /// hosts disagree on *when*: the simulator records the modelled cost
    /// at service start, the threaded cluster after measuring real work.
    pub fn record_service(&mut self, dim: DimIdx, seconds: Time) {
        self.core.record_service(dim, seconds);
    }

    /// Phase 3: the job's deliveries are ready. Marks the id served (so a
    /// retransmission re-acks instead of re-delivering), emits one
    /// delivery per hit, and acks the dispatcher with the actual
    /// processing time — queue wait plus `service`, clamped nonzero (a
    /// zero reading is reserved for re-acks of served duplicates).
    pub fn complete(
        &mut self,
        job: ServiceJob,
        hits: &[MatchHit],
        service: Time,
        port: &mut dyn MatcherPort,
    ) {
        self.dedup[job.dim.index()].mark_served(job.msg.id);
        for &(sub_id, subscriber) in hits {
            port.deliver(subscriber, sub_id, &job.msg, job.admitted_us);
        }
        if !job.ack_to.is_empty() {
            let actual_us = (((job.waited + service) * 1e6) as u64).max(1);
            port.ack(&job.ack_to, job.msg.id, actual_us);
        }
    }
}
