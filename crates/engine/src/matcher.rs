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
//!
//! The engine also owns the subscription journal's semantics, for both
//! hosts: every copy a matcher gains, loses or retires is one
//! [`SubLogRecord`] that [`MatcherEngine::apply`] checks and applies;
//! [`MatcherEngine::write_at`] decides where a write naming a stream is
//! applied and journaled; [`MatcherEngine::hand_over`] is the donor side
//! of an elastic move, [`MatcherEngine::adopt`] the heir side of a
//! promotion and [`MatcherEngine::prune`] its undoing when the owner
//! rejoins. Hosts journal exactly what these hand back.

use crate::dedup::{Admit, DedupWindow};
use crate::reject::Rejected;
use crate::replication::{Journal, StreamSet};
use bluedove_baselines::AnyStrategy;
use bluedove_core::{
    AttributeSpace, DimIdx, DimStats, IndexKind, MatchHit, MatcherCore, MatcherId, Message,
    MessageId, Range, SubLogRecord, SubscriberId, Subscription, SubscriptionId, Time,
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
    /// The index structure, for the scratch store [`adopt`](Self::adopt)
    /// replays into.
    kind: IndexKind,
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
            kind,
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

    /// Applies one journal record — a copy stored, removed or retired —
    /// and returns whether it took. A record naming a dimension outside
    /// the space, or storing a subscription that does not validate
    /// against it, is dropped and reported through `port`: records arrive
    /// from peers and disks. Idempotent: a `Store` replaces any copy with
    /// the same id, so replaying a record the store already absorbed
    /// (catch-up overlap, promotion replay) cannot duplicate state.
    pub fn apply(&mut self, rec: &SubLogRecord, port: &mut dyn MatcherPort) -> bool {
        let applied = apply(&mut self.core, rec);
        if let Err(kind) = applied {
            port.rejected(kind);
        }
        applied.is_ok()
    }

    /// Where `rec`, a write for a copy owned by `stream`, is served: here
    /// (`Ok`, with the streams besides the own one to journal it on) or
    /// at the owner (`Err`). Without replicated `streams`, always here.
    /// With them, here if this matcher owns or leads the stream — on the
    /// owner's stream too, for the owner's catch-up, and a removal on
    /// every led stream, since a copy adopted here may sit on several —
    /// else at the owner: it was routed before the owner's rejoin.
    pub fn write_at<J: Journal<SubLogRecord>>(
        &self,
        rec: &SubLogRecord,
        stream: MatcherId,
        streams: Option<&StreamSet<SubLogRecord, J>>,
    ) -> Result<Vec<MatcherId>, MatcherId> {
        let me = self.id();
        let Some(streams) = streams else {
            return Ok(Vec::new());
        };
        if stream != me && !streams.leads(stream) {
            return Err(stream);
        }
        Ok(match rec {
            SubLogRecord::Remove { .. } => streams.led().filter(|&s| s != me).collect(),
            _ if stream != me => vec![stream],
            _ => Vec::new(),
        })
    }

    /// The donor side of an elastic move: copies of every subscription on
    /// `dim` overlapping `range`, for the range's new owner to store. The
    /// donor keeps serving its own copies (routing may still point here)
    /// until a `Retire` drops them. A `dim` outside the space is dropped
    /// and reported through `port`.
    pub fn hand_over(
        &mut self,
        dim: DimIdx,
        range: &Range,
        port: &mut dyn MatcherPort,
    ) -> Vec<Subscription> {
        if !self.has_dim(dim) {
            port.rejected(Rejected::HandOver);
            return Vec::new();
        }
        let moved = self.core.extract_overlapping(dim, range);
        for sub in &moved {
            self.core.insert(dim, sub.clone());
        }
        moved
    }

    /// The heir side of a promotion: replays `replay` — the stream of a
    /// dead matcher this one now leads — into a scratch store and adopts
    /// the result. Not into the live store: the dead owner's `Retire`
    /// keep ranges would delete this matcher's own overlapping copies.
    /// Returns the adopted copies as `Store` records for the host to
    /// journal on this matcher's own stream, so they survive its crash
    /// too. Malformed records are dropped and reported through `port`.
    pub fn adopt(
        &mut self,
        replay: &[SubLogRecord],
        port: &mut dyn MatcherPort,
    ) -> Vec<SubLogRecord> {
        let mut scratch = MatcherCore::new(self.id(), self.space().clone(), self.kind);
        for rec in replay {
            if let Err(kind) = apply(&mut scratch, rec) {
                port.rejected(kind);
            }
        }
        let adopted = scratch.snapshot().into_iter().map(|(dim, sub)| {
            self.core.insert(dim, sub.clone());
            SubLogRecord::Store { dim, sub }
        });
        adopted.collect()
    }

    /// The removals that prune this store to what it should hold: one
    /// per copy that no assignment (per `strategy`) to a stream this
    /// matcher leads, its own included, keeps here. Hosts apply them as
    /// any removal when leadership returns to a rejoined owner: at the
    /// owner, whose log may keep copies it adopted before its crash, and
    /// at the stream's interim leader once routing has moved back.
    pub fn prune<J: Journal<SubLogRecord>>(
        &self,
        strategy: &AnyStrategy,
        streams: &StreamSet<SubLogRecord, J>,
    ) -> Vec<SubLogRecord> {
        let kept = |dim: DimIdx, sub: &Subscription| {
            let assign = strategy.as_dyn().assign(sub);
            assign
                .iter()
                .any(|a| a.dim == dim && streams.leads(a.matcher))
        };
        let copies = self.core.snapshot().into_iter();
        let stray = copies.filter(|(dim, sub)| !kept(*dim, sub));
        stray
            .map(|(dim, sub)| SubLogRecord::Remove { dim, sub: sub.id })
            .collect()
    }

    /// Stores a subscription copy in the per-`dim` set, unchecked — for
    /// callers that build a store from a trusted workload; hosts go
    /// through [`apply`](Self::apply).
    pub fn insert(&mut self, dim: DimIdx, sub: Subscription) {
        self.core.insert(dim, sub);
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

/// Applies `rec` to `core`, or names the kind of a malformed record.
fn apply(core: &mut MatcherCore, rec: &SubLogRecord) -> Result<(), Rejected> {
    let k = core.space().k();
    match rec {
        SubLogRecord::Store { dim, sub } => {
            if dim.index() >= k || sub.validate(core.space()).is_err() {
                return Err(Rejected::StoreSub);
            }
            core.insert(*dim, sub.clone());
        }
        SubLogRecord::Remove { dim, sub } => {
            if dim.index() >= k {
                return Err(Rejected::RemoveSub);
            }
            core.remove(*dim, *sub);
        }
        // Drops every copy overlapping the donated range except those
        // still overlapping a range the matcher keeps serving.
        SubLogRecord::Retire { dim, range, keep } => {
            if dim.index() >= k {
                return Err(Rejected::Retire);
            }
            for sub in core.extract_overlapping(*dim, range) {
                if keep.iter().any(|r| sub.predicate(*dim).overlaps(r)) {
                    core.insert(*dim, sub);
                }
            }
        }
    }
    Ok(())
}
