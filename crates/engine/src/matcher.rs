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
//! The engine also owns the subscription journal and its replication,
//! for both hosts: every copy a matcher gains, loses or retires is one
//! [`SubLogRecord`] that [`MatcherEngine::apply`] checks and applies, and
//! with a sub-log ([`MatcherEngine::with_log`]) every sub-log step is a
//! method here. [`MatcherEngine::write`] applies and journals a write, or
//! forwards it to its stream's leader; each append goes to the first
//! reachable clockwise heir of the table last handed to
//! [`MatcherEngine::on_table`], which also ships every led stream to a
//! new heir at once. [`MatcherEngine::on_append`] and
//! [`MatcherEngine::serve`] are the follower and leader halves of the
//! asynchronous, epoch-fenced stream, [`MatcherEngine::promote`] the heir
//! side of a failover, [`MatcherEngine::install`] a restart's catch-up,
//! [`MatcherEngine::hand_over`] the donor side of an elastic move and
//! [`MatcherEngine::prune`] the undoing of a promotion when the owner
//! rejoins. Hosts carry the frames these send through the
//! [`MatcherPort`].

use crate::control::clockwise_heir;
use crate::dedup::{Admit, DedupWindow};
use crate::reject::Rejected;
use crate::replication::{Epoch, FollowerOutcome, Journal, ReplicatedAppend, StreamSet};
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
    /// Sends a replicated append to matcher `to`. Returns `false` when
    /// the send failed, and the engine tries the next heir. The default
    /// sends nothing.
    fn replicate(&mut self, to: MatcherId, append: &ReplicatedAppend<SubLogRecord>) -> bool {
        let _ = (to, append);
        false
    }
    /// Sends `rec`, a write for `stream`'s copy, on to matcher `to`. The
    /// default drops it.
    fn forward(&mut self, to: MatcherId, stream: MatcherId, rec: SubLogRecord) {
        let _ = (to, stream, rec);
    }
    /// Adds `n` to a sub-log counter. The default ignores it.
    fn count(&mut self, what: SubLogCount, n: u64) {
        let _ = (what, n);
    }
}

/// The sub-log counters both hosts keep (the cluster's
/// `bluedove_sublog_*_total` families).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubLogCount {
    /// Records a leader appended to a stream it leads.
    Appended,
    /// Fresh records a replica stored.
    Replicated,
    /// Appends a holder rejected: it leads the stream, or follows a later
    /// epoch than the sender's.
    Fenced,
    /// Copies a promoted heir adopted from a dead leader's stream.
    Promoted,
    /// Records a restarted owner installed from its stream's interim
    /// leader.
    CaughtUp,
}

/// The leader book of a table: `(stream, leader, epoch)`.
type Book = Vec<(MatcherId, MatcherId, Epoch)>;

/// The matcher's transport- and clock-agnostic state machine: the
/// subscription store ([`MatcherCore`]) plus per-dimension FIFO queues,
/// dedup windows and the round-robin service pointer, and — with a
/// sub-log — its replicated streams over journal `J` and the leader book
/// and live members of the last table it was handed.
pub struct MatcherEngine<J: Journal<SubLogRecord> = ()> {
    core: MatcherCore,
    /// The index structure, for the scratch store [`adopt`](Self::adopt)
    /// replays into.
    kind: IndexKind,
    queues: Vec<VecDeque<QueuedMsg>>,
    dedup: Vec<DedupWindow>,
    /// Round-robin dimension pointer: the dimension the next
    /// [`begin_service`](Self::begin_service) scan starts from.
    rr: usize,
    /// The own stream and the streams led or followed here.
    log: Option<StreamSet<SubLogRecord, J>>,
    leaders: Book,
    live: Vec<MatcherId>,
}

impl MatcherEngine {
    /// A fresh engine for matcher `id` over `space`, with one queue, one
    /// subscription set (indexed per `kind`) and one idempotency window of
    /// `served_ids` ids per dimension (the hosts pass
    /// [`DEDUP_WINDOW`](crate::DEDUP_WINDOW)), and no sub-log.
    pub fn new(id: MatcherId, space: AttributeSpace, kind: IndexKind, served_ids: usize) -> Self {
        MatcherEngine::with_log(id, space, kind, served_ids, None)
    }
}

impl<J: Journal<SubLogRecord>> MatcherEngine<J> {
    /// [`MatcherEngine::new`] journaling every mutation to `log`, this
    /// matcher's stream set (its own stream led), when set.
    pub fn with_log(
        id: MatcherId,
        space: AttributeSpace,
        kind: IndexKind,
        served_ids: usize,
        log: Option<StreamSet<SubLogRecord, J>>,
    ) -> Self {
        let k = space.k();
        MatcherEngine {
            core: MatcherCore::new(id, space, kind),
            kind,
            queues: (0..k).map(|_| VecDeque::new()).collect(),
            dedup: (0..k).map(|_| DedupWindow::new(served_ids)).collect(),
            rr: 0,
            log,
            leaders: Vec::new(),
            live: Vec::new(),
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
    /// at the owner (`Err`). Without a sub-log, always here. With one,
    /// here if this matcher owns or leads the stream — on the owner's
    /// stream too, for the owner's catch-up, and a removal on every led
    /// stream, since a copy adopted here may sit on several — else at the
    /// owner: it was routed before the owner's rejoin.
    fn write_at(&self, rec: &SubLogRecord, stream: MatcherId) -> Result<Vec<MatcherId>, MatcherId> {
        let me = self.id();
        let Some(streams) = &self.log else {
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

    /// Takes `rec`, a write for a copy owned by `stream`, where
    /// [`write_at`](Self::write_at) puts it: applied, then journaled and
    /// replicated within the same step, before anything is served from
    /// the new state — or sent on to the stream's leader of record, else
    /// its owner. Returns whether it took here.
    pub fn write(
        &mut self,
        rec: SubLogRecord,
        stream: MatcherId,
        port: &mut dyn MatcherPort,
    ) -> bool {
        let also = match self.write_at(&rec, stream) {
            Ok(also) => also,
            Err(owner) => {
                let leader = Some(self.leader_of(owner)).filter(|&l| l != self.id());
                port.forward(leader.unwrap_or(owner), stream, rec);
                return false;
            }
        };
        if !self.apply(&rec, port) {
            return false;
        }
        for s in also {
            self.journal(s, rec.clone(), port);
        }
        self.journal(self.id(), rec, port);
        true
    }

    /// Appends `rec` to `stream` — this matcher's own, or one it leads —
    /// and replicates the append. A failed journal write keeps the store
    /// serving from memory; what it missed is lost to a restart.
    fn journal(&mut self, stream: MatcherId, rec: SubLogRecord, port: &mut dyn MatcherPort) {
        let Some(s) = self.log.as_mut().and_then(|l| l.get_mut(stream)) else {
            return;
        };
        if let Ok(Some(append)) = s.append(rec) {
            port.count(SubLogCount::Appended, 1);
            self.replicate(&append, port);
        }
    }

    /// The live members of the last table in clockwise order from this
    /// matcher, itself excluded; none unless that table lists it.
    fn heirs(&self) -> impl Iterator<Item = MatcherId> + '_ {
        let me = self.id();
        let others = move || self.live.iter().copied().filter(move |&m| m != me);
        let first = clockwise_heir(me, others()).filter(|_| self.live.contains(&me));
        let next = move |&h: &MatcherId| clockwise_heir(h, others());
        std::iter::successors(first, next).take(self.live.len().saturating_sub(1))
    }

    /// Sends `append` to the first heir whose send succeeds: a dead heir
    /// the table still lists is skipped.
    fn replicate(&self, append: &ReplicatedAppend<SubLogRecord>, port: &mut dyn MatcherPort) {
        for heir in self.heirs() {
            if port.replicate(heir, append) {
                return;
            }
        }
    }

    /// Installs a table's leader book and live members. When this
    /// matcher's clockwise heir changes — a join between it and its heir,
    /// the heir leaving or crashing, or this matcher's first table — the
    /// new heir gets every stream led here at once, so a crash before the
    /// next append still promotes a full replica.
    pub fn on_table(&mut self, leaders: Book, live: Vec<MatcherId>, port: &mut dyn MatcherPort) {
        let was = self.heirs().next();
        (self.leaders, self.live) = (leaders, live);
        if self.heirs().next() == was {
            return;
        }
        for s in self.log.iter().flat_map(|l| l.iter()).filter(|s| s.leads()) {
            self.replicate(&s.serve(0), port);
        }
    }

    /// The leader the last table's book names for `stream`, else its
    /// owner.
    fn leader_of(&self, stream: MatcherId) -> MatcherId {
        let entry = self.leaders.iter().find(|e| e.0 == stream);
        entry.map_or(stream, |e| e.1)
    }

    /// The last table's leader book.
    pub fn leaders(&self) -> &[(MatcherId, MatcherId, Epoch)] {
        &self.leaders
    }

    /// The last table's live members.
    pub fn live(&self) -> &[MatcherId] {
        &self.live
    }

    /// The sub-log, when on.
    pub fn log(&self) -> Option<&StreamSet<SubLogRecord, J>> {
        self.log.as_ref()
    }

    /// The sub-log, mutably (journal sync).
    pub fn log_mut(&mut self) -> Option<&mut StreamSet<SubLogRecord, J>> {
        self.log.as_mut()
    }

    /// A replicated append arriving: stored, fenced, or — when a hole
    /// precedes it — `Some(from)`, the first offset to fetch from its
    /// sender.
    pub fn on_append(
        &mut self,
        append: &ReplicatedAppend<SubLogRecord>,
        port: &mut dyn MatcherPort,
    ) -> Option<u64> {
        match self.log.as_mut()?.accept(append).ok()? {
            FollowerOutcome::Stored { fresh, .. } => port.count(SubLogCount::Replicated, fresh),
            FollowerOutcome::NeedFetch { from } => return Some(from),
            FollowerOutcome::Fenced { .. } => port.count(SubLogCount::Fenced, 1),
        }
        None
    }

    /// Serves a fetch of `stream` from offset `from` (see
    /// [`ReplicatedStream::serve`](crate::ReplicatedStream::serve));
    /// `None` when no copy is held. With `step_down` this matcher stops
    /// leading the stream in the same step, so the copy holds every write
    /// applied here, and later ones are sent on to the stream's new
    /// leader.
    pub fn serve(
        &mut self,
        stream: MatcherId,
        from: u64,
        step_down: bool,
    ) -> Option<ReplicatedAppend<SubLogRecord>> {
        let log = self.log.as_mut()?;
        let served = log.get(stream)?.serve(from);
        if step_down {
            log.demote(stream);
        }
        Some(served)
    }

    /// Failover as log replay: leads `stream` (its leader died) at
    /// `epoch`, adopts its replica (see [`adopt`](Self::adopt)), journals
    /// the inherited copies on this matcher's own stream, so they survive
    /// its crash too, and ships the stream to the heir.
    pub fn promote(&mut self, stream: MatcherId, epoch: Epoch, port: &mut dyn MatcherPort) {
        let Some(Ok(replay)) = self.log.as_mut().map(|l| l.promote(stream, epoch)) else {
            return;
        };
        let replay = replay.to_vec();
        let inherited = self.adopt(&replay, port);
        port.count(SubLogCount::Promoted, inherited.len() as u64);
        for rec in inherited {
            self.journal(self.id(), rec, port);
        }
        if let Some(s) = self.log.as_ref().and_then(|l| l.get(stream)) {
            self.replicate(&s.serve(0), port);
        }
    }

    /// A restart's catch-up: the copy of this matcher's own stream
    /// `served` by its interim leader is installed past the divergence
    /// point (see
    /// [`ReplicatedStream::install`](crate::ReplicatedStream::install)),
    /// the stream re-led at `epoch`, and the delta — this matcher's own
    /// history — applied to the store.
    pub fn install(
        &mut self,
        epoch: Epoch,
        served: &ReplicatedAppend<SubLogRecord>,
        port: &mut dyn MatcherPort,
    ) {
        if served.stream != self.id() {
            return;
        }
        let Some(Ok(delta)) = self
            .log
            .as_mut()
            .map(|l| l.own_mut().install(epoch, served))
        else {
            return;
        };
        port.count(SubLogCount::CaughtUp, delta.len() as u64);
        for rec in delta {
            self.apply(rec, port);
        }
    }

    /// Compacts the own stream to the live store, re-stamped at the tail,
    /// and replicates the result so the heir's replica compacts too.
    pub fn compact(&mut self, port: &mut dyn MatcherPort) {
        let snap = self.snapshot().into_iter();
        let snap = snap
            .map(|(dim, sub)| SubLogRecord::Store { dim, sub })
            .collect();
        if let Some(Ok(Some(append))) = self.log.as_mut().map(|l| l.own_mut().compact(snap)) {
            self.replicate(&append, port);
        }
    }

    /// The donor side of an elastic move: sends a copy of every
    /// subscription on `dim` overlapping `range` to `to`, the range's new
    /// owner, at its [`leader_of`](Self::leader_of), and returns how many
    /// it sent. The donor keeps serving its own copies (routing may still
    /// point here) until a `Retire` drops them. A `dim` outside the space
    /// is dropped and reported through `port`.
    pub fn hand_over(
        &mut self,
        dim: DimIdx,
        range: &Range,
        to: MatcherId,
        port: &mut dyn MatcherPort,
    ) -> usize {
        if !self.has_dim(dim) {
            port.rejected(Rejected::HandOver);
            return 0;
        }
        let (moved, at) = (
            self.core.extract_overlapping(dim, range),
            self.leader_of(to),
        );
        for sub in &moved {
            self.core.insert(dim, sub.clone());
        }
        let n = moved.len();
        for sub in moved {
            port.forward(at, to, SubLogRecord::Store { dim, sub });
        }
        n
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

    /// Prunes this store to what it should hold when leadership returns
    /// to a rejoined owner: removes, as writes to the own stream, every
    /// copy that no assignment (per `strategy`) to a stream this matcher
    /// leads, its own included, keeps here. Hosts run it at the owner,
    /// whose log may keep copies it adopted before its crash, and at the
    /// stream's interim leader once routing has moved back. A no-op
    /// without a sub-log.
    pub fn prune(&mut self, strategy: &AnyStrategy, port: &mut dyn MatcherPort) {
        let Some(streams) = &self.log else {
            return;
        };
        let kept = |dim: DimIdx, sub: &Subscription| {
            let assign = strategy.as_dyn().assign(sub);
            assign
                .iter()
                .any(|a| a.dim == dim && streams.leads(a.matcher))
        };
        let copies = self.core.snapshot().into_iter();
        let stray: Vec<_> = copies.filter(|(dim, sub)| !kept(*dim, sub)).collect();
        for (dim, sub) in stray {
            self.write(SubLogRecord::Remove { dim, sub: sub.id }, self.id(), port);
        }
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
