//! The dispatcher decision engine: policy-driven one-hop forwarding with
//! failover, and the acknowledged at-least-once pipeline (§II-B, §III-A-3).
//!
//! Pure event-in/actions-out: the host feeds [`DispatcherEvent`]s stamped
//! with the current [`Time`] and implements [`DispatcherPort`] for the
//! sends, acks and telemetry effects. The engine owns the routing state,
//! the load view, the suspicion list, the in-flight ledger and the
//! retransmit-timer heap — nothing in here blocks, sleeps or reads a
//! clock.

use crate::reject::Rejected;
use crate::replication::Epoch;
use crate::suspect::SuspectList;
use crate::timer::{retransmit_delay, RetryPolicy};
use bluedove_baselines::AnyStrategy;
use bluedove_core::{
    Assignment, DimIdx, ForwardingPolicy, MatcherId, Message, MessageId, StatsView, SubscriberId,
    Subscription, SubscriptionId, Time,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// An input to the dispatcher engine. Ids are stamped by the host before
/// the event is fed (id allocation is a shared-state concern the engine
/// stays out of).
#[derive(Debug)]
pub enum DispatcherEvent {
    /// A client registers a subscription (id already stamped).
    Subscribe(Subscription),
    /// A client unregisters a subscription; the deterministic assignment
    /// is recomputed so every stored copy is found and removed.
    Unsubscribe(Subscription),
    /// A client publishes a message (id already stamped); `admitted_us`
    /// is the host-clock admission timestamp carried end-to-end for
    /// response-time measurement.
    Publish {
        /// The publication, id stamped.
        msg: Message,
        /// Admission timestamp, µs since the host epoch.
        admitted_us: u64,
    },
    /// A matcher acknowledged a forwarded publication.
    MatchAck {
        /// The acknowledged publication.
        msg_id: MessageId,
        /// The acking matcher (clears any pending suspicion on it).
        matcher: MatcherId,
        /// Measured queue-wait + match time, µs; zero marks the re-ack of
        /// an already-served duplicate (nothing was measured).
        actual_us: u64,
    },
    /// A matcher's periodic per-dimension `(q, λ, µ)` load report.
    LoadReport {
        /// Reporting matcher.
        matcher: MatcherId,
        /// Dimension the report covers.
        dim: DimIdx,
        /// The snapshot.
        stats: bluedove_core::DimStats,
    },
    /// An authoritative routing table (ignored unless `version` is newer
    /// than the engine's current table). Re-listed matchers stop being
    /// suspect; unlisted ones keep their suspicion.
    TableUpdate {
        /// Monotone table version.
        version: u64,
        /// The partition strategy to route by.
        strategy: AnyStrategy,
        /// Matcher address book.
        addrs: Vec<(MatcherId, String)>,
        /// The control plane's leader book, `(stream, leader, epoch)`:
        /// where a down owner's copies live.
        leaders: Vec<(MatcherId, MatcherId, Epoch)>,
    },
    /// The host's failure detector declared a matcher dead: shun it and
    /// drop its stats (the simulator's detection event; the threaded
    /// cluster learns the same thing through send errors and ack
    /// timeouts). Suspicion steers publications between candidates; where
    /// copies live is the leader book's to say.
    MatcherDown(MatcherId),
    /// Wake-up: fire due retransmit timers and purge expired suspicions.
    /// Hosts schedule these from [`DispatcherEngine::next_deadline`].
    Tick,
}

/// A frame the engine asks the host to put on the wire, addressed to a
/// matcher. The host maps these onto its transport's message type.
#[derive(Debug)]
pub enum DispatcherOut {
    /// Store a subscription copy in the target's per-`dim` set.
    StoreSub {
        /// Copy dimension.
        dim: DimIdx,
        /// The subscription.
        sub: Subscription,
        /// The copy's owner, whose stream the write is journaled on.
        stream: MatcherId,
    },
    /// Drop the subscription copy with this id from the per-`dim` set.
    RemoveSub {
        /// Copy dimension.
        dim: DimIdx,
        /// The subscription id to drop.
        sub: SubscriptionId,
        /// The copy's owner, whose stream the write is journaled on.
        stream: MatcherId,
    },
    /// Match `msg` against the target's per-`dim` set. `want_ack` tells
    /// the host whether to request a `MatchAck` back to this dispatcher.
    Match {
        /// The candidate's dimension mark (§III-B).
        dim: DimIdx,
        /// The publication.
        msg: Message,
        /// Admission timestamp, µs since the host epoch.
        admitted_us: u64,
        /// Whether the at-least-once pipeline expects an ack.
        want_ack: bool,
    },
}

/// A telemetry effect: something the host should count or sample. The
/// engine stays metrics-agnostic; the threaded cluster maps these onto
/// its registry, the simulator onto its run metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatcherEffect {
    /// A publication was successfully handed to the transport for
    /// `matcher` on `dim`. Emitted for the original forward and for every
    /// retransmission (`retransmission` distinguishes them); the host
    /// derives forward latency from `admitted_us` and its own clock.
    Forwarded {
        /// The forwarded publication.
        msg_id: MessageId,
        /// The matcher that accepted the frame.
        matcher: MatcherId,
        /// The dimension it was forwarded on.
        dim: DimIdx,
        /// Admission timestamp, µs since the host epoch.
        admitted_us: u64,
        /// `true` when this send was an ack-timeout retransmission.
        retransmission: bool,
    },
    /// A candidate was skipped on a send error or missing address.
    Failover,
    /// A publication exhausted its retry budget and was abandoned.
    DeadLettered {
        /// The abandoned publication.
        msg_id: MessageId,
    },
    /// A publication was dropped because no live candidate remained
    /// (fire-and-forget mode only; with acks on the ledger keeps probing).
    Dropped {
        /// The dropped publication.
        msg_id: MessageId,
    },
    /// A malformed client frame was dropped before routing.
    Rejected(Rejected),
    /// An ack carrying a real measurement landed for a send the policy
    /// had estimated: the §III-B accuracy sample.
    Estimation {
        /// The policy's estimated processing time, µs.
        est_us: u64,
        /// The matcher-measured actual, µs.
        actual_us: u64,
    },
}

/// The host side of the dispatcher engine: transport sends and telemetry.
///
/// `send` is *fallible*: returning `false` reports a synchronous transport
/// failure, which the engine treats exactly like the threaded cluster's
/// send error — suspect the target, forget its stats, fail over to the
/// next candidate within the same dispatch. Hosts whose transport cannot
/// fail synchronously (the simulator) always return `true`.
pub trait DispatcherPort {
    /// Puts `out` on the wire to matcher `to` at `addr`; `false` = failed.
    fn send(&mut self, to: MatcherId, addr: &str, out: DispatcherOut) -> bool;
    /// Confirms a subscription to its subscriber (sent once ≥1 copy was
    /// handed to the transport).
    fn sub_ack(&mut self, subscriber: SubscriberId, sub: SubscriptionId);
    /// Reports a telemetry effect.
    fn effect(&mut self, effect: DispatcherEffect);
}

/// Construction parameters of a [`DispatcherEngine`].
pub struct DispatcherEngineConfig {
    /// The forwarding policy (one instance per engine).
    pub policy: Box<dyn ForwardingPolicy>,
    /// RNG seed (random policy, tie-breaking, retransmit jitter).
    pub seed: u64,
    /// Ack/retry/suspicion knobs.
    pub retry: RetryPolicy,
    /// Bootstrap table version.
    pub version: u64,
    /// Bootstrap partition strategy.
    pub strategy: AnyStrategy,
    /// Bootstrap matcher address book.
    pub addrs: HashMap<MatcherId, String>,
}

/// A publication awaiting its `MatchAck`.
struct InFlight {
    msg: Message,
    admitted_us: u64,
    /// Sends so far (1 = the original forward).
    attempts: u32,
    /// Matchers tried in the current rotation; cleared when every
    /// candidate has been exhausted so recovered matchers get re-probed.
    tried: Vec<MatcherId>,
    /// The matcher the latest send went to, if any accepted it.
    target: Option<MatcherId>,
    /// The `(matcher, dim)` holding this message's [`StatsView`]
    /// reservation, if the policy estimates. At most one per in-flight
    /// message: invalidated when the target is forgotten (forgetting
    /// clears the pending counts wholesale) and released on ack — so
    /// retransmissions under ack loss can never stack phantom queue
    /// entries onto the estimator.
    reserved: Option<(MatcherId, DimIdx)>,
    /// The policy's estimated processing time for the latest send, µs
    /// (`None` when the candidate had no measured µ — the static proxy is
    /// a ranking, not a time). Compared against the matcher-reported
    /// actual when the ack lands.
    est_us: Option<u64>,
    /// When to give up waiting for the ack. Also versions the timer-heap
    /// entry: a popped deadline that no longer matches is stale.
    deadline: Time,
}

/// An `f64` time usable as a heap key. Deadlines are finite by
/// construction (`now + finite delay`), so `total_cmp` is a plain
/// numeric order here.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(Time);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The routing table the engine was last handed.
struct Table {
    version: u64,
    strategy: AnyStrategy,
    addrs: HashMap<MatcherId, String>,
    /// `(owner, leader)` for each stream the leader book gives to a
    /// matcher other than its owner: the owner is down and an heir was
    /// promoted. Empty without a fault, so resolving costs nothing then.
    moved: Vec<(MatcherId, MatcherId)>,
}

impl Table {
    /// Where the copies of assignment `a` live: at its owner, or, when
    /// the owner is down, at the leader of the owner's stream.
    fn resolve(&self, a: Assignment) -> Assignment {
        match self.moved.iter().find(|&&(owner, _)| owner == a.matcher) {
            Some(&(_, leader)) => Assignment::new(leader, a.dim),
            None => a,
        }
    }
}

/// The dispatcher's transport- and clock-agnostic state machine: routing
/// state, load view, suspicion list, and the at-least-once ledger with
/// its retransmit-timer heap.
pub struct DispatcherEngine {
    policy: Box<dyn ForwardingPolicy>,
    retry: RetryPolicy,
    rng: StdRng,
    view: StatsView,
    suspects: SuspectList,
    table: Table,
    /// The at-least-once ledger: publications awaiting acks, with a lazy
    /// min-heap of retransmit deadlines over them.
    ledger: HashMap<MessageId, InFlight>,
    timers: BinaryHeap<Reverse<(TimeKey, MessageId)>>,
}

impl DispatcherEngine {
    /// Builds an engine from its bootstrap state.
    pub fn new(cfg: DispatcherEngineConfig) -> Self {
        let suspicion_ttl = cfg.retry.suspicion_ttl;
        DispatcherEngine {
            policy: cfg.policy,
            rng: StdRng::seed_from_u64(cfg.seed),
            suspects: SuspectList::new(suspicion_ttl),
            retry: cfg.retry,
            view: StatsView::new(),
            table: Table {
                version: cfg.version,
                strategy: cfg.strategy,
                addrs: cfg.addrs,
                moved: Vec::new(),
            },
            ledger: HashMap::new(),
            timers: BinaryHeap::new(),
        }
    }

    /// The kind to reject `event` as, when it carries a publication or
    /// subscription that does not fit the routed space. Full replication
    /// never reads values or predicates, so it has nothing to check here;
    /// its matchers check what they are sent.
    fn malformed(&self, event: &DispatcherEvent) -> Option<Rejected> {
        let space = self.table.strategy.space()?;
        match event {
            DispatcherEvent::Publish { msg, .. } => {
                msg.validate(space).err().map(|_| Rejected::Publish)
            }
            DispatcherEvent::Subscribe(sub) => {
                sub.validate(space).err().map(|_| Rejected::Subscribe)
            }
            DispatcherEvent::Unsubscribe(sub) => {
                sub.validate(space).err().map(|_| Rejected::Unsubscribe)
            }
            _ => None,
        }
    }

    /// Feeds one event at `now`, acting through `port`. A malformed
    /// publication or (un)subscription is dropped and reported as a
    /// [`DispatcherEffect::Rejected`].
    pub fn on_event(&mut self, now: Time, event: DispatcherEvent, port: &mut dyn DispatcherPort) {
        if let Some(kind) = self.malformed(&event) {
            port.effect(DispatcherEffect::Rejected(kind));
            return;
        }
        match event {
            DispatcherEvent::Tick => self.tick(now, port),
            DispatcherEvent::Publish { msg, admitted_us } => {
                self.publish(now, msg, admitted_us, port)
            }
            DispatcherEvent::Subscribe(sub) => self.place(now, sub, true, port),
            DispatcherEvent::Unsubscribe(sub) => self.place(now, sub, false, port),
            DispatcherEvent::MatchAck {
                msg_id,
                matcher,
                actual_us,
            } => {
                // The matcher is demonstrably alive: stop shunning it.
                self.suspects.clear(matcher);
                if let Some(entry) = self.ledger.remove(&msg_id) {
                    // The message is off the matcher's queue: the
                    // reservation covering it has served its purpose.
                    if let Some((m, d)) = entry.reserved {
                        self.view.release(m, d);
                    }
                    // Estimation accuracy: only when the ack comes from
                    // the matcher the estimate was made for, carries a
                    // real measurement (re-acks of served duplicates ship
                    // zero), and the policy produced a time estimate.
                    if entry.target == Some(matcher) && actual_us > 0 {
                        if let Some(est) = entry.est_us {
                            port.effect(DispatcherEffect::Estimation {
                                est_us: est,
                                actual_us,
                            });
                        }
                    }
                }
            }
            DispatcherEvent::LoadReport {
                matcher,
                dim,
                stats,
            } => {
                if !self.suspects.contains(&matcher, now) {
                    self.view.update(matcher, dim, stats);
                }
            }
            DispatcherEvent::TableUpdate {
                version,
                strategy,
                addrs,
                leaders,
            } => {
                if version > self.table.version {
                    let moved = leaders.into_iter().filter(|&(s, l, _)| s != l);
                    self.table = Table {
                        version,
                        strategy,
                        addrs: addrs.into_iter().collect(),
                        moved: moved.map(|(s, l, _)| (s, l)).collect(),
                    };
                    // A fresh table is the management plane's authoritative
                    // membership: a matcher it re-lists is live again
                    // (restart), so stop shunning it.
                    self.suspects.retain_unlisted(&self.table.addrs);
                }
            }
            DispatcherEvent::MatcherDown(m) => {
                self.suspects.suspect(m, now);
                self.view.forget_matcher(m);
            }
        }
    }

    /// The earliest pending retransmit deadline, if any. Possibly stale
    /// (superseded timers stay in the heap until popped); firing a `Tick`
    /// at a stale deadline is a cheap no-op, so hosts just wake at
    /// whatever this returns.
    pub fn next_deadline(&self) -> Option<Time> {
        self.timers.peek().map(|&Reverse((TimeKey(t), _))| t)
    }

    /// Publications currently in the at-least-once ledger.
    pub fn in_flight(&self) -> usize {
        self.ledger.len()
    }

    /// Addresses of book-listed matchers not currently suspect — the
    /// population periodic table pulls sample from.
    pub fn live_addrs(&self, now: Time) -> Vec<String> {
        let mut v: Vec<String> = self
            .table
            .addrs
            .iter()
            .filter(|(m, _)| !self.suspects.contains(m, now))
            .map(|(_, a)| a.clone())
            .collect();
        v.sort_unstable();
        v
    }

    fn publish(
        &mut self,
        now: Time,
        msg: Message,
        admitted_us: u64,
        port: &mut dyn DispatcherPort,
    ) {
        let mut tried = Vec::new();
        let mut reserved = None;
        let sent = dispatch(
            &*self.policy,
            &self.table,
            &mut self.view,
            &mut self.suspects,
            &mut self.rng,
            self.retry.acks,
            now,
            &msg,
            admitted_us,
            &mut tried,
            &mut reserved,
            port,
        );
        let (target, est_us) = forwarded(port, msg.id, admitted_us, sent, false);
        if self.retry.acks {
            // Ledger the publication even when no candidate took it — the
            // retry schedule keeps probing, so a message admitted during a
            // total outage still gets delivered once any candidate heals
            // within the budget.
            let deadline = now + retransmit_delay(self.retry.ack_timeout, 0, self.rng.gen::<f64>());
            self.timers.push(Reverse((TimeKey(deadline), msg.id)));
            self.ledger.insert(
                msg.id,
                InFlight {
                    msg,
                    admitted_us,
                    attempts: 1,
                    tried,
                    target,
                    reserved,
                    est_us,
                    deadline,
                },
            );
        } else if target.is_none() {
            port.effect(DispatcherEffect::Dropped { msg_id: msg.id });
        }
    }

    /// Stores (or removes) each of `sub`'s copies where it lives: at its
    /// owner, or at the owner's stream leader ([`Table::resolve`]). A
    /// write has that one destination, so it goes there suspect or not,
    /// and nowhere else when it fails: a copy placed off its assignment
    /// would outlive its unsubscribe. A failed send suspects the target,
    /// as in [`dispatch`].
    fn place(&mut self, now: Time, sub: Subscription, store: bool, port: &mut dyn DispatcherPort) {
        let mut stored = 0usize;
        for owner in self.table.strategy.as_dyn().assign(&sub) {
            let (to, dim, stream) = (self.table.resolve(owner).matcher, owner.dim, owner.matcher);
            let out = match store {
                true => DispatcherOut::StoreSub {
                    dim,
                    sub: sub.clone(),
                    stream,
                },
                false => DispatcherOut::RemoveSub {
                    dim,
                    sub: sub.id,
                    stream,
                },
            };
            match self.table.addrs.get(&to) {
                Some(addr) if port.send(to, addr, out) => stored += 1,
                Some(_) => {
                    self.suspects.suspect(to, now);
                    self.view.forget_matcher(to);
                    port.effect(DispatcherEffect::Failover);
                }
                None => port.effect(DispatcherEffect::Failover),
            }
        }
        // Ack only once at least one copy is stored: a false ack would
        // tell the client its subscription is live when no matcher holds
        // it (the client times out and can retry).
        if store && stored > 0 {
            port.sub_ack(sub.subscriber, sub.id);
        }
    }

    fn tick(&mut self, now: Time, port: &mut dyn DispatcherPort) {
        self.suspects.purge(now);
        // Fire expired retransmit timers. Destructured so `dispatch` can
        // borrow the non-ledger state while a ledger entry is held.
        let DispatcherEngine {
            policy,
            retry,
            rng,
            view,
            suspects,
            table,
            ledger,
            timers,
            ..
        } = self;
        while let Some(&Reverse((TimeKey(deadline), id))) = timers.peek() {
            if deadline > now {
                break;
            }
            timers.pop();
            let Some(entry) = ledger.get_mut(&id) else {
                continue; // acked while the timer was pending
            };
            if entry.deadline != deadline {
                continue; // superseded by a later retransmission
            }
            // The target never acked: shun it and fail over. Forgetting
            // the matcher clears every pending reservation on it, so the
            // per-message reservation is invalidated (not released) —
            // releasing later would decrement somebody else's count.
            if let Some(t) = entry.target.take() {
                suspects.suspect(t, now);
                view.forget_matcher(t);
                entry.reserved = None;
            }
            if entry.attempts > retry.retry_budget {
                let dead = ledger.remove(&id).expect("entry just borrowed");
                if let Some((m, d)) = dead.reserved {
                    view.release(m, d);
                }
                port.effect(DispatcherEffect::DeadLettered { msg_id: id });
                continue;
            }
            entry.attempts += 1;
            let mut sent = None;
            for pass in 0..2 {
                if pass == 1 {
                    // Full rotation exhausted: restart it so matchers that
                    // recovered (or lost suspect status) are probed again.
                    entry.tried.clear();
                }
                sent = dispatch(
                    &**policy,
                    table,
                    view,
                    suspects,
                    rng,
                    retry.acks,
                    now,
                    &entry.msg,
                    entry.admitted_us,
                    &mut entry.tried,
                    &mut entry.reserved,
                    port,
                );
                if sent.is_some() {
                    break;
                }
            }
            let (target, est_us) = forwarded(port, id, entry.admitted_us, sent, true);
            entry.target = target;
            entry.est_us = est_us;
            entry.deadline =
                now + retransmit_delay(retry.ack_timeout, entry.attempts - 1, rng.gen::<f64>());
            timers.push(Reverse((TimeKey(entry.deadline), id)));
        }
    }
}

/// Reports a [`dispatch`] that `sent` the publication as `Forwarded`, and
/// splits the result into the ledger's target and estimate.
fn forwarded(
    port: &mut dyn DispatcherPort,
    msg_id: MessageId,
    admitted_us: u64,
    sent: Option<(MatcherId, DimIdx, Option<u64>)>,
    retransmission: bool,
) -> (Option<MatcherId>, Option<u64>) {
    let Some((matcher, dim, est_us)) = sent else {
        return (None, None);
    };
    port.effect(DispatcherEffect::Forwarded {
        msg_id,
        matcher,
        dim,
        admitted_us,
        retransmission,
    });
    (Some(matcher), est_us)
}

/// Chooses a live candidate for `msg` and sends the `Match` frame through
/// `port`, failing over past suspects, matchers already in `tried`, and
/// synchronous send errors. Candidates are resolved through the table's
/// leader book: a down owner's candidate is its stream's leader, which
/// holds the owner's copies. Returns the `(matcher, dim)` that accepted
/// the frame (the matcher is also appended to `tried`) plus the policy's
/// processing-time estimate in µs when one was made, or `None` when the
/// rotation is exhausted.
///
/// Must be entered with `*reserved == None` (the caller invalidates the
/// previous reservation when it forgets the failed target); on a
/// successful estimating send exactly one fresh reservation is recorded
/// into `reserved`.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    policy: &dyn ForwardingPolicy,
    table: &Table,
    view: &mut StatsView,
    suspects: &mut SuspectList,
    rng: &mut StdRng,
    want_ack: bool,
    now: Time,
    msg: &Message,
    admitted_us: u64,
    tried: &mut Vec<MatcherId>,
    reserved: &mut Option<(MatcherId, DimIdx)>,
    port: &mut dyn DispatcherPort,
) -> Option<(MatcherId, DimIdx, Option<u64>)> {
    debug_assert!(reserved.is_none(), "dispatch entered holding a reservation");
    // Primary candidates plus the degenerate-case clockwise fallbacks
    // (§III-A-1/3), probed only where that rule places copies. Fallbacks
    // are kept separate so the policy only considers them once every
    // live primary has been exhausted — send failures can kill primaries
    // *during* the loop below.
    let usable = |a: &Assignment, suspects: &SuspectList, tried: &[MatcherId]| -> bool {
        !suspects.contains(&a.matcher, now) && !tried.contains(&a.matcher)
    };
    let mut candidates: Vec<Assignment> = table
        .strategy
        .as_dyn()
        .candidates(msg)
        .into_iter()
        .map(|a| table.resolve(a))
        .filter(|a| usable(a, suspects, tried))
        .collect();
    let mut fallbacks: Vec<Assignment> = match &table.strategy {
        AnyStrategy::BlueDove(mp) => mp
            .fallback_candidates(msg)
            .into_iter()
            .map(|a| table.resolve(a))
            .filter(|a| usable(a, suspects, tried))
            .collect(),
        _ => Vec::new(),
    };

    loop {
        if candidates.is_empty() {
            fallbacks.retain(|a| usable(a, suspects, tried));
            if fallbacks.is_empty() {
                return None;
            }
            candidates = std::mem::take(&mut fallbacks);
        }
        let chosen = if candidates.len() == 1 {
            candidates[0]
        } else {
            policy.choose(&candidates, view, now, rng)
        };
        let Some(addr) = table.addrs.get(&chosen.matcher) else {
            // No address for a strategy-listed matcher: same treatment as
            // an unreachable one, including dropping its stale stats so a
            // later readmission starts from a clean slate.
            suspects.suspect(chosen.matcher, now);
            view.forget_matcher(chosen.matcher);
            port.effect(DispatcherEffect::Failover);
            candidates.retain(|a| a.matcher != chosen.matcher);
            continue;
        };
        let out = DispatcherOut::Match {
            dim: chosen.dim,
            msg: msg.clone(),
            admitted_us,
            want_ack,
        };
        if port.send(chosen.matcher, addr, out) {
            // What the load model predicts for the candidate this policy
            // picked — recorded for *every* policy so their
            // estimation-error distributions are comparable, and computed
            // *before* reserving (the reservation models this very
            // message, which must not count against its own prediction).
            // No measured µ means no estimate: the static proxy is a
            // ranking, not a time.
            let stats = view.get(chosen.matcher, chosen.dim);
            let est_us = (stats.mu > 0.0).then(|| {
                let est = stats.processing_time(stats.extrapolated_queue(now));
                (est * 1e6) as u64
            });
            if policy.uses_estimation() {
                view.reserve(chosen.matcher, chosen.dim);
                *reserved = Some((chosen.matcher, chosen.dim));
            }
            tried.push(chosen.matcher);
            return Some((chosen.matcher, chosen.dim, est_us));
        }
        // The matcher is unreachable: remember it, forget its stats and
        // fail over to another candidate (§III-A-3).
        suspects.suspect(chosen.matcher, now);
        view.forget_matcher(chosen.matcher);
        port.effect(DispatcherEffect::Failover);
        candidates.retain(|a| a.matcher != chosen.matcher);
    }
}
