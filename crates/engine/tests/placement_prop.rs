//! Property tests of copy placement across crashes: random subscribe /
//! unsubscribe / publish / crash / rejoin / leave sequences over the
//! control, dispatcher and matcher engines, hosted as the threaded
//! cluster hosts them — a matcher's own stream outlives its crash as its
//! durable log, a crash promotes the clockwise heir, a leaving interim
//! leader hands the streams it led on to its heir, a rejoin installs the
//! downtime delta from the stream's interim leader, and both prune what
//! they held for other streams — every matcher-side step through the
//! matcher engine's own calls. Replication is idealised: each led stream
//! is mirrored to its leader's clockwise heir after every step
//! (`replication_prop` covers the protocol itself). After every step:
//!
//! - every live subscription's copy of each assignment is held where the
//!   assignment resolves — at its owner, or at the owner's stream leader
//!   while the owner is down — and matching a probe at any resolved
//!   candidate finds exactly the live subscriptions it matches;
//! - no removed subscription keeps a copy on any live matcher;
//! - a write made while its owner is down is journaled on the owner's
//!   stream at the leader.

use bluedove_baselines::AnyStrategy;
use bluedove_core::{
    AttributeSpace, DimIdx, IndexKind, MPartition, MatcherId, Message, MessageId, RandomPolicy,
    Range, SegmentTable, SubLogRecord, SubscriberId, Subscription, SubscriptionId,
};
use bluedove_engine::{
    ControlEngine, DispatcherEffect, DispatcherEngine, DispatcherEngineConfig, DispatcherEvent,
    DispatcherOut, DispatcherPort, MatcherEngine, MatcherPort, ReplicatedStream, RetryPolicy,
    StreamSet,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::collections::{BTreeMap, BTreeSet};

const K: usize = 2;
const HI: u32 = 100;
const MATCHERS: u32 = 4;
const STEPS: usize = 60;

fn space() -> AttributeSpace {
    AttributeSpace::uniform(K, 0.0, HI as f64)
}

/// Collects the writes a matcher sends on; replication is mirrored
/// instead (see [`Host::mirror`]).
#[derive(Default)]
struct Forwards(VecDeque<(MatcherId, MatcherId, SubLogRecord)>);

impl MatcherPort for Forwards {
    fn deliver(&mut self, _: SubscriberId, _: SubscriptionId, _: &Message, _: u64) {}
    fn ack(&mut self, _: &str, _: MessageId, _: u64) {}
    fn duplicate_suppressed(&mut self) {}
    fn forward(&mut self, to: MatcherId, stream: MatcherId, rec: SubLogRecord) {
        self.0.push_back((to, stream, rec));
    }
}

/// Collects the dispatcher's frames; a send to a crashed matcher fails.
struct Outbox<'a> {
    live: &'a BTreeSet<MatcherId>,
    sent: Vec<(MatcherId, DispatcherOut)>,
}

impl DispatcherPort for Outbox<'_> {
    fn send(&mut self, to: MatcherId, _: &str, out: DispatcherOut) -> bool {
        let up = self.live.contains(&to);
        if up {
            self.sent.push((to, out));
        }
        up
    }
    fn sub_ack(&mut self, _: SubscriberId, _: SubscriptionId) {}
    fn effect(&mut self, _: DispatcherEffect) {}
}

/// A running matcher: its engine, over its replicated streams.
type Node = MatcherEngine;

fn empty_stream(id: MatcherId) -> ReplicatedStream<SubLogRecord> {
    ReplicatedStream::follower(id, 0, Vec::new(), ())
}

/// Matcher `id` leading its own stream — `log` replayed — at `epoch`.
fn boot(id: MatcherId, log: Vec<SubLogRecord>, epoch: u64) -> Node {
    let mut own = ReplicatedStream::follower(id, 0, log, ());
    let replay = own.promote(epoch).to_vec();
    let streams = StreamSet::new(own, Box::new(|s| Ok(empty_stream(s))));
    let mut engine = MatcherEngine::with_log(id, space(), IndexKind::Linear, 64, Some(streams));
    for rec in &replay {
        assert!(engine.apply(rec, &mut Forwards::default()));
    }
    engine
}

struct Host {
    control: ControlEngine,
    dispatcher: DispatcherEngine,
    live: BTreeSet<MatcherId>,
    nodes: BTreeMap<MatcherId, Node>,
    /// A crashed matcher's own stream: its durable log.
    logs: BTreeMap<MatcherId, Vec<SubLogRecord>>,
    /// Matchers that left gracefully.
    left: BTreeSet<MatcherId>,
    subs: BTreeMap<SubscriptionId, Subscription>,
    removed: Vec<Subscription>,
    next_id: u64,
    now: f64,
}

impl Host {
    /// `MATCHERS` matchers; `degenerate` keeps the §III-A-1 degenerate
    /// replication rule on.
    fn new(seed: u64, degenerate: bool) -> Self {
        let ids: Vec<MatcherId> = (0..MATCHERS).map(MatcherId).collect();
        let mut mp = MPartition::new(SegmentTable::uniform(space(), &ids));
        if !degenerate {
            mp = mp.without_degenerate_replication();
        }
        let mut control = ControlEngine::new(AnyStrategy::BlueDove(mp));
        control.replicate();
        let table = control.announce();
        let dispatcher = DispatcherEngine::new(DispatcherEngineConfig {
            policy: Box::new(RandomPolicy),
            seed,
            retry: RetryPolicy {
                acks: false,
                ..RetryPolicy::default()
            },
            version: table.version,
            strategy: table.strategy,
            addrs: table
                .live
                .iter()
                .map(|&m| (m, format!("m/{}", m.0)))
                .collect(),
        });
        Host {
            live: table.live.iter().copied().collect(),
            nodes: table
                .live
                .iter()
                .map(|&m| (m, boot(m, Vec::new(), 1)))
                .collect(),
            control,
            dispatcher,
            logs: BTreeMap::new(),
            left: BTreeSet::new(),
            subs: BTreeMap::new(),
            removed: Vec::new(),
            next_id: 1,
            now: 0.0,
        }
    }

    /// Feeds `event` to the dispatcher and delivers what it sends.
    fn feed(&mut self, event: DispatcherEvent) -> Vec<(MatcherId, DimIdx)> {
        self.now += 0.001;
        let mut out = Outbox {
            live: &self.live,
            sent: Vec::new(),
        };
        self.dispatcher.on_event(self.now, event, &mut out);
        let mut forwards = Vec::new();
        for (to, frame) in out.sent {
            match frame {
                DispatcherOut::StoreSub { dim, sub, stream } => {
                    self.write(to, stream, SubLogRecord::Store { dim, sub })
                }
                DispatcherOut::RemoveSub { dim, sub, stream } => {
                    self.write(to, stream, SubLogRecord::Remove { dim, sub })
                }
                DispatcherOut::Match { dim, .. } => forwards.push((to, dim)),
            }
        }
        forwards
    }

    /// A `StoreSub` / `RemoveSub` for `stream`'s copy arriving at `m`,
    /// then each write it sends on.
    fn write(&mut self, m: MatcherId, stream: MatcherId, rec: SubLogRecord) {
        let mut port = Forwards::default();
        port.0.push_back((m, stream, rec));
        self.deliver(&mut port);
    }

    /// Delivers the writes `port` collected, and the ones they send on.
    fn deliver(&mut self, port: &mut Forwards) {
        while let Some((m, stream, rec)) = port.0.pop_front() {
            let node = self.nodes.get_mut(&m).expect("sent to a live matcher");
            node.write(rec, stream, port);
        }
    }

    /// Idealised replication: each led stream's copy at its leader's
    /// clockwise heir catches up to the leader's.
    fn mirror(&mut self) {
        for &m in &self.live {
            let Some(heir) = self.control.heir(m) else {
                continue;
            };
            let log = self.nodes[&m].log().expect("replicated");
            let frames: Vec<_> = log
                .iter()
                .filter(|s| s.leads())
                .map(|s| s.serve(0))
                .collect();
            let heir = self.nodes.get_mut(&heir).expect("heirs are live");
            for frame in frames {
                assert_eq!(heir.on_append(&frame, &mut Forwards::default()), None);
            }
        }
    }

    /// Hands the dispatcher and every live matcher the control plane's
    /// next announcement.
    fn announce(&mut self) {
        let table = self.control.announce();
        for node in self.nodes.values_mut() {
            let (leaders, live) = (table.leaders.clone(), table.live.clone());
            node.on_table(leaders, live, &mut Forwards::default());
        }
        let addrs = table
            .live
            .iter()
            .map(|&m| (m, format!("m/{}", m.0)))
            .collect();
        self.feed(DispatcherEvent::TableUpdate {
            version: table.version,
            strategy: table.strategy,
            addrs,
            leaders: table.leaders,
        });
    }

    fn crash(&mut self, m: MatcherId) {
        let node = self.nodes.remove(&m).expect("live");
        self.live.remove(&m);
        self.logs
            .insert(m, node.log().unwrap().own().records().to_vec());
        for (stream, heir, epoch) in self.control.crash(m) {
            self.promote(stream, heir, epoch);
        }
        self.announce();
    }

    /// `heir` leads `stream` at `epoch`, adopting its replica.
    fn promote(&mut self, stream: MatcherId, heir: MatcherId, epoch: u64) {
        let node = self.nodes.get_mut(&heir).expect("heirs are live");
        node.promote(stream, epoch, &mut Forwards::default());
    }

    /// A graceful leave: the victim hands its segments' copies over, and
    /// each stream it led for a down owner moves on to its heir, which
    /// takes the victim's copy as its replica first.
    fn leave(&mut self, victim: MatcherId) {
        let change = self.control.leave(victim).expect("a live member");
        for mv in &change.moves {
            let donor = self.nodes.get_mut(&mv.from).expect("live");
            let mut port = Forwards::default();
            donor.hand_over(mv.dim, &mv.range, mv.to, &mut port);
            self.deliver(&mut port);
        }
        let mut node = self.nodes.remove(&victim).expect("live");
        self.live.remove(&victim);
        self.left.insert(victim);
        for (stream, heir, epoch) in self.control.commit(&change, self.now) {
            let served = node.serve(stream, 0, true).expect("led");
            let heir_node = self.nodes.get_mut(&heir).expect("live");
            heir_node.on_append(&served, &mut Forwards::default());
            self.promote(stream, heir, epoch);
        }
        self.announce();
    }

    fn rejoin(&mut self, m: MatcherId) {
        let (epoch, interim) = self.control.rejoin(m).expect("a crashed member");
        let mut node = boot(m, self.logs.remove(&m).expect("crashed"), epoch);
        if let Some(leader) = interim {
            let leader = self.nodes.get_mut(&leader).expect("live");
            let served = leader.serve(m, 0, true).expect("led");
            node.install(epoch, &served, &mut Forwards::default());
        }
        self.nodes.insert(m, node);
        self.live.insert(m);
        self.announce();
        for at in interim.into_iter().chain([m]) {
            let mut port = Forwards::default();
            let node = self.nodes.get_mut(&at).expect("live");
            node.prune(self.control.strategy(), &mut port);
            assert!(port.0.is_empty(), "a prune is written here");
        }
    }

    /// Where the copies of an assignment owned by `owner` live.
    fn holder(&self, owner: MatcherId) -> MatcherId {
        if self.live.contains(&owner) {
            owner
        } else {
            self.control.leader_of(owner).unwrap_or(owner)
        }
    }

    fn holds(&self, at: MatcherId, dim: DimIdx, id: SubscriptionId) -> bool {
        let snap = self.nodes[&at].snapshot();
        snap.iter().any(|(d, s)| *d == dim && s.id == id)
    }

    /// The subscription's assignments and where each resolves.
    fn placements(&self, sub: &Subscription) -> Vec<(MatcherId, MatcherId, DimIdx)> {
        let assign = self.control.strategy().as_dyn().assign(sub);
        let place = |a: bluedove_core::Assignment| (a.matcher, self.holder(a.matcher), a.dim);
        assign.into_iter().map(place).collect()
    }

    /// Each write of `sub`'s copies whose owner is down is on the owner's
    /// stream at its leader.
    fn check_journaled(&self, sub: &Subscription, removed: bool) {
        for (owner, at, dim) in self.placements(sub) {
            if owner == at {
                continue;
            }
            let rec = if removed {
                SubLogRecord::Remove { dim, sub: sub.id }
            } else {
                let sub = sub.clone();
                SubLogRecord::Store { dim, sub }
            };
            let stream = self.nodes[&at].log().unwrap().get(owner).expect("led");
            assert!(
                stream.records().contains(&rec),
                "{rec:?} for down {owner:?} not journaled on its stream at {at:?}"
            );
        }
    }

    /// The live subscriptions `msg` matches, by id.
    fn truth(&self, msg: &Message) -> BTreeSet<SubscriptionId> {
        let matching = self.subs.values().filter(|s| s.matches(msg));
        matching.map(|s| s.id).collect()
    }

    /// What matching `msg` on `dim` at `at` finds.
    fn matched(&self, at: MatcherId, dim: DimIdx, msg: &Message) -> BTreeSet<SubscriptionId> {
        let snap = self.nodes[&at].snapshot();
        let hits = snap
            .into_iter()
            .filter(|(d, s)| *d == dim && s.matches(msg));
        hits.map(|(_, s)| s.id).collect()
    }

    fn check(&self, probe: &Message, step: usize) {
        for sub in self.subs.values() {
            for (owner, at, dim) in self.placements(sub) {
                assert!(
                    self.holds(at, dim, sub.id),
                    "step {step}: {:?}'s copy owned by {owner:?} on {dim:?} not at {at:?}",
                    sub.id
                );
            }
        }
        for sub in &self.removed {
            for (&at, node) in &self.nodes {
                let kept = node.snapshot().into_iter().find(|(_, s)| s.id == sub.id);
                assert!(
                    kept.is_none(),
                    "step {step}: removed {:?} still at {at:?}: {kept:?}",
                    sub.id
                );
            }
        }
        let truth = self.truth(probe);
        for a in self.control.strategy().as_dyn().candidates(probe) {
            let at = self.holder(a.matcher);
            assert_eq!(
                self.matched(at, a.dim, probe),
                truth,
                "step {step}: candidate {a:?} resolved to {at:?}"
            );
        }
    }
}

/// A range with integer endpoints in `[0, HI]`, mostly narrow.
fn range(rng: &mut StdRng) -> Range {
    let lo = rng.gen_range(0..HI);
    let width = if rng.gen_bool(0.7) { 15 } else { HI };
    Range::new(
        lo as f64,
        rng.gen_range(lo + 1..=(lo + width).min(HI)) as f64,
    )
}

fn message(rng: &mut StdRng) -> Message {
    Message::new((0..K).map(|_| rng.gen_range(0.0..HI as f64)).collect())
}

fn placement_sequence(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Graceful leaves run with the degenerate rule off: a leave re-places
    // no degenerate copy (see ROADMAP), which this test does not cover.
    let elastic = rng.gen_bool(0.5);
    let mut host = Host::new(seed, !elastic);
    for step in 0..STEPS {
        let down: Vec<MatcherId> = (0..MATCHERS)
            .map(MatcherId)
            .filter(|m| !host.live.contains(m) && !host.left.contains(m))
            .collect();
        match rng.gen_range(0..11) {
            0..=3 => {
                let mut sub = Subscription {
                    id: SubscriptionId(host.next_id),
                    subscriber: SubscriberId(1),
                    predicates: (0..K).map(|_| range(&mut rng)).collect(),
                };
                host.next_id += 1;
                sub.subscriber = SubscriberId(sub.id.0);
                host.subs.insert(sub.id, sub.clone());
                host.feed(DispatcherEvent::Subscribe(sub.clone()));
                host.check_journaled(&sub, false);
            }
            4 | 5 if !host.subs.is_empty() => {
                let ids: Vec<SubscriptionId> = host.subs.keys().copied().collect();
                let id = ids[rng.gen_range(0..ids.len())];
                let sub = host.subs.remove(&id).expect("listed");
                host.feed(DispatcherEvent::Unsubscribe(sub.clone()));
                host.check_journaled(&sub, true);
                host.removed.push(sub);
            }
            6 | 7 => {
                let mut msg = message(&mut rng);
                msg.id = MessageId(step as u64 + 1);
                let truth = host.truth(&msg);
                let forwards = host.feed(DispatcherEvent::Publish {
                    msg: msg.clone(),
                    admitted_us: 0,
                });
                assert_eq!(
                    forwards.len(),
                    1,
                    "step {step}: one forward per publication"
                );
                let (to, dim) = forwards[0];
                assert_eq!(host.matched(to, dim, &msg), truth, "step {step}: forward");
            }
            8 if host.live.len() > 2 => {
                let live: Vec<MatcherId> = host.live.iter().copied().collect();
                host.crash(live[rng.gen_range(0..live.len())]);
            }
            9 if !down.is_empty() => host.rejoin(down[rng.gen_range(0..down.len())]),
            10 if elastic && host.live.len() > 2 => {
                let live: Vec<MatcherId> = host.live.iter().copied().collect();
                host.leave(live[rng.gen_range(0..live.len())]);
            }
            _ => {}
        }
        host.mirror();
        let probe = message(&mut rng);
        host.check(&probe, step);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_copy_is_placed_and_removed_where_it_resolves(seed in any::<u64>()) {
        placement_sequence(seed);
    }
}

/// Why the neighbour fallback is probed only where the degenerate rule
/// places copies: elsewhere a neighbour holds a matching subscription
/// only if it also overlaps the neighbour's segment, so matching there
/// would miss some of the matches and still be acked.
#[test]
fn a_neighbour_holds_only_a_subset_of_the_matches() {
    let strategy = AnyStrategy::bluedove(space(), MATCHERS);
    let msg = Message::new(vec![10.0, 10.0]); // every candidate is M0
    let sub = |d0: f64, d1: f64| Subscription {
        id: SubscriptionId(1),
        subscriber: SubscriberId(1),
        predicates: vec![Range::new(0.0, d0), Range::new(0.0, d1)],
    };
    // Each reaches M1's segment on one dimension only.
    let (a, b) = (sub(20.0, 30.0), sub(30.0, 20.0));
    assert!(a.matches(&msg) && b.matches(&msg));
    for dim in [DimIdx(0), DimIdx(1)] {
        let nb = bluedove_core::Assignment::new(MatcherId(1), dim);
        let held = |s: &Subscription| strategy.as_dyn().assign(s).contains(&nb);
        assert!(!(held(&a) && held(&b)), "{nb:?} holds every match");
    }
}

/// Extra sweep for the CI chaos matrix; no-op when unset.
#[test]
fn placement_env_seed() {
    if let Some(seed) = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        println!("placement sweep: seed={seed}");
        for i in 0..256 {
            placement_sequence(seed.wrapping_mul(1_000_003).wrapping_add(i));
        }
    }
}
