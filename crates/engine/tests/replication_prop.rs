//! Epoch-fencing, failback and heir-change property tests.
//!
//! The failback scenarios drive the engine's own [`ReplicatedStream`]
//! over the in-memory `()` journal — the same type the threaded cluster
//! and the simulator hold their sub-log streams in. One scenario per
//! seed, three phases, each an arbitrary interleaving:
//!
//! 1. the owner leads stream 1 at epoch 1; its heir replicates a prefix
//!    (the owner keeps an unreplicated tail or not) and a bystander
//!    replica receives arbitrary slices;
//! 2. the owner crashes; the heir promotes at epoch 2 and takes downtime
//!    writes while the deposed owner's retransmissions race it — at the
//!    heir itself and at the bystander;
//! 3. the owner restarts at epoch 3 from its own records, installs what
//!    the heir serves, the heir demotes, and the owner appends more while
//!    stale epoch-1 and epoch-2 frames are still in flight.
//!
//! At every step, two holders at the same epoch agree at every offset
//! both hold and each holder's records are epoch-monotone. At the end,
//! every replica converges on the owner's stream, whose replay is exactly
//! the model's history: the owner's own writes, the downtime writes, the
//! post-failback writes.
//!
//! The heir-change sequences run whole matcher engines, their sub-log
//! frames carried first in first out, through random subscribe / join /
//! leave / crash steps, among them a matcher crashing right after its
//! clockwise heir changed, with no append in between. What a crashed
//! matcher sent still lands; what was sent to it is lost. At every crash
//! the promoted heir holds every copy the victim held and the victim's
//! copy of every stream it led; at the end every heir holds its leader's
//! copy of every stream the leader leads.

use bluedove_baselines::AnyStrategy;
use bluedove_core::{
    AttributeSpace, DimIdx, IndexKind, MatcherId, Message, MessageId, Range, SubLogRecord,
    SubscriberId, Subscription, SubscriptionId,
};
use bluedove_engine::replication::{
    Epoch, FollowerOutcome, ReplicatedAppend, ReplicatedStream, StreamSet,
};
use bluedove_engine::{ControlEngine, LoadSnapshot, MatcherEngine, MatcherPort};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A record: the epoch it was written under and a unique write id.
type Rec = (Epoch, u64);
type Stream = ReplicatedStream<Rec>;

const STREAM: MatcherId = MatcherId(1);

fn replica(records: Vec<Rec>) -> Stream {
    Stream::follower(STREAM, 0, records, ())
}

fn accept(to: &mut Stream, append: &ReplicatedAppend<Rec>) -> FollowerOutcome {
    let Ok(outcome) = to.accept(append);
    outcome
}

/// Ships `len` of `from`'s records starting at `start`, stamped as
/// `from` stamps them, and serves one gap from `from` — what a host does
/// with a live append and the `NeedFetch` it may provoke.
fn ship(from: &Stream, to: &mut Stream, start: u64, len: usize) {
    let mut append = from.serve(start);
    append.records.truncate(len);
    if let FollowerOutcome::NeedFetch { from: gap } = accept(to, &append) {
        let fill = accept(to, &from.serve(gap));
        assert!(
            !matches!(fill, FollowerOutcome::NeedFetch { .. }),
            "gap persisted after a full catch-up"
        );
    }
}

/// Ships a random slice of `from`'s history.
fn ship_slice(rng: &mut StdRng, from: &Stream, to: &mut Stream) {
    let start = rng.gen_range(0..=from.next_offset());
    ship(from, to, start, rng.gen_range(1..6));
}

/// Same epoch ⇒ same record at every shared offset; records are
/// epoch-monotone by offset; the store is exactly the accepted prefix.
fn check(holders: &[&Stream]) {
    for a in holders {
        assert_eq!(a.base(), 0, "nothing compacts here");
        assert!(a.records().windows(2).all(|w| w[0].0 <= w[1].0));
        for b in holders {
            if a.epoch() == b.epoch() {
                let common = a.next_offset().min(b.next_offset()) as usize;
                assert_eq!(a.records()[..common], b.records()[..common]);
            }
        }
    }
}

fn failback_never_diverges(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = 0u64;
    let mut write = |epoch: Epoch| {
        ids += 1;
        (epoch, ids)
    };

    // Phase 1: the owner leads at epoch 1; the heir holds all but an
    // optional unreplicated tail.
    let mut owner = replica(Vec::new());
    owner.promote(1);
    let mut heir = replica(Vec::new());
    let mut other = replica(Vec::new());
    let n: u64 = rng.gen_range(1..20);
    let unreplicated = if rng.gen_bool(0.5) {
        rng.gen_range(1..=n.min(4))
    } else {
        0
    };
    for i in 0..n {
        let append = owner.append(write(1)).unwrap().unwrap();
        if i + 1 == n - unreplicated || (i + 1 < n - unreplicated && rng.gen_bool(0.7)) {
            ship(&owner, &mut heir, append.offset, 1);
        }
        if rng.gen_bool(0.4) {
            ship_slice(&mut rng, &owner, &mut other);
        }
        check(&[&owner, &heir, &other]);
    }
    let promoted_at = n - unreplicated;
    assert_eq!(heir.next_offset(), promoted_at);

    // Phase 2: the owner crashed; the heir promotes at epoch 2 and takes
    // downtime writes while the deposed owner's retransmissions race it.
    let crashed = owner;
    assert_eq!(heir.promote(2).len() as u64, promoted_at);
    let mut downtime = Vec::new();
    let mut stale_frames = Vec::new();
    for _ in 0..rng.gen_range(1..16) {
        match rng.gen_range(0..5) {
            0 => {
                let rec = write(2);
                heir.append(rec).unwrap().unwrap();
                downtime.push(rec);
            }
            1 => {
                // A deposed leader's frame reaching the new leader.
                let before = heir.records().to_vec();
                let mut stale = crashed.serve(rng.gen_range(0..=n));
                stale.records.truncate(2);
                assert_eq!(
                    accept(&mut heir, &stale),
                    FollowerOutcome::Fenced { current: 2 }
                );
                assert_eq!(heir.records(), &before[..]);
            }
            2 => ship_slice(&mut rng, &crashed, &mut other),
            3 => ship_slice(&mut rng, &heir, &mut other),
            _ => stale_frames.push(heir.serve(rng.gen_range(0..=heir.next_offset()))),
        }
        check(&[&heir, &other]);
        if other.epoch() >= 2 {
            // The ghost-tail rule: no epoch-1 record past the promotion
            // point survives adopting epoch 2.
            let held = &other.records()[promoted_at.min(other.next_offset()) as usize..];
            assert!(held.iter().all(|r| r.0 == 2));
        }
    }

    // Phase 3: the owner restarts from its own records at epoch 3,
    // installs the heir's copy, the heir steps down, and more writes
    // follow while stale frames are still in flight.
    let mut owner = replica(crashed.records().to_vec());
    owner.promote(3);
    let served = heir.serve(0);
    let Ok(delta) = owner.install(3, &served);
    assert_eq!(
        delta,
        &downtime[..],
        "a restart installs only the downtime delta"
    );
    heir.demote();
    let mut after = Vec::new();
    for _ in 0..rng.gen_range(1..16) {
        match rng.gen_range(0..5) {
            0 => {
                let rec = write(3);
                let append = owner.append(rec).unwrap().unwrap();
                after.push(rec);
                ship(&owner, &mut heir, append.offset, 1);
            }
            1 => ship_slice(&mut rng, &owner, &mut other),
            2 => ship_slice(&mut rng, &crashed, &mut other),
            _ => {
                if let Some(stale) = stale_frames.pop() {
                    let to = if rng.gen_bool(0.5) {
                        &mut heir
                    } else {
                        &mut other
                    };
                    accept(to, &stale);
                }
            }
        }
        check(&[&owner, &heir, &other]);
    }

    // Replaying the owner's stream yields the model: its own writes (an
    // unreplicated tail included), then the downtime writes, then the
    // post-failback writes.
    let expected: Vec<Rec> = crashed
        .records()
        .iter()
        .chain(&downtime)
        .chain(&after)
        .copied()
        .collect();
    assert_eq!(owner.records(), &expected[..]);
    // Every replica converges on it, after which both deposed writers
    // are fenced.
    for r in [&mut heir, &mut other] {
        ship(&owner, r, 0, usize::MAX);
        assert_eq!(r.records(), owner.records());
        assert_eq!(r.epoch(), 3);
        assert!(matches!(
            accept(r, &crashed.serve(0)),
            FollowerOutcome::Fenced { current: 3 }
        ));
        for stale in &stale_frames {
            assert!(matches!(accept(r, stale), FollowerOutcome::Fenced { .. }));
        }
        assert_eq!(r.records(), owner.records());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Deposed-leader races, promotion, failback and more appends never
    /// diverge two holders of the same epoch, and the owner's stream
    /// ends as exactly the model's history.
    #[test]
    fn promotion_and_failback_never_diverge_replicas(seed in any::<u64>()) {
        failback_never_diverges(seed);
    }

}

/// Extra sweep for the CI chaos matrix; no-op when unset.
#[test]
fn failback_env_seed() {
    if let Some(seed) = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        println!("replication failback sweep: seed={seed}");
        for i in 0..256 {
            failback_never_diverges(seed.wrapping_mul(1_000_003).wrapping_add(i));
        }
    }
}

#[test]
fn reset_serve_replaces_a_copy_behind_the_horizon() {
    let mut owner = replica(Vec::new());
    owner.promote(1);
    for i in 0..3 {
        owner.append((1, i)).unwrap();
    }
    let snap = owner.compact(vec![(1, 9)]).unwrap().unwrap();
    assert_eq!((snap.offset, owner.base(), owner.next_offset()), (3, 3, 4));
    let mut late = replica(vec![(1, 0)]);
    let fill = owner.serve(1);
    assert!(fill.reset);
    assert_eq!(
        accept(&mut late, &fill),
        FollowerOutcome::Stored {
            next_offset: 4,
            fresh: 1
        }
    );
    assert_eq!((late.base(), late.records()), (3, &[(1, 9)][..]));
    // A deposed leader's reset is fenced, not adopted.
    let mut stale = fill.clone();
    stale.epoch = 0;
    assert_eq!(
        accept(&mut late, &stale),
        FollowerOutcome::Fenced { current: 1 }
    );
    assert_eq!(late.records(), &[(1, 9)][..]);
}

#[test]
fn a_leading_holder_fences_appends_and_the_set_routes_by_stream() {
    let mut own = Stream::follower(MatcherId(2), 0, Vec::new(), ());
    own.promote(1);
    let mut set = StreamSet::new(own, Box::new(|_| Ok(replica(Vec::new()))));
    let peer = ReplicatedAppend {
        stream: STREAM,
        epoch: 1,
        base: 0,
        offset: 0,
        reset: false,
        records: vec![(1, 7)],
    };
    let Ok(first) = set.accept(&peer);
    assert!(matches!(first, FollowerOutcome::Stored { .. }));
    assert!(!set.leads(STREAM));
    assert_eq!(set.promote(STREAM, 2), Ok(&[(1, 7)][..]));
    assert!(set.leads(STREAM));
    assert_eq!(
        set.accept(&peer),
        Ok(FollowerOutcome::Fenced { current: 2 })
    );
    set.demote(STREAM);
    assert!(!set.leads(STREAM));
    // The own stream is never promoted or demoted by the set.
    assert_eq!(set.promote(MatcherId(2), 5), Ok(&[][..]));
    set.demote(MatcherId(2));
    assert_eq!(set.own().epoch(), 1);
    assert!(set.leads(MatcherId(2)));
}

const SPACE_HI: f64 = 100.0;

/// A sub-log frame in flight.
enum Frame {
    /// A replicated append from `from` to `to`.
    Append {
        from: MatcherId,
        to: MatcherId,
        append: ReplicatedAppend<SubLogRecord>,
    },
    /// `from` asks `to` for `stream`'s records from offset `off`.
    Fetch {
        from: MatcherId,
        to: MatcherId,
        stream: MatcherId,
        off: u64,
    },
}

/// Matcher `me`'s port: appends join the frames in flight (a send to a
/// matcher that is down fails), forwarded writes are applied at once.
struct Port<'a> {
    me: MatcherId,
    live: &'a BTreeSet<MatcherId>,
    frames: &'a mut VecDeque<Frame>,
    writes: &'a mut VecDeque<(MatcherId, MatcherId, SubLogRecord)>,
}

impl MatcherPort for Port<'_> {
    fn deliver(&mut self, _: SubscriberId, _: SubscriptionId, _: &Message, _: u64) {}
    fn ack(&mut self, _: &str, _: MessageId, _: u64) {}
    fn duplicate_suppressed(&mut self) {}
    fn replicate(&mut self, to: MatcherId, append: &ReplicatedAppend<SubLogRecord>) -> bool {
        let (from, append) = (self.me, append.clone());
        let up = self.live.contains(&to);
        if up {
            self.frames.push_back(Frame::Append { from, to, append });
        }
        up
    }
    fn forward(&mut self, to: MatcherId, stream: MatcherId, rec: SubLogRecord) {
        self.writes.push_back((to, stream, rec));
    }
}

/// A ring of matcher engines with replicated streams under one control
/// plane.
struct Ring {
    control: ControlEngine,
    nodes: BTreeMap<MatcherId, MatcherEngine>,
    live: BTreeSet<MatcherId>,
    frames: VecDeque<Frame>,
    writes: VecDeque<(MatcherId, MatcherId, SubLogRecord)>,
    next_sub: u64,
}

fn ring_space() -> AttributeSpace {
    AttributeSpace::uniform(2, 0.0, SPACE_HI)
}

/// Matcher `id`, leading its own empty stream at epoch 1.
fn ring_node(id: MatcherId) -> MatcherEngine {
    let empty = |s| ReplicatedStream::follower(s, 0, Vec::new(), ());
    let mut own = empty(id);
    own.promote(1);
    let log = StreamSet::new(own, Box::new(move |s| Ok(empty(s))));
    MatcherEngine::with_log(id, ring_space(), IndexKind::Linear, 64, Some(log))
}

impl Ring {
    fn new(n: u32) -> Self {
        let mut control = ControlEngine::new(AnyStrategy::bluedove(ring_space(), n));
        control.replicate();
        let live: BTreeSet<MatcherId> = control.live().collect();
        let mut ring = Ring {
            nodes: live.iter().map(|&m| (m, ring_node(m))).collect(),
            control,
            live,
            frames: VecDeque::new(),
            writes: VecDeque::new(),
            next_sub: 1,
        };
        ring.tables();
        ring
    }

    /// Runs `step` on matcher `m`'s engine, then applies the writes it
    /// (and they) send on.
    fn at<T>(&mut self, m: MatcherId, step: impl FnOnce(&mut MatcherEngine, &mut Port) -> T) -> T {
        let mut port = Port {
            me: m,
            live: &self.live,
            frames: &mut self.frames,
            writes: &mut self.writes,
        };
        let out = step(self.nodes.get_mut(&m).expect("live"), &mut port);
        while let Some((to, stream, rec)) = self.writes.pop_front() {
            let mut port = Port {
                me: to,
                live: &self.live,
                frames: &mut self.frames,
                writes: &mut self.writes,
            };
            let node = self.nodes.get_mut(&to).expect("writes go to live matchers");
            node.write(rec, stream, &mut port);
        }
        out
    }

    /// Hands every live matcher the control plane's table.
    fn tables(&mut self) {
        let (leaders, live) = (
            self.control.leaders(),
            self.control.live().collect::<Vec<_>>(),
        );
        for m in live.clone() {
            self.at(m, |e, p| e.on_table(leaders.clone(), live.clone(), p));
        }
    }

    /// Delivers one frame; a frame to a matcher that is down is lost.
    fn deliver(&mut self, frame: Frame) {
        match frame {
            Frame::Append { from, to, append } if self.live.contains(&to) => {
                if let Some(off) = self.at(to, |e, p| e.on_append(&append, p)) {
                    let stream = append.stream;
                    let fetch = Frame::Fetch {
                        from: to,
                        to: from,
                        stream,
                        off,
                    };
                    self.frames.push_back(fetch);
                }
            }
            Frame::Fetch {
                from,
                to,
                stream,
                off,
            } if self.live.contains(&to) => {
                if let Some(append) = self.at(to, |e, _| e.serve(stream, off, false)) {
                    let (from, to) = (to, from);
                    self.frames.push_back(Frame::Append { from, to, append });
                }
            }
            _ => {}
        }
    }

    fn deliver_some(&mut self, n: usize) {
        for _ in 0..n {
            let Some(frame) = self.frames.pop_front() else {
                return;
            };
            self.deliver(frame);
        }
    }

    /// A subscription's copies, each written where the dispatcher routes
    /// it: to its owner, or to the owner's stream leader while it is down.
    fn subscribe(&mut self, rng: &mut StdRng) {
        let range = |rng: &mut StdRng| {
            let lo = rng.gen_range(0.0..SPACE_HI - 1.0);
            Range::new(lo, rng.gen_range(lo + 1.0..=(lo + 30.0).min(SPACE_HI)))
        };
        let sub = Subscription {
            id: SubscriptionId(self.next_sub),
            subscriber: SubscriberId(1),
            predicates: vec![range(rng), range(rng)],
        };
        self.next_sub += 1;
        for a in self.control.strategy().as_dyn().assign(&sub) {
            let to = self.control.leader_of(a.matcher).unwrap_or(a.matcher);
            let to = if self.live.contains(&a.matcher) {
                a.matcher
            } else {
                to
            };
            let (dim, sub) = (a.dim, sub.clone());
            self.writes
                .push_back((to, a.matcher, SubLogRecord::Store { dim, sub }));
        }
        let first = self.live.iter().next().copied().expect("a live matcher");
        self.at(first, |_, _| ());
    }

    /// Ships each move's copies from its donor to the recipient's leader.
    fn hand_over(&mut self, moves: &[bluedove_engine::Move]) {
        for mv in moves {
            self.at(mv.from, |e, p| e.hand_over(mv.dim, &mv.range, mv.to, p));
        }
    }

    /// A join split off the segments of live matchers (a down one serves
    /// no hand-over).
    fn join(&mut self) -> MatcherId {
        let mut loads = LoadSnapshot::empty();
        for (&m, node) in &self.nodes {
            for dim in (0..2).map(DimIdx) {
                let sub_count = 1 + node.sub_count(dim);
                let stats = bluedove_core::DimStats {
                    sub_count,
                    ..bluedove_core::DimStats::empty()
                };
                loads.push(m, dim, stats);
            }
        }
        let change = self.control.join(&loads).expect("BlueDove");
        let id = change.outcome.matcher();
        self.nodes.insert(id, ring_node(id));
        self.live.insert(id);
        self.hand_over(&change.moves);
        self.control.commit(&change, 0.0);
        self.tables();
        for mv in &change.moves {
            let (dim, range, keep) = (mv.dim, mv.range, mv.keep.clone());
            let retire = SubLogRecord::Retire { dim, range, keep };
            self.at(mv.from, |e, p| e.write(retire, mv.from, p));
        }
        id
    }

    fn leave(&mut self, victim: MatcherId) {
        let change = self.control.leave(victim).expect("a live member");
        self.hand_over(&change.moves);
        for (stream, heir, epoch) in self.control.commit(&change, 0.0) {
            let copy = self.at(victim, |e, _| e.serve(stream, 0, true));
            let copy = copy.expect("the leaver led the stream");
            self.at(heir, |e, p| e.on_append(&copy, p));
            self.at(heir, |e, p| e.promote(stream, epoch, p));
        }
        self.nodes.remove(&victim);
        self.live.remove(&victim);
        self.tables();
    }

    /// Crashes `victim`: what it sent lands first, then its streams fail
    /// over. Checks that the heir holds what the victim held.
    fn crash(&mut self, victim: MatcherId) {
        let (sent, rest) = std::mem::take(&mut self.frames)
            .into_iter()
            .partition::<Vec<_>, _>(|f| matches!(f, Frame::Append { from, .. } if *from == victim));
        self.frames = rest.into();
        for frame in sent {
            self.deliver(frame);
        }
        let node = self.nodes.remove(&victim).expect("live");
        self.live.remove(&victim);
        let log = node.log().expect("replicated");
        let led: Vec<_> = log
            .iter()
            .filter(|s| s.leads())
            .map(|s| (s.id(), s.records().to_vec()))
            .collect();
        for (stream, heir, epoch) in self.control.crash(victim) {
            self.at(heir, |e, p| e.promote(stream, epoch, p));
        }
        self.tables();
        let heir = self.control.leader_of(victim).expect("a live heir");
        let held: BTreeSet<(DimIdx, SubscriptionId)> = ids(&node);
        let inherited = ids(&self.nodes[&heir]);
        let lost: Vec<_> = held.difference(&inherited).collect();
        assert!(
            lost.is_empty(),
            "{victim:?}'s copies not at {heir:?}: {lost:?}"
        );
        let heir_log = self.nodes[&heir].log().expect("replicated");
        for (stream, records) in led {
            let copy = heir_log.get(stream).map(|s| s.records());
            assert_eq!(copy, Some(&records[..]), "{heir:?}'s copy of {stream:?}");
        }
    }

    /// Once every frame has landed, each live matcher's heir holds its
    /// copy of every stream it leads.
    fn check_converged(&mut self) {
        while let Some(frame) = self.frames.pop_front() {
            self.deliver(frame);
        }
        for (&m, node) in &self.nodes {
            let Some(heir) = self.control.heir(m) else {
                continue;
            };
            let heir_log = self.nodes[&heir].log().expect("replicated");
            for s in node.log().expect("replicated").iter().filter(|s| s.leads()) {
                let copy = heir_log.get(s.id()).map(|c| c.records());
                assert_eq!(copy, Some(s.records()), "{heir:?}'s copy of {:?}", s.id());
            }
        }
    }
}

fn ids(e: &MatcherEngine) -> BTreeSet<(DimIdx, SubscriptionId)> {
    e.snapshot().into_iter().map(|(d, s)| (d, s.id)).collect()
}

fn heir_changes_never_lose_a_stream(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ring = Ring::new(4);
    for _ in 0..40 {
        let live: Vec<MatcherId> = ring.live.iter().copied().collect();
        let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
        match rng.gen_range(0..9) {
            0..=2 => ring.subscribe(&mut rng),
            3 | 4 => {
                let n = rng.gen_range(0..8);
                ring.deliver_some(n);
            }
            5 if live.len() < 7 => {
                ring.join();
            }
            6 if live.len() > 2 => ring.leave(pick(&mut rng)),
            7 if live.len() > 2 => ring.crash(pick(&mut rng)),
            8 if live.len() > 3 => {
                // Change some matcher's heir, then crash that matcher
                // before it appends again.
                let victim = match rng.gen_range(0..3) {
                    0 => {
                        let last = *live.last().expect("live");
                        ring.join();
                        last
                    }
                    way => {
                        let victim = pick(&mut rng);
                        let heir = ring.control.heir(victim).expect("a heir");
                        if way == 1 {
                            ring.leave(heir);
                        } else {
                            ring.crash(heir);
                        }
                        victim
                    }
                };
                ring.crash(victim);
            }
            _ => {}
        }
    }
    ring.check_converged();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Joins, leaves and crashes — a crash right after an heir change
    /// among them — never lose a copy or a stream.
    #[test]
    fn heir_changes_never_lose_a_copy(seed in any::<u64>()) {
        heir_changes_never_lose_a_stream(seed);
    }
}

/// Extra heir-change sweep for the CI chaos matrix; no-op when unset.
#[test]
fn heir_change_env_seed() {
    if let Some(seed) = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        println!("heir-change sweep: seed={seed}");
        for i in 0..256 {
            heir_changes_never_lose_a_stream(seed.wrapping_mul(1_000_003).wrapping_add(i));
        }
    }
}
