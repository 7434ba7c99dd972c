//! Property tests of the subscription journal: random store / remove /
//! hand-over (out of one matcher, into another) / retire / adopt
//! sequences over a few [`MatcherEngine`]s of every index kind, each
//! journaling exactly the records the engine hands back, as both hosts
//! do. After every step, every matcher's own journal replayed into a
//! fresh engine rebuilds its live store exactly — the invariant failover
//! and restart recovery rest on.

use bluedove_core::{
    AttributeSpace, DimIdx, IndexKind, InnerKind, MatcherId, Message, MessageId, Range,
    SubLogRecord, SubscriberId, Subscription, SubscriptionId,
};
use bluedove_engine::{MatcherEngine, MatcherPort, Rejected};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: usize = 2;
const HI: u32 = 100;
const MATCHERS: usize = 3;
const STEPS: usize = 40;

fn space() -> AttributeSpace {
    AttributeSpace::uniform(K, 0.0, HI as f64)
}

fn every_kind() -> [IndexKind; 6] {
    [
        IndexKind::Linear,
        IndexKind::Cell(8),
        IndexKind::IntervalTree,
        IndexKind::Covering {
            inner: InnerKind::Linear,
        },
        IndexKind::Covering {
            inner: InnerKind::Cell(8),
        },
        IndexKind::Covering {
            inner: InnerKind::IntervalTree,
        },
    ]
}

/// Every record here is well formed, so a rejection is a bug. Collects
/// the records a hand-over sends on.
#[derive(Default)]
struct StrictPort(Vec<SubLogRecord>);

impl MatcherPort for StrictPort {
    fn deliver(&mut self, _: SubscriberId, _: SubscriptionId, _: &Message, _: u64) {}
    fn ack(&mut self, _: &str, _: MessageId, _: u64) {}
    fn duplicate_suppressed(&mut self) {}
    fn rejected(&mut self, kind: Rejected) {
        panic!("well-formed input rejected as {kind:?}");
    }
    fn forward(&mut self, _: MatcherId, _: MatcherId, rec: SubLogRecord) {
        self.0.push(rec);
    }
}

/// Matchers with their own streams, driven the way the hosts drive them.
struct Host {
    kind: IndexKind,
    engines: Vec<MatcherEngine>,
    journals: Vec<Vec<SubLogRecord>>,
}

impl Host {
    fn new(kind: IndexKind) -> Self {
        Host {
            kind,
            engines: (0..MATCHERS).map(|m| engine(kind, m)).collect(),
            journals: vec![Vec::new(); MATCHERS],
        }
    }

    /// A `StoreSub` / `RemoveSub` / `Retire` frame at matcher `m`.
    fn apply(&mut self, m: usize, rec: SubLogRecord) {
        if self.engines[m].apply(&rec, &mut StrictPort::default()) {
            self.journals[m].push(rec);
        }
    }

    /// A `HandOver`: `from` keeps serving, `to` stores the copies.
    fn hand_over(&mut self, from: usize, to: usize, dim: DimIdx, range: Range) {
        let mut port = StrictPort::default();
        let recipient = MatcherId(to as u32);
        self.engines[from].hand_over(dim, &range, recipient, &mut port);
        for rec in port.0 {
            self.apply(to, rec);
        }
    }

    /// `victim` crashes, `heir` adopts its stream and journals what it
    /// inherits; the victim comes back empty under a new incarnation.
    fn fail_over(&mut self, victim: usize, heir: usize) {
        let replay = std::mem::take(&mut self.journals[victim]);
        let inherited = self.engines[heir].adopt(&replay, &mut StrictPort::default());
        self.journals[heir].extend(inherited);
        self.engines[victim] = engine(self.kind, victim);
    }

    fn check(&self, step: usize) {
        for m in 0..MATCHERS {
            let mut replayed = engine(self.kind, m);
            for rec in &self.journals[m] {
                assert!(replayed.apply(rec, &mut StrictPort::default()));
            }
            assert_eq!(
                sorted(&replayed),
                sorted(&self.engines[m]),
                "{:?}: matcher {m}'s journal does not rebuild its store after step {step}",
                self.kind
            );
        }
    }
}

fn engine(kind: IndexKind, m: usize) -> MatcherEngine {
    MatcherEngine::new(MatcherId(m as u32), space(), kind, 64)
}

fn sorted(e: &MatcherEngine) -> Vec<(DimIdx, Subscription)> {
    let mut snap = e.snapshot();
    snap.sort_by_key(|(dim, sub)| (*dim, sub.id));
    snap
}

/// A range with integer endpoints in `[0, HI]`, so predicates often touch.
fn range(rng: &mut StdRng) -> Range {
    let lo = rng.gen_range(0..HI);
    Range::new(lo as f64, rng.gen_range(lo + 1..=HI) as f64)
}

fn sub(rng: &mut StdRng) -> Subscription {
    Subscription {
        // A small id pool, so stores re-register and removes hit.
        id: SubscriptionId(rng.gen_range(0..24)),
        subscriber: SubscriberId(1),
        predicates: (0..K).map(|_| range(rng)).collect(),
    }
}

fn journal_sequence(seed: u64) {
    for kind in every_kind() {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut host = Host::new(kind);
        for step in 0..STEPS {
            let m = rng.gen_range(0..MATCHERS);
            let other = (m + rng.gen_range(1..MATCHERS)) % MATCHERS;
            let dim = DimIdx(rng.gen_range(0..K) as u16);
            match rng.gen_range(0..10) {
                0..=3 => host.apply(
                    m,
                    SubLogRecord::Store {
                        dim,
                        sub: sub(&mut rng),
                    },
                ),
                4 => {
                    let id = SubscriptionId(rng.gen_range(0..24));
                    host.apply(m, SubLogRecord::Remove { dim, sub: id });
                }
                5 | 6 => host.hand_over(m, other, dim, range(&mut rng)),
                7 | 8 => {
                    let donated = range(&mut rng);
                    let keep = (0..rng.gen_range(0..3)).map(|_| range(&mut rng));
                    let keep = keep.collect();
                    let retire = SubLogRecord::Retire {
                        dim,
                        range: donated,
                        keep,
                    };
                    host.apply(m, retire);
                }
                _ => host.fail_over(m, other),
            }
            host.check(step);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_journal_rebuilds_its_store(seed in any::<u64>()) {
        journal_sequence(seed);
    }
}

/// Extra sweep for the CI chaos matrix; no-op when unset.
#[test]
fn journal_env_seed() {
    if let Some(seed) = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        println!("journal completeness sweep: seed={seed}");
        for i in 0..512 {
            journal_sequence(seed.wrapping_mul(1_000_003).wrapping_add(i));
        }
    }
}

fn store(id: u64, lo: f64, hi: f64) -> SubLogRecord {
    let mut sub = Subscription::builder(&space())
        .range(0, lo, hi)
        .build()
        .unwrap();
    sub.id = SubscriptionId(id);
    SubLogRecord::Store {
        dim: DimIdx(0),
        sub,
    }
}

fn replay(kind: IndexKind, recs: &[SubLogRecord]) -> MatcherEngine {
    let mut e = engine(kind, 0);
    for r in recs {
        assert!(e.apply(r, &mut StrictPort::default()));
    }
    e
}

#[test]
fn duplicate_replay_does_not_double_count() {
    let remove = SubLogRecord::Remove {
        dim: DimIdx(0),
        sub: SubscriptionId(1),
    };
    let recs = [
        store(1, 0.0, 10.0),
        store(2, 20.0, 30.0),
        remove,
        store(2, 20.0, 30.0),
    ];
    assert_eq!(replay(IndexKind::Linear, &recs).total_subs(), 1);
}

/// Covering is derived state: the same Store/Remove records rebuild
/// identical covering groups on a clean replay and on an overlapping
/// catch-up replay (a restart re-applying records the engine already
/// holds).
#[test]
fn replay_rebuilds_covering_groups_identically() {
    let kind = IndexKind::Covering {
        inner: InnerKind::Cell(8),
    };
    let recs = [
        store(1, 0.0, 50.0),  // template A
        store(2, 5.0, 20.0),  // covered by A
        store(3, 10.0, 40.0), // covered by A
        store(4, 60.0, 90.0), // template B
        store(5, 70.0, 80.0), // covered by B
        SubLogRecord::Remove {
            dim: DimIdx(0),
            sub: SubscriptionId(1),
        }, // dissolves A
        store(6, 0.0, 45.0),  // a new cover arrives after the dissolution
        store(3, 10.0, 40.0), // re-registration joins 6's group
    ];
    let live = replay(kind, &recs);
    let mut caught_up = replay(kind, &recs[..5]);
    for r in &recs {
        assert!(caught_up.apply(r, &mut StrictPort::default()));
    }
    let groups = live.covering_groups(DimIdx(0)).expect("covering enabled");
    assert!(
        groups
            .iter()
            .any(|(rep, members)| *rep == SubscriptionId(6) && members.contains(&SubscriptionId(3))),
        "re-registered member should join the later cover: {groups:?}"
    );
    assert_eq!(groups, caught_up.covering_groups(DimIdx(0)).unwrap());
    assert_eq!(live.total_subs(), caught_up.total_subs());
}
