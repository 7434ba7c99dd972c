//! Property tests of the control plane: random join / leave / crash /
//! rejoin / announce sequences on [`ControlEngine`], checked after every
//! step against a plain membership model.
//!
//! - announced table versions strictly increase;
//! - a stream's epoch never decreases;
//! - the epoch book lists exactly the members' streams; a live member
//!   leads its own stream, and a down member's stream is led by a live
//!   member or, once its interim leader left, by nobody;
//! - a crash promotes onto the next live id clockwise, one epoch up;
//! - every dimension's segments partition the space among the members;
//! - a rejoin of a non-member (or of a running member), a leave of a down
//!   member and an uncommitted join are refused or leave no trace.
//!
//! A crash never takes down the last live member: with nobody left to
//! promote, streams keep their dead leader until the owner rejoins.

use bluedove_baselines::AnyStrategy;
use bluedove_core::{AttributeSpace, DimIdx, DimStats, MatcherId};
use bluedove_engine::{ControlEngine, LoadSnapshot, ScaleError, ScaleOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const K: usize = 3;
const LO: f64 = 0.0;
const HI: f64 = 100.0;

/// The membership a correct control plane must agree with.
struct Model {
    members: BTreeSet<MatcherId>,
    down: BTreeSet<MatcherId>,
    /// Every id handed out so far (ids are never reused).
    issued: u32,
    last_version: u64,
    epochs: BTreeMap<MatcherId, u64>,
}

impl Model {
    fn live(&self) -> Vec<MatcherId> {
        self.members.difference(&self.down).copied().collect()
    }

    /// The reference ring walk: the lowest live id above `m`, else the
    /// lowest live id, `m` excluded.
    fn heir(&self, m: MatcherId) -> Option<MatcherId> {
        let live: Vec<MatcherId> = self.live().into_iter().filter(|&l| l != m).collect();
        live.iter().find(|&&l| l > m).or(live.first()).copied()
    }

    /// Any id, member or not, biased towards the ones in use.
    fn pick(&self, rng: &mut StdRng) -> MatcherId {
        MatcherId(rng.gen_range(0..self.issued + 2))
    }
}

fn loads(rng: &mut StdRng, live: &[MatcherId]) -> LoadSnapshot {
    let mut snap = LoadSnapshot::new(0.0);
    for &m in live {
        for d in 0..K {
            let stats = DimStats {
                sub_count: rng.gen_range(0..100),
                queue_len: 0,
                lambda: 0.0,
                mu: 0.0,
                updated_at: 0.0,
            };
            snap.push(m, DimIdx(d as u16), stats);
        }
    }
    snap
}

/// Every dimension's segments are sorted, contiguous, cover `[LO, HI)`,
/// and are owned by exactly the members.
fn check_partition(c: &ControlEngine, model: &Model) {
    let AnyStrategy::BlueDove(mp) = c.strategy() else {
        panic!("the sequences run on BlueDove");
    };
    for d in 0..K {
        let segs = mp.table().segments(DimIdx(d as u16));
        assert_eq!(
            segs.first().map(|s| s.range.lo),
            Some(LO),
            "dim {d} lower gap"
        );
        assert_eq!(
            segs.last().map(|s| s.range.hi),
            Some(HI),
            "dim {d} upper gap"
        );
        for w in segs.windows(2) {
            assert_eq!(w[0].range.hi, w[1].range.lo, "dim {d} hole");
        }
        let owners: BTreeSet<MatcherId> = segs.iter().map(|s| s.owner).collect();
        assert_eq!(owners, model.members, "dim {d} owners are the members");
    }
}

/// The announcement agrees with the model and moves monotonically.
fn check_announce(c: &mut ControlEngine, model: &mut Model) {
    let t = c.announce();
    assert!(t.version > model.last_version, "version did not increase");
    model.last_version = t.version;
    assert_eq!(t.live, model.live(), "announced address book");
    let streams: BTreeSet<MatcherId> = t.leaders.iter().map(|e| e.0).collect();
    assert_eq!(
        streams, model.members,
        "leader book lists the members' streams"
    );
    for (s, l, e) in t.leaders {
        assert_eq!(Some(l), c.leader_of(s), "{s:?}'s announced leader");
        let seen = model.epochs.entry(s).or_insert(e);
        assert!(e >= *seen, "stream {s:?} epoch went back {seen} -> {e}");
        *seen = e;
    }
}

/// Without replication nobody is ever promoted: every stream stays with
/// its owner, up or down.
fn check_leaders(c: &ControlEngine, model: &Model, replicated: bool) {
    for &s in &model.members {
        let leader = c.leader_of(s);
        if !replicated || !model.down.contains(&s) {
            assert_eq!(leader, Some(s), "{s:?} leads its own stream");
        } else if let Some(l) = leader.filter(|&l| l != s) {
            assert!(
                model.members.contains(&l) && !model.down.contains(&l),
                "down {s:?}'s stream led by {l:?}, not a live member"
            );
        }
    }
    for m in 0..model.issued {
        let m = MatcherId(m);
        assert_eq!(c.heir(m), model.heir(m), "heir of {m:?}");
    }
}

fn control_sequence(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..5u32);
    let replicated = rng.gen_bool(0.8);
    let space = AttributeSpace::uniform(K, LO, HI);
    let mut c = ControlEngine::new(AnyStrategy::bluedove(space, n));
    if replicated {
        c.replicate();
    }
    let mut model = Model {
        members: (0..n).map(MatcherId).collect(),
        down: BTreeSet::new(),
        issued: n,
        last_version: 0,
        epochs: BTreeMap::new(),
    };
    for step in 0..rng.gen_range(1..40) {
        let now = step as f64;
        match rng.gen_range(0..6) {
            0 => {
                let before = c.strategy().clone();
                // An empty snapshot ties every load, as `add_matcher` does.
                let snap = if rng.gen_bool(0.5) {
                    loads(&mut rng, &model.live())
                } else {
                    LoadSnapshot::empty()
                };
                let change = match c.join(&snap) {
                    Err(ScaleError::NoLiveDonor(_)) => {
                        // Every member owns a segment of every dimension.
                        assert!(model.live().is_empty(), "refused with a live member");
                        assert_eq!(c.strategy(), &before);
                        continue;
                    }
                    other => other.expect("BlueDove grows"),
                };
                let id = MatcherId(model.issued);
                model.issued += 1;
                assert_eq!(change.outcome, ScaleOutcome::Added(id), "fresh id");
                assert!(change.moves.iter().all(|mv| mv.to == id));
                assert!(
                    change.moves.iter().all(|mv| !model.down.contains(&mv.from)),
                    "a down member donates"
                );
                assert_eq!(c.strategy(), &before, "planning announces nothing");
                if rng.gen_bool(0.8) {
                    c.commit(&change, now);
                    model.members.insert(id);
                }
            }
            1 => {
                let victim = model.pick(&mut rng);
                let expect = if !model.members.contains(&victim) {
                    Err(ScaleError::UnknownMatcher(victim))
                } else if model.down.contains(&victim) {
                    Err(ScaleError::NotAlive(victim))
                } else if model.members.len() == 1 {
                    Err(ScaleError::LastMatcher)
                } else {
                    Ok(())
                };
                match c.leave(victim) {
                    Ok(change) => {
                        assert_eq!(expect, Ok(()));
                        assert!(change.moves.iter().all(|mv| mv.from == victim));
                        assert!(change.moves.iter().all(|mv| model.members.contains(&mv.to)));
                        let led: Vec<MatcherId> = model
                            .members
                            .iter()
                            .copied()
                            .filter(|&s| s != victim && c.leader_of(s) == Some(victim))
                            .collect();
                        let promotions = c.commit(&change, now);
                        model.members.remove(&victim);
                        let streams: Vec<MatcherId> = promotions.iter().map(|p| p.0).collect();
                        let moved = if model.heir(victim).is_some() {
                            led
                        } else {
                            Vec::new()
                        };
                        assert_eq!(
                            streams, moved,
                            "every stream {victim:?} led for another moves"
                        );
                        for (stream, h, epoch) in promotions {
                            assert_eq!(Some(h), model.heir(victim), "hand-on goes clockwise");
                            let before = model.epochs.get(&stream).copied().unwrap_or(1);
                            assert!(epoch > before, "a hand-on bumps the epoch");
                        }
                    }
                    Err(e) => assert_eq!(Err(e), expect, "leave of {victim:?}"),
                }
            }
            2 => {
                let m = model.pick(&mut rng);
                let live = model.live();
                if live.contains(&m) && live.len() == 1 {
                    continue;
                }
                let led: Vec<MatcherId> = model
                    .members
                    .iter()
                    .copied()
                    .filter(|&s| c.leader_of(s) == Some(m))
                    .collect();
                let promotions = c.crash(m);
                if !live.contains(&m) {
                    assert!(promotions.is_empty(), "crash of a non-live {m:?}");
                    continue;
                }
                model.down.insert(m);
                if !replicated {
                    assert!(promotions.is_empty(), "no fail-over without replication");
                    continue;
                }
                let heir = model.heir(m).expect("a live member remains");
                let streams: Vec<MatcherId> = promotions.iter().map(|p| p.0).collect();
                assert_eq!(streams, led, "every stream {m:?} led moves");
                for (stream, h, epoch) in promotions {
                    assert_eq!(h, heir, "promotion goes clockwise");
                    let before = model.epochs.get(&stream).copied().unwrap_or(1);
                    assert!(epoch > before, "promotion bumps the epoch");
                }
            }
            3 => {
                let m = model.pick(&mut rng);
                let r = c.rejoin(m);
                if !model.members.contains(&m) {
                    assert_eq!(r, Err(ScaleError::UnknownMatcher(m)));
                } else if !model.down.contains(&m) {
                    assert_eq!(r, Err(ScaleError::StillRunning(m)));
                } else {
                    let (epoch, interim) = r.expect("a crashed member rejoins");
                    model.down.remove(&m);
                    let before = model.epochs.get(&m).copied().unwrap_or(1);
                    assert_eq!(epoch > before, replicated, "a rejoin bumps only replicated");
                    if let Some(l) = interim {
                        assert!(
                            l != m && model.live().contains(&l),
                            "fetch from a live heir"
                        );
                    }
                }
            }
            _ => check_announce(&mut c, &mut model),
        }
        check_partition(&c, &model);
        check_leaders(&c, &model, replicated);
    }
    check_announce(&mut c, &mut model);
    if !replicated {
        assert!(
            model.epochs.values().all(|&e| e == 1),
            "epochs move only with replication"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn control_plane_keeps_its_invariants(seed in any::<u64>()) {
        control_sequence(seed);
    }
}

/// Extra sweep for the CI chaos matrix; no-op when unset.
#[test]
fn control_env_seed() {
    if let Some(seed) = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        println!("control-plane sweep: seed={seed}");
        for i in 0..1024 {
            control_sequence(seed.wrapping_mul(1_000_003).wrapping_add(i));
        }
    }
}
