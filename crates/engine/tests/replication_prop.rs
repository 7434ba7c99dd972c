//! Epoch-fencing and failback property tests, driving the engine's own
//! [`ReplicatedStream`] over the in-memory `()` journal — the same type
//! the threaded cluster and the simulator hold their sub-log streams in.
//!
//! One scenario per seed, three phases, each an arbitrary interleaving:
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

use bluedove_core::MatcherId;
use bluedove_engine::replication::{
    Epoch, FollowerOutcome, ReplicaSet, ReplicatedAppend, ReplicatedStream, StreamSet,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A record: the epoch it was written under and a unique write id.
type Rec = (Epoch, u64);
type Stream = ReplicatedStream<Rec>;

const STREAM: MatcherId = MatcherId(1);

fn replica(records: Vec<Rec>) -> Stream {
    Stream::follower(STREAM, 1, 0, records, ())
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

    /// Leader-side fencing: acks from another epoch never advance the
    /// commit point, and the commit point is monotone under any ack
    /// interleaving.
    #[test]
    fn commit_point_is_monotone_and_epoch_scoped(
        appends in 1u64..64,
        acks in proptest::collection::vec((0u32..4, 0u64..80, 0u64..3), 0..60),
    ) {
        let mut set = ReplicaSet::lead(3, 0, 0, 2);
        set.append(appends);
        let mut last_commit = 0;
        for (i, &(follower, offset, epoch_off)) in acks.iter().enumerate() {
            let epoch = 3 + epoch_off as Epoch - 1; // 2, 3 or 4
            let accepted = set.record_ack(MatcherId(follower), epoch, offset, i as f64);
            prop_assert_eq!(accepted, epoch == 3);
            let c = set.committed();
            prop_assert!(c >= last_commit, "commit point went backwards");
            prop_assert!(c <= set.next_offset(), "committed past the tail");
            last_commit = c;
        }
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
        FollowerOutcome::Acked {
            epoch: 1,
            next_offset: 4,
            stored: 1
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
    let mut own = Stream::follower(MatcherId(2), 1, 0, Vec::new(), ());
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
    assert!(matches!(first, FollowerOutcome::Acked { .. }));
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
