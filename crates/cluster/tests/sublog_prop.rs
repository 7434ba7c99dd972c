//! The file-backed sub-log streams: the engine's replicated streams over
//! `Log` journals, as `MatcherLog` holds them.
//!
//! - The durable copy never drifts from the served copy: after any
//!   sequence of own appends, follower accepts (duplicates, gaps,
//!   higher-epoch truncations), `reset` serves, compactions, promotion
//!   and failback, reopening every log replays exactly the stream's
//!   retained records from the same first offset.
//! - A restart installs only its downtime delta: the owner's stream does
//!   not double, an unreplicated own tail survives ahead of the downtime
//!   writes, and the heir's replica realigns with it.

use bluedove_cluster::sublog::{self, MatcherLog, SubLogConfig, SubLogRecord};
use bluedove_core::{DimIdx, MatcherId, SubscriptionId};
use bluedove_engine::replication::{FollowerOutcome, ReplicatedAppend};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const OWNER: MatcherId = MatcherId(1);
const HEIR: MatcherId = MatcherId(2);

/// A fresh scratch directory per case; both matchers share it (their
/// log names differ).
fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bluedove-sublogprop-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(id: MatcherId, dir: &Path, epoch: u64) -> (MatcherLog, Vec<SubLogRecord>) {
    let cfg = SubLogConfig {
        epoch,
        segment_bytes: 64,
        ..SubLogConfig::new(dir)
    };
    sublog::open(id, cfg).unwrap()
}

fn rec(i: u64) -> SubLogRecord {
    SubLogRecord::Remove {
        dim: DimIdx(0),
        sub: SubscriptionId(i),
    }
}

fn ids(records: &[SubLogRecord]) -> Vec<u64> {
    records
        .iter()
        .map(|r| match r {
            SubLogRecord::Remove { sub, .. } => sub.0,
            other => panic!("unexpected record {other:?}"),
        })
        .collect()
}

/// Delivers `append` to `to`, serving one gap from `from`.
fn deliver(from: &MatcherLog, to: &mut MatcherLog, append: &ReplicatedAppend<SubLogRecord>) {
    if let FollowerOutcome::NeedFetch { from: gap } = to.accept(append).unwrap() {
        let fill = from.get(append.stream).unwrap().serve(gap);
        to.accept(&fill).unwrap();
    }
}

/// Reopening `ml`'s directory replays every stream it holds exactly:
/// same first offset, same records.
fn assert_durable(ml: &MatcherLog, id: MatcherId, dir: &Path) {
    let (back, _) = open(id, dir, 1);
    for s in ml.iter() {
        let b = back.get(s.id()).expect("every held stream has a log");
        assert_eq!(b.base(), s.base(), "first offset of stream {:?}", s.id());
        assert_eq!(b.records(), s.records(), "records of stream {:?}", s.id());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reopening_replays_exactly_the_retained_records(
        ops in proptest::collection::vec((0u8..6, 0u64..16), 1..40),
    ) {
        let dir = scratch_dir();
        let (mut owner, _) = open(OWNER, &dir, 1);
        let (mut heir, _) = open(HEIR, &dir, 1);
        let mut epoch = 1;
        let mut next = 0u64;
        for &(op, k) in &ops {
            match op {
                // Own append, replicated or lost.
                0 | 1 => {
                    next += 1;
                    let a = owner.own_mut().append(rec(next)).unwrap().unwrap();
                    if op == 0 {
                        deliver(&owner, &mut heir, &a);
                    }
                }
                // A retransmitted slice: duplicates, overlaps, gaps left
                // open (the gap is not served).
                2 => {
                    let mut a = owner.own().serve(k);
                    a.records.truncate(1 + k as usize % 3);
                    heir.accept(&a).unwrap();
                }
                // Compaction down to the last few records, shipped or not;
                // a later serve behind the horizon is a `reset`.
                3 => {
                    let keep = owner.own().records().len().saturating_sub(k as usize % 4);
                    let snap = owner.own().records()[keep..].to_vec();
                    let a = owner.own_mut().compact(snap).unwrap().unwrap();
                    if k % 2 == 0 {
                        deliver(&owner, &mut heir, &a);
                    }
                }
                4 => {
                    let reset = owner.own().serve(0);
                    heir.accept(&reset).unwrap();
                }
                // Failover and failback: the heir promotes its replica,
                // takes downtime writes, the owner installs them at a
                // higher epoch and the heir steps down; the owner's next
                // append truncates the heir's replica to the divergence
                // point.
                _ => {
                    epoch += 2;
                    heir.promote(OWNER, epoch - 1).unwrap();
                    for _ in 0..k % 3 {
                        next += 1;
                        heir.get_mut(OWNER).unwrap().append(rec(next)).unwrap().unwrap();
                    }
                    let served = heir.get(OWNER).unwrap().serve(0);
                    owner.own_mut().install(epoch, &served).unwrap();
                    heir.demote(OWNER);
                }
            }
            assert_durable(&owner, OWNER, &dir);
            assert_durable(&heir, HEIR, &dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The owner appends `own` records, the first `replicated` of which
/// reach the heir, and crashes; the heir promotes at epoch 2 and takes
/// downtime write 100; the owner reopens at epoch 3, installs what the
/// heir serves from 0, the heir demotes, and the owner appends 200.
fn failback(own: u64, replicated: u64) -> (MatcherLog, MatcherLog, PathBuf) {
    let dir = scratch_dir();
    let (mut owner, _) = open(OWNER, &dir, 1);
    let (mut heir, _) = open(HEIR, &dir, 1);
    for i in 0..own {
        let a = owner.own_mut().append(rec(i)).unwrap().unwrap();
        if i < replicated {
            heir.accept(&a).unwrap();
        }
    }
    drop(owner);
    assert_eq!(heir.promote(OWNER, 2).unwrap().len() as u64, replicated);
    heir.get_mut(OWNER)
        .unwrap()
        .append(rec(100))
        .unwrap()
        .unwrap();

    let (mut owner, replayed) = open(OWNER, &dir, 3);
    assert_eq!(replayed.len() as u64, own);
    let served = heir.get(OWNER).unwrap().serve(0);
    let delta = owner.own_mut().install(3, &served).unwrap();
    assert_eq!(
        ids(delta),
        vec![100],
        "only the downtime write is installed"
    );
    heir.demote(OWNER);
    let a = owner.own_mut().append(rec(200)).unwrap().unwrap();
    deliver(&owner, &mut heir, &a);
    (owner, heir, dir)
}

#[test]
fn restart_installs_only_the_downtime_delta() {
    let (owner, heir, dir) = failback(5, 5);
    assert_eq!(ids(owner.own().records()), vec![0, 1, 2, 3, 4, 100, 200]);
    let replica = heir.get(OWNER).unwrap();
    assert_eq!(replica.records(), owner.own().records());
    assert_eq!(replica.epoch(), 3);
    // The owner's log holds the same seven records: no doubling.
    drop(owner);
    let (_, replayed) = open(OWNER, &dir, 4);
    assert_eq!(ids(&replayed), vec![0, 1, 2, 3, 4, 100, 200]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_keeps_the_unreplicated_tail_ahead_of_downtime_writes() {
    let (owner, heir, dir) = failback(7, 5);
    assert_eq!(
        ids(owner.own().records()),
        vec![0, 1, 2, 3, 4, 5, 6, 100, 200]
    );
    assert_eq!(heir.get(OWNER).unwrap().records(), owner.own().records());
    let _ = std::fs::remove_dir_all(&dir);
}
