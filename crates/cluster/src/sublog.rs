//! Log-structured subscription stores with asynchronous, epoch-fenced
//! replication.
//!
//! Every mutation a matcher applies to its per-dim subscription index —
//! store, unsubscribe, retire-after-handover — is appended as a
//! [`SubLogRecord`] to the matcher's own durable *stream* (a segmented
//! [`Log`]), then streamed to its clockwise heir without waiting for it;
//! the heir's replica is fenced by `(epoch, offset)` and fetches any hole
//! from the sender ([`bluedove_engine::replication`]). Failover and
//! graceful `Leave` become log replay: the heir promotes at its
//! replicated offset and adopts the replica into its own index; a
//! recovered matcher replays its local log first and installs only the
//! records it missed from the heir, instead of being re-shipped a full
//! subscription copy.
//!
//! [`MatcherLog`] is the engine's [`StreamSet`] over [`Log`] journals.
//! The record type lives in `bluedove-core` and its codec in
//! `bluedove-net`; every sub-log step — what a record does, which streams
//! it is journaled on, where it is replicated, accept / serve / promote /
//! install / compact — is
//! [`MatcherEngine`](bluedove_engine::MatcherEngine)'s, and the simulator
//! drives the same engine over in-memory streams. This module owns the
//! files and opening them.
//!
//! On-disk layout under [`SubLogConfig::dir`] (one directory per
//! matcher is *not* required — bases disambiguate):
//!
//! | base                           | contents                          |
//! |--------------------------------|-----------------------------------|
//! | `m{id}.sublog`                 | the matcher's own stream          |
//! | `m{id}.follows.m{s}.sublog`    | its replica of stream `s`         |
//!
//! A restarted replica rejoins conservatively at epoch 0: the first
//! append from the stream's current leader re-fences it (and a gap
//! fetch re-fills it) rather than trusting a possibly stale epoch.

use crate::log::{FsyncPolicy, Log, LogConfig};
use bluedove_core::MatcherId;
pub use bluedove_core::SubLogRecord;
use bluedove_engine::replication::{Epoch, ReplicatedStream, StreamSet};
use bluedove_net::NetResult;
use std::path::PathBuf;

/// Compact a matcher's own stream once this many records accumulated
/// since open/compaction (mirrors the mailbox WAL threshold).
pub const SUBLOG_COMPACT_THRESHOLD: u64 = 10_000;

/// Durability knobs for a matcher's subscription log.
#[derive(Debug, Clone)]
pub struct SubLogConfig {
    /// Directory holding the matcher's stream and replica logs.
    pub dir: PathBuf,
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Leader epoch for this matcher's own stream, assigned by the
    /// control plane (bumped on every restart/promotion).
    pub epoch: Epoch,
}

impl SubLogConfig {
    /// A config rooted at `dir` with the defaults: flush-per-append,
    /// 1 MiB segments, epoch 1.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SubLogConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            segment_bytes: 1 << 20,
            epoch: 1,
        }
    }
}

/// One of a matcher's streams, journaled to a [`Log`].
type SubLogStream = ReplicatedStream<SubLogRecord, Log<SubLogRecord>>;

/// Base name of a matcher's own stream log.
fn own_base(id: MatcherId) -> String {
    format!("m{}.sublog", id.0)
}

/// Base name of `id`'s replica of `stream`.
fn follow_base(id: MatcherId, stream: MatcherId) -> String {
    format!("m{}.follows.m{}.sublog", id.0, stream.0)
}

/// Recovers the stream id from a replica segment file name, if `name`
/// is one of `id`'s.
fn parse_follow(id: MatcherId, name: &str) -> Option<MatcherId> {
    let rest = name.strip_prefix(&format!("m{}.follows.m", id.0))?;
    let (stream, _) = rest.split_once(".sublog")?;
    Some(MatcherId(stream.parse().ok()?))
}

/// Opens `id`'s copy of `stream` from its log (empty when new), as a
/// replica rejoining at epoch 0.
fn open_stream(cfg: &SubLogConfig, id: MatcherId, stream: MatcherId) -> NetResult<SubLogStream> {
    let base = if stream == id {
        own_base(id)
    } else {
        follow_base(id, stream)
    };
    let lc = LogConfig {
        segment_bytes: cfg.segment_bytes,
        fsync: cfg.fsync,
    };
    let (log, records) = Log::open(&cfg.dir, &base, lc)?;
    Ok(ReplicatedStream::follower(
        stream,
        log.first_offset(),
        records,
        log,
    ))
}

/// One matcher's replicated subscription logs: the engine's
/// [`StreamSet`] — its own stream, streams it leads after promotion and
/// replicas it follows as a clockwise heir — over [`Log`] journals.
pub type MatcherLog = StreamSet<SubLogRecord, Log<SubLogRecord>>;

/// Opens (or creates) matcher `id`'s logs under the config's directory
/// and leads the own stream at the config's epoch. Returns the set and
/// the matcher's own replayed records — the host applies them to its
/// engine before serving (local-log-first recovery). Replica logs found
/// on disk are reopened as followers rejoining at epoch 0; new ones are
/// created on first contact.
pub fn open(id: MatcherId, cfg: SubLogConfig) -> NetResult<(MatcherLog, Vec<SubLogRecord>)> {
    let mut own = open_stream(&cfg, id, id)?;
    let replay = own.promote(cfg.epoch).to_vec();
    let found: Vec<MatcherId> = std::fs::read_dir(&cfg.dir)?
        .flatten()
        .filter_map(|e| parse_follow(id, e.file_name().to_str()?))
        .collect();
    let mut streams = StreamSet::new(own, Box::new(move |s| open_stream(&cfg, id, s)));
    for stream in found {
        streams.entry(stream)?;
    }
    Ok((streams, replay))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedove_core::{AttributeSpace, DimIdx, Subscription, SubscriptionId};
    use bluedove_engine::replication::{FollowerOutcome, ReplicatedAppend};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bluedove-sublog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn space() -> AttributeSpace {
        AttributeSpace::uniform(2, 0.0, 100.0)
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

    fn cfg(dir: &PathBuf) -> SubLogConfig {
        SubLogConfig::new(dir)
    }

    #[test]
    fn own_appends_survive_reopen() {
        let dir = tmpdir("own");
        {
            let (mut ml, replayed) = open(MatcherId(1), cfg(&dir)).unwrap();
            assert!(replayed.is_empty());
            let a = own_append(&mut ml, store(1, 0.0, 1.0));
            assert_eq!(a.stream, MatcherId(1));
            assert_eq!((a.epoch, a.base, a.offset), (1, 0, 0));
            let b = own_append(&mut ml, store(2, 1.0, 2.0));
            assert_eq!(b.offset, 1);
            assert_eq!(ml.own().next_offset(), 2);
        }
        let (ml, replayed) = open(MatcherId(1), cfg(&dir)).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(ml.own().next_offset(), 2);
    }

    fn own_append(ml: &mut MatcherLog, rec: SubLogRecord) -> ReplicatedAppend<SubLogRecord> {
        ml.own_mut()
            .append(rec)
            .unwrap()
            .expect("own stream is led")
    }

    #[test]
    fn follower_accept_and_gap_repair() {
        let dir_a = tmpdir("repl-a");
        let dir_b = tmpdir("repl-b");
        let (mut leader, _) = open(MatcherId(1), cfg(&dir_a)).unwrap();
        let (mut heir, _) = open(MatcherId(2), cfg(&dir_b)).unwrap();

        let a0 = own_append(&mut leader, store(1, 0.0, 1.0));
        let a1 = own_append(&mut leader, store(2, 1.0, 2.0));
        // In-order replication stores.
        assert_eq!(
            heir.accept(&a0).unwrap(),
            FollowerOutcome::Stored {
                next_offset: 1,
                fresh: 1
            }
        );
        // A lost append surfaces as a gap on the next one…
        let a2 = own_append(&mut leader, store(3, 2.0, 3.0));
        assert_eq!(
            heir.accept(&a2).unwrap(),
            FollowerOutcome::NeedFetch { from: 1 }
        );
        // …and the leader's serve() fills it.
        let fill = leader.own().serve(1);
        assert_eq!(fill.offset, 1);
        assert_eq!(
            fill.records,
            vec![a1.records[0].clone(), a2.records[0].clone()]
        );
        match heir.accept(&fill).unwrap() {
            FollowerOutcome::Stored { next_offset, .. } => assert_eq!(next_offset, 3),
            other => panic!("expected a store, got {other:?}"),
        }
    }

    #[test]
    fn promote_replays_and_fences_then_demote_refollows() {
        let dir_a = tmpdir("promo-a");
        let dir_b = tmpdir("promo-b");
        let (mut leader, _) = open(MatcherId(1), cfg(&dir_a)).unwrap();
        let (mut heir, _) = open(MatcherId(2), cfg(&dir_b)).unwrap();
        for i in 0..3u64 {
            let a = own_append(&mut leader, store(i, i as f64, i as f64 + 1.0));
            heir.accept(&a).unwrap();
        }
        // Owner dies; heir promotes at its replicated offset and replays.
        let replay = heir.promote(MatcherId(1), 2).unwrap();
        assert_eq!(replay.len(), 3);
        assert!(heir.leads(MatcherId(1)));
        // Failover writes land on the promoted stream.
        let promoted = heir.get_mut(MatcherId(1)).unwrap();
        assert!(promoted.append(store(9, 9.0, 10.0)).unwrap().is_some());
        // The deposed owner's retransmission is fenced.
        let stale = ReplicatedAppend {
            stream: MatcherId(1),
            epoch: 1,
            base: 0,
            offset: 3,
            reset: false,
            records: vec![store(8, 8.0, 9.0)],
        };
        heir.demote(MatcherId(1));
        assert!(!heir.leads(MatcherId(1)));
        assert_eq!(
            heir.accept(&stale).unwrap(),
            FollowerOutcome::Fenced { current: 2 }
        );
        // The recovered owner (epoch 3, base at the heir's tail) resumes.
        let resume = ReplicatedAppend {
            stream: MatcherId(1),
            epoch: 3,
            base: 4,
            offset: 4,
            reset: false,
            records: vec![store(10, 10.0, 11.0)],
        };
        match heir.accept(&resume).unwrap() {
            FollowerOutcome::Stored { next_offset, .. } => assert_eq!(next_offset, 5),
            other => panic!("expected a store, got {other:?}"),
        }
        assert_eq!(heir.get(MatcherId(1)).unwrap().epoch(), 3);
    }

    #[test]
    fn restarted_replica_rejoins_conservatively_and_refetches() {
        let dir_a = tmpdir("rejoin-a");
        let dir_b = tmpdir("rejoin-b");
        let (mut leader, _) = open(MatcherId(1), cfg(&dir_a)).unwrap();
        {
            let (mut heir, _) = open(MatcherId(2), cfg(&dir_b)).unwrap();
            let a = own_append(&mut leader, store(1, 0.0, 1.0));
            heir.accept(&a).unwrap();
        }
        // Heir restarts: its replica is found on disk, followed at epoch 0.
        let (mut heir, _) = open(MatcherId(2), cfg(&dir_b)).unwrap();
        let replica = heir.get(MatcherId(1)).expect("replica reopened");
        assert_eq!((replica.epoch(), replica.next_offset()), (0, 1));
        // The leader's next live append re-fences the replica; the
        // epoch-adoption truncation sends it through a full refetch.
        let a = own_append(&mut leader, store(2, 1.0, 2.0));
        assert_eq!(
            heir.accept(&a).unwrap(),
            FollowerOutcome::NeedFetch { from: 0 }
        );
        let fill = leader.own().serve(0);
        match heir.accept(&fill).unwrap() {
            FollowerOutcome::Stored { next_offset, .. } => assert_eq!(next_offset, 2),
            other => panic!("expected a store, got {other:?}"),
        }
    }

    #[test]
    fn compaction_restamps_and_followers_absorb_it() {
        let dir_a = tmpdir("compact-a");
        let dir_b = tmpdir("compact-b");
        let (mut leader, _) = open(MatcherId(1), cfg(&dir_a)).unwrap();
        let (mut heir, _) = open(MatcherId(2), cfg(&dir_b)).unwrap();
        for i in 0..4u64 {
            let a = own_append(&mut leader, store(i, 0.0, 1.0));
            heir.accept(&a).unwrap();
        }
        // Snapshot down to one live record, re-stamped at the tail.
        let snap = vec![store(3, 0.0, 1.0)];
        let a = leader.own_mut().compact(snap.clone()).unwrap().unwrap();
        assert_eq!(a.offset, 4);
        assert_eq!(leader.own().next_offset(), 5);
        // The up-to-date follower absorbs it as a normal append.
        match heir.accept(&a).unwrap() {
            FollowerOutcome::Stored { next_offset, .. } => assert_eq!(next_offset, 5),
            other => panic!("expected a store, got {other:?}"),
        }
        // A fresh follower behind the horizon gets the reset copy.
        let dir_c = tmpdir("compact-c");
        let (mut fresh, _) = open(MatcherId(3), cfg(&dir_c)).unwrap();
        let serve = leader.own().serve(0);
        assert!(serve.reset);
        assert_eq!(serve.offset, 4);
        match fresh.accept(&serve).unwrap() {
            FollowerOutcome::Stored { next_offset, .. } => assert_eq!(next_offset, 5),
            other => panic!("expected a store, got {other:?}"),
        }
        // And the leader's own reopen replays only the retained history.
        drop(leader);
        let (leader, replayed) = open(MatcherId(1), cfg(&dir_a)).unwrap();
        assert_eq!(replayed, snap);
        assert_eq!(leader.own().next_offset(), 5);
    }
}
