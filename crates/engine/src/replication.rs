//! Replicated-log state machines: ISR tracking, leader epochs and
//! `(epoch, offset)` fencing for the matchers' durable subscription logs.
//!
//! Each matcher leads one append-only *stream* — the log of every
//! mutation applied to its own subscription store — and streams records
//! to its clockwise heirs, which maintain in-sync replicas.
//! [`FollowerLog`] and [`ReplicaSet`] reason about epochs, offsets and
//! counts only; [`ReplicatedStream`] holds the records on top of them and
//! is the one place a verdict turns into truncate / skip / store, and
//! [`StreamSet`] is one matcher's streams. Both hosts drive these same
//! types — the threaded cluster over a file-backed [`Journal`] and TCP,
//! the simulator over the no-op `()` journal and virtual time — and own
//! only the record codec, the transport and the orchestration.
//!
//! Fencing invariant: a replica's accepted sequence is monotone in
//! `(epoch, offset)`. A deposed leader (lower epoch) can never append
//! after the promoted heir's first higher-epoch append reached the
//! replica, and a higher-epoch append truncates any uncommitted
//! lower-epoch tail beyond its start offset — two replicas that both
//! accepted offset `o` therefore hold the record of the same writer.

use bluedove_core::{MatcherId, Time};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A leader-epoch number. Each promotion (failover or restart) bumps the
/// stream's epoch by at least one; epochs are assigned by the control
/// plane and never reused.
pub type Epoch = u64;

/// A follower's verdict on one replicated append. `Accepted` and `Gap`
/// both carry an optional truncation obligation: when `truncate` is
/// `Some(t)`, the host must discard every stored record at offsets
/// `>= t` *before* doing anything else — they were an uncommitted tail
/// written by a deposed lower-epoch leader, invalidated by the new
/// leader's epoch base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendVerdict {
    /// The append (or its fresh suffix) is accepted. The host must store
    /// the records whose offsets are `>= fresh_from` (records below it
    /// are retransmitted duplicates it already holds).
    Accepted {
        /// First offset of the suffix the host must apply/store.
        fresh_from: u64,
        /// Truncate stored records to this offset first, if set.
        truncate: Option<u64>,
    },
    /// The sender's epoch is behind this replica's — the sender is a
    /// deposed leader and must stop appending (fencing).
    Fenced {
        /// The epoch this replica is currently following.
        current: Epoch,
    },
    /// The append starts past this replica's (possibly just truncated)
    /// tail; the replica must catch up from `expected` before it can
    /// accept it. The new epoch, when higher, is already adopted, so a
    /// deposed leader cannot sneak appends in while the fetch runs.
    Gap {
        /// The next offset this replica can accept.
        expected: u64,
        /// Truncate stored records to this offset first, if set.
        truncate: Option<u64>,
    },
}

/// Follower-side state of one replicated stream: the epoch it follows
/// and the next offset it expects. Pure fencing logic — the records live
/// in a [`ReplicatedStream`]. The default is an empty replica: epoch 0,
/// expecting offset 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FollowerLog {
    epoch: Epoch,
    next_offset: u64,
}

impl FollowerLog {
    /// A replica resuming at a known position (e.g. rebuilt from a local
    /// log holding `offset` records appended under `epoch`).
    pub fn at(epoch: Epoch, offset: u64) -> Self {
        FollowerLog {
            epoch,
            next_offset: offset,
        }
    }

    /// The epoch this replica currently follows.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The next offset this replica expects (== number of records it
    /// holds when it has never been truncated below its tail).
    pub fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// Classifies an append of `count` records starting at `offset` from
    /// a leader claiming `epoch`, whose epoch began at offset `base`
    /// (the leader's promotion point; a leader that never failed over
    /// has `base == 0`). Advances the replica state when the append is
    /// accepted. See [`AppendVerdict`] for the host's obligations.
    ///
    /// The base is what makes fencing airtight against *ghost tails*: a
    /// replica whose lower-epoch history runs past the new leader's
    /// promotion point must discard everything from the base up — those
    /// records were never replicated into the new leader and a later
    /// append at a higher offset would otherwise leave them stranded
    /// under the new epoch.
    pub fn accept(&mut self, epoch: Epoch, base: u64, offset: u64, count: u64) -> AppendVerdict {
        if epoch < self.epoch {
            return AppendVerdict::Fenced {
                current: self.epoch,
            };
        }
        let mut truncate = None;
        if epoch > self.epoch {
            // New leader: adopt its epoch immediately (fencing the
            // deposed one even while a catch-up runs) and invalidate any
            // of our history past its promotion base.
            self.epoch = epoch;
            if base < self.next_offset {
                self.next_offset = base;
                truncate = Some(base);
            }
        }
        if offset > self.next_offset {
            // Hole between our tail and the append: catch up first.
            return AppendVerdict::Gap {
                expected: self.next_offset,
                truncate,
            };
        }
        // Overlapping retransmission: only the suffix past our tail is
        // new. `fresh_from == offset + count` means pure duplicate.
        let end = offset + count;
        let fresh_from = self.next_offset.min(end);
        self.next_offset = self.next_offset.max(end);
        AppendVerdict::Accepted {
            fresh_from,
            truncate,
        }
    }

    /// Promotes this replica to the stream's leader at `epoch` (assigned
    /// by the control plane, strictly above the followed epoch): the new
    /// leader starts appending at the replica's replicated offset.
    pub fn promote(&self, epoch: Epoch, min_isr: usize) -> ReplicaSet {
        ReplicaSet::lead(epoch, self.next_offset, self.next_offset, min_isr)
    }
}

/// Per-follower bookkeeping on the leader.
#[derive(Debug, Clone, Copy)]
struct FollowerAck {
    /// Highest `next_offset` the follower acknowledged.
    acked: u64,
    /// When that ack arrived (host clock; ISR staleness input).
    last_ack: Time,
}

/// Leader-side state of one replicated stream: the epoch it writes
/// under, its append tail and the ack offsets of its followers, from
/// which the in-sync replica set and the commit point derive.
#[derive(Debug, Clone)]
pub struct ReplicaSet {
    epoch: Epoch,
    /// The offset this leader's epoch began at — stamped on every
    /// replicated append so followers can invalidate ghost tails.
    epoch_base: u64,
    next_offset: u64,
    followers: BTreeMap<MatcherId, FollowerAck>,
    /// Replicas (including the leader) whose acks must cover an offset
    /// before it counts as committed. `1` commits on the local append
    /// alone (replication stays asynchronous).
    min_isr: usize,
}

impl ReplicaSet {
    /// A leader at `epoch` whose tail is `next_offset` and whose epoch
    /// began at `epoch_base`: followers holding anything past
    /// `epoch_base` truncate back to it on its first append (the
    /// ghost-tail rule).
    pub fn lead(epoch: Epoch, epoch_base: u64, next_offset: u64, min_isr: usize) -> Self {
        ReplicaSet {
            epoch,
            epoch_base,
            next_offset,
            followers: BTreeMap::new(),
            min_isr: min_isr.max(1),
        }
    }

    /// The epoch this leader writes under.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The offset this leader's epoch began at (its promotion point).
    pub fn epoch_base(&self) -> u64 {
        self.epoch_base
    }

    /// The leader's append tail (offset the next record will take).
    pub fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// Reserves offsets for `count` records and returns the first; the
    /// records are streamed stamped with it and this leader's epoch.
    pub fn append(&mut self, count: u64) -> u64 {
        self.next_offset += count;
        self.next_offset - count
    }

    /// Records a follower's acknowledgement of offsets up to `offset`
    /// under `epoch`. Returns `false` (and ignores the ack) when the ack
    /// is from another epoch — a deposed leader's follower set must not
    /// pollute the new leader's ISR.
    pub fn record_ack(
        &mut self,
        follower: MatcherId,
        epoch: Epoch,
        offset: u64,
        now: Time,
    ) -> bool {
        if epoch != self.epoch {
            return false;
        }
        let entry = self.followers.entry(follower).or_insert(FollowerAck {
            acked: 0,
            last_ack: now,
        });
        entry.acked = entry.acked.max(offset.min(self.next_offset));
        entry.last_ack = now;
        true
    }

    /// Drops a follower (it died or was reassigned).
    pub fn remove_follower(&mut self, follower: MatcherId) {
        self.followers.remove(&follower);
    }

    /// The in-sync replica set: followers whose last ack is within
    /// `max_lag` records of the tail and arrived within `stale_after`
    /// seconds of `now`. The leader itself is always in sync and is not
    /// listed.
    pub fn isr(&self, now: Time, max_lag: u64, stale_after: Time) -> Vec<MatcherId> {
        self.followers
            .iter()
            .filter(|(_, f)| {
                self.next_offset - f.acked <= max_lag && now - f.last_ack <= stale_after
            })
            .map(|(&m, _)| m)
            .collect()
    }

    /// The commit point: the highest offset such that at least
    /// `min_isr` replicas (leader included) hold everything below it.
    /// With `min_isr == 1` this is the leader's own tail; with
    /// `min_isr == n` it is the `(n-1)`-th highest follower ack.
    pub fn committed(&self) -> u64 {
        let need = self.min_isr - 1; // follower acks required
        if need == 0 {
            return self.next_offset;
        }
        let mut acks: Vec<u64> = self.followers.values().map(|f| f.acked).collect();
        if acks.len() < need {
            return 0;
        }
        acks.sort_unstable_by(|a, b| b.cmp(a));
        acks[need - 1].min(self.next_offset)
    }
}

/// The durable backing of a [`ReplicatedStream`]: every retained record
/// goes through `append`, every truncation, reset or compaction through
/// `rewrite`, so reopening the journal replays exactly the retained
/// records.
pub trait Journal<R> {
    /// Why a journal write failed.
    type Error;
    /// Persists `rec` at the stream's tail.
    fn append(&mut self, rec: &R) -> Result<(), Self::Error>;
    /// Replaces the history with `records`, the first at offset `base`.
    fn rewrite(&mut self, records: &[R], base: u64) -> Result<(), Self::Error>;
}

/// No journal: the stream lives in memory only (the simulator).
impl<R> Journal<R> for () {
    type Error = std::convert::Infallible;
    fn append(&mut self, _: &R) -> Result<(), Self::Error> {
        Ok(())
    }
    fn rewrite(&mut self, _: &[R], _: u64) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// One replicated append: the records plus the `(epoch, epoch-base,
/// offset)` stamp followers fence on.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedAppend<R> {
    /// Which stream the records belong to (the stream owner's id).
    pub stream: MatcherId,
    /// Leader epoch the records were appended under.
    pub epoch: Epoch,
    /// Offset the sender's epoch began at (ghost-tail fencing input).
    pub base: u64,
    /// Logical offset of `records[0]`.
    pub offset: u64,
    /// When set, the receiver discards its copy and adopts this append
    /// as the stream's whole retained history (it had fallen behind the
    /// sender's compaction horizon).
    pub reset: bool,
    /// The records, at consecutive offsets from `offset`.
    pub records: Vec<R>,
}

/// What a stream holder makes of one [`ReplicatedAppend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowerOutcome {
    /// Stored; acknowledge `(epoch, next_offset)` to the leader.
    Acked {
        /// Epoch the replica now follows.
        epoch: Epoch,
        /// Offset the replica expects next.
        next_offset: u64,
        /// How many records of this append were fresh (not duplicates).
        stored: u64,
    },
    /// A hole precedes the append: fetch records from `from` first.
    NeedFetch {
        /// First missing offset.
        from: u64,
    },
    /// Rejected: the sender was deposed, or this holder leads the stream.
    Fenced {
        /// The epoch this holder follows or leads.
        current: Epoch,
    },
}

#[derive(Debug, Clone)]
enum Role {
    Leading(ReplicaSet),
    Following(FollowerLog),
}

/// One holder's copy of a replicated stream: its role, the records it
/// retains from offset `base`, and their journal. Every way records enter
/// or leave the copy is a method here, so `base + records.len()` is the
/// role's tail and the journal always replays `records`.
#[derive(Debug)]
pub struct ReplicatedStream<R, J = ()> {
    id: MatcherId,
    min_isr: usize,
    role: Role,
    base: u64,
    records: Vec<R>,
    journal: J,
}

impl<R: Clone, J: Journal<R>> ReplicatedStream<R, J> {
    /// A replica of stream `id` holding `records` from offset `base`,
    /// following at epoch 0 so the leader's first append re-fences it;
    /// once promoted it commits at `min_isr`.
    pub fn follower(id: MatcherId, min_isr: usize, base: u64, records: Vec<R>, journal: J) -> Self {
        let tail = base + records.len() as u64;
        ReplicatedStream {
            id,
            min_isr,
            role: Role::Following(FollowerLog::at(0, tail)),
            base,
            records,
            journal,
        }
    }

    /// The stream's id (its owner's).
    pub fn id(&self) -> MatcherId {
        self.id
    }

    /// Offset of the first retained record.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The retained records, from [`Self::base`] on.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// One past the last retained record.
    pub fn next_offset(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    /// The epoch this holder leads or follows.
    pub fn epoch(&self) -> Epoch {
        match &self.role {
            Role::Leading(set) => set.epoch(),
            Role::Following(f) => f.epoch(),
        }
    }

    /// The leader-side state (ISR, commit point), when this holder leads.
    pub fn leader(&self) -> Option<&ReplicaSet> {
        match &self.role {
            Role::Leading(set) => Some(set),
            Role::Following(_) => None,
        }
    }

    /// The leader-side state, mutably.
    pub fn leader_mut(&mut self) -> Option<&mut ReplicaSet> {
        match &mut self.role {
            Role::Leading(set) => Some(set),
            Role::Following(_) => None,
        }
    }

    /// The journal.
    pub fn journal(&self) -> &J {
        &self.journal
    }

    /// The journal, mutably (flush/sync).
    pub fn journal_mut(&mut self) -> &mut J {
        &mut self.journal
    }

    /// Stamps `records` starting at `offset`. A replica stamps its tail
    /// as the epoch base: it wrote nothing under an epoch of its own.
    fn stamp(&self, offset: u64, reset: bool, records: Vec<R>) -> ReplicatedAppend<R> {
        let (epoch, base) = match &self.role {
            Role::Leading(set) => (set.epoch(), set.epoch_base()),
            Role::Following(f) => (f.epoch(), self.next_offset()),
        };
        ReplicatedAppend {
            stream: self.id,
            epoch,
            base,
            offset,
            reset,
            records,
        }
    }

    /// Journals and retains `rec` and returns the append to ship to the
    /// followers; `None` unless this holder leads the stream.
    pub fn append(&mut self, rec: R) -> Result<Option<ReplicatedAppend<R>>, J::Error> {
        let Role::Leading(set) = &mut self.role else {
            return Ok(None);
        };
        self.journal.append(&rec)?;
        let offset = set.append(1);
        self.records.push(rec.clone());
        Ok(Some(self.stamp(offset, false, vec![rec])))
    }

    /// Fences on the append's `(epoch, offset)`, truncates a deposed
    /// leader's tail, skips duplicates and stores the fresh suffix. A
    /// `reset` at the followed epoch or above replaces the whole copy
    /// first; a holder that leads the stream fences every append.
    pub fn accept(&mut self, append: &ReplicatedAppend<R>) -> Result<FollowerOutcome, J::Error> {
        let f = match &mut self.role {
            Role::Leading(set) => {
                return Ok(FollowerOutcome::Fenced {
                    current: set.epoch(),
                })
            }
            Role::Following(f) => f,
        };
        let count = append.records.len() as u64;
        let mut base = append.base;
        if append.reset && append.epoch >= f.epoch() {
            *f = FollowerLog::at(0, append.offset);
            self.records.clear();
            self.base = append.offset;
            self.journal.rewrite(&[], append.offset)?;
            base = append.offset;
        }
        let verdict = f.accept(append.epoch, base, append.offset, count);
        let (epoch, next_offset) = (f.epoch(), f.next_offset());
        match verdict {
            AppendVerdict::Fenced { current } => Ok(FollowerOutcome::Fenced { current }),
            AppendVerdict::Gap { expected, truncate } => {
                self.truncate(truncate)?;
                Ok(FollowerOutcome::NeedFetch { from: expected })
            }
            AppendVerdict::Accepted {
                fresh_from,
                truncate,
            } => {
                self.truncate(truncate)?;
                let skip = (fresh_from - append.offset) as usize;
                for rec in &append.records[skip..] {
                    self.journal.append(rec)?;
                    self.records.push(rec.clone());
                }
                debug_assert_eq!(self.next_offset(), next_offset, "store tracks the fencing");
                let stored = count - skip as u64;
                Ok(FollowerOutcome::Acked {
                    epoch,
                    next_offset,
                    stored,
                })
            }
        }
    }

    /// Discards every record at offsets `>= t`, when set.
    fn truncate(&mut self, t: Option<u64>) -> Result<(), J::Error> {
        let Some(t) = t else {
            return Ok(());
        };
        if t <= self.base {
            self.records.clear();
            self.base = t;
        } else {
            self.records.truncate((t - self.base) as usize);
        }
        self.journal.rewrite(&self.records, self.base)
    }

    /// Records a follower's ack; `false` unless this holder leads at
    /// `epoch`.
    pub fn record_ack(&mut self, from: MatcherId, epoch: Epoch, offset: u64, now: Time) -> bool {
        let set = self.leader_mut();
        set.is_some_and(|set| set.record_ack(from, epoch, offset, now))
    }

    /// Serves a fetch from `from`: a leader's records past it, or — when
    /// `from` is behind the compaction horizon, or this holder only
    /// follows — the whole retained copy flagged `reset`.
    pub fn serve(&self, from: u64) -> ReplicatedAppend<R> {
        if self.leader().is_some() && from >= self.base {
            let idx = ((from - self.base) as usize).min(self.records.len());
            return self.stamp(self.base + idx as u64, false, self.records[idx..].to_vec());
        }
        self.stamp(self.base, true, self.records.clone())
    }

    /// Leads the stream at `epoch`. A replica resumes at its tail and
    /// returns its records for the host to replay (failover as log
    /// replay); re-promoting a led stream keeps its epoch base and
    /// replays nothing.
    pub fn promote(&mut self, epoch: Epoch) -> &[R] {
        let set = match &self.role {
            Role::Following(f) => f.promote(epoch, self.min_isr),
            Role::Leading(set) => {
                let (base, tail) = (set.epoch_base(), set.next_offset());
                self.role = Role::Leading(ReplicaSet::lead(epoch, base, tail, self.min_isr));
                return &[];
            }
        };
        self.role = Role::Leading(set);
        &self.records
    }

    /// Steps down to a replica at the epoch it led; the recovered
    /// owner's higher-epoch appends re-fence it.
    pub fn demote(&mut self) {
        if let Role::Leading(set) = &self.role {
            self.role = Role::Following(FollowerLog::at(set.epoch(), self.next_offset()));
        }
    }

    /// Failback: re-leads at `epoch` after installing the copy `served`
    /// by the interim leader. Only the records past the divergence point
    /// `min(own tail, served promotion point)` are appended, after the
    /// own history, so an unreplicated own tail survives ahead of the
    /// downtime writes. The new epoch begins at the divergence point, so
    /// the interim leader's replica truncates there (ghost-tail rule) and
    /// refetches. Returns the installed records for the host to apply.
    pub fn install<'a>(
        &mut self,
        epoch: Epoch,
        served: &'a ReplicatedAppend<R>,
    ) -> Result<&'a [R], J::Error> {
        let diverge = self.next_offset().min(served.base);
        let skip = (diverge.saturating_sub(served.offset) as usize).min(served.records.len());
        let delta = &served.records[skip..];
        for rec in delta {
            self.journal.append(rec)?;
            self.records.push(rec.clone());
        }
        let tail = self.next_offset();
        self.role = Role::Leading(ReplicaSet::lead(epoch, diverge, tail, self.min_isr));
        Ok(delta)
    }

    /// Compacts a led stream down to `snapshot`, re-stamped as fresh
    /// appends at the tail so followers absorb it like any append.
    /// Returns the append to ship; `None` unless this holder leads.
    pub fn compact(&mut self, snapshot: Vec<R>) -> Result<Option<ReplicatedAppend<R>>, J::Error> {
        let tail = self.next_offset();
        let Role::Leading(set) = &mut self.role else {
            return Ok(None);
        };
        self.journal.rewrite(&snapshot, tail)?;
        let offset = set.append(snapshot.len() as u64);
        self.base = tail;
        self.records = snapshot.clone();
        Ok(Some(self.stamp(offset, false, snapshot)))
    }
}

/// Opens a matcher's copy of a stream it held nothing of: the host's
/// journal factory (a replica's log file, or nothing in memory).
pub type Open<R, J> = Box<
    dyn Fn(MatcherId) -> Result<ReplicatedStream<R, J>, <J as Journal<R>>::Error> + Send + Sync,
>;

/// One matcher's replicated streams: its own (always led), the streams
/// it leads after promotion, and the replicas it follows as a clockwise
/// heir, opened on first contact.
pub struct StreamSet<R, J: Journal<R> = ()> {
    id: MatcherId,
    streams: BTreeMap<MatcherId, ReplicatedStream<R, J>>,
    open: Open<R, J>,
}

impl<R: Clone, J: Journal<R>> StreamSet<R, J> {
    /// A set holding only `own`, the matcher's own stream; other streams
    /// are opened with `open`.
    pub fn new(own: ReplicatedStream<R, J>, open: Open<R, J>) -> Self {
        StreamSet {
            id: own.id,
            streams: BTreeMap::from([(own.id, own)]),
            open,
        }
    }

    /// The matcher's own stream.
    pub fn own(&self) -> &ReplicatedStream<R, J> {
        &self.streams[&self.id]
    }

    /// The matcher's own stream, mutably.
    pub fn own_mut(&mut self) -> &mut ReplicatedStream<R, J> {
        self.streams.get_mut(&self.id).expect("never removed")
    }

    /// The copy of `stream` held here, if any.
    pub fn get(&self, stream: MatcherId) -> Option<&ReplicatedStream<R, J>> {
        self.streams.get(&stream)
    }

    /// The copy of `stream` held here, mutably.
    pub fn get_mut(&mut self, stream: MatcherId) -> Option<&mut ReplicatedStream<R, J>> {
        self.streams.get_mut(&stream)
    }

    /// The copy of `stream`, opened on first contact.
    pub fn entry(&mut self, stream: MatcherId) -> Result<&mut ReplicatedStream<R, J>, J::Error> {
        match self.streams.entry(stream) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(v) => Ok(v.insert((self.open)(stream)?)),
        }
    }

    /// Every stream held here, by id.
    pub fn iter(&self) -> impl Iterator<Item = &ReplicatedStream<R, J>> {
        self.streams.values()
    }

    /// Every stream held here, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut ReplicatedStream<R, J>> {
        self.streams.values_mut()
    }

    /// Whether this matcher leads `stream`.
    pub fn leads(&self, stream: MatcherId) -> bool {
        self.get(stream).is_some_and(|s| s.leader().is_some())
    }

    /// The streams this matcher leads, its own among them.
    pub fn led(&self) -> impl Iterator<Item = MatcherId> + '_ {
        self.iter().filter(|s| s.leader().is_some()).map(|s| s.id())
    }

    /// Drops the copy of `stream` (never the own stream).
    pub fn remove(&mut self, stream: MatcherId) {
        if stream != self.id {
            self.streams.remove(&stream);
        }
    }

    /// Accepts `append` into this matcher's copy of its stream (see
    /// [`ReplicatedStream::accept`]).
    pub fn accept(&mut self, append: &ReplicatedAppend<R>) -> Result<FollowerOutcome, J::Error> {
        self.entry(append.stream)?.accept(append)
    }

    /// Promotes this matcher to leader of `stream` at `epoch` (its owner
    /// died), starting from an empty replica when none is held. Returns
    /// the records to replay; the own stream is never promoted.
    pub fn promote(&mut self, stream: MatcherId, epoch: Epoch) -> Result<&[R], J::Error> {
        if stream == self.id {
            return Ok(&[]);
        }
        Ok(self.entry(stream)?.promote(epoch))
    }

    /// Steps down from leading `stream` (its owner recovered); the own
    /// stream is never demoted.
    pub fn demote(&mut self, stream: MatcherId) {
        if let Some(s) = self.streams.get_mut(&stream).filter(|_| stream != self.id) {
            s.demote();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn follower_accepts_in_order_appends() {
        let mut f = FollowerLog::default();
        assert_eq!(
            f.accept(1, 0, 0, 3),
            AppendVerdict::Accepted {
                fresh_from: 0,
                truncate: None
            }
        );
        assert_eq!(
            f.accept(1, 0, 3, 2),
            AppendVerdict::Accepted {
                fresh_from: 3,
                truncate: None
            }
        );
        assert_eq!(f.next_offset(), 5);
        assert_eq!(f.epoch(), 1);
    }

    #[test]
    fn overlapping_retransmission_yields_only_the_fresh_suffix() {
        let mut f = FollowerLog::default();
        f.accept(1, 0, 0, 4);
        // Retransmission of [2, 6): offsets 2..4 are already held.
        assert_eq!(
            f.accept(1, 0, 2, 4),
            AppendVerdict::Accepted {
                fresh_from: 4,
                truncate: None
            }
        );
        assert_eq!(f.next_offset(), 6);
        // Pure duplicate: fresh_from == end, nothing to store.
        assert_eq!(
            f.accept(1, 0, 0, 2),
            AppendVerdict::Accepted {
                fresh_from: 2,
                truncate: None
            }
        );
        assert_eq!(f.next_offset(), 6);
    }

    #[test]
    fn stale_epoch_is_fenced() {
        let mut f = FollowerLog::default();
        f.accept(2, 0, 0, 3);
        assert_eq!(f.accept(1, 0, 3, 1), AppendVerdict::Fenced { current: 2 });
        assert_eq!(f.next_offset(), 3);
    }

    #[test]
    fn gap_adopts_the_higher_epoch_before_catching_up() {
        let mut f = FollowerLog::default();
        f.accept(1, 0, 0, 2);
        assert_eq!(
            f.accept(3, 2, 5, 1),
            AppendVerdict::Gap {
                expected: 2,
                truncate: None
            }
        );
        // The epoch is adopted immediately so the deposed leader is
        // fenced while the fetch runs.
        assert_eq!(f.epoch(), 3);
        assert_eq!(f.accept(1, 0, 2, 1), AppendVerdict::Fenced { current: 3 });
    }

    #[test]
    fn higher_epoch_truncates_the_uncommitted_tail() {
        let mut f = FollowerLog::default();
        f.accept(1, 0, 0, 5); // offsets 0..5 under epoch 1
                              // New leader promoted at offset 3 rewrites history from there.
        assert_eq!(
            f.accept(2, 3, 3, 1),
            AppendVerdict::Accepted {
                fresh_from: 3,
                truncate: Some(3)
            }
        );
        assert_eq!(f.next_offset(), 4);
        assert_eq!(f.epoch(), 2);
        // The deposed leader's next append is now fenced.
        assert_eq!(f.accept(1, 0, 5, 1), AppendVerdict::Fenced { current: 2 });
    }

    #[test]
    fn ghost_tail_past_the_epoch_base_is_invalidated() {
        // Replica holds 0..10 under epoch 1; the new leader promoted at
        // offset 2 and first contacts us with an append at offset 5.
        // Offsets 2..10 were never replicated into the new leader —
        // accepting at 5 without truncating to the base would strand
        // epoch-1 ghosts at 2..5 under epoch 2.
        let mut f = FollowerLog::default();
        f.accept(1, 0, 0, 10);
        assert_eq!(
            f.accept(2, 2, 5, 1),
            AppendVerdict::Gap {
                expected: 2,
                truncate: Some(2)
            }
        );
        assert_eq!(f.next_offset(), 2);
        assert_eq!(f.epoch(), 2);
        // Catch-up from the new leader's history lands cleanly.
        assert_eq!(
            f.accept(2, 2, 2, 4),
            AppendVerdict::Accepted {
                fresh_from: 2,
                truncate: None
            }
        );
        assert_eq!(f.next_offset(), 6);
    }

    #[test]
    fn promotion_resumes_at_the_replicated_offset() {
        let mut f = FollowerLog::default();
        f.accept(1, 0, 0, 7);
        let mut set = f.promote(2, 1);
        assert_eq!(set.epoch(), 2);
        assert_eq!(set.epoch_base(), 7);
        assert_eq!(set.next_offset(), 7);
        assert_eq!(set.append(2), 7);
        assert_eq!(set.next_offset(), 9);
    }

    #[test]
    fn commit_point_tracks_min_isr() {
        let a = MatcherId(1);
        let b = MatcherId(2);
        let mut set = ReplicaSet::lead(1, 0, 0, 2);
        set.append(10);
        // No follower acks yet: nothing is committed beyond the leader.
        assert_eq!(set.committed(), 0);
        assert!(set.record_ack(a, 1, 4, 0.0));
        assert_eq!(set.committed(), 4);
        assert!(set.record_ack(b, 1, 8, 0.0));
        assert_eq!(set.committed(), 8);
        // min_isr = 3 would need both: the commit point is the 2nd
        // highest ack.
        let mut strict = ReplicaSet::lead(1, 0, 0, 3);
        strict.append(10);
        strict.record_ack(a, 1, 4, 0.0);
        strict.record_ack(b, 1, 8, 0.0);
        assert_eq!(strict.committed(), 4);
        // min_isr = 1 commits on the local append alone.
        let mut lone = ReplicaSet::lead(1, 0, 0, 1);
        lone.append(3);
        assert_eq!(lone.committed(), 3);
    }

    #[test]
    fn stale_epoch_acks_are_ignored() {
        let a = MatcherId(1);
        let mut set = ReplicaSet::lead(3, 0, 0, 2);
        set.append(5);
        assert!(!set.record_ack(a, 2, 5, 0.0));
        assert_eq!(set.committed(), 0);
    }

    #[test]
    fn isr_filters_lag_and_staleness() {
        let a = MatcherId(1);
        let b = MatcherId(2);
        let c = MatcherId(3);
        let mut set = ReplicaSet::lead(1, 0, 0, 1);
        set.append(100);
        set.record_ack(a, 1, 100, 10.0); // caught up, fresh
        set.record_ack(b, 1, 10, 10.0); // lagging
        set.record_ack(c, 1, 100, 1.0); // caught up, stale
        let isr = set.isr(10.5, 16, 2.0);
        assert_eq!(isr, vec![a]);
        set.remove_follower(a);
        assert!(set.isr(10.5, 16, 2.0).is_empty());
    }
}
