//! Replicated-log state machines: leader epochs and `(epoch, offset)`
//! fencing for the matchers' durable subscription logs.
//!
//! Each matcher leads one append-only *stream* — the log of every
//! mutation applied to its own subscription store — and streams records
//! to its clockwise heir, asynchronously: a leader never waits for a
//! replica, and a replica that finds a hole before an append fetches the
//! missing records from the sender. [`FollowerLog`] reasons about epochs
//! and offsets only; [`ReplicatedStream`] holds the records on top of it
//! and is the one place a verdict turns into truncate / skip / store, and
//! [`StreamSet`] is one matcher's streams. Both hosts drive these same
//! types through `MatcherEngine` — the threaded cluster over a
//! file-backed [`Journal`] and TCP, the simulator over the no-op `()`
//! journal and virtual time — and own only the record codec and the
//! transport.
//!
//! Fencing invariant: a replica's accepted sequence is monotone in
//! `(epoch, offset)`. A deposed leader (lower epoch) can never append
//! after the promoted heir's first higher-epoch append reached the
//! replica, and a higher-epoch append truncates any lower-epoch tail
//! beyond its start offset — two replicas that both accepted offset `o`
//! therefore hold the record of the same writer.

use bluedove_core::MatcherId;
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
    /// Stored.
    Stored {
        /// Offset the replica expects next.
        next_offset: u64,
        /// How many records of this append were fresh (not duplicates).
        fresh: u64,
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

#[derive(Debug, Clone, Copy)]
enum Role {
    /// Leads at `epoch`, which began at offset `base`: followers holding
    /// anything past it truncate back to it on its first append (the
    /// ghost-tail rule).
    Leading {
        epoch: Epoch,
        base: u64,
    },
    Following(FollowerLog),
}

/// One holder's copy of a replicated stream: its role, the records it
/// retains from offset `base`, and their journal. Every way records enter
/// or leave the copy is a method here, so `base + records.len()` is the
/// role's tail and the journal always replays `records`.
#[derive(Debug)]
pub struct ReplicatedStream<R, J = ()> {
    id: MatcherId,
    role: Role,
    base: u64,
    records: Vec<R>,
    journal: J,
}

impl<R: Clone, J: Journal<R>> ReplicatedStream<R, J> {
    /// A replica of stream `id` holding `records` from offset `base`,
    /// following at epoch 0 so the leader's first append re-fences it.
    pub fn follower(id: MatcherId, base: u64, records: Vec<R>, journal: J) -> Self {
        let tail = base + records.len() as u64;
        ReplicatedStream {
            id,
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
        match self.role {
            Role::Leading { epoch, .. } => epoch,
            Role::Following(f) => f.epoch(),
        }
    }

    /// Whether this holder leads the stream.
    pub fn leads(&self) -> bool {
        matches!(self.role, Role::Leading { .. })
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
        let (epoch, base) = match self.role {
            Role::Leading { epoch, base } => (epoch, base),
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
    /// heir; `None` unless this holder leads the stream.
    pub fn append(&mut self, rec: R) -> Result<Option<ReplicatedAppend<R>>, J::Error> {
        if !self.leads() {
            return Ok(None);
        }
        self.journal.append(&rec)?;
        let offset = self.next_offset();
        self.records.push(rec.clone());
        Ok(Some(self.stamp(offset, false, vec![rec])))
    }

    /// Fences on the append's `(epoch, offset)`, truncates a deposed
    /// leader's tail, skips duplicates and stores the fresh suffix. A
    /// `reset` at the followed epoch or above replaces the whole copy
    /// first; a holder that leads the stream fences every append.
    pub fn accept(&mut self, append: &ReplicatedAppend<R>) -> Result<FollowerOutcome, J::Error> {
        let f = match &mut self.role {
            Role::Leading { epoch, .. } => return Ok(FollowerOutcome::Fenced { current: *epoch }),
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
        let next_offset = f.next_offset();
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
                let fresh = count - skip as u64;
                Ok(FollowerOutcome::Stored { next_offset, fresh })
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

    /// Serves a fetch from `from`: a leader's records past it, or — when
    /// `from` is behind the compaction horizon, or this holder only
    /// follows — the whole retained copy flagged `reset`.
    pub fn serve(&self, from: u64) -> ReplicatedAppend<R> {
        if self.leads() && from >= self.base {
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
        let (base, replay) = match self.role {
            Role::Leading { base, .. } => (base, &[][..]),
            Role::Following(_) => (self.next_offset(), &self.records[..]),
        };
        self.role = Role::Leading { epoch, base };
        replay
    }

    /// Steps down to a replica at the epoch it led; the recovered
    /// owner's higher-epoch appends re-fence it.
    pub fn demote(&mut self) {
        if let Role::Leading { epoch, .. } = self.role {
            self.role = Role::Following(FollowerLog::at(epoch, self.next_offset()));
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
        self.role = Role::Leading {
            epoch,
            base: diverge,
        };
        Ok(delta)
    }

    /// Compacts a led stream down to `snapshot`, re-stamped as fresh
    /// appends at the tail so followers absorb it like any append.
    /// Returns the append to ship; `None` unless this holder leads.
    pub fn compact(&mut self, snapshot: Vec<R>) -> Result<Option<ReplicatedAppend<R>>, J::Error> {
        if !self.leads() {
            return Ok(None);
        }
        let tail = self.next_offset();
        self.journal.rewrite(&snapshot, tail)?;
        self.base = tail;
        self.records = snapshot.clone();
        Ok(Some(self.stamp(tail, false, snapshot)))
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
        self.get(stream).is_some_and(|s| s.leads())
    }

    /// The streams this matcher leads, its own among them.
    pub fn led(&self) -> impl Iterator<Item = MatcherId> + '_ {
        self.iter().filter(|s| s.leads()).map(|s| s.id())
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
        let mut s = ReplicatedStream::follower(MatcherId(1), 0, vec![0u8; 7], ());
        assert_eq!(s.promote(2).len(), 7);
        assert_eq!((s.epoch(), s.next_offset()), (2, 7));
        let a = s.append(7).unwrap().expect("leads");
        assert_eq!((a.epoch, a.base, a.offset), (2, 7, 7));
        assert_eq!(s.next_offset(), 8);
    }
}
