//! The control plane (§III-A-3, §III-C): the one owner of the segment
//! table, table versions, membership and the stream-leader book.
//!
//! [`ControlEngine`] decides; the hosts execute. `join` / `leave` plan a
//! [`Change`] against a copy of the table: the host moves the
//! subscriptions (hand-over frames on the threaded cluster, direct engine
//! copies in the simulator), then `commit`s it, so a failed change leaves
//! the authoritative table as it was. `crash` and `rejoin` move stream
//! leadership along the [`clockwise_heir`] rule, `observe` runs one
//! autoscaler round, and `announce` stamps the next table version. Like
//! the other engines it never reads a clock or touches a transport.

use crate::autoscaler::{
    Autoscaler, AutoscalerConfig, LoadSnapshot, ScaleDecision, ScaleOutcome, ScalePlan,
};
use crate::replication::Epoch;
use bluedove_baselines::AnyStrategy;
use bluedove_core::{CoreError, DimIdx, DimStats, MPartition, MatcherId, Range, Time};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The clockwise heir of `of`: the lowest id in `ring` above it, wrapping
/// to the lowest id overall, `of` itself skipped; `None` when `ring` holds
/// no other matcher. Allocation-free, so a matcher calls it per append.
pub fn clockwise_heir(
    of: MatcherId,
    ring: impl IntoIterator<Item = MatcherId>,
) -> Option<MatcherId> {
    ring.into_iter()
        .filter(|&m| m != of)
        .min_by_key(|&m| (m < of, m))
}

/// Why the control plane refused a scale operation or a rejoin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleError {
    /// Joins and leaves need the BlueDove segment table; the static
    /// baselines (P2P, full replication) cannot resize.
    WrongStrategy,
    /// Not a table member: never started, or it left.
    UnknownMatcher(MatcherId),
    /// A deployment cannot shrink below one matcher.
    LastMatcher,
    /// The member crashed: it is failed over, not drained.
    NotAlive(MatcherId),
    /// The member is running: only a crashed one can rejoin.
    StillRunning(MatcherId),
    /// No autoscaler is configured.
    NoAutoscaler,
    /// No live member owns a segment of this dimension, so a join has no
    /// donor to split.
    NoLiveDonor(DimIdx),
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleError::WrongStrategy => write!(f, "scaling requires the BlueDove strategy"),
            ScaleError::UnknownMatcher(m) => write!(f, "M{} is not a table member", m.0),
            ScaleError::LastMatcher => write!(f, "cannot remove the last matcher"),
            ScaleError::NotAlive(m) => write!(f, "M{} is down and cannot be drained", m.0),
            ScaleError::StillRunning(m) => write!(f, "M{} is still running", m.0),
            ScaleError::NoAutoscaler => write!(f, "no autoscaler configured"),
            ScaleError::NoLiveDonor(d) => {
                write!(f, "no live matcher owns a segment of dim {}", d.0)
            }
        }
    }
}

impl std::error::Error for ScaleError {}

/// One range a [`Change`] moves: `from` ships its subscriptions
/// overlapping `range` on `dim` to `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct Move {
    /// The dimension the range lies on.
    pub dim: DimIdx,
    /// The donor of a join, the victim of a leave.
    pub from: MatcherId,
    /// The joiner, or the victim's heir for this range.
    pub to: MatcherId,
    /// The range whose subscriptions move.
    pub range: Range,
    /// On a join, the donor's segments on `dim` after the split: a moved
    /// copy overlapping one of them stays on the donor. Empty on a leave.
    pub keep: Vec<Range>,
}

/// A planned join or leave, not yet [committed](ControlEngine::commit).
#[derive(Debug, Clone)]
pub struct Change {
    /// The matcher the change adds or removes.
    pub outcome: ScaleOutcome,
    /// The ranges to move before committing, in table order.
    pub moves: Vec<Move>,
    strategy: AnyStrategy,
}

/// One table announcement: what a `TableUpdate` carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Announcement {
    /// Strictly above every earlier announcement's version.
    pub version: u64,
    /// The authoritative strategy.
    pub strategy: AnyStrategy,
    /// The members not known to be down, ascending: the address book.
    pub live: Vec<MatcherId>,
    /// The leader book, by stream id: `(stream, leader, epoch)`. A stream
    /// is led by its owner unless the owner is down and an heir was
    /// promoted.
    pub leaders: Vec<(MatcherId, MatcherId, Epoch)>,
}

/// The deployment's control plane (see the module docs).
pub struct ControlEngine {
    strategy: AnyStrategy,
    version: u64,
    members: BTreeSet<MatcherId>,
    next_id: u32,
    down: BTreeSet<MatcherId>,
    /// Crashes promote and rejoins bump epochs only with streams
    /// replicated (the cluster's sub-log, the simulator's replication).
    replicated: bool,
    /// Per stream (owner id): its leader and its epoch.
    streams: BTreeMap<MatcherId, (MatcherId, Epoch)>,
    autoscaler: Option<Autoscaler>,
    snapshots: Vec<LoadSnapshot>,
    events: Vec<(Time, ScaleOutcome)>,
}

impl ControlEngine {
    /// `strategy`'s matchers, all live, each leading its own stream at
    /// epoch 1; nothing announced yet.
    pub fn new(strategy: AnyStrategy) -> Self {
        let members: BTreeSet<MatcherId> = strategy.as_dyn().matchers().into_iter().collect();
        ControlEngine {
            next_id: members.last().map_or(0, |m| m.0 + 1),
            streams: members.iter().map(|&m| (m, (m, 1))).collect(),
            members,
            strategy,
            version: 0,
            down: BTreeSet::new(),
            replicated: false,
            autoscaler: None,
            snapshots: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Turns stream fail-over on.
    pub fn replicate(&mut self) {
        self.replicated = true;
    }

    /// Installs the autoscaler [`observe`](Self::observe) runs.
    pub fn enable_autoscaler(&mut self, cfg: AutoscalerConfig) {
        self.autoscaler = Some(Autoscaler::new(cfg));
    }

    /// The authoritative strategy.
    pub fn strategy(&self) -> &AnyStrategy {
        &self.strategy
    }

    /// The members not known to be down, ascending.
    pub fn live(&self) -> impl Iterator<Item = MatcherId> + '_ {
        self.members
            .iter()
            .copied()
            .filter(|m| !self.down.contains(m))
    }

    /// The live member clockwise of `m`.
    pub fn heir(&self, m: MatcherId) -> Option<MatcherId> {
        clockwise_heir(m, self.live())
    }

    /// The member leading `stream`.
    pub fn leader_of(&self, stream: MatcherId) -> Option<MatcherId> {
        self.streams.get(&stream).map(|s| s.0)
    }

    /// The leader book, by stream id: `(stream, leader, epoch)`.
    pub fn leaders(&self) -> Vec<(MatcherId, MatcherId, Epoch)> {
        self.streams.iter().map(|(&s, &(l, e))| (s, l, e)).collect()
    }

    /// A copy of the BlueDove table to plan on.
    fn table_copy(&self) -> Result<MPartition, ScaleError> {
        match &self.strategy {
            AnyStrategy::BlueDove(mp) => Ok(mp.clone()),
            _ => Err(ScaleError::WrongStrategy),
        }
    }

    /// Plans a §III-C join: a fresh id (spent even if never committed)
    /// takes, per dimension, the upper half of the widest segment of the
    /// live donor `loads` reports heaviest (uniform when empty). A down
    /// member never donates; refused when a dimension has no live owner.
    pub fn join(&mut self, loads: &LoadSnapshot) -> Result<Change, ScaleError> {
        let mut mp = self.table_copy()?;
        let id = MatcherId(self.next_id);
        let down = &self.down;
        let split = mp
            .table_mut()
            .split_join(id, |m, dim| {
                (!down.contains(&m)).then(|| loads.load_of(m, dim))
            })
            .map_err(ScaleError::NoLiveDonor)?;
        self.next_id += 1;
        let moves = split.into_iter().map(|(dim, donor, range)| Move {
            dim,
            from: donor,
            to: id,
            range,
            keep: mp
                .table()
                .segments_of(donor)
                .into_iter()
                .filter_map(|(d, r)| (d == dim).then_some(r))
                .collect(),
        });
        Ok(Change {
            outcome: ScaleOutcome::Added(id),
            moves: moves.collect(),
            strategy: AnyStrategy::BlueDove(mp),
        })
    }

    /// Plans a graceful leave: every segment of `victim` merges into its
    /// ring neighbour. Refused for a down member, a non-member and the
    /// last matcher.
    pub fn leave(&self, victim: MatcherId) -> Result<Change, ScaleError> {
        let mut mp = self.table_copy()?;
        if self.down.contains(&victim) {
            return Err(ScaleError::NotAlive(victim));
        }
        let merges = mp.table_mut().remove_matcher(victim).map_err(|e| match e {
            CoreError::LastMatcher => ScaleError::LastMatcher,
            _ => ScaleError::UnknownMatcher(victim),
        })?;
        let moves = merges.into_iter().map(|(dim, heir, range)| Move {
            dim,
            from: victim,
            to: heir,
            range,
            keep: Vec::new(),
        });
        Ok(Change {
            outcome: ScaleOutcome::Removed(victim),
            moves: moves.collect(),
            strategy: AnyStrategy::BlueDove(mp),
        })
    }

    /// Makes `change` authoritative at `now`: the joiner leads its own
    /// stream at epoch 1; a leaver's own stream is forgotten (its copies
    /// went to its heirs), and every stream it led for a down owner moves
    /// on as in [`crash`](Self::crash), returned the same way. Commit each
    /// change before planning the next.
    pub fn commit(&mut self, change: &Change, now: Time) -> Vec<(MatcherId, MatcherId, Epoch)> {
        self.strategy = change.strategy.clone();
        self.events.push((now, change.outcome));
        match change.outcome {
            ScaleOutcome::Added(m) => {
                self.members.insert(m);
                self.streams.insert(m, (m, 1));
                Vec::new()
            }
            ScaleOutcome::Removed(m) => {
                self.members.remove(&m);
                self.streams.remove(&m);
                self.hand_on(m)
            }
        }
    }

    /// Marks member `m` down. With streams replicated, every stream it led
    /// moves to its clockwise heir one epoch up: `(stream, heir, epoch)`.
    /// With no live member left they fall back to their owners.
    pub fn crash(&mut self, m: MatcherId) -> Vec<(MatcherId, MatcherId, Epoch)> {
        if !self.members.contains(&m) || !self.down.insert(m) || !self.replicated {
            return Vec::new();
        }
        self.hand_on(m)
    }

    /// Moves every stream `m` leads to its live clockwise heir one epoch
    /// up; with no live member left, back to its owner.
    fn hand_on(&mut self, m: MatcherId) -> Vec<(MatcherId, MatcherId, Epoch)> {
        let heir = self.heir(m);
        let led = self.streams.iter_mut().filter(|(_, s)| s.0 == m);
        led.filter_map(|(&stream, (leader, epoch))| {
            *leader = heir.unwrap_or(stream);
            *epoch += 1;
            Some((stream, heir?, *epoch))
        })
        .collect()
    }

    /// Brings crashed member `m` back. Returns the epoch it leads its own
    /// stream at — with streams replicated one above its heir's, so the
    /// heir's in-flight appends fence — and the live member that led the
    /// stream meanwhile, to fetch the downtime delta from and step down.
    /// Refused for a running member and for a non-member: a matcher that
    /// left cannot come back this way.
    pub fn rejoin(&mut self, m: MatcherId) -> Result<(Epoch, Option<MatcherId>), ScaleError> {
        if !self.members.contains(&m) {
            return Err(ScaleError::UnknownMatcher(m));
        }
        if !self.down.remove(&m) {
            return Err(ScaleError::StillRunning(m));
        }
        let (leader, epoch) = self.streams.entry(m).or_insert((m, 1));
        let was = std::mem::replace(leader, m);
        if self.replicated {
            *epoch += 1;
        }
        let epoch = *epoch;
        let interim = Some(was).filter(|&l| l != m && self.live().any(|x| x == l));
        Ok((epoch, interim))
    }

    /// One autoscaler round at `now` over `reports`, non-members' (a
    /// draining leaver's) dropped; logs the snapshot and returns the plan
    /// the decision lowers to.
    pub fn observe(
        &mut self,
        now: Time,
        reports: impl IntoIterator<Item = (MatcherId, DimIdx, DimStats)>,
    ) -> Result<Option<ScalePlan>, ScaleError> {
        let scaler = self.autoscaler.as_mut().ok_or(ScaleError::NoAutoscaler)?;
        let mut snap = LoadSnapshot::new(now);
        for (m, dim, stats) in reports {
            if self.members.contains(&m) {
                snap.push(m, dim, stats);
            }
        }
        let plan = ScalePlan::from_decision(scaler.observe(&snap), &snap);
        self.snapshots.push(snap);
        Ok(plan)
    }

    /// The next table announcement.
    pub fn announce(&mut self) -> Announcement {
        self.version += 1;
        Announcement {
            version: self.version,
            strategy: self.strategy.clone(),
            live: self.live().collect(),
            leaders: self.leaders(),
        }
    }

    /// The non-`Hold` decisions the autoscaler fired, with their times.
    pub fn autoscaler_log(&self) -> &[(Time, ScaleDecision)] {
        self.autoscaler.as_ref().map_or(&[], |a| a.log())
    }

    /// Every snapshot the autoscaler observed, in order — replay them
    /// through another host's controller to check decision parity.
    pub fn snapshot_log(&self) -> &[LoadSnapshot] {
        &self.snapshots
    }

    /// Every committed change, `(time, outcome)`.
    pub fn scale_events(&self) -> &[(Time, ScaleOutcome)] {
        &self.events
    }
}
