//! Control-plane and data-plane messages of the threaded cluster, plus
//! their wire encoding.

use crate::sublog::SubLogRecord;
use bluedove_core::{
    DimIdx, DimStats, MatcherId, Message, MessageId, Range, SubscriberId, Subscription,
    SubscriptionId,
};
use bluedove_engine::replication::ReplicatedAppend;
use bluedove_net::{from_bytes_shared, NetError, NetResult, Wire};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Every message exchanged between clients, dispatchers and matchers.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Client → dispatcher: register a subscription.
    Subscribe(Subscription),
    /// Client → dispatcher: publish a message.
    Publish(Message),
    /// Client → dispatcher: unregister a subscription. The dispatcher
    /// recomputes the (deterministic) assignment and removes every copy.
    Unsubscribe(Subscription),
    /// Dispatcher → matcher: drop the subscription copy with this id from
    /// the per-`dim` set.
    RemoveSub {
        /// Copy dimension.
        dim: DimIdx,
        /// The subscription id to drop.
        sub: SubscriptionId,
        /// The copy's owner, whose stream the removal is journaled on.
        stream: MatcherId,
    },
    /// Dispatcher → matcher: store a subscription copy in the per-`dim`
    /// set.
    StoreSub {
        /// Copy dimension.
        dim: DimIdx,
        /// The subscription.
        sub: Subscription,
        /// The copy's owner, whose stream the store is journaled on.
        stream: MatcherId,
    },
    /// Dispatcher → matcher: match `msg` against the per-`dim` set.
    MatchMsg {
        /// The dimension the dispatcher selected (the candidate's
        /// dimension mark from §III-B).
        dim: DimIdx,
        /// The publication.
        msg: Message,
        /// Dispatcher admission timestamp, microseconds since the cluster
        /// epoch — response time is measured from here.
        admitted_us: u64,
        /// Where to send the [`ControlMsg::MatchAck`] once the message has
        /// been matched and its deliveries handed to the transport. Empty
        /// when the dispatcher runs with acknowledgements disabled
        /// (fire-and-forget forwarding).
        ack_to: String,
    },
    /// Matcher → dispatcher: the publication with `msg_id` has been
    /// matched against the per-dim set and every resulting delivery was
    /// handed to the transport. Releases the dispatcher's in-flight
    /// ledger entry; a re-forward of an already-served message is
    /// answered with the same ack (idempotent no-op).
    MatchAck {
        /// The acknowledged publication.
        msg_id: MessageId,
        /// The acking matcher (lets the dispatcher clear a pending
        /// suspicion for a matcher that turned out to be alive).
        matcher: MatcherId,
        /// Measured processing time of the publication on the matcher —
        /// queue wait plus match time, microseconds. Dispatchers compare
        /// it against the forwarding policy's *estimated* processing time
        /// (the §III-B accuracy metric). Zero on the re-ack of an
        /// already-served duplicate, where nothing was measured.
        actual_us: u64,
    },
    /// Matcher → dispatcher: per-dimension load report (§III-B feedback).
    LoadReport {
        /// Reporting matcher.
        matcher: MatcherId,
        /// Dimension the report covers.
        dim: DimIdx,
        /// The `(sub_count, q, λ, µ)` snapshot.
        stats: DimStats,
    },
    /// Matcher → subscriber: a matching message delivery.
    Deliver {
        /// The subscriber the delivery is for (lets a shared mailbox node
        /// demultiplex deliveries funneled onto one inbox).
        subscriber: SubscriberId,
        /// The subscription that matched.
        sub: SubscriptionId,
        /// The message.
        msg: Message,
        /// Original admission timestamp (for client-side response-time
        /// measurement).
        admitted_us: u64,
    },
    /// Client → mailbox: request up to `max` stored deliveries for
    /// `subscriber`, answered with a `MailboxBatch` to `reply_to`
    /// (the §II-B indirect delivery model for clients that cannot listen).
    MailboxPoll {
        /// Whose mailbox to drain.
        subscriber: SubscriberId,
        /// Where to send the batch.
        reply_to: String,
        /// Maximum deliveries to return (0 = all).
        max: u32,
    },
    /// Mailbox → client: the stored deliveries.
    MailboxBatch {
        /// `(subscription, message, admitted_us)` triples, oldest first.
        entries: Vec<(SubscriptionId, Message, u64)>,
    },
    /// Dispatcher → subscriber: the subscription was registered and its
    /// copies forwarded to every assigned matcher.
    SubAck {
        /// The id stamped on the subscription.
        sub: SubscriptionId,
    },
    /// Orchestrator → matcher: hand the dimension-`dim` subscriptions
    /// overlapping `range` to matcher `to` (elastic join).
    /// The donor keeps serving copies until a later `Retire`.
    HandOver {
        /// Dimension of the moved segment.
        dim: DimIdx,
        /// The transferred range.
        range: Range,
        /// The receiving matcher, the moved copies' new owner.
        to: MatcherId,
        /// Where to send the `HandOverDone` ack.
        reply_to: String,
    },
    /// Matcher → orchestrator: the hand-over for `dim` finished (all
    /// copies shipped to the new matcher).
    HandOverDone {
        /// Dimension the ack covers.
        dim: DimIdx,
        /// Number of subscription copies shipped.
        moved: u64,
    },
    /// Orchestrator → matcher: drop the dimension-`dim` copies overlapping
    /// `range` that no longer overlap the matcher's own segments
    /// (completes a hand-over after the table switch propagates).
    Retire {
        /// Dimension of the retired copies.
        dim: DimIdx,
        /// The transferred range.
        range: Range,
        /// Ranges this matcher still owns on `dim` (copies overlapping any
        /// of these stay).
        keep: Vec<Range>,
    },
    /// Dispatcher → matcher: request the current table (§III-C: "each
    /// dispatcher pulls the table from a randomly chosen matcher once a
    /// while").
    TablePull {
        /// Where to send the `TableState` reply.
        reply_to: String,
    },
    /// A routing table: the orchestrator's announcement to every matcher
    /// and dispatcher, or a matcher's reply to a `TablePull`. A receiver
    /// installs one newer than its own; dispatchers and matchers learn of
    /// promotions through this same monotone path that carries segment
    /// ownership.
    TableState {
        /// Monotone management-plane version (0 = the replying matcher
        /// has no table yet).
        version: u64,
        /// The full strategy (segment table included), when known.
        strategy: Option<bluedove_baselines::AnyStrategy>,
        /// Matcher address book.
        addrs: Vec<(MatcherId, String)>,
        /// The leader book, `(stream, leader, epoch)`.
        leaders: Vec<(MatcherId, MatcherId, u64)>,
    },
    /// Matcher ↔ matcher: one leg of the §III-C anti-entropy gossip
    /// handshake, carried over the regular transport. `from_addr` tells
    /// the receiver where to send the next leg.
    Gossip {
        /// Sender's transport address (for the reply leg).
        from_addr: String,
        /// The gossip payload (Syn / Ack / Ack2).
        msg: bluedove_overlay::GossipMsg,
    },
    /// Any node → matcher: request the cluster's telemetry exposition
    /// (the metric registry rendered in the Prometheus text format),
    /// answered with a [`ControlMsg::TelemetryText`] to `reply_to`.
    TelemetryPull {
        /// Where to send the exposition.
        reply_to: String,
    },
    /// Matcher → requester: the rendered exposition.
    TelemetryText {
        /// Prometheus-style text exposition of every metric family.
        text: String,
    },
    /// Orchestrator → matcher: begin a graceful leave (elastic
    /// scale-down). The matcher announces `Leaving` on the gossip
    /// overlay, keeps serving until its queues drain and the post-leave
    /// table has had time to propagate, then exits its run loop. Sent
    /// *after* the hand-overs to the heirs completed and the new table
    /// was broadcast, so no new work is routed here.
    Leave,
    /// Orderly shutdown of the receiving node.
    Shutdown,
    /// Stream leader → its clockwise heir: replicate sub-log records
    /// appended under `(epoch, offset)`. Also the reply to a
    /// [`ControlMsg::SubLogFetch`]. The follower fences on the stamp (see
    /// `bluedove_engine::replication`); no ack is sent back.
    SubLogAppend {
        /// The records and the `(stream, epoch, base, offset, reset)`
        /// stamp followers fence on.
        append: ReplicatedAppend<SubLogRecord>,
        /// Where the follower fetches a hole before the append from
        /// (empty = nowhere).
        fetch_from: String,
    },
    /// Follower (or control plane) → stream leader: re-send the records
    /// from `from` to the tail, as a [`ControlMsg::SubLogAppend`] to
    /// `reply_to` (gap repair). With `step_down` (control plane → interim
    /// leader, when the stream moves on) the leader also steps back down
    /// to a follower in the same step, so the copy holds every write it
    /// applied, and passes a later one on to the stream's new leader.
    SubLogFetch {
        /// Which stream.
        stream: MatcherId,
        /// First missing offset.
        from: u64,
        /// Where to send the catch-up append.
        reply_to: String,
        /// Stop leading the stream.
        step_down: bool,
    },
    /// Control plane → heir: the owner of `stream` died — promote your
    /// replica at its replicated offset and lead the stream under
    /// `epoch`, replaying the replica into your own index (failover as
    /// log replay).
    SubLogPromote {
        /// The dead owner's stream.
        stream: MatcherId,
        /// The new leader epoch (strictly above every prior one).
        epoch: u64,
    },
    /// Control plane → matcher, when leadership returns to a rejoined
    /// owner: drop the copies no assignment to you or to a stream you
    /// lead keeps (see `bluedove_engine::MatcherEngine::prune`).
    Prune,
    /// Control plane → recovering matcher: the copy of your own stream
    /// served by the heir that led it while you were down. The matcher
    /// installs the records past its divergence point (the downtime
    /// delta) before serving resumes, then leads its stream under
    /// `epoch`.
    SubLogInstall {
        /// The fresh leader epoch to resume under.
        epoch: u64,
        /// The heir's copy, stamped with its promotion point.
        served: ReplicatedAppend<SubLogRecord>,
    },
    /// A coalesced run of frames for one destination, flushed by the
    /// sender's size/idle/deadline policy (see `bluedove_engine::Coalescer`).
    /// The receiver processes the inner frames in order, exactly as if
    /// they had arrived individually. Invariants enforced by the decoder:
    /// a batch is never empty and never nests another batch.
    Batch(Vec<ControlMsg>),
}

impl ControlMsg {
    /// Encoded length of a [`ControlMsg::Deliver`] carrying `msg`: tag,
    /// subscriber, subscription, message id, value count, `8·k` values,
    /// payload length, payload, admission stamp. A buffer of exactly this
    /// capacity never regrows under [`encode_deliver`](Self::encode_deliver).
    pub fn deliver_len(msg: &Message) -> usize {
        41 + 8 * msg.values.len() + msg.payload.len()
    }

    /// Appends the encoding of a [`ControlMsg::Deliver`] built from
    /// borrowed parts — what a matcher sending one hit unbatched uses, so
    /// the message is not cloned into an owned frame first.
    pub fn encode_deliver(
        buf: &mut BytesMut,
        subscriber: SubscriberId,
        sub: SubscriptionId,
        msg: &Message,
        admitted_us: u64,
    ) {
        buf.put_u8(TAG_DELIVER);
        subscriber.encode(buf);
        sub.encode(buf);
        msg.encode(buf);
        admitted_us.encode(buf);
    }

    /// Lowers an engine-level [`bluedove_engine::DispatcherOut`] frame
    /// onto the wire protocol. `ack_addr` is the sending dispatcher's own
    /// address, stamped as `ack_to` when the engine requests an ack.
    pub fn from_dispatcher_out(out: bluedove_engine::DispatcherOut, ack_addr: &str) -> Self {
        match out {
            bluedove_engine::DispatcherOut::StoreSub { dim, sub, stream } => {
                ControlMsg::StoreSub { dim, sub, stream }
            }
            bluedove_engine::DispatcherOut::RemoveSub { dim, sub, stream } => {
                ControlMsg::RemoveSub { dim, sub, stream }
            }
            bluedove_engine::DispatcherOut::Match {
                dim,
                msg,
                admitted_us,
                want_ack,
            } => ControlMsg::MatchMsg {
                dim,
                msg,
                admitted_us,
                ack_to: if want_ack {
                    ack_addr.to_string()
                } else {
                    String::new()
                },
            },
        }
    }
}

/// The frames of one received payload, in order — the one intake path of
/// every inbox: a corrupt payload yields none, a [`ControlMsg::Batch`]
/// its members, anything else itself (no allocation). Zero-copy decode:
/// message payloads stay windows into `payload`'s allocation.
pub(crate) fn frames(payload: Bytes) -> impl Iterator<Item = ControlMsg> {
    let (one, many) = match from_bytes_shared(payload) {
        Ok(ControlMsg::Batch(inner)) => (None, inner),
        Ok(m) => (Some(m), Vec::new()),
        Err(_) => (None, Vec::new()),
    };
    one.into_iter().chain(many)
}

const TAG_SUBSCRIBE: u8 = 0;
const TAG_PUBLISH: u8 = 1;
const TAG_STORE_SUB: u8 = 2;
const TAG_MATCH_MSG: u8 = 3;
const TAG_LOAD_REPORT: u8 = 4;
const TAG_DELIVER: u8 = 5;
const TAG_HAND_OVER: u8 = 6;
const TAG_RETIRE: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;
const TAG_SUB_ACK: u8 = 9;
const TAG_HAND_OVER_DONE: u8 = 10;
const TAG_MAILBOX_POLL: u8 = 11;
const TAG_MAILBOX_BATCH: u8 = 12;
const TAG_GOSSIP: u8 = 13;
const TAG_UNSUBSCRIBE: u8 = 14;
const TAG_REMOVE_SUB: u8 = 15;
const TAG_TABLE_PULL: u8 = 17;
const TAG_TABLE_STATE: u8 = 18;
const TAG_MATCH_ACK: u8 = 19;
const TAG_TELEMETRY_PULL: u8 = 20;
const TAG_TELEMETRY_TEXT: u8 = 21;
const TAG_LEAVE: u8 = 22;
const TAG_BATCH: u8 = 23;
const TAG_SUBLOG_APPEND: u8 = 24;
const TAG_SUBLOG_FETCH: u8 = 26;
const TAG_SUBLOG_PROMOTE: u8 = 27;
const TAG_SUBLOG_INSTALL: u8 = 29;
const TAG_PRUNE: u8 = 30;

/// Decoder cap on frames per batch: a forged count cannot make the
/// decoder pre-allocate more than this many slots, and well-formed
/// senders never coalesce more (the engine clamps `max_batch` too).
pub const MAX_BATCH_FRAMES: usize = 4096;

/// A replicated append's fields, inline: stream, epoch, base, offset,
/// reset, records.
fn encode_append(a: &ReplicatedAppend<SubLogRecord>, buf: &mut BytesMut) {
    a.stream.encode(buf);
    a.epoch.encode(buf);
    a.base.encode(buf);
    a.offset.encode(buf);
    a.reset.encode(buf);
    a.records.encode(buf);
}

fn decode_append(buf: &mut impl Buf) -> NetResult<ReplicatedAppend<SubLogRecord>> {
    Ok(ReplicatedAppend {
        stream: MatcherId::decode(buf)?,
        epoch: u64::decode(buf)?,
        base: u64::decode(buf)?,
        offset: u64::decode(buf)?,
        reset: bool::decode(buf)?,
        records: Vec::<SubLogRecord>::decode(buf)?,
    })
}

impl Wire for ControlMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ControlMsg::Subscribe(s) => {
                buf.put_u8(TAG_SUBSCRIBE);
                s.encode(buf);
            }
            ControlMsg::Publish(m) => {
                buf.put_u8(TAG_PUBLISH);
                m.encode(buf);
            }
            ControlMsg::Unsubscribe(s) => {
                buf.put_u8(TAG_UNSUBSCRIBE);
                s.encode(buf);
            }
            ControlMsg::RemoveSub { dim, sub, stream } => {
                buf.put_u8(TAG_REMOVE_SUB);
                dim.encode(buf);
                sub.encode(buf);
                stream.encode(buf);
            }
            ControlMsg::StoreSub { dim, sub, stream } => {
                buf.put_u8(TAG_STORE_SUB);
                dim.encode(buf);
                sub.encode(buf);
                stream.encode(buf);
            }
            ControlMsg::MatchMsg {
                dim,
                msg,
                admitted_us,
                ack_to,
            } => {
                buf.put_u8(TAG_MATCH_MSG);
                dim.encode(buf);
                msg.encode(buf);
                admitted_us.encode(buf);
                ack_to.encode(buf);
            }
            ControlMsg::MatchAck {
                msg_id,
                matcher,
                actual_us,
            } => {
                buf.put_u8(TAG_MATCH_ACK);
                msg_id.encode(buf);
                matcher.encode(buf);
                actual_us.encode(buf);
            }
            ControlMsg::LoadReport {
                matcher,
                dim,
                stats,
            } => {
                buf.put_u8(TAG_LOAD_REPORT);
                matcher.encode(buf);
                dim.encode(buf);
                stats.encode(buf);
            }
            ControlMsg::Deliver {
                subscriber,
                sub,
                msg,
                admitted_us,
            } => ControlMsg::encode_deliver(buf, *subscriber, *sub, msg, *admitted_us),
            ControlMsg::MailboxPoll {
                subscriber,
                reply_to,
                max,
            } => {
                buf.put_u8(TAG_MAILBOX_POLL);
                subscriber.encode(buf);
                reply_to.encode(buf);
                max.encode(buf);
            }
            ControlMsg::MailboxBatch { entries } => {
                buf.put_u8(TAG_MAILBOX_BATCH);
                entries.encode(buf);
            }
            ControlMsg::SubAck { sub } => {
                buf.put_u8(TAG_SUB_ACK);
                sub.encode(buf);
            }
            ControlMsg::HandOver {
                dim,
                range,
                to,
                reply_to,
            } => {
                buf.put_u8(TAG_HAND_OVER);
                dim.encode(buf);
                range.encode(buf);
                to.encode(buf);
                reply_to.encode(buf);
            }
            ControlMsg::HandOverDone { dim, moved } => {
                buf.put_u8(TAG_HAND_OVER_DONE);
                dim.encode(buf);
                moved.encode(buf);
            }
            ControlMsg::Retire { dim, range, keep } => {
                buf.put_u8(TAG_RETIRE);
                dim.encode(buf);
                range.encode(buf);
                keep.encode(buf);
            }
            ControlMsg::TablePull { reply_to } => {
                buf.put_u8(TAG_TABLE_PULL);
                reply_to.encode(buf);
            }
            ControlMsg::TableState {
                version,
                strategy,
                addrs,
                leaders,
            } => {
                buf.put_u8(TAG_TABLE_STATE);
                version.encode(buf);
                strategy.encode(buf);
                addrs.encode(buf);
                leaders.encode(buf);
            }
            ControlMsg::Gossip { from_addr, msg } => {
                buf.put_u8(TAG_GOSSIP);
                from_addr.encode(buf);
                msg.encode(buf);
            }
            ControlMsg::TelemetryPull { reply_to } => {
                buf.put_u8(TAG_TELEMETRY_PULL);
                reply_to.encode(buf);
            }
            ControlMsg::TelemetryText { text } => {
                buf.put_u8(TAG_TELEMETRY_TEXT);
                text.encode(buf);
            }
            ControlMsg::Leave => buf.put_u8(TAG_LEAVE),
            ControlMsg::Prune => buf.put_u8(TAG_PRUNE),
            ControlMsg::Shutdown => buf.put_u8(TAG_SHUTDOWN),
            ControlMsg::SubLogAppend { append, fetch_from } => {
                buf.put_u8(TAG_SUBLOG_APPEND);
                encode_append(append, buf);
                fetch_from.encode(buf);
            }
            ControlMsg::SubLogFetch {
                stream,
                from,
                reply_to,
                step_down,
            } => {
                buf.put_u8(TAG_SUBLOG_FETCH);
                stream.encode(buf);
                from.encode(buf);
                reply_to.encode(buf);
                step_down.encode(buf);
            }
            ControlMsg::SubLogPromote { stream, epoch } => {
                buf.put_u8(TAG_SUBLOG_PROMOTE);
                stream.encode(buf);
                epoch.encode(buf);
            }
            ControlMsg::SubLogInstall { epoch, served } => {
                buf.put_u8(TAG_SUBLOG_INSTALL);
                epoch.encode(buf);
                encode_append(served, buf);
            }
            ControlMsg::Batch(inner) => {
                debug_assert!(!inner.is_empty(), "encoder never emits an empty batch");
                debug_assert!(
                    !inner.iter().any(|m| matches!(m, ControlMsg::Batch(_))),
                    "encoder never nests batches"
                );
                buf.put_u8(TAG_BATCH);
                inner.encode(buf);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        let tag = u8::decode(buf)?;
        Ok(match tag {
            TAG_SUBSCRIBE => ControlMsg::Subscribe(Subscription::decode(buf)?),
            TAG_PUBLISH => ControlMsg::Publish(Message::decode(buf)?),
            TAG_UNSUBSCRIBE => ControlMsg::Unsubscribe(Subscription::decode(buf)?),
            TAG_REMOVE_SUB => ControlMsg::RemoveSub {
                dim: DimIdx::decode(buf)?,
                sub: SubscriptionId::decode(buf)?,
                stream: MatcherId::decode(buf)?,
            },
            TAG_STORE_SUB => ControlMsg::StoreSub {
                dim: DimIdx::decode(buf)?,
                sub: Subscription::decode(buf)?,
                stream: MatcherId::decode(buf)?,
            },
            TAG_MATCH_MSG => ControlMsg::MatchMsg {
                dim: DimIdx::decode(buf)?,
                msg: Message::decode(buf)?,
                admitted_us: u64::decode(buf)?,
                ack_to: String::decode(buf)?,
            },
            TAG_MATCH_ACK => ControlMsg::MatchAck {
                msg_id: MessageId::decode(buf)?,
                matcher: MatcherId::decode(buf)?,
                actual_us: u64::decode(buf)?,
            },
            TAG_LOAD_REPORT => ControlMsg::LoadReport {
                matcher: MatcherId::decode(buf)?,
                dim: DimIdx::decode(buf)?,
                stats: DimStats::decode(buf)?,
            },
            TAG_DELIVER => ControlMsg::Deliver {
                subscriber: SubscriberId::decode(buf)?,
                sub: SubscriptionId::decode(buf)?,
                msg: Message::decode(buf)?,
                admitted_us: u64::decode(buf)?,
            },
            TAG_MAILBOX_POLL => ControlMsg::MailboxPoll {
                subscriber: SubscriberId::decode(buf)?,
                reply_to: String::decode(buf)?,
                max: u32::decode(buf)?,
            },
            TAG_MAILBOX_BATCH => ControlMsg::MailboxBatch {
                entries: Vec::decode(buf)?,
            },
            TAG_SUB_ACK => ControlMsg::SubAck {
                sub: SubscriptionId::decode(buf)?,
            },
            TAG_HAND_OVER => ControlMsg::HandOver {
                dim: DimIdx::decode(buf)?,
                range: Range::decode(buf)?,
                to: MatcherId::decode(buf)?,
                reply_to: String::decode(buf)?,
            },
            TAG_HAND_OVER_DONE => ControlMsg::HandOverDone {
                dim: DimIdx::decode(buf)?,
                moved: u64::decode(buf)?,
            },
            TAG_RETIRE => ControlMsg::Retire {
                dim: DimIdx::decode(buf)?,
                range: Range::decode(buf)?,
                keep: Vec::<Range>::decode(buf)?,
            },
            TAG_TABLE_PULL => ControlMsg::TablePull {
                reply_to: String::decode(buf)?,
            },
            TAG_TABLE_STATE => ControlMsg::TableState {
                version: u64::decode(buf)?,
                strategy: Option::decode(buf)?,
                addrs: Vec::decode(buf)?,
                leaders: Vec::decode(buf)?,
            },
            TAG_GOSSIP => ControlMsg::Gossip {
                from_addr: String::decode(buf)?,
                msg: bluedove_overlay::GossipMsg::decode(buf)?,
            },
            TAG_TELEMETRY_PULL => ControlMsg::TelemetryPull {
                reply_to: String::decode(buf)?,
            },
            TAG_TELEMETRY_TEXT => ControlMsg::TelemetryText {
                text: String::decode(buf)?,
            },
            TAG_LEAVE => ControlMsg::Leave,
            TAG_PRUNE => ControlMsg::Prune,
            TAG_SHUTDOWN => ControlMsg::Shutdown,
            TAG_SUBLOG_APPEND => ControlMsg::SubLogAppend {
                append: decode_append(buf)?,
                fetch_from: String::decode(buf)?,
            },
            TAG_SUBLOG_FETCH => ControlMsg::SubLogFetch {
                stream: MatcherId::decode(buf)?,
                from: u64::decode(buf)?,
                reply_to: String::decode(buf)?,
                step_down: bool::decode(buf)?,
            },
            TAG_SUBLOG_PROMOTE => ControlMsg::SubLogPromote {
                stream: MatcherId::decode(buf)?,
                epoch: u64::decode(buf)?,
            },
            TAG_SUBLOG_INSTALL => ControlMsg::SubLogInstall {
                epoch: u64::decode(buf)?,
                served: decode_append(buf)?,
            },
            TAG_BATCH => {
                let n = u32::decode(buf)? as usize;
                if n == 0 {
                    // An empty batch carries no information and is never
                    // emitted; treat it as a malformed frame.
                    return Err(NetError::Truncated);
                }
                let mut inner = Vec::with_capacity(n.min(MAX_BATCH_FRAMES));
                for _ in 0..n {
                    let m = ControlMsg::decode(buf)?;
                    if matches!(m, ControlMsg::Batch(_)) {
                        // Nested batches would let a forged frame nest
                        // allocations arbitrarily deep; senders flatten.
                        return Err(NetError::BadTag(TAG_BATCH));
                    }
                    inner.push(m);
                }
                ControlMsg::Batch(inner)
            }
            t => return Err(NetError::BadTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedove_core::SubscriberId;
    use bluedove_net::{from_bytes, to_bytes};

    fn round_trip(m: ControlMsg) {
        let bytes = to_bytes(&m);
        let back: ControlMsg = from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn deliver_from_borrowed_parts_is_the_same_frame() {
        let msg = Message {
            id: MessageId(7),
            values: vec![1.0, 2.0, 3.0],
            payload: bytes::Bytes::from_static(b"payload"),
        };
        let owned = to_bytes(&ControlMsg::Deliver {
            subscriber: SubscriberId(8),
            sub: SubscriptionId(3),
            msg: msg.clone(),
            admitted_us: 999,
        });
        let mut borrowed = BytesMut::new();
        ControlMsg::encode_deliver(&mut borrowed, SubscriberId(8), SubscriptionId(3), &msg, 999);
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn deliver_len_is_the_encoded_length() {
        // Pins the matcher's exact `Deliver` buffer size: a codec change
        // that makes it regrow fails here instead of quietly costing
        // capacity.
        for k in [0usize, 1, 4, 8] {
            for payload in [0usize, 16, 256, 4_096] {
                let msg = Message {
                    id: MessageId(u64::MAX),
                    values: vec![0.5; k],
                    payload: bytes::Bytes::from(vec![7u8; payload]),
                };
                let mut buf = BytesMut::new();
                ControlMsg::encode_deliver(&mut buf, SubscriberId(1), SubscriptionId(2), &msg, 3);
                assert_eq!(
                    ControlMsg::deliver_len(&msg),
                    buf.len(),
                    "k={k} payload={payload}"
                );
            }
        }
    }

    #[test]
    fn all_variants_round_trip() {
        let sub = Subscription {
            id: SubscriptionId(3),
            subscriber: SubscriberId(4),
            predicates: vec![Range::new(0.0, 10.0)],
        };
        let msg = Message::with_payload(vec![1.0], b"p".to_vec());
        round_trip(ControlMsg::Subscribe(sub.clone()));
        round_trip(ControlMsg::Publish(msg.clone()));
        round_trip(ControlMsg::StoreSub {
            dim: DimIdx(1),
            sub: sub.clone(),
            stream: MatcherId(4),
        });
        round_trip(ControlMsg::MatchMsg {
            dim: DimIdx(0),
            msg: msg.clone(),
            admitted_us: 12345,
            ack_to: "d/0".into(),
        });
        round_trip(ControlMsg::MatchAck {
            msg_id: bluedove_core::MessageId(77),
            matcher: MatcherId(1),
            actual_us: 321,
        });
        round_trip(ControlMsg::TelemetryPull {
            reply_to: "tel/0".into(),
        });
        round_trip(ControlMsg::TelemetryText {
            text: "# TYPE x counter\nx 1\n".into(),
        });
        round_trip(ControlMsg::LoadReport {
            matcher: MatcherId(2),
            dim: DimIdx(1),
            stats: DimStats {
                sub_count: 1,
                queue_len: 2,
                lambda: 3.0,
                mu: 4.0,
                updated_at: 5.0,
            },
        });
        round_trip(ControlMsg::Deliver {
            subscriber: SubscriberId(8),
            sub: SubscriptionId(3),
            msg: msg.clone(),
            admitted_us: 999,
        });
        round_trip(ControlMsg::MailboxPoll {
            subscriber: SubscriberId(8),
            reply_to: "poll/1".into(),
            max: 10,
        });
        round_trip(ControlMsg::MailboxBatch {
            entries: vec![(SubscriptionId(3), msg, 42)],
        });
        round_trip(ControlMsg::SubAck {
            sub: SubscriptionId(3),
        });
        round_trip(ControlMsg::HandOver {
            dim: DimIdx(2),
            range: Range::new(5.0, 6.0),
            to: MatcherId(9),
            reply_to: "ctl/0".into(),
        });
        round_trip(ControlMsg::HandOverDone {
            dim: DimIdx(2),
            moved: 17,
        });
        round_trip(ControlMsg::Retire {
            dim: DimIdx(2),
            range: Range::new(5.0, 6.0),
            keep: vec![Range::new(0.0, 5.0)],
        });
        round_trip(ControlMsg::Leave);
        round_trip(ControlMsg::Prune);
        round_trip(ControlMsg::Shutdown);
        round_trip(ControlMsg::Unsubscribe(sub));
        round_trip(ControlMsg::RemoveSub {
            dim: DimIdx(0),
            sub: SubscriptionId(3),
            stream: MatcherId(1),
        });
        round_trip(ControlMsg::Gossip {
            from_addr: "m/1".into(),
            msg: bluedove_overlay::GossipMsg::Syn { digests: vec![] },
        });
    }

    #[test]
    fn sublog_variants_round_trip() {
        let sub = Subscription {
            id: SubscriptionId(3),
            subscriber: SubscriberId(4),
            predicates: vec![Range::new(0.0, 10.0)],
        };
        let records = vec![
            SubLogRecord::Store {
                dim: DimIdx(0),
                sub,
            },
            SubLogRecord::Remove {
                dim: DimIdx(1),
                sub: SubscriptionId(5),
            },
        ];
        let served = ReplicatedAppend {
            stream: MatcherId(2),
            epoch: 3,
            base: 7,
            offset: 9,
            reset: true,
            records: records.clone(),
        };
        let append = ControlMsg::SubLogAppend {
            append: served.clone(),
            fetch_from: "m/1".into(),
        };
        // The wire bytes of the embedded append are those of the flat
        // seven-field variant it replaced: tag, stream, epoch, base,
        // offset, reset, records, fetch_from.
        let mut flat = BytesMut::new();
        flat.put_u8(super::TAG_SUBLOG_APPEND);
        MatcherId(2).encode(&mut flat);
        3u64.encode(&mut flat);
        7u64.encode(&mut flat);
        9u64.encode(&mut flat);
        true.encode(&mut flat);
        records.encode(&mut flat);
        "m/1".to_string().encode(&mut flat);
        assert_eq!(to_bytes(&append), flat);
        round_trip(append);
        round_trip(ControlMsg::SubLogFetch {
            stream: MatcherId(2),
            from: 4,
            reply_to: "m/1".into(),
            step_down: true,
        });
        round_trip(ControlMsg::SubLogPromote {
            stream: MatcherId(2),
            epoch: 4,
        });
        round_trip(ControlMsg::SubLogInstall { epoch: 5, served });
        round_trip(ControlMsg::TableState {
            version: 6,
            strategy: None,
            addrs: vec![(MatcherId(1), "m/1".into())],
            leaders: vec![
                (MatcherId(1), MatcherId(1), 2),
                (MatcherId(2), MatcherId(1), 5),
            ],
        });
    }

    #[test]
    fn unknown_tag_rejected() {
        let res: NetResult<ControlMsg> = from_bytes(&[99]);
        assert!(matches!(res, Err(NetError::BadTag(99))));
    }

    #[test]
    fn batch_round_trips() {
        let msg = Message::with_payload(vec![2.0], b"zz".to_vec());
        round_trip(ControlMsg::Batch(vec![
            ControlMsg::MatchMsg {
                dim: DimIdx(0),
                msg: msg.clone(),
                admitted_us: 1,
                ack_to: "d/0".into(),
            },
            ControlMsg::Deliver {
                subscriber: SubscriberId(8),
                sub: SubscriptionId(3),
                msg,
                admitted_us: 2,
            },
            ControlMsg::Shutdown,
        ]));
    }

    #[test]
    fn intake_yields_the_frames_of_a_payload() {
        let matched = ControlMsg::MatchMsg {
            dim: DimIdx(0),
            msg: Message::with_payload(vec![2.0], b"windowed".to_vec()),
            admitted_us: 1,
            ack_to: "d/0".into(),
        };
        let three = vec![ControlMsg::Leave, matched.clone(), ControlMsg::Shutdown];
        let cases: Vec<(Bytes, Vec<ControlMsg>)> = vec![
            (Bytes::from_static(&[99, 1, 2]), vec![]),
            (Bytes::from_static(&[]), vec![]),
            (to_bytes(&matched).freeze(), vec![matched]),
            (to_bytes(&ControlMsg::Batch(three.clone())).freeze(), three),
        ];
        for (payload, want) in cases {
            let span = payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
            let got: Vec<ControlMsg> = frames(payload).collect();
            assert_eq!(got, want);
            // Zero-copy kept, batched or not: a message payload is a
            // window into the received buffer, not a copy of it.
            for m in &got {
                if let ControlMsg::MatchMsg { msg, .. } = m {
                    assert!(span.contains(&(msg.payload.as_ptr() as usize)));
                }
            }
        }
    }

    #[test]
    fn empty_batch_rejected() {
        let bytes = {
            let mut b = BytesMut::new();
            b.put_u8(super::TAG_BATCH);
            0u32.encode(&mut b);
            b.freeze()
        };
        let res: NetResult<ControlMsg> = from_bytes(&bytes);
        assert!(matches!(res, Err(NetError::Truncated)));
    }

    #[test]
    fn nested_batch_rejected() {
        // Hand-encode a batch whose single element is itself a batch —
        // the encoder refuses to build one, so forge the bytes directly.
        let bytes = {
            let mut b = BytesMut::new();
            b.put_u8(super::TAG_BATCH);
            1u32.encode(&mut b);
            b.put_u8(super::TAG_BATCH);
            1u32.encode(&mut b);
            ControlMsg::Shutdown.encode(&mut b);
            b.freeze()
        };
        let res: NetResult<ControlMsg> = from_bytes(&bytes);
        assert!(matches!(res, Err(NetError::BadTag(t)) if t == super::TAG_BATCH));
    }

    #[test]
    fn forged_batch_count_errors_cleanly() {
        // Claim u32::MAX inner frames but supply one: must error (not
        // panic, not OOM) once the buffer runs dry.
        let bytes = {
            let mut b = BytesMut::new();
            b.put_u8(super::TAG_BATCH);
            u32::MAX.encode(&mut b);
            ControlMsg::Shutdown.encode(&mut b);
            b.freeze()
        };
        let res: NetResult<ControlMsg> = from_bytes(&bytes);
        assert!(res.is_err());
    }
}
