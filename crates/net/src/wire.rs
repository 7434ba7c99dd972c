//! Hand-rolled binary wire codec.
//!
//! The offline crate set includes `serde` but no serializer back-end, so
//! BlueDove ships its own compact little-endian codec: a [`Wire`] trait
//! with implementations for primitives, collections and every domain type
//! that crosses the network (messages, subscriptions, load reports,
//! gossip state). Round-trip property tests live in `tests/wire_roundtrip.rs`.

use crate::error::{NetError, NetResult};
use bluedove_core::{
    DimIdx, DimStats, MatcherId, Message, MessageId, Range, SubLogRecord, SubscriberId,
    Subscription, SubscriptionId,
};
use bluedove_overlay::{Digest, EndpointState, GossipMsg, NodeId, NodeRole};
use bytes::{Buf, BufMut, BytesMut};

/// Binary encode/decode to the BlueDove wire format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decodes a value, consuming bytes from `buf`.
    fn decode(buf: &mut impl Buf) -> NetResult<Self>;
}

/// Encodes a value into a fresh buffer.
pub fn to_bytes<T: Wire>(v: &T) -> BytesMut {
    let mut buf = BytesMut::new();
    v.encode(&mut buf);
    buf
}

/// Decodes a value from a byte slice, requiring full consumption.
pub fn from_bytes<T: Wire>(mut bytes: &[u8]) -> NetResult<T> {
    let v = T::decode(&mut bytes)?;
    if bytes.has_remaining() {
        return Err(NetError::Truncated); // trailing garbage = framing bug
    }
    Ok(v)
}

/// Decodes a value from an owned [`bytes::Bytes`], requiring full
/// consumption. Unlike [`from_bytes`], byte-string fields (message
/// payloads) come out as O(1) views into `bytes` instead of copies — the
/// zero-copy receive path nodes use on frames handed over by a transport.
pub fn from_bytes_shared<T: Wire>(mut bytes: bytes::Bytes) -> NetResult<T> {
    let v = T::decode(&mut bytes)?;
    if bytes.has_remaining() {
        return Err(NetError::Truncated); // trailing garbage = framing bug
    }
    Ok(v)
}

fn need(buf: &impl Buf, n: usize) -> NetResult<()> {
    if buf.remaining() < n {
        Err(NetError::Truncated)
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

macro_rules! impl_wire_num {
    ($t:ty, $put:ident, $get:ident, $n:expr) => {
        impl Wire for $t {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            fn decode(buf: &mut impl Buf) -> NetResult<Self> {
                need(buf, $n)?;
                Ok(buf.$get())
            }
        }
    };
}

impl_wire_num!(u8, put_u8, get_u8, 1);
impl_wire_num!(u16, put_u16_le, get_u16_le, 2);
impl_wire_num!(u32, put_u32_le, get_u32_le, 4);
impl_wire_num!(u64, put_u64_le, get_u64_le, 8);
impl_wire_num!(f64, put_f64_le, get_f64_le, 8);

impl Wire for usize {
    fn encode(&self, buf: &mut BytesMut) {
        (*self as u64).encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        Ok(u64::decode(buf)? as usize)
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(NetError::BadTag(t)),
        }
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        let len = u32::decode(buf)? as usize;
        need(buf, len)?;
        let mut bytes = vec![0u8; len];
        buf.copy_to_slice(&mut bytes);
        String::from_utf8(bytes).map_err(|_| NetError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        let len = u32::decode(buf)? as usize;
        // Defensive cap: callers frame-limit payloads, but never trust a
        // length prefix enough to pre-allocate unboundedly.
        let mut v = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push(T::decode(buf)?);
        }
        Ok(v)
    }
}

macro_rules! impl_wire_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn encode(&self, buf: &mut BytesMut) {
                $(self.$i.encode(buf);)+
            }
            fn decode(buf: &mut impl Buf) -> NetResult<Self> {
                Ok(($($t::decode(buf)?,)+))
            }
        }
    };
}
impl_wire_tuple!(A.0, B.1);
impl_wire_tuple!(A.0, B.1, C.2);

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(NetError::BadTag(t)),
        }
    }
}

// ---------------------------------------------------------------------
// Core ids & domain types
// ---------------------------------------------------------------------

macro_rules! impl_wire_newtype {
    ($t:ty, $inner:ty) => {
        impl Wire for $t {
            fn encode(&self, buf: &mut BytesMut) {
                self.0.encode(buf);
            }
            fn decode(buf: &mut impl Buf) -> NetResult<Self> {
                Ok(Self(<$inner>::decode(buf)?))
            }
        }
    };
}

impl_wire_newtype!(MatcherId, u32);
impl_wire_newtype!(DimIdx, u16);
impl_wire_newtype!(SubscriptionId, u64);
impl_wire_newtype!(MessageId, u64);
impl_wire_newtype!(SubscriberId, u64);
impl_wire_newtype!(NodeId, u64);

impl Wire for Range {
    fn encode(&self, buf: &mut BytesMut) {
        self.lo.encode(buf);
        self.hi.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        Ok(Range {
            lo: f64::decode(buf)?,
            hi: f64::decode(buf)?,
        })
    }
}

impl Wire for Message {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.values.encode(buf);
        (self.payload.len() as u32).encode(buf);
        buf.put_slice(&self.payload);
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        let id = MessageId::decode(buf)?;
        let values = Vec::<f64>::decode(buf)?;
        let len = u32::decode(buf)? as usize;
        need(buf, len)?;
        // `copy_to_bytes` is O(1) when the cursor is itself a `Bytes`
        // (the `from_bytes_shared` path): the payload aliases the received
        // frame instead of being copied out of it.
        let payload = buf.copy_to_bytes(len);
        Ok(Message {
            id,
            values,
            payload,
        })
    }
}

impl Wire for Subscription {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.subscriber.encode(buf);
        self.predicates.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        Ok(Subscription {
            id: SubscriptionId::decode(buf)?,
            subscriber: SubscriberId::decode(buf)?,
            predicates: Vec::<Range>::decode(buf)?,
        })
    }
}

impl Wire for SubLogRecord {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            SubLogRecord::Store { dim, sub } => {
                buf.put_u8(0);
                dim.encode(buf);
                sub.encode(buf);
            }
            SubLogRecord::Remove { dim, sub } => {
                buf.put_u8(1);
                dim.encode(buf);
                sub.encode(buf);
            }
            SubLogRecord::Retire { dim, range, keep } => {
                buf.put_u8(2);
                dim.encode(buf);
                range.encode(buf);
                keep.encode(buf);
            }
        }
    }

    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(SubLogRecord::Store {
                dim: DimIdx::decode(buf)?,
                sub: Subscription::decode(buf)?,
            }),
            1 => Ok(SubLogRecord::Remove {
                dim: DimIdx::decode(buf)?,
                sub: SubscriptionId::decode(buf)?,
            }),
            2 => Ok(SubLogRecord::Retire {
                dim: DimIdx::decode(buf)?,
                range: Range::decode(buf)?,
                keep: Vec::<Range>::decode(buf)?,
            }),
            t => Err(NetError::BadTag(t)),
        }
    }
}

impl Wire for DimStats {
    fn encode(&self, buf: &mut BytesMut) {
        self.sub_count.encode(buf);
        self.queue_len.encode(buf);
        self.lambda.encode(buf);
        self.mu.encode(buf);
        self.updated_at.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        Ok(DimStats {
            sub_count: usize::decode(buf)?,
            queue_len: usize::decode(buf)?,
            lambda: f64::decode(buf)?,
            mu: f64::decode(buf)?,
            updated_at: f64::decode(buf)?,
        })
    }
}

// ---------------------------------------------------------------------
// Overlay types
// ---------------------------------------------------------------------

impl Wire for NodeRole {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(match self {
            NodeRole::Matcher => 0,
            NodeRole::Dispatcher => 1,
        });
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(NodeRole::Matcher),
            1 => Ok(NodeRole::Dispatcher),
            t => Err(NetError::BadTag(t)),
        }
    }
}

impl Wire for EndpointState {
    fn encode(&self, buf: &mut BytesMut) {
        self.node.encode(buf);
        self.generation.encode(buf);
        self.version.encode(buf);
        self.role.encode(buf);
        self.addr.encode(buf);
        self.segments_version.encode(buf);
        self.leaving.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        Ok(EndpointState {
            node: NodeId::decode(buf)?,
            generation: u64::decode(buf)?,
            version: u64::decode(buf)?,
            role: NodeRole::decode(buf)?,
            addr: String::decode(buf)?,
            segments_version: u64::decode(buf)?,
            leaving: bool::decode(buf)?,
        })
    }
}

impl Wire for Digest {
    fn encode(&self, buf: &mut BytesMut) {
        self.node.encode(buf);
        self.generation.encode(buf);
        self.version.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        Ok(Digest {
            node: NodeId::decode(buf)?,
            generation: u64::decode(buf)?,
            version: u64::decode(buf)?,
        })
    }
}

impl Wire for GossipMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            GossipMsg::Syn { digests } => {
                buf.put_u8(0);
                digests.encode(buf);
            }
            GossipMsg::Ack { deltas, requests } => {
                buf.put_u8(1);
                deltas.encode(buf);
                requests.encode(buf);
            }
            GossipMsg::Ack2 { deltas } => {
                buf.put_u8(2);
                deltas.encode(buf);
            }
        }
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(GossipMsg::Syn {
                digests: Vec::decode(buf)?,
            }),
            1 => Ok(GossipMsg::Ack {
                deltas: Vec::decode(buf)?,
                requests: Vec::decode(buf)?,
            }),
            2 => Ok(GossipMsg::Ack2 {
                deltas: Vec::decode(buf)?,
            }),
            t => Err(NetError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(123456789u32);
        round_trip(u64::MAX);
        round_trip(-1234.5678f64);
        round_trip(true);
        round_trip(false);
        round_trip(String::from("héllo wörld"));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u8>::from(&b"payload"[..]));
        round_trip(Option::<u32>::None);
        round_trip(Some(7u64));
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(Range::new(-1.5, 2.5));
        round_trip(Message::with_payload(vec![1.0, 2.0, 3.0], b"xyz".to_vec()));
        let mut sub = Subscription {
            id: SubscriptionId(9),
            subscriber: SubscriberId(4),
            predicates: vec![Range::new(0.0, 10.0), Range::new(5.0, 6.0)],
        };
        round_trip(sub.clone());
        sub.predicates.clear();
        round_trip(sub);
        round_trip(DimStats {
            sub_count: 7,
            queue_len: 3,
            lambda: 10.5,
            mu: 20.25,
            updated_at: 99.0,
        });
    }

    #[test]
    fn overlay_types_round_trip() {
        let s = EndpointState::new(NodeId(3), NodeRole::Dispatcher, "10.1.2.3:9000", 5);
        round_trip(s.clone());
        round_trip(Digest {
            node: NodeId(1),
            generation: 2,
            version: 3,
        });
        round_trip(GossipMsg::Syn {
            digests: vec![Digest {
                node: NodeId(1),
                generation: 1,
                version: 1,
            }],
        });
        round_trip(GossipMsg::Ack {
            deltas: vec![s.clone()],
            requests: vec![NodeId(9)],
        });
        round_trip(GossipMsg::Ack2 { deltas: vec![s] });
    }

    #[test]
    fn truncated_input_errors_not_panics() {
        let bytes = to_bytes(&Message::new(vec![1.0, 2.0]));
        for cut in 0..bytes.len() {
            let res: NetResult<Message> = from_bytes(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} decoded?");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = to_bytes(&42u32);
        bytes.put_u8(0xAB);
        let res: NetResult<u32> = from_bytes(&bytes);
        assert!(matches!(res, Err(NetError::Truncated)));
    }

    #[test]
    fn bad_tags_rejected() {
        let res: NetResult<bool> = from_bytes(&[7]);
        assert!(matches!(res, Err(NetError::BadTag(7))));
        let res: NetResult<NodeRole> = from_bytes(&[9]);
        assert!(matches!(res, Err(NetError::BadTag(9))));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = BytesMut::new();
        3u32.encode(&mut buf);
        buf.put_slice(&[0xFF, 0xFE, 0xFD]);
        let res: NetResult<String> = from_bytes(&buf);
        assert!(matches!(res, Err(NetError::BadUtf8)));
    }
}

// ---------------------------------------------------------------------
// Partition strategies (segment-table dissemination, §III-C)
// ---------------------------------------------------------------------

impl Wire for bluedove_core::Dimension {
    fn encode(&self, buf: &mut BytesMut) {
        self.name.encode(buf);
        self.min.encode(buf);
        self.max.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        let name = String::decode(buf)?;
        let min = f64::decode(buf)?;
        let max = f64::decode(buf)?;
        if !(min.is_finite() && max.is_finite() && min < max) {
            return Err(NetError::Truncated);
        }
        Ok(bluedove_core::Dimension::new(name, min, max))
    }
}

impl Wire for bluedove_core::AttributeSpace {
    fn encode(&self, buf: &mut BytesMut) {
        (self.k() as u16).encode(buf);
        for d in self.dims() {
            d.encode(buf);
        }
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        let k = u16::decode(buf)? as usize;
        let mut dims = Vec::with_capacity(k.min(256));
        for _ in 0..k {
            dims.push(bluedove_core::Dimension::decode(buf)?);
        }
        bluedove_core::AttributeSpace::new(dims).map_err(|_| NetError::Truncated)
    }
}

impl Wire for bluedove_core::Segment {
    fn encode(&self, buf: &mut BytesMut) {
        self.range.encode(buf);
        self.owner.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        Ok(bluedove_core::Segment {
            range: Range::decode(buf)?,
            owner: MatcherId::decode(buf)?,
        })
    }
}

impl Wire for bluedove_core::SegmentTable {
    fn encode(&self, buf: &mut BytesMut) {
        self.space().encode(buf);
        self.version().encode(buf);
        for d in 0..self.k() {
            self.segments(DimIdx(d as u16)).to_vec().encode(buf);
        }
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        let space = bluedove_core::AttributeSpace::decode(buf)?;
        let version = u64::decode(buf)?;
        let mut dims = Vec::with_capacity(space.k());
        for _ in 0..space.k() {
            dims.push(Vec::<bluedove_core::Segment>::decode(buf)?);
        }
        bluedove_core::SegmentTable::from_parts(space, dims, version)
            .map_err(|_| NetError::Truncated)
    }
}

impl Wire for bluedove_baselines::AnyStrategy {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            bluedove_baselines::AnyStrategy::BlueDove(mp) => {
                buf.put_u8(0);
                mp.table().encode(buf);
                mp.degenerate_replication().encode(buf);
            }
            bluedove_baselines::AnyStrategy::P2p(p) => {
                buf.put_u8(1);
                p.table().encode(buf);
                p.dim().encode(buf);
            }
            bluedove_baselines::AnyStrategy::FullRep(f) => {
                buf.put_u8(2);
                bluedove_core::PartitionStrategy::matchers(f).encode(buf);
            }
        }
    }
    fn decode(buf: &mut impl Buf) -> NetResult<Self> {
        match u8::decode(buf)? {
            0 => {
                let table = bluedove_core::SegmentTable::decode(buf)?;
                let degenerate = bool::decode(buf)?;
                let mp = bluedove_core::MPartition::new(table);
                let mp = if degenerate {
                    mp
                } else {
                    mp.without_degenerate_replication()
                };
                Ok(bluedove_baselines::AnyStrategy::BlueDove(mp))
            }
            1 => {
                let table = bluedove_core::SegmentTable::decode(buf)?;
                let dim = DimIdx::decode(buf)?;
                Ok(bluedove_baselines::AnyStrategy::P2p(
                    bluedove_baselines::P2pPartitioning::new(table, dim),
                ))
            }
            2 => {
                let matchers = Vec::<MatcherId>::decode(buf)?;
                if matchers.is_empty() {
                    return Err(NetError::Truncated);
                }
                Ok(bluedove_baselines::AnyStrategy::FullRep(
                    bluedove_baselines::FullReplication::new(matchers),
                ))
            }
            t => Err(NetError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod strategy_wire_tests {
    use super::*;
    use bluedove_baselines::AnyStrategy;
    use bluedove_core::{AttributeSpace, SegmentTable};

    fn table(n: u32, k: usize) -> SegmentTable {
        let ids: Vec<MatcherId> = (0..n).map(MatcherId).collect();
        SegmentTable::uniform(AttributeSpace::uniform(k, 0.0, 1000.0), &ids)
    }

    #[test]
    fn segment_table_round_trips() {
        let mut t = table(5, 3);
        t.split_join(MatcherId(5), |m, _| Some(m.0 as f64)).unwrap();
        let bytes = to_bytes(&t);
        let back: SegmentTable = from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.version(), t.version());
    }

    #[test]
    fn strategies_round_trip() {
        for strat in [
            AnyStrategy::bluedove(AttributeSpace::uniform(4, 0.0, 1000.0), 6),
            AnyStrategy::p2p(AttributeSpace::uniform(2, 0.0, 10.0), 3),
            AnyStrategy::full_rep(7),
        ] {
            let bytes = to_bytes(&strat);
            let back: AnyStrategy = from_bytes(&bytes).unwrap();
            assert_eq!(back.as_dyn().name(), strat.as_dyn().name());
            assert_eq!(back.as_dyn().matchers(), strat.as_dyn().matchers());
            // Behavioural equality: identical candidates for a probe point.
            let k = match &strat {
                AnyStrategy::BlueDove(mp) => mp.table().k(),
                AnyStrategy::P2p(p) => p.table().k(),
                AnyStrategy::FullRep(_) => 2,
            };
            let msg = bluedove_core::Message::new(vec![1.0; k]);
            assert_eq!(
                back.as_dyn().candidates(&msg),
                strat.as_dyn().candidates(&msg)
            );
        }
    }

    #[test]
    fn corrupt_table_rejected() {
        let t = table(3, 2);
        let bytes = to_bytes(&t);
        // Flip a byte in the middle (a segment bound) and expect a clean error.
        let mut corrupt = bytes.to_vec();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        let res: NetResult<SegmentTable> = from_bytes(&corrupt);
        assert!(res.is_err());
    }
}
