//! Property tests: every domain type survives a wire round trip, and the
//! decoder never panics on corrupt input — garbage bytes, truncated
//! frames, corrupted length prefixes and single-byte flips of valid
//! encodings all come back as `Err` (or a well-formed value), never a
//! panic.

use bluedove::cluster::ControlMsg;
use bluedove::core::{
    DimIdx, DimStats, Message, MessageId, Range, SubLogRecord, SubscriberId, Subscription,
    SubscriptionId,
};
use bluedove::overlay::{Digest, EndpointState, GossipMsg, NodeId, NodeRole};
use bluedove_net::frame::{read_frame, write_frame, MAX_FRAME};
use bluedove_net::{from_bytes, to_bytes, NetError, NetResult, Wire};
use proptest::prelude::*;
use std::io::Cursor;

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u64>(),
        proptest::collection::vec(-1e6f64..1e6, 0..8),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(id, values, payload)| Message {
            id: MessageId(id),
            values,
            payload: payload.into(),
        })
}

/// Batchable frames: what dispatchers and matchers actually coalesce
/// (forwards, deliveries) plus a bare control frame for variety.
fn arb_batchable() -> impl Strategy<Value = ControlMsg> {
    (
        0u8..4,
        arb_message(),
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        ".{0,16}",
    )
        .prop_map(|(which, msg, dim, admitted_us, id, ack_to)| match which {
            0 => ControlMsg::MatchMsg {
                dim: bluedove::core::DimIdx(dim),
                msg,
                admitted_us,
                ack_to,
            },
            1 => ControlMsg::Deliver {
                subscriber: SubscriberId(id),
                sub: SubscriptionId(id.wrapping_add(1)),
                msg,
                admitted_us,
            },
            2 => ControlMsg::Publish(msg),
            _ => ControlMsg::Shutdown,
        })
}

fn arb_subscription() -> impl Strategy<Value = Subscription> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec((-1e6f64..1e6, 0.001f64..1e5), 0..8),
    )
        .prop_map(|(id, subscriber, ranges)| Subscription {
            id: SubscriptionId(id),
            subscriber: SubscriberId(subscriber),
            predicates: ranges
                .into_iter()
                .map(|(lo, w)| Range::new(lo, lo + w))
                .collect(),
        })
}

fn arb_endpoint() -> impl Strategy<Value = EndpointState> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        ".{0,32}",
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(node, generation, version, matcher, addr, sv, leaving)| {
            let mut s = EndpointState::new(
                NodeId(node),
                if matcher {
                    NodeRole::Matcher
                } else {
                    NodeRole::Dispatcher
                },
                addr,
                generation,
            );
            s.version = version;
            s.segments_version = sv;
            s.leaving = leaving;
            s
        })
}

fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = to_bytes(v);
    let back: T = from_bytes(&bytes).expect("decode");
    assert_eq!(&back, v);
}

/// Sub-log records are read back from files written by earlier
/// builds, so their bytes are pinned, not just round-tripped.
#[test]
fn sub_log_record_encoding_is_pinned() {
    let sub = Subscription {
        id: SubscriptionId(7),
        subscriber: SubscriberId(3),
        predicates: vec![Range::new(1.0, 2.0), Range::new(0.0, 100.0)],
    };
    let golden = [
        (
            SubLogRecord::Store {
                dim: DimIdx(1),
                sub,
            },
            "0001000700000000000000030000000000000002000000000000000000f03f\
             000000000000004000000000000000000000000000005940",
        ),
        (
            SubLogRecord::Remove {
                dim: DimIdx(1),
                sub: SubscriptionId(9),
            },
            "0101000900000000000000",
        ),
        (
            SubLogRecord::Retire {
                dim: DimIdx(0),
                range: Range::new(0.0, 10.0),
                keep: vec![Range::new(5.0, 10.0)],
            },
            "020000000000000000000000000000000024400100000000000000000014400000000000002440",
        ),
    ];
    for (rec, hex) in golden {
        let bytes = to_bytes(&rec);
        let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, hex, "{rec:?}");
        round_trip(&rec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn message_round_trips(m in arb_message()) {
        round_trip(&m);
    }

    #[test]
    fn subscription_round_trips(s in arb_subscription()) {
        round_trip(&s);
    }

    #[test]
    fn endpoint_state_round_trips(s in arb_endpoint()) {
        round_trip(&s);
    }

    #[test]
    fn gossip_messages_round_trip(
        deltas in proptest::collection::vec(arb_endpoint(), 0..10),
        requests in proptest::collection::vec(any::<u64>(), 0..10),
        which in 0u8..3,
    ) {
        let msg = match which {
            0 => GossipMsg::Syn {
                digests: deltas
                    .iter()
                    .map(|d| Digest { node: d.node, generation: d.generation, version: d.version })
                    .collect(),
            },
            1 => GossipMsg::Ack { deltas, requests: requests.into_iter().map(NodeId).collect() },
            _ => GossipMsg::Ack2 { deltas },
        };
        round_trip(&msg);
    }

    #[test]
    fn dim_stats_round_trip(
        sub_count in any::<u32>(),
        queue_len in any::<u32>(),
        lambda in 0.0f64..1e9,
        mu in 0.0f64..1e9,
        at in 0.0f64..1e9,
    ) {
        round_trip(&DimStats {
            sub_count: sub_count as usize,
            queue_len: queue_len as usize,
            lambda,
            mu,
            updated_at: at,
        });
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Decoding random bytes may fail, but must never panic.
        let _: NetResult<Message> = from_bytes(&bytes);
        let _: NetResult<Subscription> = from_bytes(&bytes);
        let _: NetResult<GossipMsg> = from_bytes(&bytes);
        let _: NetResult<EndpointState> = from_bytes(&bytes);
    }

    #[test]
    fn truncation_always_errors_cleanly(m in arb_message(), cut_frac in 0.0f64..1.0) {
        let bytes = to_bytes(&m);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            let res: NetResult<Message> = from_bytes(&bytes[..cut]);
            prop_assert!(res.is_err());
        }
    }

    #[test]
    fn control_msg_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // The full cluster protocol rides the same wire primitives; its
        // decoder must be equally panic-free on arbitrary input.
        let _: NetResult<ControlMsg> = from_bytes(&bytes);
    }

    #[test]
    fn corrupted_length_prefix_errors_or_truncates(m in arb_message(), forged in any::<u32>()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &to_bytes(&m)).unwrap();
        let payload_len = buf.len() - 4;
        buf[..4].copy_from_slice(&forged.to_le_bytes());
        let mut cur = Cursor::new(buf);
        match read_frame(&mut cur) {
            // A shortened prefix yields a (bounded) truncated payload;
            // the Wire decoder above is what must survive that.
            Ok(p) => prop_assert!(p.len() == forged as usize && p.len() <= payload_len),
            Err(NetError::FrameTooLarge(n)) => prop_assert!(n > MAX_FRAME),
            // Prefix promises more bytes than the stream holds.
            Err(NetError::Io(_)) => prop_assert!(forged as usize > payload_len),
            Err(e) => prop_assert!(false, "unexpected error class: {e:?}"),
        }
    }

    #[test]
    fn single_byte_flip_never_panics(
        m in arb_message(),
        s in arb_subscription(),
        e in arb_endpoint(),
        idx in any::<usize>(),
        mask in 1u8..=255,
    ) {
        // Flip one byte of each valid encoding: decoding may fail or may
        // yield a different (well-formed) value, but must never panic.
        let sub_msg = ControlMsg::Subscribe(s.clone());
        let gossip = GossipMsg::Ack2 { deltas: vec![e.clone()] };
        let encodings: [&[u8]; 4] =
            [&to_bytes(&m), &to_bytes(&s), &to_bytes(&sub_msg), &to_bytes(&gossip)];
        for bytes in encodings {
            let mut flipped = bytes.to_vec();
            let i = idx % flipped.len();
            flipped[i] ^= mask;
            let _: NetResult<Message> = from_bytes(&flipped);
            let _: NetResult<Subscription> = from_bytes(&flipped);
            let _: NetResult<ControlMsg> = from_bytes(&flipped);
            let _: NetResult<GossipMsg> = from_bytes(&flipped);
        }
    }

    #[test]
    fn batch_frames_round_trip(inner in proptest::collection::vec(arb_batchable(), 1..32)) {
        round_trip(&ControlMsg::Batch(inner));
    }

    #[test]
    fn forged_batch_count_never_panics_and_rarely_decodes(
        inner in proptest::collection::vec(arb_batchable(), 1..8),
        forged in any::<u32>(),
    ) {
        // Overwrite the batch's count prefix with an arbitrary value: a
        // count of zero or one promising more frames than the buffer
        // holds must error cleanly; a smaller count leaves trailing
        // bytes, which the full-consumption rule rejects. No forgery may
        // panic or allocate unboundedly.
        let n = inner.len() as u32;
        let mut bytes = to_bytes(&ControlMsg::Batch(inner)).to_vec();
        bytes[1..5].copy_from_slice(&forged.to_le_bytes());
        let res: NetResult<ControlMsg> = from_bytes(&bytes);
        if forged != n {
            prop_assert!(res.is_err(), "forged count {forged} of {n} decoded");
        } else {
            prop_assert!(res.is_ok());
        }
    }

    #[test]
    fn nested_and_empty_batches_always_rejected(
        inner in proptest::collection::vec(arb_batchable(), 1..4),
    ) {
        // Hand-forge an outer batch whose single frame is itself a batch
        // (the encoder refuses to build one): the decoder must reject it
        // at the inner tag. An explicit zero count is equally dead.
        let legal = to_bytes(&ControlMsg::Batch(inner)).to_vec();
        let mut nested = vec![legal[0]];
        nested.extend_from_slice(&1u32.to_le_bytes());
        nested.extend_from_slice(&legal);
        let res: NetResult<ControlMsg> = from_bytes(&nested);
        prop_assert!(res.is_err(), "nested batch decoded");

        let mut empty = vec![legal[0]];
        empty.extend_from_slice(&0u32.to_le_bytes());
        let res: NetResult<ControlMsg> = from_bytes(&empty);
        prop_assert!(res.is_err(), "empty batch decoded");
    }

    #[test]
    fn batch_byte_flip_never_panics(
        inner in proptest::collection::vec(arb_batchable(), 1..8),
        idx in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = to_bytes(&ControlMsg::Batch(inner)).to_vec();
        let i = idx % bytes.len();
        bytes[i] ^= mask;
        let _: NetResult<ControlMsg> = from_bytes(&bytes);
    }

    #[test]
    fn torn_batch_stream_recovers_clean_prefix(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_batchable(), 1..6), 1..4),
        cut_frac in 0.0f64..1.0,
    ) {
        // A connection carrying framed batches cut anywhere loses at most
        // the torn tail: every whole frame before the cut decodes back to
        // its batch, and the first failure is a clean end-of-stream.
        let msgs: Vec<ControlMsg> = batches.into_iter().map(ControlMsg::Batch).collect();
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, &to_bytes(m)).unwrap();
        }
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        buf.truncate(cut);
        let mut cur = Cursor::new(buf);
        let mut recovered = 0usize;
        loop {
            match read_frame(&mut cur) {
                Ok(p) => {
                    let back: ControlMsg = from_bytes(&p).expect("intact frame decodes");
                    prop_assert_eq!(&back, &msgs[recovered]);
                    recovered += 1;
                }
                Err(NetError::Disconnected) | Err(NetError::Io(_)) => break,
                Err(e) => prop_assert!(false, "unexpected error class: {e:?}"),
            }
        }
        prop_assert!(recovered <= msgs.len());
    }

    #[test]
    fn truncated_frame_stream_recovers_clean_prefix(
        msgs in proptest::collection::vec(arb_message(), 1..5),
        cut_frac in 0.0f64..1.0,
    ) {
        // A stream cut anywhere loses at most the torn tail frame: every
        // frame before the cut decodes intact, and the first failure is a
        // clean Disconnected (cut on a boundary) or Io (torn mid-frame).
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, &to_bytes(m)).unwrap();
        }
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        buf.truncate(cut);
        let mut cur = Cursor::new(buf);
        let mut recovered = 0usize;
        loop {
            match read_frame(&mut cur) {
                Ok(p) => {
                    let back: Message = from_bytes(&p).expect("intact frame decodes");
                    prop_assert_eq!(&back, &msgs[recovered]);
                    recovered += 1;
                }
                Err(NetError::Disconnected) | Err(NetError::Io(_)) => break,
                Err(e) => prop_assert!(false, "unexpected error class: {e:?}"),
            }
        }
        prop_assert!(recovered <= msgs.len());
    }
}
