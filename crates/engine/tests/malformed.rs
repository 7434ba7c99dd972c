//! Malformed publications, subscriptions and store mutations are dropped
//! at the engine edge and reported by kind; well-formed traffic after
//! them is served.

use bluedove_baselines::AnyStrategy;
use bluedove_core::{
    AttributeSpace, DimIdx, IndexKind, InnerKind, MatcherId, Message, MessageId, RandomPolicy,
    Range, SubLogRecord, SubscriberId, Subscription, SubscriptionId,
};
use bluedove_engine::{
    DispatcherEffect, DispatcherEngine, DispatcherEngineConfig, DispatcherEvent, DispatcherOut,
    DispatcherPort, MatcherEngine, MatcherPort, Rejected, RetryPolicy,
};

fn space() -> AttributeSpace {
    AttributeSpace::uniform(2, 0.0, 100.0)
}

#[derive(Default)]
struct Recorder {
    sends: usize,
    rejected: Vec<Rejected>,
    deliveries: Vec<(SubscriptionId, MessageId)>,
}

impl DispatcherPort for Recorder {
    fn send(&mut self, _to: MatcherId, _addr: &str, _out: DispatcherOut) -> bool {
        self.sends += 1;
        true
    }
    fn sub_ack(&mut self, _subscriber: SubscriberId, _sub: SubscriptionId) {}
    fn effect(&mut self, effect: DispatcherEffect) {
        if let DispatcherEffect::Rejected(kind) = effect {
            self.rejected.push(kind);
        }
    }
}

impl MatcherPort for Recorder {
    fn deliver(&mut self, _: SubscriberId, sub: SubscriptionId, msg: &Message, _: u64) {
        self.deliveries.push((sub, msg.id));
    }
    fn ack(&mut self, _ack_to: &str, _msg_id: MessageId, _actual_us: u64) {}
    fn duplicate_suppressed(&mut self) {}
    fn rejected(&mut self, kind: Rejected) {
        self.rejected.push(kind);
    }
}

fn sub(predicates: Vec<Range>) -> Subscription {
    Subscription {
        id: SubscriptionId(1),
        subscriber: SubscriberId(1),
        predicates,
    }
}

fn msg(values: Vec<f64>, id: u64) -> Message {
    let mut m = Message::new(values);
    m.id = MessageId(id);
    m
}

#[test]
fn dispatcher_drops_malformed_frames_and_routes_the_rest() {
    let mut engine = DispatcherEngine::new(DispatcherEngineConfig {
        policy: Box::new(RandomPolicy),
        seed: 1,
        retry: RetryPolicy::default(),
        version: 1,
        strategy: AnyStrategy::bluedove(space(), 2),
        addrs: (0..2).map(|m| (MatcherId(m), format!("m/{m}"))).collect(),
    });
    let mut port = Recorder::default();
    let full = Range::new(0.0, 100.0);
    let events = [
        DispatcherEvent::Publish {
            msg: msg(vec![15.0], 1),
            admitted_us: 0,
        },
        DispatcherEvent::Publish {
            msg: msg(vec![15.0, f64::NAN], 2),
            admitted_us: 0,
        },
        DispatcherEvent::Publish {
            msg: msg(vec![15.0, 100.0], 3),
            admitted_us: 0,
        },
        DispatcherEvent::Subscribe(sub(vec![full])),
        DispatcherEvent::Subscribe(sub(vec![full, Range::new(5.0, 5.0)])),
        DispatcherEvent::Unsubscribe(sub(vec![full, Range::new(-1.0, 5.0)])),
    ];
    for event in events {
        engine.on_event(0.0, event, &mut port);
    }
    assert_eq!(
        port.rejected,
        [
            Rejected::Publish,
            Rejected::Publish,
            Rejected::Publish,
            Rejected::Subscribe,
            Rejected::Subscribe,
            Rejected::Unsubscribe,
        ]
    );
    assert_eq!(port.sends, 0, "nothing malformed reaches a matcher");
    assert_eq!(engine.in_flight(), 0, "nothing malformed is ledgered");

    engine.on_event(
        0.0,
        DispatcherEvent::Publish {
            msg: msg(vec![15.0, 50.0], 4),
            admitted_us: 0,
        },
        &mut port,
    );
    assert_eq!(port.sends, 1);
    assert_eq!(engine.in_flight(), 1);
    for label in Rejected::ALL.map(Rejected::label) {
        assert!(!label.is_empty());
    }
}

#[test]
fn matcher_drops_malformed_frames_and_serves_the_rest() {
    let mut engine = MatcherEngine::new(MatcherId(0), space(), IndexKind::Cell(8), 64);
    let mut port = Recorder::default();
    let good = sub(vec![Range::new(10.0, 20.0), Range::new(0.0, 100.0)]);
    let store = |dim, sub| SubLogRecord::Store { dim, sub };
    assert!(!engine.apply(&store(DimIdx(2), good.clone()), &mut port));
    let narrow = sub(vec![Range::new(10.0, 20.0)]);
    assert!(!engine.apply(&store(DimIdx(0), narrow), &mut port));
    assert!(engine.apply(&store(DimIdx(0), good), &mut port));

    for (dim, values, id) in [
        (DimIdx(0), vec![15.0], 1),
        (DimIdx(0), vec![15.0, f64::INFINITY], 2),
        (DimIdx(7), vec![15.0, 50.0], 3),
        (DimIdx(0), vec![15.0, 50.0], 4),
    ] {
        engine.on_match_msg(0.0, dim, msg(values, id), 0, String::new(), &mut port);
    }
    assert_eq!(
        port.rejected,
        [
            Rejected::StoreSub,
            Rejected::StoreSub,
            Rejected::MatchMsg,
            Rejected::MatchMsg,
            Rejected::MatchMsg,
        ]
    );
    assert_eq!(engine.backlog(), 1, "only the well-formed message queues");
    let job = engine.begin_service(0.0).expect("queued job");
    let mut hits = Vec::new();
    engine.run_match(&job, 0.0, &mut hits);
    engine.complete(job, &hits, 0.0, &mut port);
    assert_eq!(port.deliveries, [(SubscriptionId(1), MessageId(4))]);
}

/// Every store mutation a peer or a disk can hand a matcher — a
/// `RemoveSub` / `Retire` / `HandOver` frame, or a record replayed from a
/// replica, a promotion or an install — naming a dimension outside the
/// space, and a replayed `Store` whose subscription does not validate,
/// is dropped and counted instead of indexing out of bounds; the store
/// is untouched, for every index kind.
#[test]
fn matcher_drops_malformed_store_mutations() {
    let kinds = [
        IndexKind::Linear,
        IndexKind::Cell(8),
        IndexKind::IntervalTree,
        IndexKind::Covering {
            inner: InnerKind::Linear,
        },
        IndexKind::Covering {
            inner: InnerKind::Cell(8),
        },
        IndexKind::Covering {
            inner: InnerKind::IntervalTree,
        },
    ];
    let full = Range::new(0.0, 100.0);
    let good = sub(vec![Range::new(10.0, 20.0), full]);
    let bad = [
        SubLogRecord::Remove {
            dim: DimIdx(2),
            sub: SubscriptionId(1),
        },
        SubLogRecord::Retire {
            dim: DimIdx(9),
            range: full,
            keep: Vec::new(),
        },
        SubLogRecord::Store {
            dim: DimIdx(0),
            sub: sub(vec![Range::new(20.0, 10.0), full]),
        },
        SubLogRecord::Store {
            dim: DimIdx(5),
            sub: good.clone(),
        },
    ];
    for kind in kinds {
        let mut engine = MatcherEngine::new(MatcherId(0), space(), kind, 64);
        let mut port = Recorder::default();
        let store = SubLogRecord::Store {
            dim: DimIdx(0),
            sub: good.clone(),
        };
        assert!(engine.apply(&store, &mut port));
        for rec in &bad {
            assert!(!engine.apply(rec, &mut port), "{kind:?}: applied {rec:?}");
        }
        assert_eq!(
            engine.hand_over(DimIdx(4), &full, MatcherId(1), &mut port),
            0
        );
        assert!(engine.adopt(&bad, &mut port).is_empty());
        // A NaN or inverted range on a real dimension is matched by no
        // copy: nothing moves and nothing panics.
        let nan = Range::new(f64::NAN, 50.0);
        assert_eq!(
            engine.hand_over(DimIdx(0), &nan, MatcherId(1), &mut port),
            0
        );
        let inverted = SubLogRecord::Retire {
            dim: DimIdx(0),
            range: Range::new(90.0, 5.0),
            keep: Vec::new(),
        };
        assert!(engine.apply(&inverted, &mut port));
        assert_eq!(
            port.rejected,
            [
                Rejected::RemoveSub,
                Rejected::Retire,
                Rejected::StoreSub,
                Rejected::StoreSub,
                Rejected::HandOver,
                Rejected::RemoveSub,
                Rejected::Retire,
                Rejected::StoreSub,
                Rejected::StoreSub,
            ],
            "{kind:?}"
        );
        assert_eq!(engine.total_subs(), 1, "{kind:?}: the good copy survives");
    }
}
