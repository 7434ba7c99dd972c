//! The gossip overlay over real TCP sockets: three nodes on localhost
//! exchange anti-entropy rounds through the wire codec and converge —
//! demonstrating the multi-host deployment path (the threaded cluster
//! uses the identical `Transport` abstraction).

use bluedove::overlay::{EndpointState, GossipMsg, GossipNode, NodeId, NodeRole};
use bluedove_net::{from_bytes, to_bytes, ReactorConfig, ReactorTransport, Transport};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use std::time::{Duration, Instant};

/// One leg of the handshake with its return address.
fn envelope(from: &str, msg: &GossipMsg) -> Bytes {
    let mut buf = to_bytes(&String::from(from));
    let mut rest = to_bytes(msg);
    buf.unsplit(std::mem::take(&mut rest));
    buf.freeze()
}

fn open_envelope(mut payload: &[u8]) -> Option<(String, GossipMsg)> {
    use bluedove_net::Wire;
    let from = String::decode(&mut payload).ok()?;
    let msg = GossipMsg::decode(&mut payload).ok()?;
    Some((from, msg))
}

/// One transport instance, as each host of a deployment would run.
fn reactor() -> ReactorTransport {
    ReactorTransport::start(ReactorConfig::default()).expect("start reactor")
}

struct TcpPeer {
    addr: String,
    node: GossipNode,
    rx: Receiver<Bytes>,
    transport: ReactorTransport,
}

impl TcpPeer {
    fn new(id: u64) -> Self {
        // One transport instance per peer, as on separate hosts: bind a
        // logical name (an OS-assigned port) and advertise the real
        // `host:port` behind it, which is what the others dial.
        let transport = reactor();
        let name = format!("gossip/{id}");
        let rx = transport.bind(&name).expect("bind tcp");
        let addr = transport.local_addr(&name).expect("bound address");
        let node = GossipNode::new(EndpointState::new(
            NodeId(id),
            NodeRole::Matcher,
            addr.clone(),
            1,
        ));
        TcpPeer {
            addr,
            node,
            rx,
            transport,
        }
    }

    /// Processes every pending inbound leg, replying as the protocol
    /// dictates.
    fn pump(&mut self, now: f64) {
        while let Ok(payload) = self.rx.try_recv() {
            let Some((from, msg)) = open_envelope(&payload) else {
                continue;
            };
            match &msg {
                GossipMsg::Syn { .. } => {
                    let ack = self.node.handle_syn(&msg, now);
                    let _ = self.transport.send(&from, envelope(&self.addr, &ack));
                }
                GossipMsg::Ack { .. } => {
                    let ack2 = self.node.handle_ack(&msg, now);
                    let _ = self.transport.send(&from, envelope(&self.addr, &ack2));
                }
                GossipMsg::Ack2 { .. } => self.node.handle_ack2(&msg, now),
            }
        }
    }

    /// Initiates one exchange with a peer address.
    fn initiate(&mut self, peer: &str) {
        let syn = self.node.make_syn();
        let _ = self.transport.send(peer, envelope(&self.addr, &syn));
    }
}

#[test]
fn gossip_converges_over_real_tcp() {
    let mut peers: Vec<TcpPeer> = (0..3).map(TcpPeer::new).collect();
    // Each node initially knows only node 0 (the seed).
    let seed_state = peers[0].node.own().clone();
    for p in peers.iter_mut().skip(1) {
        p.node.learn(seed_state.clone(), 0.0);
    }

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut now = 0.0;
    loop {
        now += 1.0;
        for p in peers.iter_mut() {
            p.node.heartbeat();
        }
        // Every node gossips with everyone it knows (tiny cluster).
        let known: Vec<Vec<String>> = peers
            .iter()
            .map(|p| {
                p.node
                    .peers()
                    .values()
                    .map(|r| r.state.addr.clone())
                    .collect()
            })
            .collect();
        for (i, targets) in known.iter().enumerate() {
            for t in targets {
                peers[i].initiate(t);
            }
        }
        // Let the sockets deliver, then pump all inboxes a few times so
        // multi-leg handshakes complete.
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(20));
            for p in peers.iter_mut() {
                p.pump(now);
            }
        }
        if peers.iter().all(|p| p.node.peers().len() == 2) {
            break;
        }
        assert!(Instant::now() < deadline, "TCP gossip did not converge");
    }
    // Everyone knows everyone, with fresh heartbeats.
    for p in &peers {
        assert_eq!(p.node.peers().len(), 2);
        for rec in p.node.peers().values() {
            assert!(rec.state.version >= 1);
        }
    }
    // Byte accounting flowed over the real sockets.
    assert!(peers.iter().all(|p| p.node.bytes_sent > 0));
    for p in &peers {
        p.transport.shutdown();
    }
}

#[test]
fn control_messages_cross_tcp_intact() {
    use bluedove::cluster::ControlMsg;
    use bluedove::core::{DimIdx, Message};

    let receiver = reactor();
    let rx = receiver.bind("m/0").expect("bind");
    let addr = receiver.local_addr("m/0").expect("bound address");
    let sender = reactor();

    let msg = ControlMsg::MatchMsg {
        dim: DimIdx(2),
        msg: Message::with_payload(vec![1.5, -2.5, 1000.0], vec![0xAB; 1000]),
        admitted_us: 123_456_789,
        ack_to: "d/0".into(),
    };
    sender.send(&addr, to_bytes(&msg).freeze()).expect("send");
    let payload = rx.recv_timeout(Duration::from_secs(5)).expect("recv");
    let back: ControlMsg = from_bytes(&payload).expect("decode");
    assert_eq!(back, msg);
    sender.shutdown();
    receiver.shutdown();
}
