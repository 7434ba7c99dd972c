//! Many-node reactor soak: ≥100 node inboxes on one machine over real
//! loopback TCP, proving the reactor's thread count is O(event loops) —
//! independent of connection count — while every frame still arrives,
//! in order per sender.
//!
//! A thread per connection would put 240+ threads under this topology;
//! the reactor serves it with exactly `event_loops` threads, which is the
//! property that lets the cluster scale past thread-per-connection on
//! real sockets.

use bluedove::net::{ReactorConfig, ReactorTransport, Transport};
use bytes::Bytes;
use std::time::Duration;

const NODES: usize = 120;
const NEIGHBORS: [usize; 3] = [1, 7, 13];
const FRAMES_PER_NEIGHBOR: u8 = 20;
const LOOPS: usize = 2;

/// Current thread count of this process (linux); `None` elsewhere.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[test]
fn hundred_node_soak_thread_count_stays_flat() {
    let before = thread_count();
    let transport = ReactorTransport::start(ReactorConfig {
        event_loops: LOOPS,
        ..ReactorConfig::default()
    })
    .unwrap();

    // Bind one inbox per node.
    let inboxes: Vec<_> = (0..NODES)
        .map(|i| transport.bind(&format!("node/{i}")).unwrap())
        .collect();

    // Every node sends a seq-numbered stream to three neighbors. All
    // sends run from this thread: the point under test is the transport's
    // thread budget, not the senders'.
    for i in 0..NODES {
        for off in NEIGHBORS {
            let dest = format!("node/{}", (i + off) % NODES);
            for seq in 0..FRAMES_PER_NEIGHBOR {
                let payload = Bytes::from(vec![(i >> 8) as u8, i as u8, seq]);
                transport.send(&dest, payload).unwrap();
            }
        }
    }

    // Each node is a neighbor of exactly three senders (the offsets are
    // distinct mod NODES), so every inbox gets exactly 3 × 20 frames —
    // and each sender's stream must arrive in seq order.
    let expected = NEIGHBORS.len() * FRAMES_PER_NEIGHBOR as usize;
    for (i, rx) in inboxes.iter().enumerate() {
        let mut last_seq: std::collections::HashMap<usize, u8> = Default::default();
        for n in 0..expected {
            let frame = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("node {i} got {n}/{expected} frames: {e}"));
            let sender = ((frame[0] as usize) << 8) | frame[1] as usize;
            let seq = frame[2];
            if let Some(&prev) = last_seq.get(&sender) {
                assert!(
                    seq > prev,
                    "node {i}: frames from {sender} out of order ({prev} then {seq})"
                );
            }
            last_seq.insert(sender, seq);
        }
        assert_eq!(last_seq.len(), NEIGHBORS.len());
    }

    // The load ran over real kernel sockets: one outbound connection per
    // destination plus its accepted twin — hundreds of connections...
    let conns = transport.connection_count();
    assert!(
        conns >= 2 * NODES,
        "expected ≥{} open connections, saw {conns}",
        2 * NODES
    );

    // ...while the transport added exactly `event_loops` threads, where
    // a thread-per-connection shape would sit at O(connections).
    if let (Some(before), Some(during)) = (before, thread_count()) {
        let added = during.saturating_sub(before);
        assert_eq!(
            added, LOOPS,
            "reactor must add event-loop threads only (before {before}, during {during}, \
             {conns} connections)"
        );
        assert!(conns >= 50 * added, "connections must dwarf thread count");
    }

    // Graceful shutdown joins the loops and returns the threads.
    transport.shutdown();
    if let (Some(b), Some(after)) = (before, thread_count()) {
        assert!(
            after <= b,
            "event-loop threads must be joined after shutdown (before {b}, after {after})"
        );
    }
}
