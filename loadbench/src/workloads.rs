//! The four named workloads and their seeded inputs.
//!
//! A workload is a deployment (only the `ClusterConfig` setters it names;
//! everything else stays at `ClusterConfig::new` defaults: 4 matchers,
//! 1 dispatcher, Adaptive, `Cell(64)`) plus a seeded input set. The seed
//! reaches the generators only — the cluster sees nothing but inputs.

use bluedove::cluster::{ClusterConfig, TransportKind};
use bluedove::core::{AttributeSpace, Message, Subscription};
use bluedove::net::ReactorConfig;
use bluedove::workload::PaperWorkload;
use std::path::Path;

/// Distinct publication points per run; `seq` indexes them cyclically.
pub const MSG_POOL: usize = 1 << 14;
/// Bytes of harness header at the front of every payload.
pub const HEADER: usize = 16;

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub reactor: bool,
    pub acks: bool,
    pub max_batch: usize,
    /// Durable subscription log (fsync policy `Flush`) under a temp dir.
    pub durable: bool,
    /// Background subscriptions, one endpoint each.
    pub subs: usize,
    /// Predicate width of background and churned subscriptions.
    pub sub_width: f64,
    pub payload: usize,
    /// Closed-loop bound on publications outstanding.
    pub window: u64,
    /// Open-loop rate of the paced phase, msg/s.
    pub ref_rate: f64,
    /// Inline subscribes (and as many unsubscribes) per second through
    /// warm-up and the capacity phase; each churned subscription lives
    /// about one second. 0 = none.
    pub churn_per_s: f64,
}

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bare_forward",
        why: "16 B messages, tap only, acks off, batch 64: all cost is wire codec, dispatcher, coalescer and the channel hop, so fixed per-message cost shows undiluted",
        reactor: false,
        acks: false,
        max_batch: 64,
        durable: false,
        subs: 0,
        sub_width: 60.0,
        payload: 16,
        window: 4096,
        ref_rate: 50_000.0,
        churn_per_s: 0.0,
    },
    Workload {
        name: "selective_match",
        why: "50k narrow subscriptions, fan-out about 1: index probe and matcher queueing dominate, delivery does little; setup_s is 50k registrations",
        reactor: false,
        acks: true,
        max_batch: 1,
        durable: false,
        subs: 50_000,
        sub_width: 72.0,
        payload: 16,
        window: 256,
        ref_rate: 4_000.0,
        churn_per_s: 0.0,
    },
    Workload {
        name: "fanout_reactor",
        why: "256 wide subscriptions over loopback TCP, 256 B payload, fan-out about 20: per-hit Deliver encode and the kernel socket path dominate, the index is trivial",
        reactor: true,
        acks: true,
        max_batch: 64,
        durable: false,
        subs: 256,
        sub_width: 600.0,
        payload: 256,
        window: 256,
        ref_rate: 2_000.0,
        churn_per_s: 0.0,
    },
    Workload {
        name: "churn_durable",
        why: "10k endpoints at the paper's width (fan-out about 29) with a durable sublog and 250+250 churn ops/s: index writes, log append and SubAck share matcher threads with matching and delivery",
        reactor: false,
        acks: true,
        max_batch: 1,
        durable: true,
        subs: 10_000,
        sub_width: 250.0,
        payload: 16,
        window: 256,
        ref_rate: 2_000.0,
        churn_per_s: 250.0,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Subscriptions kept registered by churn at steady state.
    pub fn churn_live(&self) -> usize {
        self.churn_per_s as usize
    }

    /// The deployment: defaults plus only what this workload names.
    pub fn config(&self, space: AttributeSpace, log_dir: &Path) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(space)
            .publication_acks(self.acks)
            .max_batch(self.max_batch);
        if self.reactor {
            cfg = cfg.transport(TransportKind::Reactor(ReactorConfig::default()));
        }
        if self.durable {
            cfg = cfg.log_dir(log_dir);
        }
        cfg
    }

    fn scenario(&self, seed: u64) -> PaperWorkload {
        PaperWorkload {
            sub_width: self.sub_width,
            seed,
            ..PaperWorkload::default()
        }
    }
}

/// Everything a run feeds the cluster, generated from the seed alone.
pub struct Inputs {
    pub space: AttributeSpace,
    /// Background subscriptions, registered for the whole run.
    pub subs: Vec<Subscription>,
    /// Subscriptions the inline churn cycles through.
    pub churn_pool: Vec<Subscription>,
    /// Publication points; publication `seq` carries `points[seq % MSG_POOL]`.
    pub points: Vec<Vec<f64>>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let scenario = w.scenario(seed);
        let mut gen = scenario.subscriptions();
        let subs: Vec<Subscription> = gen.by_ref().take(w.subs).collect();
        let pool = 2 * w.churn_live().max(crate::harness::PROBE_LIVE);
        let churn_pool: Vec<Subscription> = gen.take(pool).collect();
        let points = scenario
            .messages()
            .take(MSG_POOL)
            .map(|m| m.values)
            .collect();
        Inputs {
            space: scenario.space(),
            subs,
            churn_pool,
            points,
        }
    }

    pub fn point(&self, seq: u64) -> &[f64] {
        &self.points[seq as usize % MSG_POOL]
    }

    /// The wildcard every publication reaches: where latency is stamped.
    pub fn tap(&self) -> Subscription {
        Subscription::builder(&self.space)
            .build()
            .expect("a builder without ranges is the whole space")
    }
}

/// The publication for `seq`: its seeded point and a payload of
/// `seq: u64 LE | due_us: u64 LE | zero padding`.
pub fn message(inputs: &Inputs, seq: u64, due_us: u64, payload: usize) -> Message {
    let mut bytes = vec![0u8; payload.max(HEADER)];
    bytes[..8].copy_from_slice(&seq.to_le_bytes());
    bytes[8..16].copy_from_slice(&due_us.to_le_bytes());
    Message::with_payload(inputs.point(seq).to_vec(), bytes)
}

/// `(seq, due_us)` back out of a delivered payload.
pub fn header(payload: &[u8]) -> Option<(u64, u64)> {
    let seq = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    let due = u64::from_le_bytes(payload.get(8..16)?.try_into().ok()?);
    Some((seq, due))
}

/// Due time of paced publication `i` at `rate`, µs after the phase start.
pub fn due_offset_us(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e6 / rate) as u64
}

/// Subscription ids of `subs` that match `point`, by brute force — the
/// reference the sampled delivery sets are compared against.
pub fn brute_force(subs: &[(u64, &Subscription)], point: &[f64]) -> Vec<u64> {
    let msg = Message::new(point.to_vec());
    let mut ids: Vec<u64> = subs
        .iter()
        .filter(|(_, s)| s.matches(&msg))
        .map(|&(id, _)| id)
        .collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_schedule_follows_seq() {
        assert_eq!(due_offset_us(0, 2_000.0), 0);
        assert_eq!(due_offset_us(1, 2_000.0), 500);
        assert_eq!(due_offset_us(2_000, 2_000.0), 1_000_000);
        assert_eq!(due_offset_us(3, 50_000.0), 60);
    }

    #[test]
    fn payload_header_round_trips() {
        let w = &WORKLOADS[0];
        let inputs = Inputs::generate(w, 5);
        let m = message(&inputs, 77, 123_456, 256);
        assert_eq!(m.payload.len(), 256);
        assert_eq!(header(&m.payload), Some((77, 123_456)));
        assert_eq!(m.values, inputs.point(77 + MSG_POOL as u64));
        assert_eq!(header(&[0u8; 15]), None);
        // A payload size below the header still carries the header.
        assert_eq!(message(&inputs, 1, 2, 4).payload.len(), HEADER);
    }

    #[test]
    fn same_seed_same_inputs() {
        let w = by_name("fanout_reactor").unwrap();
        let (a, b, c) = (
            Inputs::generate(w, 9),
            Inputs::generate(w, 9),
            Inputs::generate(w, 10),
        );
        assert_eq!(a.subs, b.subs);
        assert_eq!(a.points, b.points);
        assert_ne!(a.points, c.points);
        assert_eq!(a.subs.len(), 256);
        assert_eq!(a.churn_pool.len(), 100);
    }

    #[test]
    fn brute_force_on_a_toy_space() {
        let space = AttributeSpace::uniform(2, 0.0, 10.0);
        let sub = |lo: f64, hi: f64| {
            Subscription::builder(&space)
                .range(0, lo, hi)
                .build()
                .unwrap()
        };
        let (a, b, c) = (sub(0.0, 5.0), sub(4.0, 6.0), sub(6.0, 9.0));
        let subs = [(30, &a), (10, &b), (20, &c)];
        assert_eq!(brute_force(&subs, &[4.5, 1.0]), vec![10, 30]);
        assert_eq!(brute_force(&subs, &[5.0, 1.0]), vec![10]); // half-open
        assert_eq!(brute_force(&subs, &[9.5, 1.0]), Vec::<u64>::new());
    }
}
