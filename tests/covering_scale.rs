//! Scale proof for the subscription covering layer: the covering
//! decorator must hold millions of subscriptions per matcher by indexing
//! representatives only — at most half the bare index's physical entries,
//! fewer examined subscriptions than the bare index, and resident bytes
//! and examined counts no higher than fixed bounds on this seed — while
//! the *logical* behaviour (forward trace, match sets, match-hit totals)
//! stays bit-identical to the uncovered index on the same seed.
//!
//! The bytes and examined bounds are absolute rather than ratios to the
//! bare index: a ratio moves with the bare index's own cost, so a gain
//! there fails it (the bare cell grid prunes on every selective
//! dimension, and its bytes and examined counts are within about 2× of
//! covering's) and a loss there would hide a covering regression. Each
//! bound is the covering index's value when it wrapped a one-dimensional
//! 64-cell index, which its grid inner must not exceed.
//!
//! Two tiers:
//! - an always-on A/B sim run at modest scale (tier-1 safe), and
//! - `#[ignore]`d multi-million-subscription runs for the release lane
//!   (`cargo test --release -- --ignored`): the full sim A/B at 5M
//!   subscriptions and a single-index 5M bit-identical match-set sweep.

use bluedove::core::{DimIdx, IndexKind, InnerKind, RandomPolicy};
use bluedove::engine::EngineConfig;
use bluedove::sim::{SimCluster, SimConfig, Strategy};
use bluedove::workload::CoverableWorkload;

/// Covering's bytes and examined work in the 5M sim run, and in the 5M
/// single-index sweep, over the former one-dimensional inner.
const BOUND_5M_BYTES: usize = 2_287_689_888;
const BOUND_5M_EXAMINED: u64 = 77_062_713;
const SINGLE_5M_BYTES: usize = 485_398_312;
const SINGLE_5M_EXAMINED: usize = 81_739_068;

/// One sim host run: logical outcome + physical cost.
struct HostRun {
    forward_log: Vec<(bluedove::core::MessageId, bluedove::core::MatcherId, DimIdx)>,
    matches: u64,
    examined: u64,
    logical: usize,
    physical: usize,
    bytes: usize,
}

fn run_sim(
    w: &CoverableWorkload,
    subs_n: usize,
    msgs_n: usize,
    matchers: u32,
    index: IndexKind,
) -> HostRun {
    let space = w.space();
    let base = SimConfig::default();
    let engine = EngineConfig {
        record_forwards: true,
        index,
        ..base.engine.clone()
    };
    let cfg = SimConfig {
        seed: w.seed,
        engine,
        ..base
    };
    let mut sim = SimCluster::new(
        cfg,
        space.clone(),
        Strategy::bluedove(space, matchers),
        Box::new(RandomPolicy),
    );
    sim.subscribe_all(w.subscriptions().take(subs_n));
    sim.run_batch(w.messages().take(msgs_n), 100.0);
    // Drain far enough that even the uncovered side's long service times
    // finish (`match_per_sub` puts a 5M-sub message in the seconds of
    // virtual time), but not so far that the periodic stats/gossip events
    // grind: ~2000 virtual seconds is plenty and cheap.
    sim.drain(2_000.0);
    assert_eq!(sim.metrics.total_sent, msgs_n as u64);
    assert_eq!(sim.metrics.total_delivered, msgs_n as u64);
    HostRun {
        forward_log: sim.forward_log().to_vec(),
        matches: sim.metrics.total_matches,
        examined: sim.metrics.total_examined,
        logical: sim.total_logical_subs(),
        physical: sim.total_physical_subs(),
        bytes: sim.index_memory_bytes(),
    }
}

/// A/B: same seed, same workload, same policy — covering on vs off. The
/// logical outcome must be identical; physical entries must drop ≥2×,
/// examined work must drop, and covering's bytes and examined work must
/// stay within `max_bytes` and `max_examined`.
fn assert_covering_cuts_cost(
    subs_n: usize,
    msgs_n: usize,
    matchers: u32,
    seed: u64,
    max_bytes: usize,
    max_examined: u64,
) {
    let w = CoverableWorkload {
        k: 2,
        seed,
        ..Default::default()
    };
    let inner = InnerKind::Cell(64);
    let covered = run_sim(&w, subs_n, msgs_n, matchers, IndexKind::Covering { inner });
    let bare = run_sim(&w, subs_n, msgs_n, matchers, inner.bare());
    println!(
        "covering A/B @ {subs_n} subs (seed {seed}): logical={} physical {} -> {} ({:.1}x), \
         bytes {} -> {} ({:.1}x), examined {} -> {} ({:.1}x), matches={}",
        covered.logical,
        bare.physical,
        covered.physical,
        bare.physical as f64 / covered.physical as f64,
        bare.bytes,
        covered.bytes,
        bare.bytes as f64 / covered.bytes as f64,
        bare.examined,
        covered.examined,
        bare.examined as f64 / covered.examined as f64,
        covered.matches,
    );

    // Logical parity: identical routing, identical match-hit totals.
    assert_eq!(
        covered.forward_log, bare.forward_log,
        "covering changed the forward trace (seed {seed})"
    );
    assert!(covered.matches > 0, "workload produced no matches");
    assert_eq!(
        covered.matches, bare.matches,
        "covering changed the match-hit total (seed {seed})"
    );
    assert_eq!(covered.logical, bare.logical, "logical copy counts differ");

    // Physical compression: ≥2× fewer entries, less examined work, and
    // bytes and examined work within the bounds.
    assert!(
        covered.physical * 2 <= bare.physical,
        "physical entries not halved: {} covered vs {} bare",
        covered.physical,
        bare.physical
    );
    assert!(
        covered.examined < bare.examined,
        "covering examined no less: {} covered vs {} bare",
        covered.examined,
        bare.examined
    );
    assert!(
        covered.bytes <= max_bytes,
        "covering index bytes {} above the bound {max_bytes}",
        covered.bytes
    );
    assert!(
        covered.examined <= max_examined,
        "covering examined {} above the bound {max_examined}",
        covered.examined
    );
}

/// Tier-1 scale: always on, modest size.
#[test]
fn covering_halves_cost_at_sixty_thousand() {
    assert_covering_cuts_cost(60_000, 200, 4, 42, 20_380_512, 665_569);
}

/// The headline run: a 5-million-subscription sim on the coverable
/// workload. Release lane only (`cargo test --release -- --ignored`).
#[test]
#[ignore = "multi-minute: 5M-subscription A/B sim run; release lane only"]
fn covering_halves_cost_at_five_million() {
    assert_covering_cuts_cost(5_000_000, 300, 8, 42, BOUND_5M_BYTES, BOUND_5M_EXAMINED);
}

/// Single-index bit-identical match sets at 5M subscriptions: the
/// covering-wrapped index and its bare twin hold the same five million
/// subscriptions and must return exactly the same hits for every sampled
/// message. Covering holds at most half the physical entries, examines
/// fewer subscriptions, and stays within fixed bytes and examined bounds.
#[test]
#[ignore = "multi-minute: 5M-subscription single-index sweep; release lane only"]
fn five_million_single_index_bit_identical_matches() {
    const SUBS: usize = 5_000_000;
    const MSGS: usize = 300;
    let w = CoverableWorkload {
        k: 2,
        seed: 42,
        ..Default::default()
    };
    let sp = w.space();
    let dim = DimIdx(0);
    let mut covered = (IndexKind::Covering {
        inner: InnerKind::Cell(64),
    })
    .build(&sp, dim);
    let mut bare = IndexKind::Cell(64).build(&sp, dim);
    for s in w.subscriptions().take(SUBS) {
        covered.insert(s.clone());
        bare.insert(s);
    }
    assert_eq!(covered.logical_len(), SUBS);
    assert_eq!(bare.logical_len(), SUBS);
    println!(
        "single index @ {SUBS} subs: physical {} -> {} ({:.1}x), bytes {} -> {} ({:.1}x)",
        bare.physical_len(),
        covered.physical_len(),
        bare.physical_len() as f64 / covered.physical_len() as f64,
        bare.memory_bytes(),
        covered.memory_bytes(),
        bare.memory_bytes() as f64 / covered.memory_bytes() as f64,
    );
    assert!(covered.physical_len() * 2 <= bare.physical_len());
    assert!(covered.memory_bytes() <= SINGLE_5M_BYTES);

    let (mut examined_covered, mut examined_bare) = (0usize, 0usize);
    for (i, msg) in w.messages().take(MSGS).enumerate() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        examined_covered += covered.matching(&msg, &mut a);
        examined_bare += bare.matching(&msg, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "match sets diverged on sampled msg {i}");
    }
    println!(
        "single index @ {SUBS} subs: examined {examined_bare} -> {examined_covered} ({:.1}x)",
        examined_bare as f64 / examined_covered as f64
    );
    assert!(examined_covered < examined_bare);
    assert!(examined_covered <= SINGLE_5M_EXAMINED);
}
