//! Property tests of the duplicate filter: random arrival streams —
//! admissions fanned out to several subscriptions, retransmissions of
//! earlier ids, reorders across simulated matchers' queues, unstamped id 0
//! — against a never-forgetting `BTreeSet` model.
//!
//! For [`SeenWindow`] at every arrival:
//! - a key never seen is never reported as a duplicate;
//! - a repeat of a key among the `cap` largest seen (for endpoint keys,
//!   whose leading field is the message id: the newest ids) is always
//!   reported, and nothing older is;
//! - the window never holds more than `cap` keys.
//!
//! For [`DedupWindow`]: a never-served id is `Fresh` or `Pending`, never
//! `Served`; a re-arriving id among the `cap` newest served is `Served`;
//! a queued one is `Pending`; id 0 is always `Fresh`.
//!
//! Runs 256 seeds, plus 1 024 more derived from `CHAOS_SEED` when set.

use bluedove_core::{MessageId, SubscriberId, SubscriptionId};
use bluedove_engine::{Admit, DedupWindow, SeenWindow};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// One arrival at a filter: `(message id, subscription)`.
type Arrival = (u64, u64);

/// Dispatcher admissions in id order, each fanned out to up to `fanout`
/// subscriptions and queued on one of `matchers` simulated matchers; some
/// ids are retransmitted later (possibly to another matcher), and the
/// queues drain in a random interleaving — so arrivals are reordered
/// across matchers and duplicated, as at a subscriber endpoint.
fn arrivals(rng: &mut StdRng, with_unstamped: bool) -> Vec<Arrival> {
    let matchers = rng.gen_range(1..=4usize);
    let ids = rng.gen_range(1..=600u64);
    let fanout = rng.gen_range(1..=4u64);
    let retransmit = rng.gen_range(0.0..0.5);
    let lag = rng.gen_range(1..=200u64);
    let mut queues: Vec<VecDeque<Arrival>> = vec![VecDeque::new(); matchers];
    let mut out = Vec::new();
    let enqueue = |rng: &mut StdRng, queues: &mut Vec<VecDeque<Arrival>>, id: u64| {
        let m = rng.gen_range(0..matchers);
        for sub in 0..rng.gen_range(1..=fanout) {
            queues[m].push_back((id, sub));
        }
    };
    for id in 1..=ids {
        enqueue(rng, &mut queues, id);
        if rng.gen_bool(retransmit) {
            let earlier = id.saturating_sub(rng.gen_range(0..lag)).max(1);
            enqueue(rng, &mut queues, earlier);
        }
        if with_unstamped && rng.gen_bool(0.05) {
            enqueue(rng, &mut queues, 0);
        }
        // Matchers serve at their own pace.
        for _ in 0..rng.gen_range(0..3) {
            let q = &mut queues[rng.gen_range(0..matchers)];
            out.extend(q.pop_front());
        }
    }
    while queues.iter().any(|q| !q.is_empty()) {
        let q = &mut queues[rng.gen_range(0..matchers)];
        out.extend(q.pop_front());
    }
    out
}

/// Whether `k` is among the `cap` largest keys of `seen`.
fn among_largest<K: Ord>(seen: &BTreeSet<K>, k: &K, cap: usize) -> bool {
    seen.range(k..).take(cap + 1).count() <= cap
}

/// Feeds `keys` through a window of `cap`, checking every verdict and the
/// memory bound against the never-forgetting model.
fn check_window<K: Ord + Copy + std::fmt::Debug>(keys: impl IntoIterator<Item = K>, cap: usize) {
    let mut w = SeenWindow::new(cap);
    let mut seen = BTreeSet::new();
    for k in keys {
        let verdict = w.check_and_insert(k);
        if !seen.contains(&k) {
            assert!(!verdict, "never-seen key {k:?} reported as a duplicate");
        } else {
            assert_eq!(
                verdict,
                among_largest(&seen, &k, cap),
                "repeat of {k:?} misjudged (cap {cap})"
            );
        }
        seen.insert(k);
        assert!(w.len() <= cap, "window holds {} > {cap} keys", w.len());
        assert_eq!(w.len(), seen.len().min(cap));
    }
}

/// One matcher dimension: arrivals are admitted, queued and served in a
/// random order, and every verdict is checked against the model.
fn check_dedup_window(rng: &mut StdRng, stream: &[Arrival], cap: usize) {
    let mut w = DedupWindow::new(cap);
    let mut queued: Vec<MessageId> = Vec::new();
    let mut pending: HashSet<MessageId> = HashSet::new();
    let mut served: BTreeSet<MessageId> = BTreeSet::new();
    for &(id, _) in stream {
        let id = MessageId(id);
        let verdict = w.admit(id);
        if id == MessageId(0) {
            assert_eq!(verdict, Admit::Fresh, "id 0 is exempt");
            queued.push(id);
        } else if served.contains(&id) && among_largest(&served, &id, cap) {
            assert_eq!(verdict, Admit::Served, "{id:?} served and in the window");
        } else if pending.contains(&id) {
            assert_eq!(verdict, Admit::Pending, "{id:?} already queued");
        } else {
            assert_eq!(
                verdict,
                Admit::Fresh,
                "{id:?} neither queued nor remembered"
            );
            pending.insert(id);
            queued.push(id);
        }
        // Serve a random number of queued ids in a random order.
        for _ in 0..rng.gen_range(0..3) {
            if queued.is_empty() {
                break;
            }
            let id = queued.swap_remove(rng.gen_range(0..queued.len()));
            w.mark_served(id);
            if id != MessageId(0) {
                pending.remove(&id);
                served.insert(id);
            }
        }
    }
}

fn dedup_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cap = rng.gen_range(1..=64usize);
    let stream = arrivals(&mut rng, true);
    check_dedup_window(&mut rng, &stream, cap);
    // The endpoint and mailbox windows key on the message id first.
    let stamped = || stream.iter().filter(|&&(id, _)| id != 0);
    check_window(
        stamped().map(|&(id, sub)| (MessageId(id), SubscriptionId(sub))),
        cap,
    );
    check_window(
        stamped().map(|&(id, sub)| (MessageId(id), SubscriberId(sub % 2), SubscriptionId(sub))),
        cap,
    );
}

#[test]
fn within_the_window_the_filter_is_exact() {
    // The hosts' cap: no arrival of a stream shorter than the window is
    // ever misjudged, whatever the reorder.
    let mut rng = StdRng::seed_from_u64(28);
    let stream = arrivals(&mut rng, false);
    let mut w = SeenWindow::new(bluedove_engine::DEDUP_WINDOW);
    let mut seen = HashSet::new();
    for (id, sub) in stream {
        let k = (MessageId(id), SubscriptionId(sub));
        assert_eq!(w.check_and_insert(k), !seen.insert(k));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn duplicate_filter_matches_the_model(seed in any::<u64>()) {
        dedup_case(seed);
    }
}

/// Extra sweep for the CI chaos matrix; no-op when unset.
#[test]
fn dedup_env_seed() {
    if let Some(seed) = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        println!("duplicate-filter sweep: seed={seed}");
        for i in 0..1024 {
            dedup_case(seed.wrapping_mul(1_000_003).wrapping_add(i));
        }
    }
}
