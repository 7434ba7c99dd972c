//! The cell grid on `selective_match`'s hot shard: the 10 000 copies a
//! four-matcher BlueDove deployment stores on matcher 0, dimension 0,
//! from the paper's workload at predicate width 72 (fan-out about 1),
//! probed with the publications routed there. A grid over the copy
//! dimension alone must examine every copy in the probed 1-D cell; the
//! grid over the selective other dimensions too must examine at most an
//! eighth of that.

use bluedove::baselines::AnyStrategy;
use bluedove::core::{
    Assignment, DimIdx, IndexKind, MatcherId, Message, Range, Subscription, SubscriptionId,
};
use bluedove::workload::PaperWorkload;

const COPIES: usize = 10_000;

#[test]
fn the_grid_examines_an_eighth_of_a_one_dimensional_cell() {
    let w = PaperWorkload {
        sub_width: 72.0,
        seed: 7,
        ..PaperWorkload::default()
    };
    let space = w.space();
    let strategy = AnyStrategy::bluedove(space.clone(), 4);
    let home = Assignment::new(MatcherId(0), DimIdx(0));
    let copies: Vec<Subscription> = w
        .subscriptions()
        .enumerate()
        .filter(|(_, s)| strategy.as_dyn().assign(s).contains(&home))
        .take(COPIES)
        .map(|(i, mut s)| {
            s.id = SubscriptionId(i as u64 + 1);
            s
        })
        .collect();
    assert_eq!(copies.len(), COPIES);
    let probes: Vec<Message> = w
        .messages()
        .filter(|m| strategy.as_dyn().candidates(m).contains(&home))
        .take(2_000)
        .collect();

    let mut idx = IndexKind::Cell(64).build(&space, DimIdx(0));
    for s in &copies {
        idx.insert(s.clone());
    }
    let (mut examined, mut one_dim) = (0, 0);
    let mut hits = Vec::new();
    for m in &probes {
        hits.clear();
        examined += idx.matching(m, &mut hits);
        let truth = copies.iter().filter(|s| s.matches(m)).count();
        assert_eq!(hits.len(), truth, "match set at {:?}", m.values);
        // The uniform 64-cell cell of the copy dimension holding the probe.
        let c = (m.values[0] / 1000.0 * 64.0) as usize;
        let cell = Range::new(c as f64 * 1000.0 / 64.0, (c + 1) as f64 * 1000.0 / 64.0);
        one_dim += copies
            .iter()
            .filter(|s| s.predicates[0].overlaps(&cell))
            .count();
    }
    let (grid, flat) = (examined / probes.len(), one_dim / probes.len());
    println!("examined per probe: grid {grid}, 1-D 64 cells {flat}");
    assert!(8 * examined <= one_dim, "grid {grid} vs 1-D {flat}");
}
