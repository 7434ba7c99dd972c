//! Partitioning-cost benchmarks: subscription assignment and candidate
//! lookup for the three strategies (the dispatcher-side per-message /
//! per-subscription costs behind the §IV-B observation that dispatching is
//! two orders of magnitude cheaper than matching).

use bluedove_baselines::AnyStrategy;
use bluedove_workload::PaperWorkload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn strategies(n: u32) -> Vec<(&'static str, AnyStrategy)> {
    let w = PaperWorkload::default();
    vec![
        ("bluedove", AnyStrategy::bluedove(w.space(), n)),
        ("p2p", AnyStrategy::p2p(w.space(), n)),
        ("full-rep", AnyStrategy::full_rep(n)),
    ]
}

fn bench_assign(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_assign");
    let w = PaperWorkload {
        seed: 3,
        ..Default::default()
    };
    let subs: Vec<_> = w.subscriptions().take(1024).collect();
    group.throughput(Throughput::Elements(subs.len() as u64));
    for n in [5u32, 20] {
        for (name, strat) in strategies(n) {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let mut copies = 0usize;
                    for s in &subs {
                        copies += strat.as_dyn().assign(s).len();
                    }
                    copies
                });
            });
        }
    }
    group.finish();
}

fn bench_candidates(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_candidates");
    let w = PaperWorkload {
        seed: 4,
        ..Default::default()
    };
    let msgs: Vec<_> = w.messages().take(1024).collect();
    group.throughput(Throughput::Elements(msgs.len() as u64));
    for n in [5u32, 20] {
        for (name, strat) in strategies(n) {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let mut total = 0usize;
                    for m in &msgs {
                        total += strat.as_dyn().candidates(m).len();
                    }
                    total
                });
            });
        }
    }
    group.finish();
}

fn bench_elastic_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment_split_join");
    for n in [5u32, 20, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let AnyStrategy::BlueDove(mut mp) =
                    AnyStrategy::bluedove(PaperWorkload::default().space(), n)
                else {
                    unreachable!()
                };
                let moves = mp
                    .table_mut()
                    .split_join(bluedove_core::MatcherId(n), |m, _| Some(m.0 as f64));
                moves.map_or(0, |m| m.len())
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_assign, bench_candidates, bench_elastic_split
}
criterion_main!(benches);
