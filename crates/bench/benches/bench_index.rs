//! Index-structure ablation: matching cost per message for the three
//! per-dimension index structures, across subscription-set sizes.
//!
//! This quantifies the DESIGN.md ablation "linear vs cell grid vs
//! interval tree" and the §III-A claim that separate per-dimension sets
//! (smaller sets → fewer examined) are the key to matching throughput.
//! Each matching timing is preceded by the subscriptions a probe examines
//! on average over the same messages.

use bluedove_core::index::MatchIndex;
use bluedove_core::{DimIdx, IndexKind, InnerKind, Message};
use bluedove_workload::{CoverableWorkload, PaperWorkload};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_matching");
    for &size in &[1_000usize, 10_000, 40_000] {
        let w = PaperWorkload {
            seed: 1,
            ..Default::default()
        };
        let subs: Vec<_> = w.subscriptions().take(size).collect();
        let msgs: Vec<_> = w.messages().take(256).collect();
        group.throughput(Throughput::Elements(msgs.len() as u64));
        for (label, kind) in [
            ("linear", IndexKind::Linear),
            ("cell64", IndexKind::Cell(64)),
            ("interval-tree", IndexKind::IntervalTree),
        ] {
            group.bench_with_input(BenchmarkId::new(label, size), &size, |b, _| {
                let mut idx = kind.build(&w.space(), DimIdx(0));
                for s in &subs {
                    idx.insert(s.clone());
                }
                let mut out = Vec::new();
                let mut i = 0;
                // Also warms (forces the interval tree rebuild outside
                // timing).
                print_examined(
                    &format!("index_matching/{label}/{size}"),
                    idx.as_mut(),
                    &msgs,
                );
                b.iter(|| {
                    out.clear();
                    let m: &Message = &msgs[i % msgs.len()];
                    i += 1;
                    idx.matching(m, &mut out)
                });
            });
        }
    }
    group.finish();
}

/// Prints the mean number of subscriptions a probe of `idx` examines
/// over `msgs`.
fn print_examined(label: &str, idx: &mut dyn MatchIndex, msgs: &[Message]) {
    let mut out = Vec::new();
    let examined: usize = msgs
        .iter()
        .map(|m| {
            out.clear();
            idx.matching(m, &mut out)
        })
        .sum();
    println!(
        "{label}: examined_per_probe={:.1}",
        examined as f64 / msgs.len() as f64
    );
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_insert");
    let w = PaperWorkload {
        seed: 2,
        ..Default::default()
    };
    let subs: Vec<_> = w.subscriptions().take(10_000).collect();
    for (label, kind) in [
        ("linear", IndexKind::Linear),
        ("cell64", IndexKind::Cell(64)),
        ("interval-tree", IndexKind::IntervalTree),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut idx = kind.build(&w.space(), DimIdx(0));
                for s in &subs {
                    idx.insert(s.clone());
                }
                idx.logical_len()
            });
        });
    }
    group.finish();
}

/// Covering ablation on the coverable workload: the covering-wrapped
/// index vs. its bare inner, same subscriptions and probe stream. The
/// setup pass prints physical/logical compression and the memory
/// footprint of each variant (criterion times the matching only).
fn bench_covering(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_covering");
    for &size in &[20_000usize, 100_000] {
        let w = CoverableWorkload {
            seed: 3,
            ..Default::default()
        };
        let subs: Vec<_> = w.subscriptions().take(size).collect();
        let msgs: Vec<_> = w.messages().take(256).collect();
        group.throughput(Throughput::Elements(msgs.len() as u64));
        for (label, kind) in [
            ("bare-cell64", IndexKind::Cell(64)),
            (
                "covering-cell64",
                IndexKind::Covering {
                    inner: InnerKind::Cell(64),
                },
            ),
            ("bare-interval-tree", IndexKind::IntervalTree),
            (
                "covering-interval-tree",
                IndexKind::Covering {
                    inner: InnerKind::IntervalTree,
                },
            ),
        ] {
            group.bench_with_input(BenchmarkId::new(label, size), &size, |b, _| {
                let mut idx = kind.build(&w.space(), DimIdx(0));
                for s in &subs {
                    idx.insert(s.clone());
                }
                println!(
                    "index_covering/{label}/{size}: logical={} physical={} \
                     covering_ratio={:.2} memory_bytes={}",
                    idx.logical_len(),
                    idx.physical_len(),
                    idx.logical_len() as f64 / idx.physical_len() as f64,
                    idx.memory_bytes()
                );
                let mut out = Vec::new();
                let mut i = 0;
                print_examined(
                    &format!("index_covering/{label}/{size}"),
                    idx.as_mut(),
                    &msgs,
                );
                b.iter(|| {
                    out.clear();
                    let m: &Message = &msgs[i % msgs.len()];
                    i += 1;
                    idx.matching(m, &mut out)
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matching, bench_insert, bench_covering
}
criterion_main!(benches);
