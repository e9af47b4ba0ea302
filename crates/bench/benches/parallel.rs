//! `parallel_map` overhead: the order-preserving scoped-thread map under
//! every batch pipeline, portfolio fan-out and verification sweep.
//!
//! The cheap-item group is the stress case for per-item overhead — results
//! used to be written through one `Mutex<Option<R>>` per item, which put a
//! lock acquisition on every result; they now land in disjoint chunk-claimed
//! slots of the output vector's spare capacity (one claim per chunk).  The
//! heavy group checks that coarse items still scale.

use antennae_parallel::{default_threads, parallel_map};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_cheap_items(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_map/cheap");
    for &n in &[4096usize, 16384] {
        let items: Vec<u64> = (0..n as u64).collect();
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let out = parallel_map(black_box(&items), default_threads(), |&x| {
                    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
                });
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_cheap_items_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_map/cheap_sequential");
    for &n in &[4096usize, 16384] {
        let items: Vec<u64> = (0..n as u64).collect();
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let out = parallel_map(black_box(&items), 1, |&x| {
                    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
                });
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_heavy_items(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_map/heavy");
    for &n in &[64usize, 256] {
        let items: Vec<u64> = (0..n as u64).collect();
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let out = parallel_map(black_box(&items), default_threads(), |&x| {
                    // ~10 µs of arithmetic per item.
                    let mut acc = x;
                    for i in 0..10_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    acc
                });
                black_box(out.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cheap_items,
    bench_cheap_items_sequential,
    bench_heavy_items
);
criterion_main!(benches);
