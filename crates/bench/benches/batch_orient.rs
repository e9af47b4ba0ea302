//! Batch orientation pipeline vs the naive per-budget loop.
//!
//! The naive sweep rebuilds the instance — and with it the Euclidean MST —
//! for every `(k, φ_k)` budget of the grid; `BatchOrienter` builds it once
//! and dispatches all budgets against the shared substrate, optionally in
//! parallel.  The gap between `naive_rebuild` and `batch_shared_mst` is the
//! amortised MST cost; `batch_parallel` adds thread-level speedup on top.

use antennae_bench::workloads::uniform_instance;
use antennae_core::antenna::AntennaBudget;
use antennae_core::batch::BatchOrienter;
use antennae_core::instance::Instance;
use antennae_geometry::TAU;
use antennae_parallel::default_threads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const SIZES: &[usize] = &[200, 800, 2000];

/// The 20-budget grid every variant sweeps: k = 1..=5 × 4 spread levels.
fn budget_grid() -> Vec<AntennaBudget> {
    let mut budgets = Vec::new();
    for k in 1..=5 {
        for step in 0..4 {
            budgets.push(AntennaBudget::new(k, TAU * step as f64 / 4.0));
        }
    }
    budgets
}

fn bench_naive_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_orient/naive_rebuild");
    let budgets = budget_grid();
    for &n in SIZES {
        let points = uniform_instance(n, 7).points().to_vec();
        group.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, pts| {
            b.iter(|| {
                budgets
                    .iter()
                    .map(|budget| {
                        // The rebuild a caller without the batch pipeline pays.
                        let instance = Instance::new(black_box(pts.clone())).unwrap();
                        antennae_core::solver::Solver::on(&instance)
                            .with_budget(*budget)
                            .run()
                            .unwrap()
                    })
                    .count()
            })
        });
    }
    group.finish();
}

fn bench_batch_shared_mst(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_orient/batch_shared_mst");
    let budgets = budget_grid();
    for &n in SIZES {
        let points = uniform_instance(n, 7).points().to_vec();
        group.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, pts| {
            b.iter(|| {
                let batch = BatchOrienter::new(black_box(pts.clone()))
                    .unwrap()
                    .with_threads(1);
                batch.orient_budgets(&budgets).len()
            })
        });
    }
    group.finish();
}

fn bench_batch_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_orient/batch_parallel");
    let budgets = budget_grid();
    for &n in SIZES {
        let points = uniform_instance(n, 7).points().to_vec();
        group.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, pts| {
            b.iter(|| {
                let batch = BatchOrienter::new(black_box(pts.clone()))
                    .unwrap()
                    .with_threads(default_threads());
                batch.orient_budgets(&budgets).len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_naive_rebuild,
    bench_batch_shared_mst,
    bench_batch_parallel
);
criterion_main!(benches);
