//! Selection-policy cost: `BestGuarantee` (one construction per solve)
//! vs. `Portfolio` (every applicable construction per solve, fanned out over
//! the worker pool).
//!
//! The portfolio's price is the extra candidate runs; its payoff is the
//! smallest *measured* radius (never worse than the dispatcher's pick, see
//! `examples/portfolio.rs`).  Both variants solve against a prebuilt
//! instance, so the MST substrate is out of the measurement and the gap is
//! pure policy overhead.

use antennae_bench::workloads::uniform_instance;
use antennae_core::solver::{SelectionPolicy, Solver};
use antennae_geometry::PI;
use antennae_graph::RootedTree;
use antennae_parallel::default_threads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const SIZES: &[usize] = &[500, 2000];

/// The representative budgets each policy solves per iteration: the paper's
/// headline two-antenna regime and a zero-spread chains regime (three
/// portfolio candidates each).
const BUDGETS: &[(usize, f64)] = &[(2, PI), (3, 0.0)];

fn bench_best_guarantee(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_policy/best_guarantee");
    for &n in SIZES {
        let instance = uniform_instance(n, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &instance, |b, inst| {
            b.iter(|| {
                BUDGETS
                    .iter()
                    .map(|&(k, phi)| {
                        Solver::on(black_box(inst))
                            .budget(k, phi)
                            .policy(SelectionPolicy::BestGuarantee)
                            .run()
                            .unwrap()
                            .measured_radius_over_lmax
                    })
                    .fold(0.0, f64::max)
            })
        });
    }
    group.finish();
}

fn bench_portfolio(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_policy/portfolio");
    for &n in SIZES {
        let instance = uniform_instance(n, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &instance, |b, inst| {
            b.iter(|| {
                BUDGETS
                    .iter()
                    .map(|&(k, phi)| {
                        Solver::on(black_box(inst))
                            .budget(k, phi)
                            .policy(SelectionPolicy::Portfolio)
                            .threads(default_threads())
                            .run()
                            .unwrap()
                            .measured_radius_over_lmax
                    })
                    .fold(0.0, f64::max)
            })
        });
    }
    group.finish();
}

fn bench_portfolio_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_policy/portfolio_sequential");
    for &n in SIZES {
        let instance = uniform_instance(n, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &instance, |b, inst| {
            b.iter(|| {
                BUDGETS
                    .iter()
                    .map(|&(k, phi)| {
                        Solver::on(black_box(inst))
                            .budget(k, phi)
                            .policy(SelectionPolicy::Portfolio)
                            .threads(1)
                            .run()
                            .unwrap()
                            .measured_radius_over_lmax
                    })
                    .fold(0.0, f64::max)
            })
        });
    }
    group.finish();
}

/// The rooted-tree cache win (PR 4): `hamiltonian`, `chains` and `theorem3`
/// each walk `Instance::rooted_tree()`, so a Portfolio solve used to re-root
/// and re-sort the identical tree once per candidate.  `rebuild` is the old
/// per-orient cost, `cached` the steady-state cost after the `OnceLock`
/// landed; the policy benches above measure the end-to-end effect (their
/// sequential-portfolio numbers are the ones the ARCHITECTURE.md table
/// records as before/after).
fn bench_rooted_tree_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_policy/rooted_tree");
    for &n in SIZES {
        let instance = uniform_instance(n, 11);
        group.bench_with_input(BenchmarkId::new("rebuild", n), &instance, |b, inst| {
            b.iter(|| RootedTree::from_mst(black_box(inst).mst()))
        });
        instance.rooted_tree(); // prime the cache
        group.bench_with_input(BenchmarkId::new("cached", n), &instance, |b, inst| {
            b.iter(|| black_box(inst).rooted_tree().root())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_best_guarantee,
    bench_portfolio,
    bench_portfolio_sequential,
    bench_rooted_tree_cache
);
criterion_main!(benches);
