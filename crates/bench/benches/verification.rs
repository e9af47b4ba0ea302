//! Benchmarks of the verification pipeline: the dense pairwise reference
//! against the kd-tree engine, the engine on an instance whose index is
//! already cached, a verified Portfolio solve, and the SCC back end.
//!
//! `verify_scheme/{dense,kdtree}/n` is the reference-against-engine table
//! recorded in `docs/ARCHITECTURE.md` (§ Verification engine);
//! `verify_scheme/cached/n` is the second verify of the same `Instance`,
//! which skips the index build.

use antennae_bench::workloads::uniform_instance;
use antennae_core::antenna::AntennaBudget;
use antennae_core::scheme::OrientationScheme;
use antennae_core::solver::{SelectionPolicy, Solver};
use antennae_core::verify::{report_from_digraph, VerificationEngine};
use antennae_geometry::PI;
use antennae_graph::scc::{kosaraju_scc, tarjan_scc};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// The solver scheme the verifier sees in production runs.
fn scheme_for(instance: &antennae_core::instance::Instance) -> OrientationScheme {
    Solver::on(instance)
        .with_budget(AntennaBudget::new(2, PI))
        .run()
        .unwrap()
        .scheme
}

fn bench_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_scheme");
    let mut sizes = vec![32usize, 100, 250, 1000, 4000, 100_000];
    if std::env::var("ANTENNAE_BENCH_FULL").is_ok_and(|v| v == "1") {
        // Million-sensor verification: a minutes-long single-iteration run,
        // opted into explicitly (see mst_scaling's full-mode note).
        sizes.push(1_000_000);
    }
    let engine = VerificationEngine::new();
    for &n in &sizes {
        let instance = uniform_instance(n, 3);
        let scheme = scheme_for(&instance);
        let points = instance.points();
        // The reference is Θ(n²·k): past the table's sizes it only burns
        // time, so the large configurations are engine-only.
        if n <= 4000 {
            group.bench_with_input(BenchmarkId::new("dense", n), &scheme, |b, sch| {
                b.iter(|| {
                    let digraph = black_box(sch).induced_digraph(black_box(points));
                    report_from_digraph(&instance, sch, None, &digraph)
                })
            });
        }
        // The engine from a cold start: index build, row scan, report.
        group.bench_with_input(BenchmarkId::new("kdtree", n), &scheme, |b, sch| {
            b.iter(|| {
                let digraph = engine.induced_digraph(black_box(points), black_box(sch));
                report_from_digraph(&instance, sch, None, &digraph)
            })
        });
        // The engine on the instance's cached index: the per-scheme marginal
        // cost every later verification of the same instance pays.
        engine.verify(&instance, &scheme);
        group.bench_with_input(BenchmarkId::new("cached", n), &scheme, |b, sch| {
            b.iter(|| engine.verify(black_box(&instance), black_box(sch)))
        });
    }
    group.finish();
}

fn bench_portfolio_end_to_end(c: &mut Criterion) {
    // A Portfolio solve at n = 2000 with verification of every candidate.
    // Each iteration runs on a clone of an instance whose rooted tree is
    // warm and whose spatial index is cold, so the index build is measured,
    // as it is for the first verified solve of any instance.
    let mut group = c.benchmark_group("portfolio_verified");
    let instance = uniform_instance(2000, 3);
    instance.rooted_tree();
    group.bench_function("engine", |b| {
        b.iter(|| {
            let fresh = black_box(&instance).clone();
            Solver::on(&fresh)
                .with_budget(AntennaBudget::new(2, PI))
                .policy(SelectionPolicy::Portfolio)
                .run_verified()
                .unwrap()
        })
    });
    group.finish();
}

fn bench_scc_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("scc_on_induced_digraph");
    let instance = uniform_instance(1000, 3);
    let scheme = scheme_for(&instance);
    let digraph = VerificationEngine::new().induced_digraph(instance.points(), &scheme);
    group.bench_function("tarjan", |b| b.iter(|| tarjan_scc(black_box(&digraph))));
    group.bench_function("kosaraju", |b| b.iter(|| kosaraju_scc(black_box(&digraph))));
    group.finish();
}

criterion_group!(
    benches,
    bench_verify,
    bench_portfolio_end_to_end,
    bench_scc_algorithms
);
criterion_main!(benches);
