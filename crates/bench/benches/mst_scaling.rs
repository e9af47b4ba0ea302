//! Scaling ablation of the two Euclidean MST engines: O(n²) dense Prim vs
//! Delaunay → Kruskal, on identical point sets — plus the million-sensor
//! build pipeline.
//!
//! The interesting outputs:
//!
//! * the engine crossover — dense Prim wins at small `n` (nothing to build
//!   first), the Delaunay engine wins from about n = 128
//!   (`DELAUNAY_CROSSOVER`) and the gap widens roughly linearly in `n`
//!   afterwards; `Auto` should track the better of the two at every size;
//! * `build_pipeline/solve_verify/*` — the full Instance → orient → verify
//!   pipeline at n = 10⁵, the PR-8 headline workload.
//!
//! Setting `ANTENNAE_BENCH_FULL=1` adds the n = 10⁶ configurations (a
//! million-sensor engine build and full pipeline); they are minutes-long
//! single-iteration runs and excluded from the default smoke pass.

use antennae_bench::workloads::uniform_points;
use antennae_core::bounds::theorem2_spread_threshold;
use antennae_core::instance::Instance;
use antennae_core::solver::Solver;
use antennae_core::verify::VerificationEngine;
use antennae_graph::euclidean::{EuclideanMst, MstEngine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const SIZES: &[usize] = &[64, 125, 250, 500, 1000, 2000, 4000, 8000, 100_000];

/// Returns `true` when the minutes-long n = 10⁶ configurations were opted
/// into via `ANTENNAE_BENCH_FULL=1`.
fn full_mode() -> bool {
    std::env::var("ANTENNAE_BENCH_FULL").is_ok_and(|v| v == "1")
}

fn bench_engine(c: &mut Criterion, group_name: &str, engine: MstEngine) {
    let mut group = c.benchmark_group(group_name);
    let mut sizes: Vec<usize> = SIZES.to_vec();
    if full_mode() {
        sizes.push(1_000_000);
    }
    for &n in &sizes {
        // Skip quadratic runs past the point where they only burn time.
        if engine == MstEngine::DensePrim && n > 4000 {
            continue;
        }
        let points = uniform_points(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, pts| {
            b.iter(|| EuclideanMst::build_with_engine(black_box(pts), engine).unwrap())
        });
    }
    group.finish();
}

fn bench_dense_prim(c: &mut Criterion) {
    bench_engine(c, "mst_scaling/dense_prim", MstEngine::DensePrim);
}

fn bench_delaunay(c: &mut Criterion) {
    bench_engine(c, "mst_scaling/delaunay", MstEngine::Delaunay);
}

fn bench_auto(c: &mut Criterion) {
    bench_engine(c, "mst_scaling/auto", MstEngine::Auto);
}

/// The full build pipeline — Instance (MST) → Theorem-2 orientation →
/// engine-backed verification — at the large-instance sizes.  This is the
/// end-to-end workload the memory audit and the parallel fan-out target:
/// n = 10⁵ in every run, n = 10⁶ under `ANTENNAE_BENCH_FULL=1`.
fn bench_build_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("build_pipeline/solve_verify");
    let mut sizes = vec![100_000usize];
    if full_mode() {
        sizes.push(1_000_000);
    }
    for &n in &sizes {
        let points = uniform_points(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &points, |b, pts| {
            b.iter(|| {
                let instance = Instance::new(black_box(pts.clone())).unwrap();
                let outcome = Solver::on(&instance)
                    .budget(3, theorem2_spread_threshold(3))
                    .run()
                    .unwrap();
                let report = VerificationEngine::new().verify(&instance, &outcome.scheme);
                assert!(report.is_strongly_connected);
                report
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dense_prim,
    bench_delaunay,
    bench_auto,
    bench_build_pipeline
);
criterion_main!(benches);
