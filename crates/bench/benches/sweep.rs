//! Ablation of the parallel sweep driver: sequential vs. multi-threaded
//! evaluation of a Table-1 style batch of instances.

use antennae_core::antenna::AntennaBudget;
use antennae_core::instance::Instance;
use antennae_core::solver::Solver;
use antennae_core::verify::verify;
use antennae_geometry::PI;
use antennae_parallel::parallel_map;
use antennae_sim::generators::PointSetGenerator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn run_batch(seeds: &[u64], threads: usize) -> f64 {
    let generator = PointSetGenerator::UniformSquare { n: 80, side: 12.0 };
    let results = parallel_map(seeds, threads, |seed| {
        let points = generator.generate(*seed);
        let instance = Instance::new(points).unwrap();
        let scheme = Solver::on(&instance)
            .with_budget(AntennaBudget::new(2, PI))
            .run()
            .unwrap()
            .scheme;
        verify(&instance, &scheme).max_radius_over_lmax
    });
    results.into_iter().fold(0.0, f64::max)
}

fn bench_sweep_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_parallelism");
    group.sample_size(10);
    let seeds: Vec<u64> = (0..16).collect();
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| b.iter(|| run_batch(black_box(&seeds), threads)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_parallelism);
criterion_main!(benches);
