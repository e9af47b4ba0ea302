//! Spatial-sharding prices: per-tile kd/MST forests vs one tile.  The
//! `global` ids are [`ShardSpec::Off`]: the global static build and a
//! one-tile dynamic index.
//!
//! Three comparisons, all against bit-identical outputs (the shard oracle
//! pins exactness, this bench prices it):
//!
//! * `shard/static_build` — building the MST substrate from scratch,
//!   globally vs shard-by-shard with the boundary stitch.
//! * `shard/edit_repair` — one `Move` edit through the MST substrate
//!   ([`DynamicInstance::move_sensor`]) at n = 10⁵.  Both grids run the same
//!   bounded-star attach + lockstep reconnection; the sharded one keeps
//!   index rebuilds and range queries inside ~10³-point tiles.
//! * `shard/session_edit` — the same edit through a full
//!   [`DynamicSolverSession`], including re-orientation, row repair and the
//!   exact strong-connectivity re-check.  The verdict's Tarjan pass is
//!   inherently O(n + m) and shared by both, so it dominates the session
//!   edit — see `ARCHITECTURE.md` ("repair is local, the proof is global").

use antennae_bench::workloads::uniform_points;
use antennae_core::antenna::AntennaBudget;
use antennae_core::bounds::theorem2_spread_threshold;
use antennae_core::dynamic::{DynamicInstance, DynamicSolverSession, Edit};
use antennae_core::instance::Instance;
use antennae_core::shard::{ShardSpec, ShardedInstance};
use antennae_geometry::Point;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const STATIC_N: usize = 20_000;
const EDIT_N: usize = 100_000;

fn theorem2_budget() -> AntennaBudget {
    AntennaBudget::new(2, theorem2_spread_threshold(2))
}

fn bench_static_build(c: &mut Criterion) {
    let points = uniform_points(STATIC_N, 7);
    let mut group = c.benchmark_group("shard/static_build");
    group.bench_function(BenchmarkId::new("global", STATIC_N), |b| {
        b.iter(|| {
            let inst = Instance::new(black_box(points.clone())).expect("non-empty");
            black_box(inst.lmax())
        })
    });
    group.bench_function(BenchmarkId::new("sharded", STATIC_N), |b| {
        b.iter(|| {
            let built =
                ShardedInstance::build(black_box(&points), ShardSpec::Auto).expect("non-empty");
            black_box(built.instance().lmax())
        })
    });
    group.finish();
}

/// One `Move` edit per iteration against the bare MST substrate: a
/// mid-deployment sensor oscillates between two nearby positions, so the
/// deployment stays statistically identical across iterations while every
/// edit does real detach + attach work.
fn bench_edit_repair(c: &mut Criterion) {
    let points = uniform_points(EDIT_N, 11);
    let mut group = c.benchmark_group("shard/edit_repair");
    for (label, spec) in [("global", ShardSpec::Off), ("sharded", ShardSpec::Auto)] {
        let mut inst = DynamicInstance::new_sharded(&points, spec).expect("non-empty");
        let id = EDIT_N / 2;
        let home = inst.point(id).expect("live id");
        let away = Point::new(home.x + 0.4, home.y + 0.3);
        let mut at_home = true;
        group.bench_function(BenchmarkId::new(label, EDIT_N), |b| {
            b.iter(|| {
                let target = if at_home { away } else { home };
                at_home = !at_home;
                inst.move_sensor(id, target).expect("live id");
                black_box(inst.lmax())
            })
        });
    }
    group.finish();
}

/// The same oscillating `Move` through a live solver session: substrate
/// repair plus incremental re-orientation, row repair and the per-edit
/// verification verdict.
fn bench_session_edit(c: &mut Criterion) {
    let points = uniform_points(EDIT_N, 11);
    let mut group = c.benchmark_group("shard/session_edit");
    group.sample_size(20);
    for (label, spec) in [("global", ShardSpec::Off), ("sharded", ShardSpec::Auto)] {
        let inst = DynamicInstance::new_sharded(&points, spec).expect("non-empty");
        let mut session = DynamicSolverSession::new(inst, theorem2_budget()).expect("valid budget");
        let id = EDIT_N / 2;
        let home = session.instance().point(id).expect("live id");
        let away = Point::new(home.x + 0.4, home.y + 0.3);
        let mut at_home = true;
        group.bench_function(BenchmarkId::new(label, EDIT_N), |b| {
            b.iter(|| {
                let target = if at_home { away } else { home };
                at_home = !at_home;
                let outcome = session.apply(Edit::Move(id, target)).expect("live id");
                black_box(outcome.report.is_valid())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_static_build,
    bench_edit_repair,
    bench_session_edit
);
criterion_main!(benches);
