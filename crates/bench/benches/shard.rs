//! Spatial-sharding prices: a per-tile dynamic kd forest vs one tile.  The
//! `one_tile` ids are [`ShardSpec::Off`]; the `sharded` ids are
//! [`ShardSpec::Auto`].  Both build their MST with the same global engine
//! (`mst_scaling` times that build), so only the index edits query differs.
//!
//! Two comparisons, both against bit-identical outputs (the shard oracle
//! pins exactness, this bench prices it):
//!
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
use antennae_core::shard::ShardSpec;
use antennae_geometry::Point;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const EDIT_N: usize = 100_000;

fn theorem2_budget() -> AntennaBudget {
    AntennaBudget::new(2, theorem2_spread_threshold(2))
}

/// One `Move` edit per iteration against the bare MST substrate: a
/// mid-deployment sensor oscillates between two nearby positions, so the
/// deployment stays statistically identical across iterations while every
/// edit does real detach + attach work.
fn bench_edit_repair(c: &mut Criterion) {
    let points = uniform_points(EDIT_N, 11);
    let mut group = c.benchmark_group("shard/edit_repair");
    for (label, spec) in [("one_tile", ShardSpec::Off), ("sharded", ShardSpec::Auto)] {
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
    for (label, spec) in [("one_tile", ShardSpec::Off), ("sharded", ShardSpec::Auto)] {
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

criterion_group!(benches, bench_edit_repair, bench_session_edit);
criterion_main!(benches);
