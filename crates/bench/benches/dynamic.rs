//! Dynamic-instance headline: orient+verify after **one edit** through a
//! [`DynamicSolverSession`] vs the full from-scratch pipeline
//! (`Instance::new` → solve → verify) on the same deployment.
//!
//! The dynamic path repairs the MST around the edit, re-orients only the
//! sensors whose tree neighborhood changed (Theorem 2 regime) and recomputes
//! only the digraph rows an edited location can affect; the rebuild path
//! pays the kd-tree build, the full Borůvka run, a full orientation and a
//! from-scratch verification every time.  `BENCH_5.json` records both sides;
//! the acceptance bar is dynamic ≥ 5× ahead at n = 2000.
//!
//! Two groups price the larger sizes:
//!
//! * `dynamic/churn_substrate/{10000,100000}` — a seeded script of `4·√n`
//!   edits (40% moves to a uniform location, 30% inserts, 30% removes of a
//!   uniform live id) through the bare MST substrate
//!   ([`DynamicInstance::insert`], [`DynamicInstance::remove`],
//!   [`DynamicInstance::move_sensor`]), applied to a fresh clone of the
//!   built instance on every iteration.  The script dirties about 5.6√n
//!   index entries against a rebuild limit of `2·√n`, so every iteration
//!   crosses two snapshot rebuilds (at both sizes) while the insert buffer
//!   grows and drains, which an oscillating move never shows.
//! * `dynamic/session_edit/100000` — one oscillating `Move` through a full
//!   session at n = 10⁵, where the verdict's masked Tarjan pass dominates
//!   (ROADMAP item 1).

use antennae_bench::workloads::uniform_points;
use antennae_core::antenna::AntennaBudget;
use antennae_core::bounds::theorem2_spread_threshold;
use antennae_core::dynamic::{DynamicInstance, DynamicSolverSession, Edit, SensorId};
use antennae_core::instance::Instance;
use antennae_core::solver::Solver;
use antennae_core::verify::verify_with_budget;
use antennae_geometry::Point;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const SIZES: &[usize] = &[500, 2000];

fn theorem2_budget() -> AntennaBudget {
    AntennaBudget::new(2, theorem2_spread_threshold(2))
}

fn session_for(n: usize) -> DynamicSolverSession {
    let inst = DynamicInstance::new(&uniform_points(n, 11)).expect("non-empty");
    DynamicSolverSession::new(inst, theorem2_budget()).expect("valid budget")
}

/// Registers one oscillating `Move` per iteration through `session` as
/// `group/n`: a mid-deployment sensor swings between two nearby positions,
/// so the deployment stays statistically identical across iterations while
/// every edit does real MST + digraph repair work.
fn bench_oscillating_edit(
    group: &mut criterion::BenchmarkGroup<'_>,
    mut session: DynamicSolverSession,
    n: usize,
) {
    let id = n / 2;
    let home = session.instance().point(id).expect("live id");
    let away = Point::new(home.x + 0.4, home.y + 0.3);
    let mut at_home = true;
    group.bench_function(BenchmarkId::from_parameter(n), |b| {
        b.iter(|| {
            let target = if at_home { away } else { home };
            at_home = !at_home;
            let outcome = session.apply(Edit::Move(id, target)).expect("live id");
            black_box(outcome.report.is_strongly_connected)
        })
    });
}

fn bench_dynamic_edit(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic/edit_orient_verify");
    for &n in SIZES {
        bench_oscillating_edit(&mut group, session_for(n), n);
    }
    group.finish();
}

fn bench_session_edit(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic/session_edit");
    bench_oscillating_edit(&mut group, session_for(100_000), 100_000);
    group.finish();
}

/// A seeded churn script over the deployment `uniform_points(n, _)`: 40%
/// moves to a uniform location, 30% inserts, 30% removes of a uniform live
/// id, with insert ids projected from `n` upwards.
fn churn_script(n: usize, edits: usize, seed: u64) -> Vec<Edit> {
    let side = (n as f64).sqrt() * 2.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<SensorId> = (0..n).collect();
    let mut next_id = n;
    let mut script = Vec::with_capacity(edits);
    for _ in 0..edits {
        let roll = rng.random_range(0..10);
        let p = Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side));
        script.push(if roll < 4 {
            Edit::Move(live[rng.random_range(0..live.len())], p)
        } else if roll < 7 {
            live.push(next_id);
            next_id += 1;
            Edit::Insert(p)
        } else {
            Edit::Remove(live.swap_remove(rng.random_range(0..live.len())))
        });
    }
    script
}

fn bench_churn_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic/churn_substrate");
    for n in [10_000usize, 100_000] {
        let built = DynamicInstance::new(&uniform_points(n, 11)).expect("non-empty");
        let script = churn_script(n, 4 * n.isqrt(), 12);
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let mut inst = built.clone();
                for &edit in &script {
                    match edit {
                        Edit::Insert(p) => {
                            inst.insert(p);
                        }
                        Edit::Remove(id) => inst.remove(id).expect("live id"),
                        Edit::Move(id, p) => inst.move_sensor(id, p).expect("live id"),
                    }
                }
                black_box(inst.lmax())
            })
        });
    }
    group.finish();
}

/// Insert + remove per iteration (two edits): the arrival/failure churn mix.
fn bench_dynamic_arrival_failure(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic/insert_remove_orient_verify");
    for &n in SIZES {
        let mut session = session_for(n);
        let spot = Point::new(3.7, 4.1);
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let arrived = session.apply(Edit::Insert(spot)).expect("insert");
                let gone = session.apply(Edit::Remove(arrived.id)).expect("live id");
                black_box(gone.report.is_strongly_connected)
            })
        });
    }
    group.finish();
}

/// The baseline the headline compares against: full re-solve + re-verify of
/// the identical deployment from scratch.
fn bench_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic/rebuild_orient_verify");
    for &n in SIZES {
        let points = uniform_points(n, 11);
        let budget = theorem2_budget();
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let instance = Instance::new(black_box(points.clone())).expect("non-empty");
                let outcome = Solver::on(&instance)
                    .with_budget(budget)
                    .run()
                    .expect("valid budget");
                let report = verify_with_budget(&instance, &outcome.scheme, Some(budget));
                black_box(report.is_strongly_connected)
            })
        });
    }
    group.finish();
}

/// The fallback regime: a zero-spread chains budget re-solves in full per
/// edit, but still reuses the incrementally maintained MST substrate and
/// spatial index — the cached-substrate win in isolation.
fn bench_dynamic_fullsolve_edit(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic/edit_fullsolve");
    for &n in SIZES {
        let inst = DynamicInstance::new(&uniform_points(n, 11)).expect("non-empty");
        let mut session =
            DynamicSolverSession::new(inst, AntennaBudget::new(3, 0.0)).expect("valid budget");
        let id = n / 2;
        let home = session.instance().point(id).expect("live id");
        let away = Point::new(home.x + 0.4, home.y + 0.3);
        let mut at_home = true;
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let target = if at_home { away } else { home };
                at_home = !at_home;
                let outcome = session.apply(Edit::Move(id, target)).expect("live id");
                black_box(outcome.report.is_strongly_connected)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dynamic_edit,
    bench_dynamic_arrival_failure,
    bench_rebuild,
    bench_dynamic_fullsolve_edit,
    bench_churn_substrate,
    bench_session_edit
);
criterion_main!(benches);
