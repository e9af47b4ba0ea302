//! The shard oracle: a sharded deployment must be **bit-exact** to an
//! unsharded one — not statistically close, the same `f64`s.
//!
//! Sharding partitions only the dynamic spatial index the edits query (a
//! per-tile kd forest); every bulk MST build is the one global engine.  So
//! the oracle runs a [`DynamicInstance::new_sharded`] session against a
//! [`ShardSpec::Off`] session — the one-tile index running the same
//! bounded-star insert and removal repair — over the same edit script, and
//! compares them after construction and after **every** edit: live ids,
//! `lmax` and MST weight bits, changed sets, scheme, digraph and report.
//! The inputs are the stochastic and extremal generators, degenerate sets
//! (duplicates, collinear, clustered, coincident), scripted moves that
//! cross tile boundaries and drain/regrow sequences, and a property test
//! whose moves are drawn across the whole bounding box, so boundary
//! crossings are the common case, not the exception.
//!
//! Why equality is exact and not approximate: every index query is a pure
//! function of the live point set (ties broken by slot), and all engines
//! reduce to the same perturbed total order on candidate edges (weight, then
//! endpoint slots), so the MST is *unique* under that order and every
//! correct repair — whatever tile decomposition served its queries — must
//! return it.  See `docs/ARCHITECTURE.md` ("Spatial sharding").

use antennae::core::antenna::AntennaBudget;
use antennae::core::bounds::theorem2_spread_threshold;
use antennae::core::dynamic::{DynamicInstance, DynamicSolverSession, Edit};
use antennae::core::shard::ShardSpec;
use antennae::geometry::Aabb;
use antennae::prelude::*;
use antennae::sim::generators::{extremal_workloads, standard_workloads};
use proptest::prelude::*;

fn theorem2_budget() -> AntennaBudget {
    AntennaBudget::new(2, theorem2_spread_threshold(2))
}

/// MST edges as comparable triples: (min endpoint, max endpoint, weight bits).
fn edge_set(instance: &Instance) -> Vec<(usize, usize, u64)> {
    let mut edges: Vec<(usize, usize, u64)> = instance
        .mst()
        .edges()
        .into_iter()
        .map(|e| (e.u.min(e.v), e.u.max(e.v), e.weight.to_bits()))
        .collect();
    edges.sort_unstable();
    edges
}

/// Session-level bit-equality after an edit (the dynamic bar).
fn assert_sessions_agree(sharded: &mut DynamicSolverSession, global: &mut DynamicSolverSession) {
    assert_eq!(
        sharded.instance().ids(),
        global.instance().ids(),
        "live ids"
    );
    assert_eq!(
        sharded.instance().lmax().to_bits(),
        global.instance().lmax().to_bits(),
        "lmax bits"
    );
    assert_eq!(
        sharded.instance().mst_total_weight().to_bits(),
        global.instance().mst_total_weight().to_bits(),
        "MST weight bits"
    );
    assert_eq!(
        sharded.instance().changed_ids(),
        global.instance().changed_ids(),
        "changed sets"
    );
    assert_eq!(sharded.scheme(), global.scheme(), "scheme");
    assert_eq!(sharded.digraph(), global.digraph(), "digraph");
    assert_eq!(sharded.report(), global.report(), "report");
}

/// A short script that any deployment of ≥ 2 sensors accepts: a move onto
/// another sensor (a coincident pair), a move onto the box centre (a tile
/// corner of every even grid), inserts outside the box (clamped into an edge
/// tile) and on its corner, a removal, and a move of a fresh insert across
/// the whole deployment.
fn short_script(points: &[Point]) -> Vec<Edit> {
    let n = points.len();
    let bbox = Aabb::from_points(points).expect("non-empty deployment");
    let (lo, hi) = (bbox.min, bbox.max);
    let centre = Point::new((lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0);
    vec![
        Edit::Move(0, points[n - 1]),
        Edit::Move(n / 2, centre),
        Edit::Insert(Point::new(hi.x + 1.0, hi.y + 0.5)),
        Edit::Insert(lo),
        Edit::Remove(n - 1),
        Edit::Move(n, Point::new(lo.x, hi.y)),
    ]
}

/// The sharded-vs-one-tile bar over one deployment: the sharded session's
/// bulk build is the global static build (edge set and weight bits of
/// [`Instance::new`]), and both sessions agree after construction and after
/// every edit of [`short_script`].
fn assert_sharded_session_matches_one_tile(points: &[Point], spec: ShardSpec) {
    let label = format!("spec={spec} n={}", points.len());
    let budget = theorem2_budget();
    let mut sharded = DynamicSolverSession::new(
        DynamicInstance::new_sharded(points, spec).expect("sharded"),
        budget,
    )
    .expect("session");
    let mut one_tile = DynamicSolverSession::new(
        DynamicInstance::new_sharded(points, ShardSpec::Off).expect("one tile"),
        budget,
    )
    .expect("session");
    let global = Instance::new(points.to_vec()).expect("global");
    assert_eq!(
        edge_set(sharded.materialized().expect("materialize")),
        edge_set(&global),
        "bulk build vs the global engine ({label})"
    );
    assert_sessions_agree(&mut sharded, &mut one_tile);
    for edit in short_script(points) {
        let a = sharded.apply(edit).expect("sharded edit");
        let b = one_tile.apply(edit).expect("one-tile edit");
        assert_eq!(a.mst_changed, b.mst_changed, "{edit:?} ({label})");
        assert_sessions_agree(&mut sharded, &mut one_tile);
    }
}

#[test]
fn sharded_sessions_match_one_tile_across_workloads() {
    for generator in standard_workloads().into_iter().chain(extremal_workloads()) {
        let points = generator.generate(0xC0FFEE);
        for spec in [ShardSpec::Grid(2), ShardSpec::Grid(3), ShardSpec::Grid(5)] {
            assert!(
                spec.resolve(&points).is_some(),
                "{} must shard under {spec}",
                generator.label()
            );
            assert_sharded_session_matches_one_tile(&points, spec);
        }
    }
}

#[test]
fn auto_sharded_session_matches_one_tile_at_scale() {
    // Auto only engages at AUTO_SHARD_MIN_POINTS; build one workload above it.
    let points = PointSetGenerator::UniformSquare {
        n: 5000,
        side: 50.0,
    }
    .generate(7);
    let inst = DynamicInstance::new_sharded(&points, ShardSpec::Auto).expect("sharded");
    assert!(
        inst.shard_grid().is_some(),
        "auto must shard 5000 uniform points"
    );
    assert_sharded_session_matches_one_tile(&points, ShardSpec::Auto);
}

#[test]
fn sharded_sessions_survive_degenerate_workloads() {
    // Duplicates on an integer grid (tie-heavy), a collinear path, a cluster
    // leaving most tiles empty, and an all-coincident set (degenerate bbox).
    let mut duplicated: Vec<Point> = (0..300)
        .map(|i| Point::new((i % 10) as f64, (i / 10) as f64 % 10.0))
        .collect();
    duplicated.extend((0..100).map(|i| Point::new((i % 10) as f64, (i % 7) as f64)));
    let collinear: Vec<Point> = (0..200).map(|i| Point::new(i as f64, 0.0)).collect();
    let clustered: Vec<Point> = (0..256)
        .map(|i| Point::new(100.0 + (i % 16) as f64 * 0.1, 200.0 + (i / 16) as f64 * 0.1))
        .chain([Point::new(0.0, 0.0)])
        .collect();
    for points in [&duplicated, &collinear, &clustered] {
        for spec in [ShardSpec::Grid(2), ShardSpec::Grid(4)] {
            assert!(spec.resolve(points).is_some());
            assert_sharded_session_matches_one_tile(points, spec);
        }
    }
    // Coincident points cannot resolve a grid; the index keeps one tile.
    let coincident = vec![Point::new(3.0, 3.0); 12];
    let inst = DynamicInstance::new_sharded(&coincident, ShardSpec::Grid(4)).expect("one tile");
    assert!(
        inst.shard_grid().is_none(),
        "degenerate bbox keeps one tile"
    );
    assert_sharded_session_matches_one_tile(&coincident, ShardSpec::Grid(4));
}

#[test]
fn dynamic_edits_match_global_including_boundary_crossings() {
    // A 40×40 perturbed-ish lattice sharded 4×4: tile side 10, so the
    // scripted moves below hop across one or more tile boundaries.
    let n_side = 40usize;
    let points: Vec<Point> = (0..n_side * n_side)
        .map(|i| {
            let (x, y) = ((i % n_side) as f64, (i / n_side) as f64);
            Point::new(
                x + 0.01 * ((i * 7) % 13) as f64,
                y + 0.01 * ((i * 5) % 11) as f64,
            )
        })
        .collect();
    let spec = ShardSpec::Grid(4);
    assert!(
        spec.resolve(&points).is_some(),
        "the lattice must actually shard"
    );
    let budget = theorem2_budget();
    let mut sharded = DynamicSolverSession::new(
        DynamicInstance::new_sharded(&points, spec).expect("sharded"),
        budget,
    )
    .expect("session");
    let mut global = DynamicSolverSession::new(
        DynamicInstance::new_sharded(&points, ShardSpec::Off).expect("global"),
        budget,
    )
    .expect("session");
    assert_sessions_agree(&mut sharded, &mut global);

    let far = points.len() - 1;
    let script = [
        // In-tile wiggle.
        Edit::Move(0, Point::new(0.4, 0.4)),
        // Corner-to-corner: crosses every tile boundary on both axes.
        Edit::Move(0, Point::new(39.2, 39.1)),
        // Sit exactly on a tile boundary (x = 10 is the 4×4 cut line).
        Edit::Move(far, Point::new(10.0, 10.0)),
        // Insert into an interior tile, then into a boundary strip.
        Edit::Insert(Point::new(20.5, 20.5)),
        Edit::Insert(Point::new(29.999, 0.002)),
        // Remove a boundary sensor and a hub's neighbor.
        Edit::Remove(far),
        Edit::Remove(1),
        // Move the fresh insert across the whole deployment.
        Edit::Move(1600, Point::new(0.8, 38.7)),
    ];
    for edit in script {
        let a = sharded.apply(edit).expect("sharded edit");
        let b = global.apply(edit).expect("global edit");
        assert_eq!(a.mst_changed, b.mst_changed, "changed count of {edit:?}");
        assert_sessions_agree(&mut sharded, &mut global);
    }
}

#[derive(Debug, Clone)]
enum Step {
    Insert(f64, f64),
    Remove(u64),
    Move(u64, f64, f64),
}

fn to_edit(session: &DynamicSolverSession, step: &Step) -> Option<Edit> {
    match *step {
        Step::Insert(x, y) => Some(Edit::Insert(Point::new(x, y))),
        Step::Remove(pick) => {
            let ids = session.instance().ids();
            (ids.len() > 1).then(|| Edit::Remove(ids[(pick % ids.len() as u64) as usize]))
        }
        Step::Move(pick, x, y) => {
            let ids = session.instance().ids();
            Some(Edit::Move(
                ids[(pick % ids.len() as u64) as usize],
                Point::new(x, y),
            ))
        }
    }
}

proptest! {
    /// Random scripts over a sharded-vs-global session pair.  Coordinates
    /// span the whole 30×30 box while the 3×3 grid cuts it at 10 and 20, so
    /// most moves cross tiles; inserts land in arbitrary tiles; removals hit
    /// arbitrary ids.  Equality is checked after every step.
    #[test]
    fn prop_sharded_scripts_match_global(
        script in proptest::collection::vec(
            (0u8..3, 0u64..1_000_000u64, 0.0..30.0f64, 0.0..30.0f64),
            1..14
        ),
        seed in 0u64..4,
    ) {
        let points = PointSetGenerator::UniformSquare { n: 60, side: 30.0 }.generate(seed);
        let spec = ShardSpec::Grid(3);
        prop_assume!(spec.resolve(&points).is_some());
        let budget = theorem2_budget();
        let mut sharded = DynamicSolverSession::new(
            DynamicInstance::new_sharded(&points, spec).expect("sharded"),
            budget,
        ).expect("session");
        let mut global = DynamicSolverSession::new(
            DynamicInstance::new_sharded(&points, ShardSpec::Off).expect("global"),
            budget,
        ).expect("session");
        for &(op, pick, x, y) in &script {
            let step = match op {
                0 => Step::Insert(x, y),
                1 => Step::Remove(pick),
                _ => Step::Move(pick, x, y),
            };
            let Some(edit) = to_edit(&global, &step) else { continue };
            let a = sharded.apply(edit).expect("sharded edit");
            let b = global.apply(edit).expect("global edit");
            prop_assert_eq!(a.mst_changed, b.mst_changed);
            assert_sessions_agree(&mut sharded, &mut global);
        }
    }
}
