//! Layout-stress oracle: a dynamic session must equal the static pipeline
//! on its live set — not statistically close, the same `f64`s — over the
//! workloads that stress the spatial index.
//!
//! Each test builds a [`DynamicSolverSession`] and checks it after
//! construction and after **every** edit of its script:
//!
//! * the bulk build is [`Instance::new`]'s tree, edge for edge with weight
//!   bits (after construction);
//! * the scheme equals a full Theorem 2 orientation of the materialized
//!   instance;
//! * the digraph equals the dense static build;
//! * the report equals a fresh `verify_with_budget`.
//!
//! The inputs are the stochastic and extremal generators, degenerate sets
//! (duplicates, collinear, clustered, coincident), a 5,000-point
//! deployment, long moves across a 40×40 lattice and a property test whose
//! moves are drawn across the whole bounding box.  Every edit goes through
//! the one dynamic kd-tree, including its snapshot rebuilds.
//!
//! Why equality is exact and not approximate: every index query is a pure
//! function of the live point set (ties broken by slot), and all engines
//! reduce to the same perturbed total order on candidate edges (weight, then
//! endpoint ids), so every correct repair returns the same tree, and the
//! orientation, digraph and verdict are functions of that tree and the
//! points.  See `docs/ARCHITECTURE.md` ("Dynamic spatial index").

use antennae::core::algorithms::theorem2::orient_theorem2;
use antennae::core::antenna::AntennaBudget;
use antennae::core::bounds::theorem2_spread_threshold;
use antennae::core::dynamic::{DynamicInstance, DynamicSolverSession, Edit};
use antennae::core::verify::{report_from_digraph, verify_with_budget};
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

/// The session against the static pipeline on its materialized instance:
/// scheme, digraph and report.
fn assert_matches_static(session: &mut DynamicSolverSession, label: &str) {
    let budget = session.budget();
    let scheme = session.scheme().clone();
    let digraph = session.digraph().clone();
    let report = session.report().clone();
    let instance = session.materialized().expect("materialize").clone();
    let full = orient_theorem2(&instance, budget.k).expect("Theorem 2 budget");
    assert_eq!(scheme, full, "scheme vs a full orientation ({label})");
    let dense = scheme.induced_digraph(instance.points());
    assert_eq!(digraph, dense, "digraph vs the dense build ({label})");
    let reference = report_from_digraph(&instance, &scheme, Some(budget), &dense);
    assert_eq!(report, reference, "report vs the dense reference ({label})");
    let fresh = verify_with_budget(&instance, &scheme, Some(budget));
    assert_eq!(report, fresh, "report vs a fresh verify ({label})");
}

/// A session over `points` whose bulk build is [`Instance::new`]'s tree and
/// which matches the static pipeline from the start.
fn checked_session(points: &[Point], label: &str) -> DynamicSolverSession {
    let inst = DynamicInstance::new(points).expect("non-empty deployment");
    let mut session = DynamicSolverSession::new(inst, theorem2_budget()).expect("session");
    let global = Instance::new(points.to_vec()).expect("static build");
    assert_eq!(
        edge_set(session.materialized().expect("materialize")),
        edge_set(&global),
        "bulk build vs Instance::new ({label})"
    );
    assert_matches_static(&mut session, label);
    session
}

/// Applies `script` to a checked session over `points`, comparing with the
/// static pipeline after every edit.
fn assert_script_matches_static(points: &[Point], script: &[Edit]) {
    let label = format!("n={}", points.len());
    let mut session = checked_session(points, &label);
    for &edit in script {
        session.apply(edit).expect("edit");
        assert_matches_static(&mut session, &format!("{label} after {edit:?}"));
    }
}

/// A short script that any deployment of ≥ 2 sensors accepts: a move onto
/// another sensor (a coincident pair), a move onto the box centre, inserts
/// outside the box and on its corner, a removal, and a move of a fresh
/// insert across the whole deployment.
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

#[test]
fn sessions_match_static_pipeline_across_workloads() {
    for generator in standard_workloads().into_iter().chain(extremal_workloads()) {
        let points = generator.generate(0xC0FFEE);
        assert_script_matches_static(&points, &short_script(&points));
    }
}

#[test]
fn session_matches_static_pipeline_at_scale() {
    let points = PointSetGenerator::UniformSquare {
        n: 5000,
        side: 50.0,
    }
    .generate(7);
    assert_script_matches_static(&points, &short_script(&points));
}

#[test]
fn sessions_survive_degenerate_workloads() {
    // Duplicates on an integer grid (tie-heavy), a collinear path, a cluster
    // far from one outlier, and an all-coincident set (degenerate bbox).
    let mut duplicated: Vec<Point> = (0..300)
        .map(|i| Point::new((i % 10) as f64, (i / 10) as f64 % 10.0))
        .collect();
    duplicated.extend((0..100).map(|i| Point::new((i % 10) as f64, (i % 7) as f64)));
    let collinear: Vec<Point> = (0..200).map(|i| Point::new(i as f64, 0.0)).collect();
    let clustered: Vec<Point> = (0..256)
        .map(|i| Point::new(100.0 + (i % 16) as f64 * 0.1, 200.0 + (i / 16) as f64 * 0.1))
        .chain([Point::new(0.0, 0.0)])
        .collect();
    let coincident = vec![Point::new(3.0, 3.0); 12];
    for points in [&duplicated, &collinear, &clustered, &coincident] {
        assert_script_matches_static(points, &short_script(points));
    }
}

#[test]
fn dynamic_edits_match_global_including_boundary_crossings() {
    // A 40×40 perturbed-ish lattice; the scripted moves below hop across
    // the whole deployment and onto integer coordinates.
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
    let far = points.len() - 1;
    let script = [
        // A short wiggle.
        Edit::Move(0, Point::new(0.4, 0.4)),
        // Corner to corner.
        Edit::Move(0, Point::new(39.2, 39.1)),
        // Onto the integer point (10, 10), beside perturbed sensor 410.
        Edit::Move(far, Point::new(10.0, 10.0)),
        // Inserts in the interior and near the bottom edge.
        Edit::Insert(Point::new(20.5, 20.5)),
        Edit::Insert(Point::new(29.999, 0.002)),
        // Remove the moved sensor and a hub's neighbour.
        Edit::Remove(far),
        Edit::Remove(1),
        // Move the fresh insert across the whole deployment.
        Edit::Move(1600, Point::new(0.8, 38.7)),
    ];
    assert_script_matches_static(&points, &script);
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
    /// Random scripts over a 60-sensor session.  Coordinates span the whole
    /// 30×30 box, so most moves are long; inserts land anywhere; removals
    /// hit arbitrary ids.  The static pipeline is compared after every step.
    #[test]
    fn prop_scripts_match_static_pipeline(
        script in proptest::collection::vec(
            (0u8..3, 0u64..1_000_000u64, 0.0..30.0f64, 0.0..30.0f64),
            1..14
        ),
        seed in 0u64..4,
    ) {
        let points = PointSetGenerator::UniformSquare { n: 60, side: 30.0 }.generate(seed);
        let mut session = checked_session(&points, "prop");
        for &(op, pick, x, y) in &script {
            let step = match op {
                0 => Step::Insert(x, y),
                1 => Step::Remove(pick),
                _ => Step::Move(pick, x, y),
            };
            let Some(edit) = to_edit(&session, &step) else { continue };
            session.apply(edit).expect("edit");
            assert_matches_static(&mut session, &format!("prop after {edit:?}"));
        }
    }
}
