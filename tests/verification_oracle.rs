//! Oracle property tests for the verification engine.
//!
//! The dense pairwise induced-digraph construction
//! (`OrientationScheme::induced_digraph`, with the report assembled from it
//! by `report_from_digraph`) is the reference; the kd-tree
//! `VerificationEngine` must reproduce it **bit-for-bit**: the same
//! `DiGraph` (same edges in the same adjacency order) and the same
//! `VerificationReport` (every measurement and every `Violation`), across
//! solver-produced schemes, adversarial random schemes, and degenerate point
//! sets (duplicates, collinear paths, exact lattices).
//!
//! The deterministic sweep covers `standard_workloads() ∪
//! extremal_workloads()` for every `k ∈ 1..=5` under the Table 1 φ regimes;
//! the property tests fuzz random geometry and random (often invalid)
//! schemes.  `scripts/verify.sh` runs this suite under a pinned
//! `PROPTEST_CASES` budget so CI stays fast but deterministic.

use antennae::core::antenna::{Antenna, AntennaBudget, SensorAssignment};
use antennae::core::bounds::theorem2_spread_threshold;
use antennae::core::verify::report_from_digraph;
use antennae::graph::DiGraph;
use antennae::prelude::*;
use antennae::sim::generators::{extremal_workloads, standard_workloads};
use proptest::prelude::*;
use std::f64::consts::PI;

/// The dense pairwise reference: the induced digraph and its report.
fn reference(
    instance: &Instance,
    scheme: &OrientationScheme,
    budget: Option<AntennaBudget>,
) -> (DiGraph, VerificationReport) {
    let digraph = scheme.induced_digraph(instance.points());
    let report = report_from_digraph(instance, scheme, budget, &digraph);
    (digraph, report)
}

/// Asserts the engine is bit-identical to the reference on
/// `(instance, scheme)`, both as raw digraphs and as full verification
/// reports.
fn assert_paths_identical(
    instance: &Instance,
    scheme: &OrientationScheme,
    budget: Option<AntennaBudget>,
    context: &str,
) {
    let (dense_graph, dense_report) = reference(instance, scheme, budget);
    let engine = VerificationEngine::new();
    let fast_graph = engine.induced_digraph(instance.points(), scheme);
    assert_eq!(dense_graph, fast_graph, "digraph mismatch: {context}");

    let fast_report = engine.verify_with_budget(instance, scheme, budget);
    assert_eq!(dense_report, fast_report, "report mismatch: {context}");
}

/// The Table 1 φ regimes exercised for each `k`: every threshold at which a
/// different construction takes over, plus the beams-only floor.
fn phi_regimes(k: usize) -> Vec<f64> {
    let mut regimes = vec![0.0];
    match k {
        1 => regimes.extend([PI, 8.0 * PI / 5.0]),
        2 => regimes.extend([2.0 * PI / 3.0, PI]),
        _ => {}
    }
    regimes.push(theorem2_spread_threshold(k));
    regimes
}

#[test]
fn oracle_solver_schemes_across_workloads_and_table1_regimes() {
    let workloads: Vec<PointSetGenerator> = standard_workloads()
        .into_iter()
        .chain(extremal_workloads())
        .collect();
    for generator in &workloads {
        let instance = Instance::new(generator.generate(23)).unwrap();
        for k in 1..=5usize {
            for phi in phi_regimes(k) {
                let budget = AntennaBudget::new(k, phi);
                let scheme = Solver::on(&instance)
                    .with_budget(budget)
                    .run()
                    .expect("Table 1 budgets are always solvable")
                    .scheme;
                assert_paths_identical(
                    &instance,
                    &scheme,
                    Some(budget),
                    &format!("{} k={k} phi={phi:.3}", generator.label()),
                );
            }
        }
    }
}

#[test]
fn oracle_on_duplicate_and_coincident_point_sets() {
    // Heavy duplication: 3 distinct locations shared by 9 sensors, plus the
    // fully coincident instance (lmax = 0).
    let triple = vec![
        Point::new(0.0, 0.0),
        Point::new(0.0, 0.0),
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(0.5, 0.8),
        Point::new(0.5, 0.8),
        Point::new(0.5, 0.8),
    ];
    let coincident = vec![Point::new(2.0, -1.0); 6];
    for (name, points) in [("triple", triple), ("coincident", coincident)] {
        let instance = Instance::new(points.clone()).unwrap();
        // A ring of beams (covers under the apex rule on duplicates), an
        // omnidirectional blanket, and the empty scheme.
        let n = points.len();
        let ring = OrientationScheme::new(
            (0..n)
                .map(|i| {
                    let next = (i + 1) % n;
                    SensorAssignment::new(vec![Antenna::beam(
                        &points[i],
                        &points[next],
                        points[i].distance(&points[next]).max(0.1),
                    )])
                })
                .collect(),
        );
        let blanket = OrientationScheme::new(
            (0..n)
                .map(|_| {
                    SensorAssignment::new(vec![Antenna::new(
                        Angle::ZERO,
                        std::f64::consts::TAU,
                        2.0,
                    )])
                })
                .collect(),
        );
        let empty = OrientationScheme::empty(n);
        for (label, scheme) in [("ring", &ring), ("blanket", &blanket), ("empty", &empty)] {
            assert_paths_identical(
                &instance,
                scheme,
                Some(AntennaBudget::new(1, std::f64::consts::TAU)),
                &format!("{name}/{label}"),
            );
        }
    }
}

#[test]
fn oracle_on_exact_lattice_and_collinear_sets() {
    // Exact integer lattice (ties everywhere) and a collinear path.
    let lattice = PointSetGenerator::Grid { cols: 9, rows: 7 };
    let path = PointSetGenerator::Path { n: 40 };
    for generator in [lattice, path] {
        let instance = Instance::new(generator.generate(0)).unwrap();
        for k in [1usize, 2, 3, 5] {
            let budget = AntennaBudget::new(k, theorem2_spread_threshold(k));
            let scheme = Solver::on(&instance)
                .with_budget(budget)
                .run()
                .unwrap()
                .scheme;
            assert_paths_identical(
                &instance,
                &scheme,
                Some(budget),
                &format!("{} k={k}", generator.label()),
            );
        }
    }
}

#[test]
fn oracle_holds_for_run_verified_and_repeated_verifies() {
    // Every Portfolio candidate report of `run_verified` (concurrent
    // verifications sharing the instance's one index), and every repeated
    // verify of the same instance (the cached index), equals the reference.
    let generator = PointSetGenerator::UniformSquare { n: 150, side: 12.0 };
    let instance = Instance::new(generator.generate(5)).unwrap();
    let budget = AntennaBudget::new(2, PI);
    let verified = Solver::on(&instance)
        .with_budget(budget)
        .policy(SelectionPolicy::Portfolio)
        .run_verified()
        .unwrap();
    assert!(verified.outcome.candidates.len() > 1);
    let engine = VerificationEngine::new();
    for (candidate, report) in verified
        .outcome
        .candidates
        .iter()
        .zip(&verified.candidate_reports)
    {
        let scheme = candidate.scheme.as_ref().unwrap();
        let (_, oracle) = reference(&instance, scheme, Some(budget));
        assert_eq!(*report, oracle);
        for _ in 0..2 {
            assert_eq!(
                engine.verify_with_budget(&instance, scheme, Some(budget)),
                oracle
            );
        }
    }
}

#[test]
fn oracle_parallel_rebuild_matches_sequential_and_dense() {
    // The kd path switches to a parallel_map row assembly at n >= 1024 when
    // the engine has more than one thread; that branch must be oracle-equal
    // too (row order, edge order, report).  n = 1200 with an explicit
    // multi-thread engine forces the parallel branch regardless of the
    // machine's core count; threads = 1 forces the buffer-reusing
    // sequential branch on the identical input.
    let generator = PointSetGenerator::UniformSquare {
        n: 1200,
        side: 35.0,
    };
    let instance = Instance::new(generator.generate(41)).unwrap();
    let budget = AntennaBudget::new(2, PI);
    let scheme = Solver::on(&instance)
        .with_budget(budget)
        .run()
        .unwrap()
        .scheme;

    let parallel = VerificationEngine::new().with_threads(4);
    let sequential = VerificationEngine::new().with_threads(1);
    let par_graph = parallel.induced_digraph(instance.points(), &scheme);
    let seq_graph = sequential.induced_digraph(instance.points(), &scheme);
    assert_eq!(par_graph, seq_graph, "parallel vs sequential kd rebuild");
    let (dense_graph, dense_report) = reference(&instance, &scheme, Some(budget));
    assert_eq!(par_graph, dense_graph, "parallel kd vs dense oracle");

    assert_eq!(
        parallel.verify_with_budget(&instance, &scheme, Some(budget)),
        dense_report,
    );
}

/// A random, frequently-degenerate sensor location: coordinates snap to a
/// coarse 0.5 lattice, so duplicates, collinear runs and exact distance
/// ties all occur with high probability.
fn snapped(x: f64, y: f64) -> Point {
    Point::new((x * 2.0).round() / 2.0, (y * 2.0).round() / 2.0)
}

proptest! {
    #[test]
    fn prop_random_schemes_verify_identically(
        raw_points in proptest::collection::vec((-6.0..6.0f64, -6.0..6.0f64), 1..80),
        raw_antennas in proptest::collection::vec(
            (0.0..std::f64::consts::TAU, 0.0..std::f64::consts::TAU, 0.0..8.0f64, 0usize..4),
            0..80,
        ),
    ) {
        let points: Vec<Point> = raw_points.iter().map(|&(x, y)| snapped(x, y)).collect();
        let instance = Instance::new(points).unwrap();
        // The scheme length is independent of the instance length, so the
        // MissingAssignments path is fuzzed too; `count` antennae per sensor
        // exercises multi-antenna coverage unions.
        let assignments: Vec<SensorAssignment> = raw_antennas
            .iter()
            .map(|&(start, spread, radius, count)| {
                SensorAssignment::new(
                    (0..count)
                        .map(|i| {
                            Antenna::new(
                                Angle::from_radians(start + i as f64),
                                spread / (i + 1) as f64,
                                radius / (i + 1) as f64,
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let scheme = OrientationScheme::new(assignments);
        let budget = AntennaBudget::new(2, PI);

        let (dense_graph, dense_report) = reference(&instance, &scheme, Some(budget));
        let engine = VerificationEngine::new();
        let fast_graph = engine.induced_digraph(instance.points(), &scheme);
        prop_assert_eq!(&dense_graph, &fast_graph);

        let fast_report = engine.verify_with_budget(&instance, &scheme, Some(budget));
        prop_assert_eq!(dense_report, fast_report);
    }

    #[test]
    fn prop_solver_schemes_verify_identically_on_degenerate_geometry(
        raw_points in proptest::collection::vec((-5.0..5.0f64, -5.0..5.0f64), 2..60),
        k in 1usize..=5,
        phi_step in 0usize..4,
    ) {
        let points: Vec<Point> = raw_points.iter().map(|&(x, y)| snapped(x, y)).collect();
        let instance = Instance::new(points).unwrap();
        let phi = theorem2_spread_threshold(k) * phi_step as f64 / 3.0;
        let budget = AntennaBudget::new(k, phi);
        let scheme = Solver::on(&instance).with_budget(budget).run().unwrap().scheme;
        let (_, dense_report) = reference(&instance, &scheme, Some(budget));
        let fast_report = VerificationEngine::new().verify_with_budget(&instance, &scheme, Some(budget));
        prop_assert_eq!(&dense_report, &fast_report);
        // Solver-produced schemes are valid, so the oracle also doubles as
        // an end-to-end correctness check of the constructions themselves.
        prop_assert!(dense_report.is_valid(), "violations: {:?}", dense_report.violations);
    }
}
