//! Oracle tests for the parallel build pipeline.
//!
//! The Theorem-2 Lemma-1 sweep and the verification engine's digraph
//! rebuild fan out over worker threads on large instances.
//! Parallelism must be **invisible**:
//! this suite pins bit-equality — `f64::to_bits`, not tolerances — between
//! 1 worker, 2 workers and the session default (`default_threads()`), for
//! every artifact of the pipeline:
//!
//! * the MST (exact edge list, `lmax`, total weight) — its engines are
//!   serial, so it is compared once, between a one-thread build and the
//!   tree `Instance::new` builds,
//! * the orientation scheme (every antenna's start/spread/radius bits),
//! * the induced digraph (structural equality, same adjacency order),
//! * the verification report (every measurement and violation).
//!
//! The deterministic sweeps cover the stochastic and extremal workload
//! families (duplicates, collinear paths, exact lattices — worst cases for
//! the triangulation and for distance ties) at sizes *above* the
//! parallel activation thresholds, so the chunked code paths genuinely run
//! and must reconcile; the property tests fuzz degenerate small geometry
//! through the full pipeline at several thread counts.  `scripts/verify.sh`
//! runs the property suites under `PROPTEST_CASES=128`.

use antennae::core::algorithms::theorem2::orient_theorem2_with_threads;
use antennae::graph::euclidean::MstEngine;
use antennae::prelude::*;
use antennae_parallel::default_threads;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The thread counts every stage is exercised at: forced-serial, the
/// smallest genuinely parallel count, an oversubscribed count (more workers
/// than the container has cores), and whatever this session defaults to.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 5, default_threads()];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Bit-exact fingerprint of an MST: every edge as `(u, v, weight bits)` in
/// edge order, plus `lmax` and the total weight.
fn mst_bits(mst: &EuclideanMst) -> (Vec<(usize, usize, u64)>, u64, u64) {
    let edges = mst
        .edges()
        .iter()
        .map(|e| (e.u, e.v, e.weight.to_bits()))
        .collect();
    (edges, mst.lmax().to_bits(), mst.total_weight().to_bits())
}

/// Bit-exact fingerprint of a scheme: per sensor, per antenna,
/// `(start bits, spread bits, radius bits)`.
fn scheme_bits(scheme: &OrientationScheme) -> Vec<Vec<(u64, u64, u64)>> {
    scheme
        .assignments
        .iter()
        .map(|a| {
            a.antennas
                .iter()
                .map(|ant| {
                    (
                        ant.start.radians().to_bits(),
                        ant.spread.to_bits(),
                        ant.radius.to_bits(),
                    )
                })
                .collect()
        })
        .collect()
}

/// Bit-exact fingerprint of a verification report (the struct's own
/// `PartialEq` compares floats with `==`, which would let `-0.0 == 0.0`
/// slide; the oracle demands the stronger bit equality).
fn report_bits(r: &VerificationReport) -> (bool, usize, usize, u64, u64, u64, usize, String) {
    (
        r.is_strongly_connected,
        r.scc_count,
        r.edge_count,
        r.max_radius.to_bits(),
        r.max_radius_over_lmax.to_bits(),
        r.max_spread_sum.to_bits(),
        r.max_antenna_count,
        format!("{:?}", r.violations),
    )
}

/// Runs the full build pipeline — MST, Theorem-2 scheme, induced digraph,
/// verification report — at every thread count and asserts each artifact is
/// bit-identical to the single-threaded run.
fn assert_pipeline_thread_invariant(points: &[Point], k: usize, context: &str) {
    let serial_mst = EuclideanMst::build_with_engine_threads(points, MstEngine::Auto, 1).unwrap();
    let instance = Instance::new(points.to_vec()).unwrap();
    assert_eq!(
        mst_bits(&serial_mst),
        mst_bits(instance.mst()),
        "MST mismatch: {context}"
    );
    let serial_scheme = orient_theorem2_with_threads(&instance, k, 1).unwrap();
    let serial_engine = VerificationEngine::new().with_threads(1);
    let serial_graph = serial_engine.induced_digraph(instance.points(), &serial_scheme);
    let serial_report = serial_engine.verify(&instance, &serial_scheme);

    for threads in thread_counts() {
        let scheme = orient_theorem2_with_threads(&instance, k, threads).unwrap();
        assert_eq!(
            scheme_bits(&serial_scheme),
            scheme_bits(&scheme),
            "scheme mismatch: {context} threads={threads}"
        );

        let engine = VerificationEngine::new().with_threads(threads);
        let graph = engine.induced_digraph(instance.points(), &scheme);
        assert_eq!(
            serial_graph, graph,
            "digraph mismatch: {context} threads={threads}"
        );

        let report = engine.verify(&instance, &scheme);
        assert_eq!(
            report_bits(&serial_report),
            report_bits(&report),
            "report mismatch: {context} threads={threads}"
        );
    }
}

/// Uniform random points over a side-length scaled square (the bench
/// harness's workload shape).
fn uniform_points(n: usize, seed: u64) -> Vec<Point> {
    let side = (n as f64).sqrt() * 2.0;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.random_range(0.0..side), rng.random_range(0.0..side)))
        .collect()
}

#[test]
fn pipeline_is_thread_invariant_on_large_uniform_instances() {
    // 9000 points clears every parallel activation threshold in the
    // pipeline (Lemma-1 chunking at 4096, verify fan-out at 1024), so the
    // chunked code paths all genuinely run.
    let points = uniform_points(9000, 7);
    assert_pipeline_thread_invariant(&points, 3, "uniform n=9000");
}

#[test]
fn pipeline_is_thread_invariant_on_duplicate_heavy_instances() {
    // Every location shared by 3 sensors: duplicate points give zero-length
    // edges, coincident sites and constant distance ties.
    let base = uniform_points(1700, 11);
    let mut points = Vec::with_capacity(base.len() * 3);
    for p in &base {
        points.extend([*p, *p, *p]);
    }
    assert_pipeline_thread_invariant(&points, 2, "duplicates n=5100");
}

#[test]
fn pipeline_is_thread_invariant_on_collinear_instances() {
    // A single line of 5000 sensors: no triangle exists, and every sweep
    // and range query sees one row.
    let points: Vec<Point> = (0..5000).map(|i| Point::new(i as f64, 0.0)).collect();
    assert_pipeline_thread_invariant(&points, 1, "collinear n=5000");
}

#[test]
fn pipeline_is_thread_invariant_on_exact_lattices() {
    // A 72x72 integer lattice: exact distance ties everywhere, the
    // worst case for the tie-broken total order on candidate edges.
    let mut points = Vec::with_capacity(72 * 72);
    for i in 0..72 {
        for j in 0..72 {
            points.push(Point::new(i as f64, j as f64));
        }
    }
    assert_pipeline_thread_invariant(&points, 4, "lattice 72x72");
}

#[test]
fn pipeline_is_thread_invariant_on_standard_and_extremal_workloads() {
    // The shared workload families at their catalogue sizes (mostly below
    // the parallel thresholds — these pin that the explicit-thread APIs are
    // exact on the serial fallback path too, for every family).
    let workloads: Vec<PointSetGenerator> = generators::standard_workloads()
        .into_iter()
        .chain(generators::extremal_workloads())
        .collect();
    for generator in &workloads {
        let points = generator.generate(23);
        assert_pipeline_thread_invariant(&points, 3, generator.label().as_str());
    }
}

#[test]
fn solver_output_is_identical_under_env_default_threads() {
    // The public entry points (Instance::new -> Solver) pick up
    // default_threads() internally; their output must equal the explicitly
    // serial pipeline.  n above the Lemma-1 threshold so the default path
    // actually fans out whenever the session default exceeds one worker.
    let points = uniform_points(4608, 3);
    let serial_mst = EuclideanMst::build_with_engine_threads(&points, MstEngine::Auto, 1).unwrap();
    let instance = Instance::new(points).unwrap();
    assert_eq!(
        mst_bits(&serial_mst),
        mst_bits(instance.mst()),
        "Instance::new must build the same MST as the serial engine"
    );
    let outcome = Solver::on(&instance)
        .budget(3, antennae::core::bounds::theorem2_spread_threshold(3))
        .run()
        .unwrap();
    let serial_scheme = orient_theorem2_with_threads(&instance, 3, 1).unwrap();
    assert_eq!(scheme_bits(&outcome.scheme), scheme_bits(&serial_scheme));
    let report = VerificationEngine::new().verify(&instance, &outcome.scheme);
    let serial_report = VerificationEngine::new()
        .with_threads(1)
        .verify(&instance, &serial_scheme);
    assert_eq!(report_bits(&report), report_bits(&serial_report));
}

/// Snap to a coarse half-unit lattice: duplicates, collinear runs and exact
/// ties with high probability.
fn snapped(x: f64, y: f64) -> Point {
    Point::new((x * 2.0).round() / 2.0, (y * 2.0).round() / 2.0)
}

proptest! {
    #[test]
    fn prop_pipeline_thread_invariant_on_degenerate_geometry(
        raw_points in proptest::collection::vec((-8.0..8.0f64, -8.0..8.0f64), 2..100),
        k in 1usize..=5,
    ) {
        let points: Vec<Point> = raw_points.iter().map(|&(x, y)| snapped(x, y)).collect();
        // Forced Delaunay against `Instance::new`'s tree (dense Prim at
        // these sizes), once: the MST build is serial.
        let delaunay =
            EuclideanMst::build_with_engine_threads(&points, MstEngine::Delaunay, 1).unwrap();
        let instance = Instance::new(points.clone()).unwrap();
        prop_assert_eq!(mst_bits(&delaunay), mst_bits(instance.mst()));
        let serial_scheme = orient_theorem2_with_threads(&instance, k, 1).unwrap();
        let serial_report = VerificationEngine::new().with_threads(1)
            .verify(&instance, &serial_scheme);
        for threads in [2usize, 4] {
            let scheme = orient_theorem2_with_threads(&instance, k, threads).unwrap();
            prop_assert_eq!(scheme_bits(&serial_scheme), scheme_bits(&scheme));
            let report = VerificationEngine::new().with_threads(threads)
                .verify(&instance, &scheme);
            prop_assert_eq!(report_bits(&serial_report), report_bits(&report));
        }
    }
}
