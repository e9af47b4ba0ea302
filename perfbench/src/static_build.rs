//! `static_build`: the library's static path, `Instance::new` → `Solver` →
//! `VerificationEngine::verify`, in a closed loop, one solve at a time.

use crate::measure::{median, ms, proc_status_mb, tail_at, timed, Report, Tracer};
use crate::Args;
use antennae_bench::workloads::uniform_points;
use antennae_core::bounds::theorem2_spread_threshold;
use antennae_core::instance::Instance;
use antennae_core::solver::{implemented_radius_guarantee, Solver};
use antennae_core::verify::VerificationEngine;
use antennae_geometry::{KdTree, Point};
use antennae_graph::euclidean::{EuclideanMst, MstEngine};
use antennae_graph::scc::scc_summary;
use std::time::{Duration, Instant};

const K: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Distinct deployments a run cycles through.  Solve time varies several
/// fold between uniform point sets of one size (the parallel Borůvka MST is
/// input-sensitive), so one run solves many sets and reports their median.
const INSTANCES: u64 = 128;

/// Sensors per deployment of the timed loop; the traced run adds the static
/// layer split at `TRACED_SENSORS` (and its growth from half that size).
fn sensors(args: &Args) -> usize {
    if args.smoke {
        400
    } else {
        20_000
    }
}

const TRACED_SENSORS: usize = 200_000;

fn instances(args: &Args) -> Vec<Vec<Point>> {
    let n = sensors(args);
    (0..INSTANCES)
        .map(|j| uniform_points(n, args.seed.wrapping_mul(1 << 20).wrapping_add(j)))
        .collect()
}

/// One solve+verify with its oracle: the report is valid and the radius
/// stays within the Theorem-2 bound.
fn solve_verify(points: &[Point], report: &mut Report) -> Duration {
    let phi = theorem2_spread_threshold(K);
    let bound = implemented_radius_guarantee(K, phi).expect("Theorem 2 covers k = 2");
    let start = Instant::now();
    let verdict = Instance::new(points.to_vec()).and_then(|instance| {
        let outcome = Solver::on(&instance).budget(K, phi).run()?;
        Ok(VerificationEngine::new().verify(&instance, &outcome.scheme))
    });
    let elapsed = start.elapsed();
    report.attempted += 1;
    match verdict {
        Ok(r) if r.is_valid() && r.max_radius_over_lmax <= bound + 1e-9 => {}
        Ok(r) => report.mismatch(format!(
            "static solve: valid={} radius_over_lmax={} bound={bound}",
            r.is_valid(),
            r.max_radius_over_lmax
        )),
        Err(e) => report.mismatch(format!("static solve failed: {e}")),
    }
    elapsed
}

pub fn run(args: &Args, report: &mut Report) {
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| timed(|| instances(args)).1.as_secs_f64())
        .collect();
    report.metric("setup_s", median(&setups), "s");

    if args.trace {
        let n = if args.smoke {
            sensors(args)
        } else {
            TRACED_SENSORS
        };
        traced(&uniform_points(n, args.seed), report);
        return;
    }
    let pool = instances(args);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut solves = Vec::new();
    while solves.len() < 3 || Instant::now() < deadline {
        let points = &pool[solves.len() % pool.len()];
        solves.push(ms(solve_verify(points, report)));
    }
    let n = sensors(args);
    report.metric("op_p50_ms", median(&solves), "ms");
    report.tail_metric("op_tail_ms", &tail_at(&solves, 0.9), "ms");
    report.metric("peak_rss_mb", proc_status_mb("self", "VmHWM:"), "MB");
    report.note(format!("static_build: n={n} k={K} solves={}", solves.len()));
}

/// Median over `reps` timed calls of `f`, in seconds.
fn median_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1.as_secs_f64()).collect();
    median(&times)
}

/// The static layer split on `points`, shared by every workload's traced run
/// (each passes the point set its static path builds over).
pub fn static_layers(points: &[Point], tracer: &mut Tracer, report: &mut Report) {
    let phi = theorem2_spread_threshold(K);
    let reps = if points.len() >= 100_000 { 1 } else { 3 };

    // Stage spans of whole solves: Instance::new (kd + Borůvka + degree
    // repair), Solver::run (Lemma 1), verify (digraph + Tarjan).
    let mut coverage = Vec::new();
    let mut solver_ms = Vec::new();
    let mut solved = None;
    for request in 0..2 {
        let root = tracer.next_index();
        let (stages, total) = tracer.span("static.solve_verify", None, request, |t| {
            let (instance, a) = t.span("core.instance.new", Some(root), request, |_| {
                Instance::new(points.to_vec()).expect("non-empty point set")
            });
            let (outcome, b) = t.span("core.solver.run", Some(root), request, |_| {
                Solver::on(&instance)
                    .budget(K, phi)
                    .run()
                    .expect("Theorem 2 applies")
            });
            let (verdict, c) = t.span("core.verify.verify", Some(root), request, |_| {
                VerificationEngine::new().verify(&instance, &outcome.scheme)
            });
            (a + b + c, b, verdict.is_valid(), instance, outcome)
        });
        report.attempted += 1;
        if !stages.2 {
            report.mismatch("traced static solve produced an invalid report");
        }
        coverage.push(stages.0.as_secs_f64() / total.as_secs_f64());
        solver_ms.push(ms(stages.1));
        solved = Some((stages.3, stages.4));
    }
    let (instance, outcome) = solved.expect("two traced solves ran");

    let kd_s = median_s(reps, || {
        std::hint::black_box(KdTree::build(points));
    });
    let mst_s = median_s(reps, || {
        std::hint::black_box(EuclideanMst::build(points).expect("non-empty"));
    });
    let half = &points[..points.len() / 2];
    let half_s = median_s(reps, || {
        std::hint::black_box(EuclideanMst::build(half).expect("non-empty"));
    });
    let serial_s = median_s(1, || {
        std::hint::black_box(
            EuclideanMst::build_with_engine_threads(points, MstEngine::Auto, 1).expect("non-empty"),
        );
    });

    let engine = VerificationEngine::new();
    let (digraph, digraph_t) = timed(|| engine.induced_digraph(instance.points(), &outcome.scheme));
    let (_, scc_t) = timed(|| std::hint::black_box(scc_summary(&digraph)));

    report.metric("geometry.kdtree.build_ms", kd_s * 1e3, "ms");
    report.metric("graph.euclidean.mst_s", mst_s, "s");
    report.metric("graph.euclidean.boruvka_self_s", mst_s - kd_s, "s");
    report.metric("graph.euclidean.mst_growth", mst_s / half_s, "ratio");
    report.metric(
        "graph.euclidean.parallel_speedup",
        serial_s / mst_s,
        "ratio",
    );
    report.metric("core.solver.run_ms", median(&solver_ms), "ms");
    report.metric("core.verify.digraph_ms", ms(digraph_t), "ms");
    report.metric(
        "core.verify.edges_per_sensor",
        digraph.edge_count() as f64 / points.len() as f64,
        "count",
    );
    report.metric("graph.scc.summary_ms", ms(scc_t), "ms");
    report.metric("static.stage_coverage", median(&coverage), "ratio");
    report.note(format!(
        "static layers over n={} (growth base n={}), {} threads available",
        points.len(),
        half.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
}

fn traced(points: &[Point], report: &mut Report) {
    let mut tracer = Tracer::new();
    static_layers(points, &mut tracer, report);
    crate::write_spans(&tracer, "static_build", report);
}
