//! Independent verification of orientation schemes.
//!
//! The algorithms in [`crate::algorithms`] are constructive and come with
//! proofs, but every experiment in the harness *also* verifies its output
//! through this module: the induced digraph is rebuilt from the sector
//! coverage model and checked for strong connectivity, and the per-sensor
//! budgets (antenna count, spread sum) and the radius are measured
//! explicitly.  This is the safety net that catches implementation bugs and
//! the tool used by the failure-injection tests.
//!
//! # The verification engine
//!
//! Rebuilding the induced digraph is the hot step.  The reference
//! construction ([`OrientationScheme::induced_digraph`]) tests every ordered
//! sensor pair — Θ(n²·k) sector checks.  [`VerificationEngine`] instead asks
//! a kd-tree over the sensor locations one bounded range query per sensor
//! (*which points lie within my longest antenna's range?*) and tests only
//! those candidates against the actual sectors — O(n log n + Σ candidates).
//! The index is instance state ([`Instance::kd_index`]), built once and
//! shared by every scheme verified against the instance.
//!
//! The engine is bit-identical to the reference by construction (the range
//! query is a superset filter under the same [`EPS`] tolerance the sector
//! test uses, and candidates come back in the same ascending order the dense
//! loop visits), and the oracle suite in `tests/verification_oracle.rs` pins
//! that equivalence across stochastic, extremal and degenerate point sets.
//!
//! The dynamic session ([`crate::dynamic::DynamicSolverSession`]) repairs
//! its rows and refreshes its verdict on the same code: the row filter
//! (`append_covered_row`), the per-assignment fold and report constructor
//! (`AssignmentFold`) and the Tarjan kernel of [`antennae_graph::scc`].

use crate::antenna::{AntennaBudget, SensorAssignment};
use crate::bounds::{radius_over_lmax, SPREAD_EPS};
use crate::instance::Instance;
use crate::scheme::OrientationScheme;
use antennae_geometry::{KdIndex, Point, EPS};
use antennae_graph::scc::{scc_summary, SccSummary};
use antennae_graph::DiGraph;
use antennae_parallel::{chunk_ranges, default_threads, parallel_map};
use serde::{Deserialize, Serialize};

/// A violation detected while verifying a scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// The scheme does not assign antennae to every sensor.
    MissingAssignments {
        /// Number of sensors in the instance.
        expected: usize,
        /// Number of assignments in the scheme.
        actual: usize,
    },
    /// A sensor uses more antennae than the budget allows.
    TooManyAntennas {
        /// Sensor index.
        sensor: usize,
        /// Number of antennae used.
        used: usize,
        /// Budgeted number.
        allowed: usize,
    },
    /// A sensor's spread sum exceeds the budget.
    SpreadExceeded {
        /// Sensor index.
        sensor: usize,
        /// Spread sum used (radians).
        used: f64,
        /// Budgeted spread (radians).
        allowed: f64,
    },
    /// The induced digraph is not strongly connected.
    NotStronglyConnected {
        /// Number of strongly connected components found.
        components: usize,
        /// Size of the largest component.
        largest_component: usize,
    },
}

/// The result of verifying a scheme against an instance (and optionally a
/// budget).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// Whether the induced digraph is strongly connected.
    pub is_strongly_connected: bool,
    /// Number of strongly connected components of the induced digraph.
    pub scc_count: usize,
    /// Number of directed edges induced by the scheme.
    pub edge_count: usize,
    /// Largest antenna radius used in the scheme (absolute units).
    pub max_radius: f64,
    /// Largest antenna radius divided by `lmax` (the paper's normalization);
    /// `f64::INFINITY` when `lmax` is zero and a positive radius is used —
    /// see [`crate::bounds::radius_over_lmax`] for the exact degenerate-case
    /// contract shared with the solver.
    pub max_radius_over_lmax: f64,
    /// Largest per-sensor spread sum (radians).
    pub max_spread_sum: f64,
    /// Largest per-sensor antenna count.
    pub max_antenna_count: usize,
    /// All violations found (empty when the scheme is valid).
    pub violations: Vec<Violation>,
}

impl VerificationReport {
    /// Returns `true` when no violations were found.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Minimum sensor count before a single digraph rebuild fans its per-sensor
/// range queries out over worker threads (below this, thread-scope setup
/// costs more than the queries).
const PARALLEL_VERIFY_MIN: usize = 1024;

/// Sub-quadratic verification engine: rebuilds induced digraphs through
/// kd-tree range queries, fanning large rebuilds out over worker threads.
///
/// The engine is one word of configuration (the thread count); the
/// expensive state — the kd-tree over one instance's sensors — is cached on
/// the [`Instance`] itself ([`Instance::kd_index`]), so verifying many
/// schemes against one instance builds it exactly once.
///
/// # Examples
///
/// ```
/// use antennae_core::instance::Instance;
/// use antennae_core::solver::{SelectionPolicy, Solver};
/// use antennae_core::verify::VerificationEngine;
/// use antennae_geometry::Point;
///
/// let instance = Instance::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.2),
///     Point::new(0.4, 0.9),
///     Point::new(1.3, 1.1),
/// ])?;
/// let outcome = Solver::on(&instance)
///     .budget(2, std::f64::consts::PI)
///     .policy(SelectionPolicy::Portfolio)
///     .run()?;
///
/// // The spatial index is built on the first verify and reused by every
/// // later one against the same instance.
/// let engine = VerificationEngine::new();
/// for candidate in &outcome.candidates {
///     let scheme = candidate.scheme.as_ref().expect("portfolio keeps schemes");
///     assert!(engine.verify(&instance, scheme).is_strongly_connected);
/// }
/// # Ok::<(), antennae_core::error::OrientError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct VerificationEngine {
    threads: usize,
}

impl Default for VerificationEngine {
    fn default() -> Self {
        VerificationEngine::new()
    }
}

impl VerificationEngine {
    /// An engine with the default thread count.
    pub fn new() -> Self {
        VerificationEngine {
            threads: default_threads(),
        }
    }

    /// Sets the worker-thread count used by large rebuilds (`1` forces fully
    /// sequential verification).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builds the digraph induced by `scheme` over `points`, through a
    /// kd-tree index built over `points` for this call.
    ///
    /// Output-identical to [`OrientationScheme::induced_digraph`] (same
    /// edges, same adjacency order).
    pub fn induced_digraph(&self, points: &[Point], scheme: &OrientationScheme) -> DiGraph {
        self.digraph_over(points, &KdIndex::build(points), scheme)
    }

    /// Verifies `scheme` against `instance` (connectivity and measurements
    /// only).
    pub fn verify(&self, instance: &Instance, scheme: &OrientationScheme) -> VerificationReport {
        self.verify_with_budget(instance, scheme, None)
    }

    /// Verifies `scheme` against `instance`, additionally checking `budget`
    /// when `Some`.  The range queries run on the instance's cached index.
    pub fn verify_with_budget(
        &self,
        instance: &Instance,
        scheme: &OrientationScheme,
        budget: Option<AntennaBudget>,
    ) -> VerificationReport {
        let digraph = self.digraph_over(instance.points(), instance.kd_index(), scheme);
        report_from_digraph(instance, scheme, budget, &digraph)
    }

    /// The induced-digraph construction: one [`append_covered_row`] per
    /// sensor against `index` (built over `points`).  Candidates arrive
    /// sorted ascending, so the assembled adjacency lists match the dense
    /// construction's visit order exactly.
    ///
    /// Rows are written straight into CSR arrays handed to
    /// [`DiGraph::from_csr`].  The parallel path chunks the sensor range
    /// over [`antennae_parallel::chunk_ranges`], each chunk emitting a local
    /// `(row sizes, targets)` pair with one reused candidate buffer, and the
    /// chunks are spliced in order; each row's contents are computed by the
    /// same query-and-filter whatever the chunking, so every thread count
    /// assembles the identical digraph.
    fn digraph_over(
        &self,
        points: &[Point],
        index: &KdIndex,
        scheme: &OrientationScheme,
    ) -> DiGraph {
        let n = points.len().min(scheme.len());
        // One chunk's rows: the number of targets per sensor in the range,
        // plus the flat ascending target list.
        let scan_range = |start: usize, end: usize| -> (Vec<u32>, Vec<u32>) {
            let mut row_sizes = Vec::with_capacity(end - start);
            let mut targets: Vec<u32> = Vec::new();
            let mut candidates = Vec::new();
            for u in start..end {
                let apex = &points[u];
                let before = targets.len();
                append_covered_row(
                    u,
                    apex,
                    scheme.assignment(u),
                    |radius, out| index.within_radius_into(points, apex, radius, out),
                    |v| points[v],
                    &mut candidates,
                    &mut targets,
                );
                row_sizes.push((targets.len() - before) as u32);
            }
            (row_sizes, targets)
        };
        let chunks: Vec<(Vec<u32>, Vec<u32>)> = if self.threads > 1 && n >= PARALLEL_VERIFY_MIN {
            let ranges = chunk_ranges(n, self.threads);
            parallel_map(&ranges, self.threads, |&(start, end)| {
                scan_range(start, end)
            })
        } else {
            vec![scan_range(0, n)]
        };
        let total: usize = chunks.iter().map(|(_, t)| t.len()).sum();
        let mut offsets: Vec<u32> = Vec::with_capacity(points.len() + 1);
        offsets.push(0);
        let mut targets: Vec<u32> = Vec::with_capacity(total);
        for (row_sizes, chunk_targets) in chunks {
            for size in row_sizes {
                offsets.push(offsets.last().expect("offsets is never empty") + size);
            }
            targets.extend(chunk_targets);
        }
        // Sensors beyond the scheme's assignment list (n..points.len()) have
        // empty rows, exactly as the dense construction produces.
        offsets.resize(points.len() + 1, *offsets.last().expect("non-empty"));
        DiGraph::from_csr(points.len(), offsets, targets)
    }
}

/// The row filter of every digraph the engine and the dynamic session
/// build: appends to `row`, in ascending order, every sensor `v ≠ u` that
/// `assignment` covers from `apex`.
///
/// `query(radius, candidates)` must fill `candidates`, ascending, with every
/// sensor whose location lies within `radius` of `apex` (a range query on a
/// spatial index); it is asked for the longest antenna range widened by the
/// sector test's own [`EPS`], so the candidates are a superset of the
/// covered sensors.  `point(v)` is sensor `v`'s location.
pub(crate) fn append_covered_row(
    u: usize,
    apex: &Point,
    assignment: &SensorAssignment,
    query: impl FnOnce(f64, &mut Vec<usize>),
    point: impl Fn(usize) -> Point,
    candidates: &mut Vec<usize>,
    row: &mut Vec<u32>,
) {
    query(assignment.max_radius() + EPS, candidates);
    row.extend(
        candidates
            .iter()
            .filter(|&&v| v != u && assignment.covers(apex, &point(v)))
            .map(|&v| v as u32),
    );
}

/// One pass over a scheme's assignments in dense order: the budget
/// violations (with dense sensor indices) and the scheme maxima, folded the
/// way [`OrientationScheme::max_radius`] and its siblings fold them.
///
/// [`report_from_digraph`] and the dynamic session's verdict both run this
/// fold and end in [`AssignmentFold::into_report`].
#[derive(Debug, Default)]
pub(crate) struct AssignmentFold {
    violations: Vec<Violation>,
    max_radius: f64,
    max_spread_sum: f64,
    max_antenna_count: usize,
}

impl AssignmentFold {
    /// Folds in the assignment of dense sensor `sensor`, checking it against
    /// `budget` when `Some`.
    pub(crate) fn push(
        &mut self,
        sensor: usize,
        assignment: &SensorAssignment,
        budget: Option<AntennaBudget>,
    ) {
        if let Some(budget) = budget {
            if assignment.antenna_count() > budget.k {
                self.violations.push(Violation::TooManyAntennas {
                    sensor,
                    used: assignment.antenna_count(),
                    allowed: budget.k,
                });
            }
            if assignment.total_spread() > budget.phi + SPREAD_EPS {
                self.violations.push(Violation::SpreadExceeded {
                    sensor,
                    used: assignment.total_spread(),
                    allowed: budget.phi,
                });
            }
        }
        self.max_radius = f64::max(self.max_radius, assignment.max_radius());
        self.max_spread_sum = f64::max(self.max_spread_sum, assignment.total_spread());
        self.max_antenna_count = self.max_antenna_count.max(assignment.antenna_count());
    }

    /// The report over `sensors` sensors whose MST has longest edge `lmax`,
    /// whose digraph has `edge_count` edges and the components `summary`
    /// counts.  With nothing folded in and zero sensors this is the empty
    /// deployment's report: strongly connected, no components, no
    /// violations.
    pub(crate) fn into_report(
        self,
        sensors: usize,
        lmax: f64,
        edge_count: usize,
        summary: SccSummary,
    ) -> VerificationReport {
        let mut violations = self.violations;
        let strongly_connected = summary.is_strongly_connected(sensors);
        if !strongly_connected {
            violations.push(Violation::NotStronglyConnected {
                components: summary.count,
                largest_component: summary.largest,
            });
        }
        VerificationReport {
            is_strongly_connected: strongly_connected,
            scc_count: summary.count,
            edge_count,
            max_radius: self.max_radius,
            max_radius_over_lmax: radius_over_lmax(self.max_radius, lmax),
            max_spread_sum: self.max_spread_sum,
            max_antenna_count: self.max_antenna_count,
            violations,
        }
    }
}

/// Assembles the [`VerificationReport`] of `scheme` on `instance` from its
/// already-built induced `digraph` — the back half of every verification,
/// and the way tests build the reference report from the dense
/// [`OrientationScheme::induced_digraph`].
pub fn report_from_digraph(
    instance: &Instance,
    scheme: &OrientationScheme,
    budget: Option<AntennaBudget>,
    digraph: &DiGraph,
) -> VerificationReport {
    let mut fold = AssignmentFold::default();
    if scheme.len() != instance.len() {
        fold.violations.push(Violation::MissingAssignments {
            expected: instance.len(),
            actual: scheme.len(),
        });
    }
    for (sensor, assignment) in scheme.assignments.iter().enumerate() {
        fold.push(sensor, assignment, budget);
    }
    fold.into_report(
        instance.len(),
        instance.lmax(),
        digraph.edge_count(),
        scc_summary(digraph),
    )
}

/// Verifies `scheme` against `instance` without any budget constraints
/// (connectivity and measurements only), through a default
/// [`VerificationEngine`].
pub fn verify(instance: &Instance, scheme: &OrientationScheme) -> VerificationReport {
    verify_with_budget(instance, scheme, None)
}

/// Verifies `scheme` against `instance`, additionally checking the given
/// per-sensor budget when `budget` is `Some`, through a default
/// [`VerificationEngine`].
pub fn verify_with_budget(
    instance: &Instance,
    scheme: &OrientationScheme,
    budget: Option<AntennaBudget>,
) -> VerificationReport {
    VerificationEngine::new().verify_with_budget(instance, scheme, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antenna::{Antenna, SensorAssignment};
    use antennae_geometry::Point;

    fn line_instance() -> Instance {
        Instance::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ])
        .unwrap()
    }

    fn valid_cycle_scheme(instance: &Instance) -> OrientationScheme {
        let pts = instance.points();
        let n = pts.len();
        let assignments = (0..n)
            .map(|i| {
                let next = (i + 1) % n;
                SensorAssignment::new(vec![Antenna::beam(
                    &pts[i],
                    &pts[next],
                    pts[i].distance(&pts[next]),
                )])
            })
            .collect();
        OrientationScheme::new(assignments)
    }

    #[test]
    fn valid_scheme_passes_verification() {
        let instance = line_instance();
        let scheme = valid_cycle_scheme(&instance);
        let report = verify(&instance, &scheme);
        assert!(report.is_valid());
        assert!(report.is_strongly_connected);
        assert_eq!(report.scc_count, 1);
        assert!((report.max_radius - 2.0).abs() < 1e-12);
        assert!((report.max_radius_over_lmax - 2.0).abs() < 1e-12);
        assert_eq!(report.max_antenna_count, 1);
    }

    #[test]
    fn broken_scheme_is_rejected() {
        // Failure injection: an empty scheme cannot be strongly connected.
        let instance = line_instance();
        let scheme = OrientationScheme::empty(instance.len());
        let report = verify(&instance, &scheme);
        assert!(!report.is_valid());
        assert!(!report.is_strongly_connected);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NotStronglyConnected { .. })));
    }

    #[test]
    fn one_way_scheme_is_rejected() {
        // Failure injection: every sensor beams only to the right; the last
        // sensor cannot reach back.
        let instance = line_instance();
        let pts = instance.points();
        let assignments = (0..pts.len())
            .map(|i| {
                if i + 1 < pts.len() {
                    SensorAssignment::new(vec![Antenna::beam(&pts[i], &pts[i + 1], 1.0)])
                } else {
                    SensorAssignment::empty()
                }
            })
            .collect();
        let scheme = OrientationScheme::new(assignments);
        let report = verify(&instance, &scheme);
        assert!(!report.is_strongly_connected);
        assert!(report.scc_count > 1);
    }

    #[test]
    fn budget_violations_are_reported() {
        let instance = line_instance();
        let scheme = valid_cycle_scheme(&instance);
        // The cycle scheme uses 1 antenna of spread 0 per sensor; a budget of
        // zero antennae must flag every sensor.
        let report = verify_with_budget(&instance, &scheme, Some(AntennaBudget::new(0, 0.0)));
        let count = report
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::TooManyAntennas { .. }))
            .count();
        assert_eq!(count, 3);

        // A generous budget produces no budget violations.
        let report = verify_with_budget(&instance, &scheme, Some(AntennaBudget::new(1, 0.0)));
        assert!(report.is_valid());
    }

    #[test]
    fn spread_violations_are_reported() {
        let instance = line_instance();
        let pts = instance.points();
        let wide = SensorAssignment::new(vec![Antenna::new(
            antennae_geometry::Angle::ZERO,
            antennae_geometry::PI,
            5.0,
        )]);
        let assignments = vec![wide.clone(), wide.clone(), wide];
        let scheme = OrientationScheme::new(assignments);
        let report = verify_with_budget(&instance, &scheme, Some(AntennaBudget::new(1, 1.0)));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SpreadExceeded { .. })));
        // The wide antennas do connect everything though.
        assert!(report.is_strongly_connected);
        let _ = pts;
    }

    #[test]
    fn missing_assignments_are_reported() {
        let instance = line_instance();
        let scheme = OrientationScheme::empty(1);
        let report = verify(&instance, &scheme);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            Violation::MissingAssignments {
                expected: 3,
                actual: 1
            }
        )));
    }

    #[test]
    fn single_sensor_is_trivially_connected() {
        let instance = Instance::new(vec![Point::new(0.0, 0.0)]).unwrap();
        let scheme = OrientationScheme::empty(1);
        let report = verify(&instance, &scheme);
        assert!(report.is_strongly_connected);
        assert!(report.is_valid());
        assert_eq!(report.max_radius_over_lmax, 0.0);
    }

    /// The dense pairwise reference: digraph and report.
    fn reference(
        instance: &Instance,
        scheme: &OrientationScheme,
        budget: Option<AntennaBudget>,
    ) -> (DiGraph, VerificationReport) {
        let digraph = scheme.induced_digraph(instance.points());
        let report = report_from_digraph(instance, scheme, budget, &digraph);
        (digraph, report)
    }

    #[test]
    fn coincident_points_ratio_is_consistent_with_the_reference() {
        // Two coincident sensors: lmax = 0.  A positive radius must report
        // an infinite normalized radius, a zero radius must report 0, on
        // the engine and on the reference alike.
        let instance = Instance::new(vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)]).unwrap();
        assert_eq!(instance.lmax(), 0.0);
        let positive = OrientationScheme::new(vec![
            SensorAssignment::new(vec![Antenna::new(antennae_geometry::Angle::ZERO, 0.0, 0.5)]),
            SensorAssignment::new(vec![Antenna::new(antennae_geometry::Angle::ZERO, 0.0, 0.5)]),
        ]);
        let zero = OrientationScheme::empty(2);
        let report = verify(&instance, &positive);
        assert_eq!(report.max_radius_over_lmax, f64::INFINITY);
        // Coincident points cover each other (the apex rule), so the pair is
        // strongly connected.
        assert!(report.is_strongly_connected);
        assert_eq!(report, reference(&instance, &positive, None).1);
        let report = verify(&instance, &zero);
        assert_eq!(report.max_radius_over_lmax, 0.0);
        assert_eq!(report, reference(&instance, &zero, None).1);
    }

    #[test]
    fn engine_matches_the_reference_on_small_schemes() {
        let instance = line_instance();
        let schemes = [
            valid_cycle_scheme(&instance),
            OrientationScheme::empty(instance.len()),
            OrientationScheme::empty(1),
        ];
        let engine = VerificationEngine::new();
        for scheme in &schemes {
            let (digraph, report) = reference(&instance, scheme, None);
            assert_eq!(engine.verify(&instance, scheme), report);
            assert_eq!(engine.induced_digraph(instance.points(), scheme), digraph);
        }
    }

    #[test]
    fn repeated_verifies_share_the_instance_index() {
        let instance = line_instance();
        let cycle = valid_cycle_scheme(&instance);
        let empty = OrientationScheme::empty(instance.len());
        let first = verify(&instance, &cycle);
        let index = instance.kd_index() as *const KdIndex;
        assert!(first.is_strongly_connected);
        assert!(!verify(&instance, &empty).is_strongly_connected);
        assert_eq!(verify(&instance, &cycle), first);
        assert_eq!(instance.kd_index() as *const KdIndex, index);
    }
}
