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
//! sensor pair — Θ(n²·k) sector checks — which dominated whole experiment
//! runs once the MST side went sub-quadratic.  [`VerificationEngine`] offers
//! a second, output-identical path: a kd-tree over the sensor locations
//! answers one bounded range query per sensor (*which points lie within my
//! longest antenna's range?*), and only those candidates are tested against
//! the actual sectors — O(n log n + Σ candidates) instead of Θ(n²).
//!
//! The two paths are bit-identical by construction (the range query is a
//! superset filter under the same [`EPS`] tolerance the sector test uses,
//! and candidates come back in the same ascending order the dense loop
//! visits), and the oracle property suite in `tests/verification_oracle.rs`
//! pins that equivalence across stochastic, extremal and degenerate point
//! sets.  [`DigraphStrategy::Auto`] picks the dense path below
//! [`KDTREE_VERIFY_CROSSOVER`] sensors, mirroring the MST engine's
//! crossover design.
//!
//! For many verifications of the *same* instance (the Portfolio policy, a
//! batch budget grid), [`VerificationEngine::session`] builds the kd-tree
//! once and reuses it; [`VerificationEngine::verify_batch`] and
//! [`VerificationSession::verify_schemes`] fan independent verifications out
//! over [`antennae_parallel::parallel_map`].

use crate::antenna::AntennaBudget;
use crate::bounds::{radius_over_lmax, SPREAD_EPS};
use crate::instance::Instance;
use crate::scheme::OrientationScheme;
use antennae_geometry::{KdTree, Point, EPS};
use antennae_graph::scc::scc_summary;
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

/// How the verification engine rebuilds the induced digraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DigraphStrategy {
    /// The Θ(n²·k) pairwise reference construction
    /// ([`OrientationScheme::induced_digraph`]) — fastest for small
    /// instances and the oracle the fast path is property-tested against.
    Dense,
    /// Per-sensor kd-tree range queries filtered by exact sector membership
    /// — O(n log n + m)-class, output-identical to [`DigraphStrategy::Dense`].
    KdTree,
    /// [`DigraphStrategy::Dense`] below [`KDTREE_VERIFY_CROSSOVER`] sensors,
    /// [`DigraphStrategy::KdTree`] at or above it.
    #[default]
    Auto,
}

/// Instance size at which [`DigraphStrategy::Auto`] switches from the dense
/// pairwise construction to kd-tree range queries.
///
/// The `verification` bench measures the kd path already ahead at n = 16
/// (6.7 µs vs 11.3 µs on container hardware) and 7×/114× ahead at
/// n = 100/4000 for solver-produced schemes, whose sector radii are Θ(lmax)
/// and keep candidate lists short.  The dense path is kept below this
/// threshold anyway: on instances this small both paths cost single-digit
/// microseconds, the dense oracle allocates nothing, and pathological
/// all-covering schemes (every sector spanning the whole deployment) make
/// the range queries pure overhead.
pub const KDTREE_VERIFY_CROSSOVER: usize = 24;

/// Minimum sensor count before a single digraph rebuild fans its per-sensor
/// range queries out over worker threads (below this, thread-scope setup
/// costs more than the queries).
const PARALLEL_VERIFY_MIN: usize = 1024;

/// Sub-quadratic verification engine: rebuilds induced digraphs through
/// kd-tree range queries (with a dense fallback for small instances) and
/// fans batches of independent verifications out over worker threads.
///
/// The engine is cheap to construct (two words of configuration); the
/// expensive state — the kd-tree over one instance's sensors — lives in the
/// [`VerificationSession`] returned by [`VerificationEngine::session`], so
/// callers verifying many schemes against one instance build it exactly
/// once.
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
/// // One session: the spatial index is built once, then every candidate
/// // scheme of the portfolio is verified against it.
/// let session = VerificationEngine::new().session(&instance);
/// for candidate in &outcome.candidates {
///     let scheme = candidate.scheme.as_ref().expect("portfolio keeps schemes");
///     assert!(session.verify(scheme).is_strongly_connected);
/// }
/// # Ok::<(), antennae_core::error::OrientError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct VerificationEngine {
    strategy: DigraphStrategy,
    threads: usize,
}

impl Default for VerificationEngine {
    fn default() -> Self {
        VerificationEngine::new()
    }
}

impl VerificationEngine {
    /// An engine with [`DigraphStrategy::Auto`] and the default thread
    /// count.
    pub fn new() -> Self {
        VerificationEngine {
            strategy: DigraphStrategy::Auto,
            threads: default_threads(),
        }
    }

    /// Pins the digraph construction strategy (the oracle tests pin
    /// [`DigraphStrategy::Dense`] and [`DigraphStrategy::KdTree`] to compare
    /// them).
    pub fn with_strategy(mut self, strategy: DigraphStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the worker-thread count used by the batch entry points and by
    /// large single rebuilds (`1` forces fully sequential verification).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured strategy.
    pub fn strategy(&self) -> DigraphStrategy {
        self.strategy
    }

    /// Returns `true` when the engine takes the kd-tree path for an
    /// `n`-sensor rebuild under its configured strategy.
    pub fn uses_kdtree(&self, n: usize) -> bool {
        match self.strategy {
            DigraphStrategy::Dense => false,
            DigraphStrategy::KdTree => true,
            DigraphStrategy::Auto => n >= KDTREE_VERIFY_CROSSOVER,
        }
    }

    /// Builds the digraph induced by `scheme` over `points` under the
    /// engine's strategy.
    ///
    /// Output-identical to [`OrientationScheme::induced_digraph`] (same
    /// edges, same adjacency order) regardless of strategy.
    pub fn induced_digraph(&self, points: &[Point], scheme: &OrientationScheme) -> DiGraph {
        if self.uses_kdtree(points.len()) {
            self.kd_induced_digraph(points, scheme, &KdTree::build(points))
        } else {
            scheme.induced_digraph(points)
        }
    }

    /// Verifies `scheme` against `instance` (connectivity and measurements
    /// only).
    pub fn verify(&self, instance: &Instance, scheme: &OrientationScheme) -> VerificationReport {
        self.verify_with_budget(instance, scheme, None)
    }

    /// Verifies `scheme` against `instance`, additionally checking `budget`
    /// when `Some`.
    pub fn verify_with_budget(
        &self,
        instance: &Instance,
        scheme: &OrientationScheme,
        budget: Option<AntennaBudget>,
    ) -> VerificationReport {
        let digraph = self.induced_digraph(instance.points(), scheme);
        report_from_digraph(instance, scheme, budget, &digraph)
    }

    /// Starts an incremental session over `instance`: the kd-tree is built
    /// at most once (and not at all when the strategy resolves to the dense
    /// path) and shared by every verification issued through the session.
    ///
    /// This is the Portfolio / budget-grid case: all candidate schemes of
    /// one instance share the same point set, so the spatial index is
    /// instance state, not scheme state.
    pub fn session<'a>(&self, instance: &'a Instance) -> VerificationSession<'a> {
        let tree = self
            .uses_kdtree(instance.len())
            .then(|| KdTree::build(instance.points()));
        VerificationSession {
            instance,
            tree,
            engine: *self,
        }
    }

    /// Verifies many independent `(instance, scheme)` pairs concurrently
    /// over [`antennae_parallel::parallel_map`], preserving input order.
    ///
    /// Each pair is verified under `budget` (when `Some`).  Pairs are
    /// independent, so the per-pair digraph rebuild runs sequentially inside
    /// its worker — the fan-out happens across pairs.
    pub fn verify_batch(
        &self,
        pairs: &[(&Instance, &OrientationScheme)],
        budget: Option<AntennaBudget>,
    ) -> Vec<VerificationReport> {
        let sequential = self.with_threads(1);
        parallel_map(pairs, self.threads, |(instance, scheme)| {
            sequential.verify_with_budget(instance, scheme, budget)
        })
    }

    /// The kd-tree induced-digraph construction: one bounded range query per
    /// sensor (radius = that sensor's longest antenna range, widened by the
    /// sector test's own [`EPS`] tolerance so the candidate set is a
    /// superset), then the exact per-antenna sector test the dense path
    /// applies.  Candidates arrive sorted ascending, so the assembled
    /// adjacency lists match the dense construction's visit order exactly.
    ///
    /// Both paths write the CSR arrays directly — per-sensor candidate lists
    /// become rows of one flat target vector, handed to
    /// [`DiGraph::from_csr`] without any intermediate nested adjacency.  The
    /// parallel path chunks the sensor range over
    /// [`antennae_parallel::chunk_ranges`], each chunk emitting a local
    /// `(row sizes, targets)` pair with one reused candidate buffer, and the
    /// chunks are spliced in order; each row's contents are computed by the
    /// same query-and-filter whatever the chunking, so every thread count
    /// assembles the identical digraph.
    fn kd_induced_digraph(
        &self,
        points: &[Point],
        scheme: &OrientationScheme,
        tree: &KdTree,
    ) -> DiGraph {
        let n = points.len().min(scheme.len());
        // One chunk's rows: the number of targets per sensor in the range,
        // plus the flat ascending target list.
        let scan_range = |start: usize, end: usize| -> (Vec<u32>, Vec<u32>) {
            let mut row_sizes = Vec::with_capacity(end - start);
            let mut targets: Vec<u32> = Vec::new();
            let mut buf = Vec::new();
            for u in start..end {
                let assignment = scheme.assignment(u);
                let apex = &points[u];
                tree.within_radius_into(apex, assignment.max_radius() + EPS, &mut buf);
                let before = targets.len();
                for &v in &buf {
                    if v != u && assignment.covers(apex, &points[v]) {
                        targets.push(v as u32);
                    }
                }
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

/// An incremental verification session: one instance, one kd-tree, many
/// schemes.  Created by [`VerificationEngine::session`].
///
/// Sessions are `Sync` (the kd-tree is immutable after construction), so a
/// shared session can serve concurrent verifications — this is what
/// [`VerificationSession::verify_schemes`] and the batch pipeline's verified
/// entry points do.
#[derive(Debug, Clone)]
pub struct VerificationSession<'a> {
    instance: &'a Instance,
    tree: Option<KdTree>,
    engine: VerificationEngine,
}

impl VerificationSession<'_> {
    /// The instance this session verifies against.
    pub fn instance(&self) -> &Instance {
        self.instance
    }

    /// Builds the digraph induced by `scheme`, reusing the session's
    /// kd-tree.
    pub fn induced_digraph(&self, scheme: &OrientationScheme) -> DiGraph {
        match &self.tree {
            Some(tree) => self
                .engine
                .kd_induced_digraph(self.instance.points(), scheme, tree),
            None => scheme.induced_digraph(self.instance.points()),
        }
    }

    /// Verifies `scheme` (connectivity and measurements only).
    pub fn verify(&self, scheme: &OrientationScheme) -> VerificationReport {
        self.verify_with_budget(scheme, None)
    }

    /// Verifies `scheme`, additionally checking `budget` when `Some`.
    pub fn verify_with_budget(
        &self,
        scheme: &OrientationScheme,
        budget: Option<AntennaBudget>,
    ) -> VerificationReport {
        let digraph = self.induced_digraph(scheme);
        report_from_digraph(self.instance, scheme, budget, &digraph)
    }

    /// Verifies many schemes against the session's instance concurrently
    /// (one kd-tree, [`antennae_parallel::parallel_map`] across schemes),
    /// preserving input order.
    pub fn verify_schemes(
        &self,
        schemes: &[&OrientationScheme],
        budget: Option<AntennaBudget>,
    ) -> Vec<VerificationReport> {
        // Each scheme rebuilds its digraph sequentially inside its worker
        // (the fan-out is across schemes), borrowing the session's tree —
        // the index is never copied, no matter how many calls or schemes.
        let sequential = self.engine.with_threads(1);
        parallel_map(schemes, self.engine.threads, |scheme| {
            let digraph = match &self.tree {
                Some(tree) => sequential.kd_induced_digraph(self.instance.points(), scheme, tree),
                None => scheme.induced_digraph(self.instance.points()),
            };
            report_from_digraph(self.instance, scheme, budget, &digraph)
        })
    }
}

/// Assembles a [`VerificationReport`] from an already-built induced digraph
/// — the shared back half of every verification path (including the
/// incrementally maintained digraph in [`crate::dynamic`]).
pub(crate) fn report_from_digraph(
    instance: &Instance,
    scheme: &OrientationScheme,
    budget: Option<AntennaBudget>,
    digraph: &DiGraph,
) -> VerificationReport {
    let mut violations = Vec::new();
    if scheme.len() != instance.len() {
        violations.push(Violation::MissingAssignments {
            expected: instance.len(),
            actual: scheme.len(),
        });
    }
    if let Some(budget) = budget {
        for (i, assignment) in scheme.assignments.iter().enumerate() {
            if assignment.antenna_count() > budget.k {
                violations.push(Violation::TooManyAntennas {
                    sensor: i,
                    used: assignment.antenna_count(),
                    allowed: budget.k,
                });
            }
            if assignment.total_spread() > budget.phi + SPREAD_EPS {
                violations.push(Violation::SpreadExceeded {
                    sensor: i,
                    used: assignment.total_spread(),
                    allowed: budget.phi,
                });
            }
        }
    }

    // One masked-kernel Tarjan pass yields both the component count and the
    // largest size (this used to be two full decompositions).
    let summary = scc_summary(digraph);
    let components = summary.count;
    let largest = summary.largest;
    let strongly_connected = instance.len() <= 1 || components == 1;
    if !strongly_connected {
        violations.push(Violation::NotStronglyConnected {
            components,
            largest_component: largest,
        });
    }

    let max_radius = scheme.max_radius();
    VerificationReport {
        is_strongly_connected: strongly_connected,
        scc_count: components,
        edge_count: digraph.edge_count(),
        max_radius,
        max_radius_over_lmax: radius_over_lmax(max_radius, instance.lmax()),
        max_spread_sum: scheme.max_spread_sum(),
        max_antenna_count: scheme.max_antenna_count(),
        violations,
    }
}

/// Verifies `scheme` against `instance` without any budget constraints
/// (connectivity and measurements only).
///
/// Routes through a default [`VerificationEngine`]
/// ([`DigraphStrategy::Auto`]); pin a strategy or reuse a spatial index via
/// the engine API directly.
pub fn verify(instance: &Instance, scheme: &OrientationScheme) -> VerificationReport {
    verify_with_budget(instance, scheme, None)
}

/// Verifies `scheme` against `instance`, additionally checking the given
/// per-sensor budget when `budget` is `Some`.
///
/// Routes through a default [`VerificationEngine`]
/// ([`DigraphStrategy::Auto`]).
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

    #[test]
    fn coincident_points_ratio_is_consistent_across_paths() {
        // Two coincident sensors: lmax = 0.  A positive radius must report
        // an infinite normalized radius from BOTH digraph paths, a zero
        // radius must report 0.
        let instance = Instance::new(vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)]).unwrap();
        assert_eq!(instance.lmax(), 0.0);
        let positive = OrientationScheme::new(vec![
            SensorAssignment::new(vec![Antenna::new(antennae_geometry::Angle::ZERO, 0.0, 0.5)]),
            SensorAssignment::new(vec![Antenna::new(antennae_geometry::Angle::ZERO, 0.0, 0.5)]),
        ]);
        let zero = OrientationScheme::empty(2);
        for strategy in [DigraphStrategy::Dense, DigraphStrategy::KdTree] {
            let engine = VerificationEngine::new().with_strategy(strategy);
            let report = engine.verify(&instance, &positive);
            assert_eq!(report.max_radius_over_lmax, f64::INFINITY, "{strategy:?}");
            // Coincident points cover each other (the apex rule), so the
            // pair is strongly connected.
            assert!(report.is_strongly_connected, "{strategy:?}");
            let report = engine.verify(&instance, &zero);
            assert_eq!(report.max_radius_over_lmax, 0.0, "{strategy:?}");
        }
    }

    #[test]
    fn strategies_agree_on_small_schemes() {
        let instance = line_instance();
        let schemes = [
            valid_cycle_scheme(&instance),
            OrientationScheme::empty(instance.len()),
            OrientationScheme::empty(1),
        ];
        for scheme in &schemes {
            let dense = VerificationEngine::new()
                .with_strategy(DigraphStrategy::Dense)
                .verify(&instance, scheme);
            let fast = VerificationEngine::new()
                .with_strategy(DigraphStrategy::KdTree)
                .verify(&instance, scheme);
            assert_eq!(dense, fast);
            let dense_g = VerificationEngine::new()
                .with_strategy(DigraphStrategy::Dense)
                .induced_digraph(instance.points(), scheme);
            let fast_g = VerificationEngine::new()
                .with_strategy(DigraphStrategy::KdTree)
                .induced_digraph(instance.points(), scheme);
            assert_eq!(dense_g, fast_g);
        }
    }

    #[test]
    fn auto_strategy_resolves_by_size() {
        let engine = VerificationEngine::new();
        assert!(!engine.uses_kdtree(KDTREE_VERIFY_CROSSOVER - 1));
        assert!(engine.uses_kdtree(KDTREE_VERIFY_CROSSOVER));
        assert!(!engine
            .with_strategy(DigraphStrategy::Dense)
            .uses_kdtree(1_000_000));
        assert!(engine.with_strategy(DigraphStrategy::KdTree).uses_kdtree(2));
        assert_eq!(engine.strategy(), DigraphStrategy::Auto);
    }

    #[test]
    fn session_reuses_one_tree_across_schemes() {
        let instance = line_instance();
        let cycle = valid_cycle_scheme(&instance);
        let empty = OrientationScheme::empty(instance.len());
        let session = VerificationEngine::new()
            .with_strategy(DigraphStrategy::KdTree)
            .session(&instance);
        assert_eq!(session.instance().len(), 3);
        assert!(session.verify(&cycle).is_strongly_connected);
        assert!(!session.verify(&empty).is_strongly_connected);
        let reports = session.verify_schemes(&[&cycle, &empty], None);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0], session.verify(&cycle));
        assert_eq!(reports[1], session.verify(&empty));
        // Dense-resolved sessions build no tree and still agree.
        let dense_session = VerificationEngine::new()
            .with_strategy(DigraphStrategy::Dense)
            .session(&instance);
        assert_eq!(dense_session.verify(&cycle), session.verify(&cycle));
    }

    #[test]
    fn verify_batch_preserves_order_and_matches_single_calls() {
        let a = line_instance();
        let b = Instance::new(vec![Point::new(0.0, 0.0), Point::new(0.5, 0.5)]).unwrap();
        let scheme_a = valid_cycle_scheme(&a);
        let scheme_b = OrientationScheme::empty(b.len());
        let engine = VerificationEngine::new();
        let pairs: Vec<(&Instance, &OrientationScheme)> =
            vec![(&a, &scheme_a), (&b, &scheme_b), (&a, &scheme_a)];
        let reports = engine.verify_batch(&pairs, None);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0], engine.verify(&a, &scheme_a));
        assert_eq!(reports[1], engine.verify(&b, &scheme_b));
        assert_eq!(reports[0], reports[2]);
        assert!(reports[0].is_strongly_connected);
        assert!(!reports[1].is_strongly_connected);
    }
}
