//! Policy-driven solver API: a registry of orientation algorithms behind one
//! trait, and a builder that selects among them.
//!
//! The paper's contribution is a *family* of constructions — one per Table 1
//! row — and this module is their common front door:
//!
//! * [`Orienter`] — the trait every construction implements: an identifying
//!   [`AlgorithmKind`], an [`applicability`](Orienter::applicability) check
//!   that maps an [`AntennaBudget`] to the [`Guarantee`] the construction
//!   offers under it, and the orientation itself.
//! * [`Registry`] — an ordered collection of orienters as trait objects.
//!   [`Registry::paper`] holds the eight Table 1 constructions; custom
//!   orienters can be [`register`](Registry::register)ed alongside or instead
//!   of them.
//! * [`SelectionPolicy`] — how the solver chooses among applicable
//!   orienters: the best *guaranteed* radius (the classic dispatch), one
//!   [`Specific`](SelectionPolicy::Specific) algorithm, or a
//!   [`Portfolio`](SelectionPolicy::Portfolio) that runs every applicable
//!   construction in parallel and keeps the smallest *measured* radius.
//! * [`Solver`] — the builder entry point tying the pieces together:
//!
//! ```
//! use antennae_core::solver::{SelectionPolicy, Solver};
//! use antennae_core::instance::Instance;
//! use antennae_geometry::Point;
//!
//! let instance = Instance::new(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(1.0, 0.2),
//!     Point::new(0.4, 0.9),
//!     Point::new(1.3, 1.1),
//! ])?;
//! let outcome = Solver::on(&instance)
//!     .budget(2, std::f64::consts::PI)
//!     .policy(SelectionPolicy::Portfolio)
//!     .run()?;
//! assert!(outcome.candidates.len() > 1); // Theorem 3, chains, Hamiltonian…
//! assert!(outcome.measured_radius_over_lmax <= 2.0 * (2.0 * std::f64::consts::PI / 9.0).sin() + 1e-9);
//! # Ok::<(), antennae_core::error::OrientError>(())
//! ```
//!
//! The selection logic lives only here; [`SelectionPolicy::BestGuarantee`]
//! reproduces the retired `dispatch::orient_with_report` free function.

mod orienters;

pub use orienters::{
    ChainsOrienter, HamiltonianOrienter, OneAntennaWideOrienter, Theorem2Orienter, Theorem3Orienter,
};

use crate::algorithms::AlgorithmKind;
use crate::antenna::AntennaBudget;
use crate::error::OrientError;
use crate::instance::Instance;
use crate::scheme::OrientationScheme;
use crate::verify::{VerificationEngine, VerificationReport};
use antennae_parallel::{default_threads, parallel_map};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// What a construction promises for a budget it accepts, in units of `lmax`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Guarantee {
    /// The proven worst-case radius bound, or `None` for a heuristic whose
    /// factor is inherited from prior work rather than re-proved here (the
    /// `k = 1` Hamiltonian baseline — see DESIGN.md).
    pub radius_over_lmax: Option<f64>,
}

impl Guarantee {
    /// A proven worst-case radius bound.
    pub fn proven(radius_over_lmax: f64) -> Self {
        Guarantee {
            radius_over_lmax: Some(radius_over_lmax),
        }
    }

    /// A heuristic with no re-proved radius bound.
    pub fn heuristic() -> Self {
        Guarantee {
            radius_over_lmax: None,
        }
    }

    /// Returns `true` when the guarantee carries a proven radius bound.
    pub fn is_proven(&self) -> bool {
        self.radius_over_lmax.is_some()
    }
}

/// A first-class orientation algorithm: one row (or row family) of Table 1,
/// or a user-supplied construction.
///
/// Implementations must be cheap to consult: `applicability` is called for
/// every budget the solver sees, while `orient` runs only for selected (or
/// portfolio) candidates.  An orienter must produce schemes that respect the
/// budget it declared applicable — at most `budget.k` antennae per sensor
/// with spreads summing to at most `budget.phi` (within
/// [`bounds::SPREAD_EPS`](crate::bounds::SPREAD_EPS)).
pub trait Orienter: Send + Sync {
    /// The identity reported in outcomes and usable with
    /// [`SelectionPolicy::Specific`].
    fn kind(&self) -> AlgorithmKind;

    /// The guarantee this construction offers under `budget`, or `None` when
    /// its preconditions are not met.
    fn applicability(&self, budget: &AntennaBudget) -> Option<Guarantee>;

    /// Runs the construction on `instance` under `budget`.
    fn orient(
        &self,
        instance: &Instance,
        budget: AntennaBudget,
    ) -> Result<OrientationScheme, OrientError>;
}

/// An ordered collection of [`Orienter`]s.
///
/// Order matters: it is the tie-break whenever two orienters offer the same
/// guarantee (or, under [`SelectionPolicy::Portfolio`], the same measured
/// radius).  [`Registry::paper`] lists the Table 1 constructions in the
/// paper's precedence order, which is what makes
/// [`SelectionPolicy::BestGuarantee`] reproduce the legacy dispatcher
/// exactly.
pub struct Registry {
    orienters: Vec<Box<dyn Orienter>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::paper()
    }
}

impl Registry {
    /// An empty registry (populate with [`Registry::register`]).
    pub fn empty() -> Self {
        Registry {
            orienters: Vec::new(),
        }
    }

    /// The full Table 1 set: Theorem 2 (Lemma 1 at every vertex), Theorem 3,
    /// the four zero-spread chain constructions (`k = 2..=5`; Theorems 5 and
    /// 6, the `[14]` row and the folklore `k = 5` scheme), the `[4]`
    /// single-wide-antenna baseline and the `[14]` Hamiltonian-cycle
    /// baseline — eight orienters in the paper's precedence order.
    pub fn paper() -> Self {
        let mut registry = Registry::empty();
        registry.register(Box::new(Theorem2Orienter));
        registry.register(Box::new(Theorem3Orienter));
        for beams in 2..=5 {
            registry.register(Box::new(ChainsOrienter::new(beams)));
        }
        registry.register(Box::new(OneAntennaWideOrienter));
        registry.register(Box::new(HamiltonianOrienter));
        registry
    }

    /// The process-wide shared paper registry (what [`Solver::on`] uses by
    /// default, so repeated solves do not rebuild the trait-object table).
    pub fn shared_paper() -> Arc<Registry> {
        static SHARED: OnceLock<Arc<Registry>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(Registry::paper())))
    }

    /// Appends an orienter (after any already registered).
    pub fn register(&mut self, orienter: Box<dyn Orienter>) -> &mut Self {
        self.orienters.push(orienter);
        self
    }

    /// Number of registered orienters.
    pub fn len(&self) -> usize {
        self.orienters.len()
    }

    /// Returns `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.orienters.is_empty()
    }

    /// The kinds of every registered orienter, in registry order.
    pub fn kinds(&self) -> Vec<AlgorithmKind> {
        self.orienters.iter().map(|o| o.kind()).collect()
    }

    /// The first registered orienter with the given kind, if any.
    pub fn get(&self, kind: AlgorithmKind) -> Option<&dyn Orienter> {
        self.orienters
            .iter()
            .find(|o| o.kind() == kind)
            .map(|o| o.as_ref())
    }

    /// Every orienter whose preconditions accept `budget`, with its
    /// guarantee, in registry order.
    pub fn applicable(&self, budget: &AntennaBudget) -> Vec<(&dyn Orienter, Guarantee)> {
        self.orienters
            .iter()
            .filter_map(|o| o.applicability(budget).map(|g| (o.as_ref(), g)))
            .collect()
    }

    /// The orienter [`SelectionPolicy::BestGuarantee`] selects for `budget`:
    /// the smallest proven guaranteed radius, ties broken by registry order;
    /// when no applicable orienter has a proven guarantee, the first
    /// applicable heuristic.  `None` when nothing applies.
    pub fn best_guarantee(&self, budget: &AntennaBudget) -> Option<(&dyn Orienter, Guarantee)> {
        let mut best: Option<(&dyn Orienter, Guarantee)> = None;
        for (orienter, guarantee) in self.applicable(budget) {
            let better = match (&best, guarantee.radius_over_lmax) {
                (None, _) => true,
                // A proven bound always beats a heuristic; a strictly
                // smaller proven bound beats a larger one (ties keep the
                // earlier registry entry).
                (Some((_, current)), Some(bound)) => match current.radius_over_lmax {
                    Some(current_bound) => bound < current_bound,
                    None => true,
                },
                (Some(_), None) => false,
            };
            if better {
                best = Some((orienter, guarantee));
            }
        }
        best
    }

    /// The best radius bound (in units of `lmax`) any registered algorithm
    /// *proves* for a `(k, φ)` budget — `None` when nothing applies or only
    /// heuristics do.
    ///
    /// On the paper registry this reproduces the Table 1 value for every
    /// implemented row; the `k = 1` intermediate regime (where only the
    /// Hamiltonian heuristic applies) yields `None`.
    pub fn radius_guarantee(&self, k: usize, phi: f64) -> Option<f64> {
        let budget = AntennaBudget::new(k, phi);
        self.best_guarantee(&budget)
            .and_then(|(_, g)| g.radius_over_lmax)
    }
}

/// How the solver chooses among the applicable orienters of its registry.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// Run the single orienter with the best *proven* radius guarantee (ties
    /// broken by registry order; heuristics only when nothing proven
    /// applies).  On [`Registry::paper`] this reproduces the legacy
    /// dispatch decision table exactly.
    #[default]
    BestGuarantee,
    /// Run exactly the named algorithm, failing with
    /// [`OrientError::AlgorithmNotApplicable`] when it is absent from the
    /// registry or rejects the budget.
    Specific(AlgorithmKind),
    /// Run *every* applicable orienter (fanned out over
    /// [`antennae_parallel::parallel_map`]) and keep the scheme
    /// with the smallest *measured* max radius; all candidates are reported
    /// in [`OrientationOutcome::candidates`].
    Portfolio,
}

/// One candidate evaluated by the solver (a single entry under
/// [`SelectionPolicy::BestGuarantee`] / [`SelectionPolicy::Specific`], one
/// per applicable orienter under [`SelectionPolicy::Portfolio`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateOutcome {
    /// The algorithm that produced this candidate.
    pub algorithm: AlgorithmKind,
    /// The radius the algorithm guarantees (units of `lmax`; `None` for
    /// heuristics).
    pub guaranteed_radius_over_lmax: Option<f64>,
    /// The max radius the produced scheme actually uses, in units of `lmax`.
    pub measured_radius_over_lmax: f64,
    /// Whether this candidate's scheme is the one the outcome selected.
    pub selected: bool,
    /// The candidate's orientation scheme.
    ///
    /// Always `Some` under [`SelectionPolicy::Portfolio`] (every candidate's
    /// scheme is kept for inspection and re-verification).  `None` under the
    /// single-candidate policies, where the scheme lives only in
    /// [`OrientationOutcome::scheme`] — the hot dispatch path pays no
    /// duplicate scheme clone.
    pub scheme: Option<OrientationScheme>,
}

/// The outcome of a solved orientation: the selected scheme plus the full
/// candidate table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrientationOutcome {
    /// The selected orientation scheme.
    pub scheme: OrientationScheme,
    /// The algorithm that produced it.
    pub algorithm: AlgorithmKind,
    /// The radius the selected algorithm guarantees, in units of `lmax`.
    ///
    /// `None` for the `k = 1` Hamiltonian heuristic, whose factor-2
    /// guarantee is inherited from prior work rather than re-proved here
    /// (see DESIGN.md).
    pub guaranteed_radius_over_lmax: Option<f64>,
    /// The max radius the selected scheme actually uses, in units of `lmax`
    /// (`0` for single-sensor instances).
    pub measured_radius_over_lmax: f64,
    /// Every candidate the policy evaluated, in registry order, with the
    /// selected one flagged.
    pub candidates: Vec<CandidateOutcome>,
}

/// The measured max radius of `scheme` in units of `instance`'s `lmax` —
/// [`crate::bounds::radius_over_lmax`], the single normalization shared with
/// the verifier (so the solver's measurement and a
/// [`VerificationReport`](crate::verify::VerificationReport)'s
/// `max_radius_over_lmax` are bit-identical, including the coincident-points
/// `lmax == 0` cases).
fn measured_radius_over_lmax(instance: &Instance, scheme: &OrientationScheme) -> f64 {
    crate::bounds::radius_over_lmax(scheme.max_radius(), instance.lmax())
}

/// An [`OrientationOutcome`] bundled with independent verification of every
/// candidate scheme, produced by [`Solver::run_verified`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifiedOutcome {
    /// The solve outcome (selected scheme + candidate table).
    pub outcome: OrientationOutcome,
    /// Verification of the *selected* scheme under the solve's budget.
    pub report: VerificationReport,
    /// Verification of every candidate, aligned index-for-index with
    /// [`OrientationOutcome::candidates`].  Under the single-candidate
    /// policies this is one entry (equal to
    /// [`VerifiedOutcome::report`]); under
    /// [`SelectionPolicy::Portfolio`] every candidate scheme is verified
    /// against the instance's one cached spatial index
    /// ([`Instance::kd_index`]) — built once per solve, not once per
    /// candidate.
    pub candidate_reports: Vec<VerificationReport>,
}

impl VerifiedOutcome {
    /// Returns `true` when the selected scheme passed verification.
    pub fn is_valid(&self) -> bool {
        self.report.is_valid()
    }
}

/// Builder entry point of the solver API.
///
/// Defaults: budget `(k = 1, φ = 0)`, [`SelectionPolicy::BestGuarantee`],
/// the shared [`Registry::paper`] and
/// [`antennae_parallel::default_threads`] workers (threads
/// only matter for [`SelectionPolicy::Portfolio`]).
#[derive(Debug, Clone)]
pub struct Solver<'a> {
    instance: &'a Instance,
    budget: AntennaBudget,
    policy: SelectionPolicy,
    registry: Arc<Registry>,
    threads: usize,
}

impl<'a> Solver<'a> {
    /// Starts a solve on `instance` with the default budget, policy and
    /// registry.
    pub fn on(instance: &'a Instance) -> Self {
        Solver {
            instance,
            budget: AntennaBudget::new(1, 0.0),
            policy: SelectionPolicy::default(),
            registry: Registry::shared_paper(),
            threads: default_threads(),
        }
    }

    /// Sets the per-sensor budget: `k` antennae with spreads summing to at
    /// most `phi` radians.
    pub fn budget(mut self, k: usize, phi: f64) -> Self {
        self.budget = AntennaBudget::new(k, phi);
        self
    }

    /// Sets the per-sensor budget from an existing [`AntennaBudget`].
    pub fn with_budget(mut self, budget: AntennaBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the selection policy.
    pub fn policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the registry (accepts a [`Registry`] or a shared
    /// `Arc<Registry>`).
    pub fn registry(mut self, registry: impl Into<Arc<Registry>>) -> Self {
        self.registry = registry.into();
        self
    }

    /// Sets the worker-thread count used by
    /// [`SelectionPolicy::Portfolio`] (`1` forces a sequential portfolio).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs the solve and independently verifies every produced scheme
    /// through the [`VerificationEngine`].
    ///
    /// Candidates are verified concurrently over the solver's worker
    /// threads, each rebuild sequential inside its worker.  They all query
    /// the instance's cached spatial index ([`Instance::kd_index`]), so it
    /// is built at most once regardless of how many Portfolio candidates
    /// there are.  The budget passed to the verifier is the solve's own
    /// budget: a construction that overspends the budget it declared
    /// applicable is reported, not silently accepted.
    pub fn run_verified(&self) -> Result<VerifiedOutcome, OrientError> {
        let outcome = self.run()?;
        let engine = VerificationEngine::new().with_threads(1);
        let candidate_reports = parallel_map(&outcome.candidates, self.threads, |candidate| {
            let scheme = candidate.scheme.as_ref().unwrap_or(&outcome.scheme);
            engine.verify_with_budget(self.instance, scheme, Some(self.budget))
        });
        let selected = outcome
            .candidates
            .iter()
            .position(|c| c.selected)
            .expect("every outcome flags a selected candidate");
        Ok(VerifiedOutcome {
            report: candidate_reports[selected].clone(),
            candidate_reports,
            outcome,
        })
    }

    /// Runs the solve.
    pub fn run(&self) -> Result<OrientationOutcome, OrientError> {
        match self.policy {
            SelectionPolicy::BestGuarantee => {
                let (orienter, guarantee) = self
                    .registry
                    .best_guarantee(&self.budget)
                    .ok_or_else(|| self.no_candidate_error())?;
                self.run_single(orienter, guarantee)
            }
            SelectionPolicy::Specific(kind) => {
                let not_applicable = || OrientError::AlgorithmNotApplicable {
                    algorithm: kind,
                    k: self.budget.k,
                    phi: self.budget.phi,
                };
                let orienter = self.registry.get(kind).ok_or_else(not_applicable)?;
                let guarantee = orienter
                    .applicability(&self.budget)
                    .ok_or_else(not_applicable)?;
                self.run_single(orienter, guarantee)
            }
            SelectionPolicy::Portfolio => self.run_portfolio(),
        }
    }

    /// Runs one orienter and wraps it as a single-candidate outcome.
    fn run_single(
        &self,
        orienter: &dyn Orienter,
        guarantee: Guarantee,
    ) -> Result<OrientationOutcome, OrientError> {
        let scheme = orienter.orient(self.instance, self.budget)?;
        let measured = measured_radius_over_lmax(self.instance, &scheme);
        Ok(OrientationOutcome {
            algorithm: orienter.kind(),
            guaranteed_radius_over_lmax: guarantee.radius_over_lmax,
            measured_radius_over_lmax: measured,
            candidates: vec![CandidateOutcome {
                algorithm: orienter.kind(),
                guaranteed_radius_over_lmax: guarantee.radius_over_lmax,
                measured_radius_over_lmax: measured,
                selected: true,
                scheme: None, // the selected scheme is `OrientationOutcome::scheme`
            }],
            scheme,
        })
    }

    /// Runs every applicable orienter and keeps the smallest measured max
    /// radius (ties: a proven guarantee beats a heuristic, then registry
    /// order).
    fn run_portfolio(&self) -> Result<OrientationOutcome, OrientError> {
        let applicable = self.registry.applicable(&self.budget);
        if applicable.is_empty() {
            return Err(self.no_candidate_error());
        }
        let runs = parallel_map(&applicable, self.threads, |(orienter, guarantee)| {
            orienter.orient(self.instance, self.budget).map(|scheme| {
                let measured = measured_radius_over_lmax(self.instance, &scheme);
                CandidateOutcome {
                    algorithm: orienter.kind(),
                    guaranteed_radius_over_lmax: guarantee.radius_over_lmax,
                    measured_radius_over_lmax: measured,
                    selected: false,
                    scheme: Some(scheme),
                }
            })
        });

        // Candidates that error are dropped (the paper proves its
        // constructions cannot fail on valid instances, but a custom
        // orienter may); only when *every* candidate fails is the first
        // error surfaced.
        let mut first_error = None;
        let mut candidates: Vec<CandidateOutcome> = Vec::with_capacity(runs.len());
        for run in runs {
            match run {
                Ok(candidate) => candidates.push(candidate),
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        if candidates.is_empty() {
            return Err(first_error.expect("applicable was non-empty"));
        }

        let mut best = 0;
        for (i, candidate) in candidates.iter().enumerate().skip(1) {
            let current = &candidates[best];
            let better = candidate.measured_radius_over_lmax < current.measured_radius_over_lmax
                || (candidate.measured_radius_over_lmax == current.measured_radius_over_lmax
                    && candidate.guaranteed_radius_over_lmax.is_some()
                    && current.guaranteed_radius_over_lmax.is_none());
            if better {
                best = i;
            }
        }
        candidates[best].selected = true;
        let selected = &candidates[best];
        Ok(OrientationOutcome {
            scheme: selected
                .scheme
                .clone()
                .expect("portfolio candidates carry schemes"),
            algorithm: selected.algorithm,
            guaranteed_radius_over_lmax: selected.guaranteed_radius_over_lmax,
            measured_radius_over_lmax: selected.measured_radius_over_lmax,
            candidates,
        })
    }

    /// The error reported when no registered orienter accepts the budget.
    fn no_candidate_error(&self) -> OrientError {
        if (1..=5).contains(&self.budget.k) {
            OrientError::NoApplicableAlgorithm {
                k: self.budget.k,
                phi: self.budget.phi,
            }
        } else {
            OrientError::UnsupportedAntennaCount { k: self.budget.k }
        }
    }
}

/// The best radius bound the *implemented* algorithms prove for a `(k, φ)`
/// budget, derived from the shared paper registry — this is the Table 1
/// value except for the `k = 1` intermediate regime where the `[4]`
/// construction is not re-implemented (see DESIGN.md).
pub fn implemented_radius_guarantee(k: usize, phi: f64) -> Option<f64> {
    Registry::shared_paper().radius_guarantee(k, phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::theorem2_spread_threshold;
    use crate::verify::{verify, verify_with_budget};
    use antennae_geometry::{Point, PI, TAU};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = (0..n)
            .map(|_| Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)))
            .collect();
        Instance::new(points).unwrap()
    }

    #[test]
    fn paper_registry_lists_all_eight_constructions() {
        let registry = Registry::paper();
        assert_eq!(registry.len(), 8);
        let kinds = registry.kinds();
        assert_eq!(kinds[0], AlgorithmKind::Theorem2);
        assert_eq!(kinds[1], AlgorithmKind::Theorem3);
        for (i, beams) in (2..=5).enumerate() {
            assert_eq!(kinds[2 + i], AlgorithmKind::Chains { k: beams });
        }
        assert_eq!(kinds[6], AlgorithmKind::OneAntennaWide);
        assert_eq!(kinds[7], AlgorithmKind::Hamiltonian);
    }

    #[test]
    fn rejects_invalid_k() {
        let instance = random_instance(10, 1);
        assert!(matches!(
            Solver::on(&instance).budget(0, 1.0).run(),
            Err(OrientError::UnsupportedAntennaCount { k: 0 })
        ));
        assert!(matches!(
            Solver::on(&instance).budget(7, 1.0).run(),
            Err(OrientError::UnsupportedAntennaCount { k: 7 })
        ));
        assert!(matches!(
            Solver::on(&instance)
                .budget(9, 1.0)
                .policy(SelectionPolicy::Portfolio)
                .run(),
            Err(OrientError::UnsupportedAntennaCount { k: 9 })
        ));
    }

    #[test]
    fn empty_registry_reports_no_applicable_algorithm() {
        let instance = random_instance(10, 2);
        let result = Solver::on(&instance)
            .budget(3, 1.0)
            .registry(Registry::empty())
            .run();
        assert!(matches!(
            result,
            Err(OrientError::NoApplicableAlgorithm { k: 3, .. })
        ));
    }

    #[test]
    fn best_guarantee_selects_theorem2_when_spread_is_large() {
        let instance = random_instance(40, 2);
        for k in 1..=5 {
            let budget = AntennaBudget::new(k, theorem2_spread_threshold(k));
            let outcome = Solver::on(&instance).with_budget(budget).run().unwrap();
            assert_eq!(outcome.algorithm, AlgorithmKind::Theorem2, "k={k}");
            assert_eq!(outcome.guaranteed_radius_over_lmax, Some(1.0));
            assert_eq!(outcome.candidates.len(), 1);
            assert!(outcome.candidates[0].selected);
            // Single-candidate policies keep the scheme only in the outcome.
            assert!(outcome.candidates[0].scheme.is_none());
            let report = verify_with_budget(&instance, &outcome.scheme, Some(budget));
            assert!(report.is_valid(), "k={k}: {:?}", report.violations);
            assert!(
                (outcome.measured_radius_over_lmax - report.max_radius_over_lmax).abs() < 1e-12
            );
        }
    }

    #[test]
    fn best_guarantee_walks_table1_rows() {
        let instance = random_instance(40, 3);
        let cases: Vec<(usize, f64, AlgorithmKind)> = vec![
            (1, 1.0, AlgorithmKind::Hamiltonian),
            (2, PI, AlgorithmKind::Theorem3),
            (2, 1.0, AlgorithmKind::Chains { k: 2 }),
            (3, 0.0, AlgorithmKind::Chains { k: 3 }),
            (4, 0.0, AlgorithmKind::Chains { k: 4 }),
            (5, 0.0, AlgorithmKind::Theorem2),
        ];
        for (k, phi, expected) in cases {
            let outcome = Solver::on(&instance).budget(k, phi).run().unwrap();
            assert_eq!(outcome.algorithm, expected, "k={k} phi={phi}");
        }
    }

    #[test]
    fn specific_policy_runs_exactly_the_requested_algorithm() {
        let instance = random_instance(30, 4);
        let outcome = Solver::on(&instance)
            .budget(3, 0.0)
            .policy(SelectionPolicy::Specific(AlgorithmKind::Chains { k: 2 }))
            .run()
            .unwrap();
        assert_eq!(outcome.algorithm, AlgorithmKind::Chains { k: 2 });
        assert_eq!(outcome.guaranteed_radius_over_lmax, Some(2.0));

        // Hamiltonian is applicable to every valid budget.
        let outcome = Solver::on(&instance)
            .budget(3, 0.0)
            .policy(SelectionPolicy::Specific(AlgorithmKind::Hamiltonian))
            .run()
            .unwrap();
        assert_eq!(outcome.algorithm, AlgorithmKind::Hamiltonian);
        assert!(verify(&instance, &outcome.scheme).is_strongly_connected);
    }

    #[test]
    fn specific_policy_rejects_inapplicable_budgets() {
        let instance = random_instance(20, 5);
        // Theorem 3 needs k = 2 and φ ≥ 2π/3.
        for (k, phi) in [(2usize, 1.0), (3, PI)] {
            let result = Solver::on(&instance)
                .budget(k, phi)
                .policy(SelectionPolicy::Specific(AlgorithmKind::Theorem3))
                .run();
            assert!(
                matches!(
                    result,
                    Err(OrientError::AlgorithmNotApplicable {
                        algorithm: AlgorithmKind::Theorem3,
                        ..
                    })
                ),
                "k={k} phi={phi}"
            );
        }
    }

    #[test]
    fn portfolio_reports_every_applicable_candidate() {
        let instance = random_instance(40, 6);
        let budget = AntennaBudget::new(3, 0.0);
        let outcome = Solver::on(&instance)
            .with_budget(budget)
            .policy(SelectionPolicy::Portfolio)
            .run()
            .unwrap();
        // Applicable at (3, 0): chains k=2, chains k=3, Hamiltonian.
        let kinds: Vec<AlgorithmKind> = outcome.candidates.iter().map(|c| c.algorithm).collect();
        assert_eq!(
            kinds,
            vec![
                AlgorithmKind::Chains { k: 2 },
                AlgorithmKind::Chains { k: 3 },
                AlgorithmKind::Hamiltonian,
            ]
        );
        assert_eq!(outcome.candidates.iter().filter(|c| c.selected).count(), 1);
        // Every candidate respects the budget it was solved under (all
        // portfolio candidates carry their scheme).
        for candidate in &outcome.candidates {
            let scheme = candidate
                .scheme
                .as_ref()
                .expect("portfolio candidate scheme");
            let report = verify_with_budget(&instance, scheme, Some(budget));
            assert!(
                report.is_valid(),
                "{}: {:?}",
                candidate.algorithm,
                report.violations
            );
        }
        // The selected candidate has the smallest measured radius.
        let min = outcome
            .candidates
            .iter()
            .map(|c| c.measured_radius_over_lmax)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(outcome.measured_radius_over_lmax, min);
    }

    #[test]
    fn portfolio_never_measures_worse_than_best_guarantee() {
        for seed in 0..4 {
            let instance = random_instance(45, 100 + seed);
            for k in 1..=5usize {
                for step in 0..=6 {
                    let budget = AntennaBudget::new(k, TAU * step as f64 / 6.0);
                    let best = Solver::on(&instance).with_budget(budget).run().unwrap();
                    let portfolio = Solver::on(&instance)
                        .with_budget(budget)
                        .policy(SelectionPolicy::Portfolio)
                        .run()
                        .unwrap();
                    assert!(
                        portfolio.measured_radius_over_lmax
                            <= best.measured_radius_over_lmax + 1e-12,
                        "k={k} step={step}: portfolio {} > best {}",
                        portfolio.measured_radius_over_lmax,
                        best.measured_radius_over_lmax
                    );
                }
            }
        }
    }

    #[test]
    fn sequential_and_parallel_portfolios_agree() {
        let instance = random_instance(35, 7);
        let budget = AntennaBudget::new(2, PI);
        let seq = Solver::on(&instance)
            .with_budget(budget)
            .policy(SelectionPolicy::Portfolio)
            .threads(1)
            .run()
            .unwrap();
        let par = Solver::on(&instance)
            .with_budget(budget)
            .policy(SelectionPolicy::Portfolio)
            .threads(4)
            .run()
            .unwrap();
        assert_eq!(seq.algorithm, par.algorithm);
        assert_eq!(seq.measured_radius_over_lmax, par.measured_radius_over_lmax);
        assert_eq!(seq.candidates.len(), par.candidates.len());
    }

    #[test]
    fn custom_orienters_can_be_registered() {
        /// A toy construction: every sensor gets one omnidirectional antenna
        /// of radius equal to the instance diameter.
        struct OmniOrienter;
        impl Orienter for OmniOrienter {
            fn kind(&self) -> AlgorithmKind {
                AlgorithmKind::Hamiltonian // reuse a kind for the test
            }
            fn applicability(&self, budget: &AntennaBudget) -> Option<Guarantee> {
                (budget.phi >= TAU).then(Guarantee::heuristic)
            }
            fn orient(
                &self,
                instance: &Instance,
                _budget: AntennaBudget,
            ) -> Result<OrientationScheme, OrientError> {
                let points = instance.points();
                let diameter = points
                    .iter()
                    .flat_map(|a| points.iter().map(move |b| a.distance(b)))
                    .fold(0.0, f64::max);
                let assignments = points
                    .iter()
                    .map(|_| {
                        crate::antenna::SensorAssignment::new(vec![crate::antenna::Antenna::new(
                            antennae_geometry::Angle::from_radians(0.0),
                            TAU,
                            diameter,
                        )])
                    })
                    .collect();
                Ok(OrientationScheme::new(assignments))
            }
        }

        let instance = random_instance(15, 8);
        let mut registry = Registry::empty();
        registry.register(Box::new(OmniOrienter));
        let outcome = Solver::on(&instance)
            .budget(1, TAU)
            .registry(registry)
            .run()
            .unwrap();
        assert!(verify(&instance, &outcome.scheme).is_strongly_connected);
        assert!(outcome.guaranteed_radius_over_lmax.is_none());
    }

    #[test]
    fn implemented_guarantee_matches_registry_derivation() {
        for k in 0..=6usize {
            for step in 0..=10 {
                let phi = TAU * step as f64 / 10.0;
                assert_eq!(
                    implemented_radius_guarantee(k, phi),
                    Registry::paper().radius_guarantee(k, phi),
                    "k={k} phi={phi}"
                );
            }
        }
        assert_eq!(implemented_radius_guarantee(0, 1.0), None);
        assert_eq!(implemented_radius_guarantee(6, 1.0), None);
        assert_eq!(implemented_radius_guarantee(1, 0.5), None);
        assert_eq!(implemented_radius_guarantee(5, 0.0), Some(1.0));
    }

    #[test]
    fn implemented_guarantee_never_beats_the_paper_bound() {
        for k in 1..=5 {
            for step in 0..=10 {
                let phi = TAU * step as f64 / 10.0;
                let paper = crate::bounds::table1_radius(k, phi).unwrap();
                if let Some(ours) = implemented_radius_guarantee(k, phi) {
                    assert!(
                        ours + 1e-9 >= paper,
                        "k={k} phi={phi}: implemented {ours} < paper {paper}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_verified_checks_selected_and_all_candidates() {
        let instance = random_instance(40, 9);
        // Single-candidate policy: one report, equal to the selected one.
        let verified = Solver::on(&instance).budget(2, PI).run_verified().unwrap();
        assert!(verified.is_valid());
        assert_eq!(verified.candidate_reports.len(), 1);
        assert_eq!(verified.candidate_reports[0], verified.report);
        assert_eq!(
            verified.report,
            verify_with_budget(
                &instance,
                &verified.outcome.scheme,
                Some(AntennaBudget::new(2, PI))
            )
        );

        // Portfolio: one report per candidate, aligned by index, all against
        // the instance's one index.
        let verified = Solver::on(&instance)
            .budget(2, PI)
            .policy(SelectionPolicy::Portfolio)
            .run_verified()
            .unwrap();
        assert!(verified.outcome.candidates.len() > 1);
        assert_eq!(
            verified.candidate_reports.len(),
            verified.outcome.candidates.len()
        );
        for (candidate, report) in verified
            .outcome
            .candidates
            .iter()
            .zip(&verified.candidate_reports)
        {
            assert!(
                report.is_valid(),
                "{}: {:?}",
                candidate.algorithm,
                report.violations
            );
            let scheme = candidate.scheme.as_ref().unwrap();
            assert_eq!(
                *report,
                verify_with_budget(&instance, scheme, Some(AntennaBudget::new(2, PI)))
            );
        }
        let selected = verified
            .outcome
            .candidates
            .iter()
            .position(|c| c.selected)
            .unwrap();
        assert_eq!(verified.report, verified.candidate_reports[selected]);
        assert_eq!(
            verified.report.max_radius_over_lmax,
            verified.outcome.measured_radius_over_lmax
        );
    }

    #[test]
    fn run_verified_flags_a_budget_overspending_orienter() {
        /// A deliberately broken construction: declares itself applicable to
        /// one beam but mounts two.
        struct Overspender;
        impl Orienter for Overspender {
            fn kind(&self) -> AlgorithmKind {
                AlgorithmKind::Hamiltonian
            }
            fn applicability(&self, _budget: &AntennaBudget) -> Option<Guarantee> {
                Some(Guarantee::heuristic())
            }
            fn orient(
                &self,
                instance: &Instance,
                _budget: AntennaBudget,
            ) -> Result<OrientationScheme, OrientError> {
                let points = instance.points();
                let n = points.len();
                let assignments = (0..n)
                    .map(|i| {
                        let next = (i + 1) % n;
                        let prev = (i + n - 1) % n;
                        crate::antenna::SensorAssignment::new(vec![
                            crate::antenna::Antenna::beam(
                                &points[i],
                                &points[next],
                                points[i].distance(&points[next]),
                            ),
                            crate::antenna::Antenna::beam(
                                &points[i],
                                &points[prev],
                                points[i].distance(&points[prev]),
                            ),
                        ])
                    })
                    .collect();
                Ok(OrientationScheme::new(assignments))
            }
        }

        let instance = random_instance(12, 10);
        let mut registry = Registry::empty();
        registry.register(Box::new(Overspender));
        let verified = Solver::on(&instance)
            .budget(1, 0.0)
            .registry(registry)
            .run_verified()
            .unwrap();
        assert!(!verified.is_valid());
        assert!(verified
            .report
            .violations
            .iter()
            .any(|v| matches!(v, crate::verify::Violation::TooManyAntennas { .. })));
    }

    #[test]
    fn single_sensor_instances_measure_zero_radius() {
        let instance = Instance::new(vec![Point::new(0.0, 0.0)]).unwrap();
        let outcome = Solver::on(&instance)
            .budget(2, PI)
            .policy(SelectionPolicy::Portfolio)
            .run()
            .unwrap();
        assert_eq!(outcome.measured_radius_over_lmax, 0.0);
    }
}
