//! Batch orientation pipelines: many `(k, φ_k)` budgets against one point
//! set ([`BatchOrienter`]), or one budget against many instances
//! ([`InstanceBatch`]), sharing MST substrates and a thread pool.
//!
//! [`crate::solver::Solver`] is the single-shot entry point; a caller
//! sweeping a budget grid with it would rebuild the [`Instance`] — and with
//! it the Euclidean MST, the single most expensive step of the whole stack —
//! once per call.  The batch types hoist that cost out of the loop: each
//! instance (and its degree-5 MST) is built exactly once, then every solve
//! runs against it in parallel through [`antennae_parallel::parallel_map`]
//! (the same primitive the simulation crate's sweeps use).  Both types
//! accept a
//! [`SelectionPolicy`], so a whole grid can be solved under
//! [`SelectionPolicy::Portfolio`] as easily as under the default
//! [`SelectionPolicy::BestGuarantee`].

use crate::antenna::AntennaBudget;
use crate::error::OrientError;
use crate::instance::Instance;
use crate::solver::{OrientationOutcome, Registry, SelectionPolicy, Solver, VerifiedOutcome};
use crate::verify::VerificationEngine;
use antennae_geometry::Point;
use antennae_parallel::{default_threads, parallel_map};
use std::sync::Arc;

/// Orients many antenna budgets against one sensor deployment, building the
/// Euclidean MST substrate exactly once.
///
/// # Examples
///
/// ```
/// use antennae_core::batch::BatchOrienter;
/// use antennae_core::antenna::AntennaBudget;
/// use antennae_geometry::Point;
///
/// let points = vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.2),
///     Point::new(0.4, 0.9),
///     Point::new(1.3, 1.1),
/// ];
/// let batch = BatchOrienter::new(points)?;
///
/// // One MST build serves the whole budget grid.
/// let budgets: Vec<AntennaBudget> =
///     (1..=5).map(|k| AntennaBudget::new(k, std::f64::consts::PI)).collect();
/// let outcomes = batch.orient_budgets(&budgets);
/// assert_eq!(outcomes.len(), 5);
/// for outcome in outcomes {
///     let outcome = outcome.expect("every budget row is orientable");
///     assert!(outcome.scheme.max_radius() > 0.0);
/// }
/// # Ok::<(), antennae_core::error::OrientError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchOrienter {
    instance: Instance,
    threads: usize,
    policy: SelectionPolicy,
    registry: Arc<Registry>,
    engine: VerificationEngine,
}

impl BatchOrienter {
    /// Builds the shared [`Instance`] (one Euclidean MST construction) for
    /// `points` and readies a pipeline with the default thread count and
    /// [`SelectionPolicy::BestGuarantee`].
    pub fn new(points: Vec<Point>) -> Result<Self, OrientError> {
        Ok(Self::from_instance(Instance::new(points)?))
    }

    /// Wraps an already-built instance, reusing its MST substrate.
    pub fn from_instance(instance: Instance) -> Self {
        BatchOrienter {
            instance,
            threads: default_threads(),
            policy: SelectionPolicy::default(),
            registry: Registry::shared_paper(),
            engine: VerificationEngine::new(),
        }
    }

    /// Sets the worker-thread count (`1` forces a sequential pipeline).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the selection policy every budget is solved under.
    pub fn with_policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the algorithm registry every budget is solved against.
    pub fn with_registry(mut self, registry: impl Into<Arc<Registry>>) -> Self {
        self.registry = registry.into();
        self
    }

    /// Replaces the verification engine
    /// [`BatchOrienter::orient_budgets_verified`] routes through (the
    /// default uses the `Auto` digraph strategy).
    pub fn with_engine(mut self, engine: VerificationEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The shared instance every budget is solved against.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Solves every budget in `budgets` against the shared instance, in
    /// parallel, returning outcomes in input order.
    pub fn orient_budgets(
        &self,
        budgets: &[AntennaBudget],
    ) -> Vec<Result<OrientationOutcome, OrientError>> {
        // When the outer fan-out saturates the pool the inner solves run
        // sequentially; short batches hand their idle workers to the inner
        // portfolios instead.
        let inner_threads = (self.threads / budgets.len().max(1)).max(1);
        parallel_map(budgets, self.threads, |budget| {
            Solver::on(&self.instance)
                .with_budget(*budget)
                .policy(self.policy)
                .registry(Arc::clone(&self.registry))
                .threads(inner_threads)
                .run()
        })
    }

    /// Solves every budget in `budgets` against the shared instance and
    /// independently verifies every produced scheme (including every
    /// Portfolio candidate) through the configured
    /// [`VerificationEngine`].
    ///
    /// The whole grid shares one
    /// [`crate::verify::VerificationSession`]: the spatial index over the
    /// instance is built exactly once — like the MST substrate — no matter
    /// how many budgets or candidates ride the pipeline.  Each scheme is
    /// verified under the budget it was solved for.
    pub fn orient_budgets_verified(
        &self,
        budgets: &[AntennaBudget],
    ) -> Vec<Result<VerifiedOutcome, OrientError>> {
        let inner_threads = (self.threads / budgets.len().max(1)).max(1);
        // The outer fan-out is across budgets; each budget verifies its own
        // candidates sequentially on the shared session.
        let session = self.engine.with_threads(1).session(&self.instance);
        parallel_map(budgets, self.threads, |budget| {
            Solver::on(&self.instance)
                .with_budget(*budget)
                .policy(self.policy)
                .registry(Arc::clone(&self.registry))
                .threads(inner_threads)
                .run()
                .map(|outcome| VerifiedOutcome::from_session(outcome, &session, Some(*budget)))
        })
    }
}

/// Orients budgets against many prebuilt instances — the
/// many-deployments dual of [`BatchOrienter`].
///
/// Instances are borrowed, so their MST substrates stay shared with the
/// caller; every `(instance, budget)` solve fans out over
/// [`antennae_parallel::parallel_map`] under the configured policy.
///
/// # Examples
///
/// ```
/// use antennae_core::batch::InstanceBatch;
/// use antennae_core::antenna::AntennaBudget;
/// use antennae_core::instance::Instance;
/// use antennae_geometry::Point;
///
/// let deployments: Vec<Instance> = (0..3)
///     .map(|i| {
///         Instance::new(vec![
///             Point::new(0.0, i as f64),
///             Point::new(1.0, 0.3),
///             Point::new(0.2, 1.1),
///         ])
///     })
///     .collect::<Result<_, _>>()?;
/// let outcomes = InstanceBatch::new(&deployments).orient(AntennaBudget::new(3, 0.0));
/// assert_eq!(outcomes.len(), 3);
/// # Ok::<(), antennae_core::error::OrientError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InstanceBatch<'a> {
    instances: &'a [Instance],
    threads: usize,
    policy: SelectionPolicy,
    registry: Arc<Registry>,
}

impl<'a> InstanceBatch<'a> {
    /// Readies a pipeline over `instances` with the default thread count and
    /// [`SelectionPolicy::BestGuarantee`].
    pub fn new(instances: &'a [Instance]) -> Self {
        InstanceBatch {
            instances,
            threads: default_threads(),
            policy: SelectionPolicy::default(),
            registry: Registry::shared_paper(),
        }
    }

    /// Sets the worker-thread count (`1` forces a sequential pipeline).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the selection policy every instance is solved under.
    pub fn with_policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the algorithm registry every instance is solved against.
    pub fn with_registry(mut self, registry: impl Into<Arc<Registry>>) -> Self {
        self.registry = registry.into();
        self
    }

    /// The instances every budget is solved against.
    pub fn instances(&self) -> &[Instance] {
        self.instances
    }

    /// Solves `budget` against every instance, in parallel, returning
    /// outcomes in input order.
    pub fn orient(&self, budget: AntennaBudget) -> Vec<Result<OrientationOutcome, OrientError>> {
        // Same split as `BatchOrienter::orient_budgets`: idle outer workers
        // are handed to the inner solves of short batches.
        let inner_threads = (self.threads / self.instances.len().max(1)).max(1);
        parallel_map(self.instances, self.threads, |instance| {
            Solver::on(instance)
                .with_budget(budget)
                .policy(self.policy)
                .registry(Arc::clone(&self.registry))
                .threads(inner_threads)
                .run()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_with_budget;
    use antennae_geometry::{PI, TAU};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)))
            .collect()
    }

    fn budget_grid() -> Vec<AntennaBudget> {
        let mut budgets = Vec::new();
        for k in 1..=5 {
            for step in 0..=4 {
                budgets.push(AntennaBudget::new(k, TAU * step as f64 / 4.0));
            }
        }
        budgets
    }

    #[test]
    fn batch_matches_single_shot_solves() {
        let points = random_points(40, 11);
        let batch = BatchOrienter::new(points.clone()).unwrap();
        let budgets = budget_grid();
        let batched = batch.orient_budgets(&budgets);

        for (budget, outcome) in budgets.iter().zip(batched) {
            let single = Solver::on(batch.instance())
                .with_budget(*budget)
                .run()
                .unwrap();
            let outcome = outcome.unwrap();
            assert_eq!(outcome.algorithm, single.algorithm, "budget {budget:?}");
            assert_eq!(
                outcome.guaranteed_radius_over_lmax, single.guaranteed_radius_over_lmax,
                "budget {budget:?}"
            );
            let report = verify_with_budget(batch.instance(), &outcome.scheme, Some(*budget));
            assert!(
                report.is_valid(),
                "budget {budget:?}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn sequential_and_parallel_batches_agree() {
        let points = random_points(30, 12);
        let budgets = budget_grid();
        let seq = BatchOrienter::new(points.clone())
            .unwrap()
            .with_threads(1)
            .orient_budgets(&budgets);
        let par = BatchOrienter::new(points)
            .unwrap()
            .with_threads(4)
            .orient_budgets(&budgets);
        for (s, p) in seq.iter().zip(par.iter()) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.algorithm, p.algorithm);
            assert_eq!(s.scheme.max_radius(), p.scheme.max_radius());
        }
    }

    #[test]
    fn invalid_budgets_report_errors_in_place() {
        let batch = BatchOrienter::new(random_points(10, 13)).unwrap();
        let budgets = vec![
            AntennaBudget::new(0, PI),
            AntennaBudget::new(2, PI),
            AntennaBudget::new(9, PI),
        ];
        let outcomes = batch.orient_budgets(&budgets);
        assert!(matches!(
            outcomes[0],
            Err(OrientError::UnsupportedAntennaCount { k: 0 })
        ));
        assert!(outcomes[1].is_ok());
        assert!(matches!(
            outcomes[2],
            Err(OrientError::UnsupportedAntennaCount { k: 9 })
        ));
    }

    #[test]
    fn portfolio_policy_rides_the_batch_pipeline() {
        let batch = BatchOrienter::new(random_points(30, 14))
            .unwrap()
            .with_policy(SelectionPolicy::Portfolio);
        let budgets = vec![AntennaBudget::new(3, 0.0), AntennaBudget::new(2, PI)];
        let best = BatchOrienter::from_instance(batch.instance().clone()).orient_budgets(&budgets);
        for (portfolio, best) in batch.orient_budgets(&budgets).into_iter().zip(best) {
            let (portfolio, best) = (portfolio.unwrap(), best.unwrap());
            assert!(portfolio.candidates.len() > 1);
            assert!(portfolio.measured_radius_over_lmax <= best.measured_radius_over_lmax + 1e-12);
        }
    }

    #[test]
    fn verified_batch_matches_unverified_solves_and_reports_are_sound() {
        let points = random_points(35, 15);
        let batch = BatchOrienter::new(points)
            .unwrap()
            .with_policy(SelectionPolicy::Portfolio);
        let budgets = vec![AntennaBudget::new(2, PI), AntennaBudget::new(3, 0.0)];
        let verified = batch.orient_budgets_verified(&budgets);
        let plain = batch.orient_budgets(&budgets);
        assert_eq!(verified.len(), plain.len());
        for ((budget, verified), plain) in budgets.iter().zip(verified).zip(plain) {
            let (verified, plain) = (verified.unwrap(), plain.unwrap());
            assert_eq!(verified.outcome.algorithm, plain.algorithm);
            assert!(verified.is_valid(), "budget {budget:?}");
            assert_eq!(
                verified.candidate_reports.len(),
                verified.outcome.candidates.len()
            );
            // Every candidate report matches an independent re-verification.
            for (candidate, report) in verified
                .outcome
                .candidates
                .iter()
                .zip(&verified.candidate_reports)
            {
                let scheme = candidate.scheme.as_ref().unwrap();
                assert_eq!(
                    *report,
                    verify_with_budget(batch.instance(), scheme, Some(*budget))
                );
            }
        }
    }

    #[test]
    fn verified_batch_surfaces_per_budget_errors() {
        let batch = BatchOrienter::new(random_points(10, 16)).unwrap();
        let outcomes =
            batch.orient_budgets_verified(&[AntennaBudget::new(0, 0.0), AntennaBudget::new(2, PI)]);
        assert!(matches!(
            outcomes[0],
            Err(OrientError::UnsupportedAntennaCount { k: 0 })
        ));
        assert!(outcomes[1].as_ref().unwrap().is_valid());
    }

    #[test]
    fn one_budget_many_instances() {
        let instances: Vec<Instance> = (0..6)
            .map(|seed| Instance::new(random_points(25, 20 + seed)).unwrap())
            .collect();
        let budget = AntennaBudget::new(3, 0.0);
        let outcomes = InstanceBatch::new(&instances)
            .with_threads(4)
            .orient(budget);
        assert_eq!(outcomes.len(), instances.len());
        for (instance, outcome) in instances.iter().zip(outcomes) {
            let outcome = outcome.unwrap();
            let report = verify_with_budget(instance, &outcome.scheme, Some(budget));
            assert!(report.is_valid(), "{:?}", report.violations);
        }
    }
}
