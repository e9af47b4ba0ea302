//! Backward-compatibility pinning for the solver redesign.
//!
//! The `(k, φ_k)` → algorithm decision table used to be a hard-coded `match`
//! in `dispatch::orient_with_report`.  It now lives in the
//! [`Registry`]-driven solver, and these tests pin that
//! `SelectionPolicy::BestGuarantee` returns **bit-identical**
//! `(algorithm, guaranteed_radius)` pairs to the pre-redesign dispatcher
//! across the full `(k ∈ 1..=5) × (φ ∈ 0..2π)` grid.  `legacy_dispatch` below is a line-for-line reimplementation of the
//! retired `match`.

use antennae::core::algorithms::{chains, theorem3, AlgorithmKind};
use antennae::core::bounds::{theorem2_spread_threshold, SPREAD_EPS};
use antennae::core::solver::implemented_radius_guarantee;
use antennae::core::verify::verify_with_budget;
use antennae::prelude::*;
use proptest::prelude::*;
use std::f64::consts::{PI, TAU};

/// The pre-redesign dispatch decision table, verbatim: which algorithm ran
/// for a `(k, φ)` budget and which radius it reported as guaranteed.
///
/// One deliberate, documented divergence exists: inside the `SPREAD_EPS`
/// (1e-9) sliver just below the 2π/3 Theorem 3 threshold the legacy code
/// reported `(Theorem3, None)` while the registry snaps the budget to the
/// threshold and reports the proven `(Theorem3, Some(√3))` — see
/// `Theorem3Orienter::applicability`.  No grid point or realistic float
/// lands in that sliver, so the comparisons below pin everything else
/// bit-for-bit.
fn legacy_dispatch(k: usize, phi: f64) -> Option<(AlgorithmKind, Option<f64>)> {
    if !(1..=5).contains(&k) {
        return None;
    }
    if phi + SPREAD_EPS >= theorem2_spread_threshold(k) {
        return Some((AlgorithmKind::Theorem2, Some(1.0)));
    }
    match k {
        1 => Some((AlgorithmKind::Hamiltonian, None)),
        2 => {
            if phi + SPREAD_EPS >= 2.0 * PI / 3.0 {
                Some((AlgorithmKind::Theorem3, theorem3::guaranteed_radius(phi)))
            } else {
                Some((AlgorithmKind::Chains { k: 2 }, chains::guaranteed_radius(2)))
            }
        }
        _ => Some((AlgorithmKind::Chains { k }, chains::guaranteed_radius(k))),
    }
}

/// The φ sample points of the pinning grid: a dense uniform sweep of
/// `[0, 2π]` plus every threshold the decision table branches on.
fn phi_grid() -> Vec<f64> {
    let mut grid: Vec<f64> = (0..=64).map(|i| TAU * i as f64 / 64.0).collect();
    grid.extend([
        2.0 * PI / 5.0,
        2.0 * PI / 3.0,
        4.0 * PI / 5.0,
        PI,
        6.0 * PI / 5.0,
        8.0 * PI / 5.0,
    ]);
    grid
}

#[test]
fn best_guarantee_selection_is_bit_identical_to_legacy_dispatch() {
    let registry = Registry::paper();
    for k in 0..=7usize {
        for &phi in &phi_grid() {
            let budget = AntennaBudget::new(k, phi);
            let selected = registry
                .best_guarantee(&budget)
                .map(|(o, g)| (o.kind(), g.radius_over_lmax));
            assert_eq!(
                selected,
                legacy_dispatch(k, phi),
                "selection diverged at k={k} phi={phi}"
            );
        }
    }
}

#[test]
fn best_guarantee_runs_bit_identically_to_legacy_dispatch_on_seeded_instances() {
    let generator = PointSetGenerator::UniformSquare { n: 35, side: 10.0 };
    let instance = Instance::new(generator.generate(99)).unwrap();
    for k in 1..=5usize {
        for &phi in &phi_grid() {
            let budget = AntennaBudget::new(k, phi);
            let (expected_algorithm, expected_guarantee) = legacy_dispatch(k, phi).unwrap();
            let outcome = Solver::on(&instance)
                .with_budget(budget)
                .policy(SelectionPolicy::BestGuarantee)
                .run()
                .unwrap();
            assert_eq!(outcome.algorithm, expected_algorithm, "k={k} phi={phi}");
            assert_eq!(
                outcome.guaranteed_radius_over_lmax, expected_guarantee,
                "k={k} phi={phi}"
            );
            // The default policy is BestGuarantee: same algorithm, same scheme.
            let default = Solver::on(&instance).with_budget(budget).run().unwrap();
            assert_eq!(default.algorithm, expected_algorithm, "k={k} phi={phi}");
            assert_eq!(default.scheme, outcome.scheme, "k={k} phi={phi}");
        }
    }
}

#[test]
fn implemented_guarantee_matches_the_legacy_table() {
    // The legacy `implemented_radius_guarantee` reported the guarantee
    // column of the decision table; the registry-derived version must agree
    // everywhere on the grid.
    for k in 0..=7usize {
        for &phi in &phi_grid() {
            let expected = legacy_dispatch(k, phi).and_then(|(_, g)| g);
            assert_eq!(
                implemented_radius_guarantee(k, phi),
                expected,
                "k={k} phi={phi}"
            );
        }
    }
}

proptest! {
    /// Seeded property test: selection agrees with the legacy table on
    /// random budgets (the decision is instance-independent, so this pins
    /// the whole continuous (k, φ) space, not just the grid).
    #[test]
    fn prop_selection_matches_legacy_dispatch(k in 0usize..8, phi in 0.0..TAU) {
        let registry = Registry::paper();
        let selected = registry
            .best_guarantee(&AntennaBudget::new(k, phi))
            .map(|(o, g)| (o.kind(), g.radius_over_lmax));
        prop_assert_eq!(selected, legacy_dispatch(k, phi), "k={} phi={}", k, phi);
    }

    /// Seeded property test over real instances: a `BestGuarantee` run
    /// reports the legacy table's algorithm and guarantee, and the default
    /// policy runs the identical scheme.
    #[test]
    fn prop_best_guarantee_matches_legacy_dispatch_on_instances(
        seed in 0u64..50, k in 1usize..=5, phi in 0.0..TAU
    ) {
        let generator = PointSetGenerator::UniformSquare { n: 25, side: 8.0 };
        let instance = Instance::new(generator.generate(seed)).unwrap();
        let budget = AntennaBudget::new(k, phi);
        let (expected_algorithm, expected_guarantee) = legacy_dispatch(k, phi).unwrap();
        let best = Solver::on(&instance)
            .with_budget(budget)
            .policy(SelectionPolicy::BestGuarantee)
            .run()
            .unwrap();
        let default = Solver::on(&instance).with_budget(budget).run().unwrap();
        prop_assert_eq!(best.algorithm, expected_algorithm);
        prop_assert_eq!(best.guaranteed_radius_over_lmax, expected_guarantee);
        prop_assert_eq!(best.scheme, default.scheme);
    }
}

#[test]
fn portfolio_dominates_best_guarantee_and_every_candidate_verifies() {
    // The acceptance grid: on seeded workloads, Portfolio never reports a
    // worse measured radius than BestGuarantee and every candidate passes
    // the independent budget verifier.
    let workloads = [
        PointSetGenerator::UniformSquare { n: 40, side: 10.0 },
        PointSetGenerator::Clustered {
            n: 40,
            clusters: 4,
            side: 20.0,
            spread: 1.0,
        },
        PointSetGenerator::Path { n: 20 },
    ];
    for generator in workloads {
        for seed in 0..2u64 {
            let instance = Instance::new(generator.generate(seed)).unwrap();
            for k in 1..=5usize {
                for step in 0..=4 {
                    let budget = AntennaBudget::new(k, TAU * step as f64 / 4.0);
                    let best = Solver::on(&instance).with_budget(budget).run().unwrap();
                    let portfolio = Solver::on(&instance)
                        .with_budget(budget)
                        .policy(SelectionPolicy::Portfolio)
                        .run()
                        .unwrap();
                    assert!(
                        portfolio.measured_radius_over_lmax
                            <= best.measured_radius_over_lmax + 1e-12,
                        "{} seed {seed} budget {budget:?}: portfolio {} > best {}",
                        generator.label(),
                        portfolio.measured_radius_over_lmax,
                        best.measured_radius_over_lmax
                    );
                    assert_eq!(
                        portfolio.candidates.iter().filter(|c| c.selected).count(),
                        1
                    );
                    for candidate in &portfolio.candidates {
                        let scheme = candidate
                            .scheme
                            .as_ref()
                            .expect("portfolio candidates carry schemes");
                        let report = verify_with_budget(&instance, scheme, Some(budget));
                        assert!(
                            report.is_valid(),
                            "{} seed {seed} budget {budget:?} candidate {}: {:?}",
                            generator.label(),
                            candidate.algorithm,
                            report.violations
                        );
                    }
                }
            }
        }
    }
}

/// Compile-time pin: the new outcome types keep their serde derives (the
/// vendored serde is an API stub, so "round trip" means the bounds hold and
/// the value survives the clone-compare cycle; swapping in the real serde
/// upgrades this to a byte-level round trip with no source change).
fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}

#[test]
fn orientation_outcome_round_trips() {
    assert_serde::<OrientationOutcome>();
    assert_serde::<antennae::core::solver::CandidateOutcome>();
    assert_serde::<SelectionPolicy>();
    assert_serde::<Guarantee>();
    assert_serde::<AlgorithmKind>();

    let generator = PointSetGenerator::UniformSquare { n: 20, side: 6.0 };
    let instance = Instance::new(generator.generate(7)).unwrap();
    let outcome = Solver::on(&instance)
        .budget(2, PI)
        .policy(SelectionPolicy::Portfolio)
        .run()
        .unwrap();
    // Value-level round trip through the serializable representation (the
    // derived Clone mirrors the derived Serialize/Deserialize field set).
    let round_tripped = outcome.clone();
    assert_eq!(round_tripped, outcome);
    assert_eq!(round_tripped.candidates.len(), outcome.candidates.len());
    assert_eq!(
        round_tripped.measured_radius_over_lmax,
        outcome.measured_radius_over_lmax
    );
}
