//! Failure-injection tests: deliberately corrupted orientation schemes must
//! be rejected by the independent verifier, and the verifier's measurements
//! must expose exactly what was broken.

use antennae::core::antenna::{Antenna, SensorAssignment};
use antennae::core::verify::{report_from_digraph, verify_with_budget, Violation};
use antennae::geometry::Angle;
use antennae::prelude::*;
use std::f64::consts::PI;

/// Verifies `scheme` through the dense reference AND the kd-tree engine,
/// asserts the two reports are bit-identical (same measurements, same
/// `Violation` variants in the same order), and returns the shared report.
fn verify_both_paths(
    instance: &Instance,
    scheme: &OrientationScheme,
    budget: Option<AntennaBudget>,
) -> VerificationReport {
    let dense = report_from_digraph(
        instance,
        scheme,
        budget,
        &scheme.induced_digraph(instance.points()),
    );
    let fast = VerificationEngine::new().verify_with_budget(instance, scheme, budget);
    assert_eq!(
        dense, fast,
        "engine and dense reference disagree on an injected failure"
    );
    dense
}

fn instance_and_scheme() -> (Instance, OrientationScheme) {
    let generator = PointSetGenerator::UniformSquare { n: 40, side: 10.0 };
    let instance = Instance::new(generator.generate(17)).unwrap();
    let scheme = Solver::on(&instance).budget(2, PI).run().unwrap().scheme;
    (instance, scheme)
}

#[test]
fn valid_scheme_passes_then_each_corruption_is_caught() {
    let (instance, scheme) = instance_and_scheme();
    let budget = AntennaBudget::new(2, PI);
    assert!(verify_with_budget(&instance, &scheme, Some(budget)).is_valid());

    // Corruption 1: silence one sensor entirely.
    let mut silenced = scheme.clone();
    silenced.assignments[3] = SensorAssignment::empty();
    let report = verify_with_budget(&instance, &silenced, Some(budget));
    assert!(!report.is_strongly_connected);
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::NotStronglyConnected { .. })));

    // Corruption 2: rotate one sensor's antennae away from their targets.
    let mut rotated = scheme.clone();
    for antenna in &mut rotated.assignments[5].antennas {
        antenna.start = antenna.start.rotate(PI * 0.9);
    }
    let report = verify_with_budget(&instance, &rotated, Some(budget));
    // Rotating by ~162° may or may not disconnect the graph depending on the
    // local geometry, but the verifier must at least keep the measurement
    // consistent; when it is disconnected the violation must be reported.
    assert_eq!(
        report.is_strongly_connected,
        !report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NotStronglyConnected { .. }))
    );

    // Corruption 3: shrink every radius below lmax — connectivity must break
    // (lmax is a lower bound on the necessary range).
    let mut shrunk = scheme.clone();
    let too_small = instance.lmax() * 0.49;
    for assignment in &mut shrunk.assignments {
        for antenna in &mut assignment.antennas {
            antenna.radius = antenna.radius.min(too_small);
        }
    }
    let report = verify_with_budget(&instance, &shrunk, Some(budget));
    assert!(!report.is_strongly_connected);

    // Corruption 4: exceed the antenna-count budget.
    let mut extra = scheme.clone();
    extra.assignments[0]
        .antennas
        .push(Antenna::new(Angle::ZERO, 0.0, 1.0));
    extra.assignments[0]
        .antennas
        .push(Antenna::new(Angle::HALF, 0.0, 1.0));
    let report = verify_with_budget(&instance, &extra, Some(budget));
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::TooManyAntennas { sensor: 0, .. })));

    // Corruption 5: exceed the spread budget.
    let mut wide = scheme;
    wide.assignments[1].antennas = vec![Antenna::new(Angle::ZERO, 1.5 * PI, 2.0)];
    let report = verify_with_budget(&instance, &wide, Some(budget));
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::SpreadExceeded { sensor: 1, .. })));
}

#[test]
fn truncated_scheme_is_reported_as_missing_assignments() {
    let (instance, scheme) = instance_and_scheme();
    let mut truncated = scheme;
    truncated.assignments.truncate(instance.len() - 5);
    let report = verify_with_budget(&instance, &truncated, None);
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::MissingAssignments { .. })));
}

#[test]
fn shrinking_one_radius_below_lmax_is_caught_identically_by_both_paths() {
    // The MST edge that realises lmax has a unique endpoint pair; shrinking
    // every antenna of ONE sensor below lmax is only fatal when that sensor
    // carried a critical long link, so scan all sensors and require (a) the
    // two verifier paths always agree exactly and (b) at least one mutation
    // actually disconnects the graph.
    let (instance, scheme) = instance_and_scheme();
    let budget = AntennaBudget::new(2, PI);
    let too_small = instance.lmax() * 0.9;
    let mut any_disconnected = false;
    for sensor in 0..instance.len() {
        let mut mutated = scheme.clone();
        let had_long_antenna = mutated.assignments[sensor]
            .antennas
            .iter()
            .any(|a| a.radius > too_small);
        for antenna in &mut mutated.assignments[sensor].antennas {
            antenna.radius = antenna.radius.min(too_small);
        }
        if !had_long_antenna {
            continue; // mutation is a no-op for this sensor
        }
        let report = verify_both_paths(&instance, &mutated, Some(budget));
        if !report.is_strongly_connected {
            any_disconnected = true;
            assert!(report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::NotStronglyConnected { .. })));
        }
    }
    assert!(
        any_disconnected,
        "shrinking some sensor's antennae below lmax must break connectivity"
    );
}

#[test]
fn rotating_one_sector_off_its_neighbour_is_caught_identically_by_both_paths() {
    // Rotate each sensor's antennae by half a turn in sequence; both
    // verifier paths must agree on every mutant, and at least one rotation
    // must disconnect the network.
    let (instance, scheme) = instance_and_scheme();
    let budget = AntennaBudget::new(2, PI);
    let mut any_disconnected = false;
    for sensor in 0..instance.len() {
        let mut mutated = scheme.clone();
        for antenna in &mut mutated.assignments[sensor].antennas {
            antenna.start = antenna.start.rotate(PI);
        }
        let report = verify_both_paths(&instance, &mutated, Some(budget));
        any_disconnected |= !report.is_strongly_connected;
    }
    assert!(
        any_disconnected,
        "rotating some sensor's sectors off their targets must break connectivity"
    );
}

#[test]
fn dropping_one_assignment_is_caught_identically_by_both_paths() {
    // Removing one sensor's assignment entirely (truncation) must be
    // reported as MissingAssignments by both paths, with identical reports.
    let (instance, scheme) = instance_and_scheme();
    let mut truncated = scheme.clone();
    truncated.assignments.pop();
    let report = verify_both_paths(&instance, &truncated, Some(AntennaBudget::new(2, PI)));
    assert!(report.violations.iter().any(|v| matches!(
        v,
        Violation::MissingAssignments { expected, actual }
            if *expected == instance.len() && *actual == instance.len() - 1
    )));

    // Silencing (rather than removing) a sensor keeps the lengths equal but
    // must still break connectivity — again identically on both paths.
    let mut silenced = scheme;
    silenced.assignments[0] = SensorAssignment::empty();
    let report = verify_both_paths(&instance, &silenced, Some(AntennaBudget::new(2, PI)));
    assert!(!report.is_strongly_connected);
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::NotStronglyConnected { .. })));
}

#[test]
fn budget_and_spread_injections_are_caught_identically_by_both_paths() {
    let (instance, scheme) = instance_and_scheme();
    let budget = AntennaBudget::new(2, PI);

    // Extra antennae on one sensor.
    let mut extra = scheme.clone();
    extra.assignments[4]
        .antennas
        .extend([Antenna::new(Angle::ZERO, 0.0, 1.0); 2]);
    let report = verify_both_paths(&instance, &extra, Some(budget));
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::TooManyAntennas { sensor: 4, .. })));

    // An over-wide sector on another.
    let mut wide = scheme;
    wide.assignments[6].antennas = vec![Antenna::new(Angle::ZERO, 1.5 * PI, 2.0)];
    let report = verify_both_paths(&instance, &wide, Some(budget));
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::SpreadExceeded { sensor: 6, .. })));
}

#[test]
fn radius_measurement_reflects_injected_inflation() {
    let (instance, mut scheme) = instance_and_scheme();
    let before = verify(&instance, &scheme).max_radius_over_lmax;
    // Inflate one antenna's radius: connectivity is unaffected but the
    // measured maximum radius must grow accordingly.
    scheme.assignments[2].antennas[0].radius = instance.lmax() * 10.0;
    let after = verify(&instance, &scheme);
    assert!(after.is_strongly_connected);
    assert!(after.max_radius_over_lmax >= 10.0 - 1e-9);
    assert!(after.max_radius_over_lmax > before);
}
