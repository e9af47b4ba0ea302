//! Orientation schemes and the directed communication graphs they induce.

use crate::antenna::SensorAssignment;
use antennae_geometry::Point;
use antennae_graph::DiGraph;
use serde::{Deserialize, Serialize};

/// A complete orientation: one [`SensorAssignment`] per sensor, indexed
/// exactly like the instance's point slice.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OrientationScheme {
    /// Per-sensor antenna assignments.
    pub assignments: Vec<SensorAssignment>,
}

impl OrientationScheme {
    /// Creates a scheme with `n` empty assignments.
    pub fn empty(n: usize) -> Self {
        OrientationScheme {
            assignments: vec![SensorAssignment::empty(); n],
        }
    }

    /// Creates a scheme from per-sensor assignments.
    pub fn new(assignments: Vec<SensorAssignment>) -> Self {
        OrientationScheme { assignments }
    }

    /// Number of sensors the scheme covers.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Returns `true` when the scheme has no sensors.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The assignment of sensor `i`.
    pub fn assignment(&self, i: usize) -> &SensorAssignment {
        &self.assignments[i]
    }

    /// Largest antenna range used anywhere in the scheme.
    pub fn max_radius(&self) -> f64 {
        self.assignments
            .iter()
            .map(|a| a.max_radius())
            .fold(0.0, f64::max)
    }

    /// Largest per-sensor spread sum used anywhere in the scheme (the
    /// quantity bounded by the paper's `φ_k`).
    pub fn max_spread_sum(&self) -> f64 {
        self.assignments
            .iter()
            .map(|a| a.total_spread())
            .fold(0.0, f64::max)
    }

    /// Largest number of antennae used at any sensor.
    pub fn max_antenna_count(&self) -> usize {
        self.assignments
            .iter()
            .map(|a| a.antenna_count())
            .max()
            .unwrap_or(0)
    }

    /// Builds the induced directed communication graph over `points`:
    /// `u → v` iff some antenna of sensor `u` covers the location of `v`.
    ///
    /// This is the *dense reference construction*: Θ(n² · k) pairwise sector
    /// tests, visited in ascending index order.  It is the oracle the
    /// sub-quadratic [`crate::verify::VerificationEngine`] is
    /// property-tested against — the engine's kd-tree construction must
    /// reproduce it bit-for-bit (same edges, same adjacency order).  Callers
    /// on a hot path should go through the engine.
    pub fn induced_digraph(&self, points: &[Point]) -> DiGraph {
        let n = points.len().min(self.assignments.len());
        DiGraph::from_adjacency(
            points.len(),
            (0..n).map(|u| {
                let apex = &points[u];
                let assignment = &self.assignments[u];
                points.iter().enumerate().filter_map(move |(v, target)| {
                    (u != v && assignment.covers(apex, target)).then_some(v)
                })
            }),
        )
    }

    /// Scales every antenna radius by `factor` (used by experiments that
    /// re-express schemes in units of `lmax`).
    pub fn scale_radii(&mut self, factor: f64) {
        for assignment in &mut self.assignments {
            for antenna in &mut assignment.antennas {
                antenna.radius *= factor;
            }
        }
    }

    /// Total number of antennae actually mounted across all sensors.
    pub fn total_antennas(&self) -> usize {
        self.assignments.iter().map(|a| a.antenna_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antenna::Antenna;

    fn line_points() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ]
    }

    fn beam_cycle_scheme(points: &[Point]) -> OrientationScheme {
        // Each sensor beams at the next one (cyclically).
        let n = points.len();
        let assignments = (0..n)
            .map(|i| {
                let next = (i + 1) % n;
                let radius = points[i].distance(&points[next]);
                SensorAssignment::new(vec![Antenna::beam(&points[i], &points[next], radius)])
            })
            .collect();
        OrientationScheme::new(assignments)
    }

    #[test]
    fn induced_digraph_of_beam_cycle_is_strongly_connected() {
        let points = line_points();
        let scheme = beam_cycle_scheme(&points);
        let g = scheme.induced_digraph(&points);
        assert!(g.is_strongly_connected());
        // The wrap-around beam from the last to the first sensor passes over
        // the middle one, so it is also covered: 0←2 and 1←2.
        assert!(g.has_edge(2, 0));
        assert!(g.has_edge(2, 1));
    }

    #[test]
    fn aggregates_over_assignments() {
        let points = line_points();
        let scheme = beam_cycle_scheme(&points);
        assert_eq!(scheme.len(), 3);
        assert_eq!(scheme.total_antennas(), 3);
        assert_eq!(scheme.max_antenna_count(), 1);
        assert!((scheme.max_radius() - 2.0).abs() < 1e-12);
        assert_eq!(scheme.max_spread_sum(), 0.0);
    }

    #[test]
    fn empty_scheme_has_no_edges() {
        let points = line_points();
        let scheme = OrientationScheme::empty(points.len());
        let g = scheme.induced_digraph(&points);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_strongly_connected());
        assert!(!scheme.is_empty());
        assert_eq!(OrientationScheme::empty(0).len(), 0);
    }

    #[test]
    fn scaling_radii_scales_max_radius() {
        let points = line_points();
        let mut scheme = beam_cycle_scheme(&points);
        scheme.scale_radii(0.5);
        assert!((scheme.max_radius() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_lengths_are_handled_gracefully() {
        let points = line_points();
        let scheme = OrientationScheme::empty(2); // fewer assignments than points
        let g = scheme.induced_digraph(&points);
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 0);
    }
}
