//! Problem instances: a sensor point set together with its degree-5
//! Euclidean MST substrate.

use crate::error::OrientError;
use antennae_geometry::Point;
use antennae_graph::euclidean::EuclideanMst;
use antennae_graph::rooted::RootedTree;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A problem instance: the sensor locations, the degree-5 Euclidean MST the
/// orientation algorithms walk, and its longest edge `lmax`.
///
/// Every radius reported by the algorithms and the experiments is naturally
/// compared against `lmax`, the paper's lower bound on any feasible range
/// (`lmax = 1` after the paper's normalization).
///
/// The rooted view of the MST is derived lazily and cached
/// ([`Instance::rooted_tree`]): a Portfolio solve runs several tree-walking
/// constructions against the same instance, and before the cache each of
/// them re-rooted and re-sorted the same tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    points: Vec<Point>,
    mst: EuclideanMst,
    /// Lazily built rooted view of `mst` (not serialized: it is derived
    /// state, rebuilt on first use after deserialization).
    #[serde(skip)]
    rooted: OnceLock<RootedTree>,
}

impl Instance {
    /// Builds an instance from sensor locations.
    ///
    /// Fails on an empty point set or when the MST substrate cannot be
    /// constructed.
    pub fn new(points: Vec<Point>) -> Result<Self, OrientError> {
        if points.is_empty() {
            return Err(OrientError::EmptyInstance);
        }
        let mst = EuclideanMst::build(&points)
            .map_err(|e| OrientError::MstConstruction(e.to_string()))?;
        Ok(Instance {
            points,
            mst,
            rooted: OnceLock::new(),
        })
    }

    /// Wraps an already-built MST substrate without re-running an engine —
    /// the materialization hook of [`crate::dynamic::DynamicInstance`],
    /// whose incrementally maintained tree is handed over as-is.
    pub(crate) fn from_prebuilt(points: Vec<Point>, mst: EuclideanMst) -> Self {
        Instance {
            points,
            mst,
            rooted: OnceLock::new(),
        }
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the instance has no sensors (never constructed by
    /// [`Instance::new`], but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Sensor locations.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The degree-5 Euclidean MST substrate.
    pub fn mst(&self) -> &EuclideanMst {
        &self.mst
    }

    /// The longest MST edge, the paper's lower bound on the antenna range
    /// needed for strong connectivity (0 for a single sensor).
    pub fn lmax(&self) -> f64 {
        self.mst.lmax()
    }

    /// A rooted view of the MST, rooted at a degree-one vertex as the paper
    /// prescribes.
    ///
    /// Built on first call and cached for the lifetime of the instance:
    /// `hamiltonian`, `chains` and `theorem3` all walk this view, so a
    /// Portfolio solve used to rebuild the identical tree once per
    /// candidate construction.
    pub fn rooted_tree(&self) -> &RootedTree {
        self.rooted.get_or_init(|| RootedTree::from_mst(&self.mst))
    }

    /// Returns a copy of the instance rescaled so that `lmax = 1`, matching
    /// the paper's normalization.  A single-sensor instance (where `lmax` is
    /// 0) is returned unchanged.
    ///
    /// MST topology is scale-invariant, so the substrate is rescaled
    /// directly ([`EuclideanMst::rescaled`]) instead of re-running the full
    /// engine build: the normalized instance has the *exact* same edge set
    /// and `lmax == 1.0` exactly.
    pub fn normalized(&self) -> Result<Instance, OrientError> {
        let lmax = self.lmax();
        if lmax <= 0.0 {
            return Ok(self.clone());
        }
        let mst = self.mst.rescaled(lmax);
        Ok(Instance {
            points: mst.points().to_vec(),
            mst,
            rooted: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_points() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ]
    }

    #[test]
    fn construction_and_basic_accessors() {
        let inst = Instance::new(square_points()).unwrap();
        assert_eq!(inst.len(), 4);
        assert!(!inst.is_empty());
        assert_eq!(inst.points().len(), 4);
        assert!((inst.lmax() - 2.0).abs() < 1e-12);
        assert_eq!(inst.mst().edges().len(), 3);
    }

    #[test]
    fn empty_point_set_is_rejected() {
        assert!(matches!(
            Instance::new(vec![]),
            Err(OrientError::EmptyInstance)
        ));
    }

    /// A NaN or infinite coordinate is an MST construction error, at sizes
    /// on both sides of the engine crossover.
    #[test]
    fn non_finite_coordinates_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY] {
            for n in [10usize, 2000] {
                let mut points: Vec<Point> = (0..n)
                    .map(|i| Point::new((i * 7919 % 1000) as f64, (i * 104_729 % 997) as f64))
                    .collect();
                points[n - 1] = Point::new(bad, 1.0);
                match Instance::new(points) {
                    Err(OrientError::MstConstruction(msg)) => {
                        assert!(msg.contains("non-finite"), "{msg}")
                    }
                    other => panic!("{bad} among {n}: expected MstConstruction, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn single_sensor_instance() {
        let inst = Instance::new(vec![Point::new(1.0, 1.0)]).unwrap();
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.lmax(), 0.0);
        let tree = inst.rooted_tree();
        assert_eq!(tree.len(), 1);
        // Normalization of a degenerate instance is a no-op.
        assert_eq!(inst.normalized().unwrap().len(), 1);
    }

    #[test]
    fn normalization_rescales_lmax_to_one() {
        let inst = Instance::new(square_points()).unwrap();
        let norm = inst.normalized().unwrap();
        // Rescaling (not rebuilding) makes this exact.
        assert_eq!(norm.lmax(), 1.0);
        assert_eq!(norm.len(), inst.len());
    }

    #[test]
    fn normalization_preserves_the_exact_edge_set() {
        // A tie-heavy lattice would let a rebuild pick a different (equally
        // minimal) tree; the rescaling path must preserve the edge set
        // bit-for-bit.
        let mut pts = Vec::new();
        for i in 0..5 {
            for j in 0..4 {
                pts.push(Point::new(i as f64 * 3.0, j as f64 * 3.0));
            }
        }
        let inst = Instance::new(pts).unwrap();
        let norm = inst.normalized().unwrap();
        assert_eq!(norm.lmax(), 1.0);
        let key = |e: &antennae_graph::Edge| (e.u.min(e.v), e.u.max(e.v));
        let mut original: Vec<_> = inst.mst().edges().iter().map(key).collect();
        let mut rescaled: Vec<_> = norm.mst().edges().iter().map(key).collect();
        original.sort_unstable();
        rescaled.sort_unstable();
        assert_eq!(original, rescaled);
        // The instance's own points match the rescaled substrate's points.
        assert_eq!(norm.points(), norm.mst().points());
    }

    #[test]
    fn rooted_tree_is_cached_and_stable() {
        let inst = Instance::new(square_points()).unwrap();
        let first = inst.rooted_tree() as *const RootedTree;
        let second = inst.rooted_tree() as *const RootedTree;
        assert_eq!(first, second, "second call must hit the cache");
        // A clone gets its own (equal-content) tree.
        let cloned = inst.clone();
        assert_eq!(cloned.rooted_tree().root(), inst.rooted_tree().root());
        assert_eq!(cloned.rooted_tree().len(), inst.rooted_tree().len());
    }

    #[test]
    fn rooted_tree_is_rooted_at_a_leaf() {
        let inst = Instance::new(square_points()).unwrap();
        let tree = inst.rooted_tree();
        assert_eq!(tree.tree_degree(tree.root()), 1);
        assert_eq!(tree.len(), 4);
    }
}
