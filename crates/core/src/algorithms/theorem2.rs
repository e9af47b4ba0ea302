//! Theorem 2: when `φ_k ≥ 2π(5−k)/5`, radius `lmax` suffices.
//!
//! The construction applies Lemma 1 independently at every vertex of the
//! degree-5 MST: each vertex covers **all** of its tree neighbours, so every
//! tree edge is present in both directions in the induced digraph, which is
//! therefore strongly connected.  The spread used at a degree-`d` vertex is
//! at most `2π(d−k)/d ≤ 2π(5−k)/5` (the bound is monotone in `d ≤ 5`), and
//! every antenna range is at most the longest incident tree edge, hence at
//! most `lmax`.

use crate::algorithms::lemma1;
use crate::antenna::SensorAssignment;
use crate::bounds::theorem2_spread_threshold;
use crate::error::OrientError;
use crate::instance::Instance;
use crate::scheme::OrientationScheme;
use antennae_geometry::Point;
use antennae_parallel::{chunk_ranges, default_threads, parallel_map};

/// Smallest instance for which the per-vertex Lemma-1 sweep is fanned out;
/// below this the thread-scope setup costs more than the whole sweep.
const PARALLEL_ORIENT_MIN: usize = 4096;

/// Orients `k` antennae per sensor so that every MST edge exists in both
/// directions, using [`default_threads`] worker threads on large instances.
///
/// Fails when `k` is outside `1..=5`.  The caller is responsible for
/// checking that its spread budget `φ_k` is at least
/// [`theorem2_spread_threshold`]`(k)`; the scheme produced here always uses
/// at most that much spread per sensor, so a larger budget is automatically
/// respected.
pub fn orient_theorem2(instance: &Instance, k: usize) -> Result<OrientationScheme, OrientError> {
    orient_theorem2_with_threads(instance, k, default_threads())
}

/// [`orient_theorem2`] with an explicit worker-thread count.
///
/// Theorem 2 is one Lemma-1 application per vertex with no cross-vertex
/// state, so the sweep is chunked over [`chunk_ranges`] and the per-chunk
/// assignment vectors concatenated in order.  Each vertex's antennas are
/// computed by the same call whatever the chunking, so every thread count
/// produces the bit-identical scheme; each chunk reuses one neighbour
/// buffer across its vertices, keeping the hot loop allocation-light.
pub fn orient_theorem2_with_threads(
    instance: &Instance,
    k: usize,
    threads: usize,
) -> Result<OrientationScheme, OrientError> {
    if !(1..=5).contains(&k) {
        return Err(OrientError::UnsupportedAntennaCount { k });
    }
    let mst = instance.mst();
    let points = instance.points();
    let n = points.len();
    let orient_range = |start: usize, end: usize| -> Vec<SensorAssignment> {
        let mut out = Vec::with_capacity(end - start);
        let mut neighbors: Vec<Point> = Vec::with_capacity(8);
        for v in start..end {
            neighbors.clear();
            neighbors.extend(mst.neighbors(v).iter().map(|&(u, _)| points[u]));
            let antennas = lemma1::orient_node(&points[v], &neighbors, k);
            out.push(SensorAssignment::new(antennas));
        }
        out
    };
    let assignments = if threads > 1 && n >= PARALLEL_ORIENT_MIN {
        let ranges = chunk_ranges(n, threads);
        let chunks = parallel_map(&ranges, threads, |&(start, end)| orient_range(start, end));
        let mut assignments = Vec::with_capacity(n);
        for chunk in chunks {
            assignments.extend(chunk);
        }
        assignments
    } else {
        orient_range(0, n)
    };
    Ok(OrientationScheme::new(assignments))
}

/// The maximum spread per sensor that [`orient_theorem2`] can use for a given
/// `k` — the Theorem 2 threshold `2π(5−k)/5`.
pub fn worst_case_spread(k: usize) -> f64 {
    theorem2_spread_threshold(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;
    use antennae_geometry::Point;
    use proptest::prelude::*;
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
    fn rejects_invalid_antenna_counts() {
        let instance = random_instance(10, 1);
        assert!(matches!(
            orient_theorem2(&instance, 0),
            Err(OrientError::UnsupportedAntennaCount { k: 0 })
        ));
        assert!(matches!(
            orient_theorem2(&instance, 6),
            Err(OrientError::UnsupportedAntennaCount { k: 6 })
        ));
    }

    #[test]
    fn produces_strongly_connected_scheme_with_radius_lmax() {
        for k in 1..=5 {
            let instance = random_instance(60, 42 + k as u64);
            let scheme = orient_theorem2(&instance, k).unwrap();
            let report = verify(&instance, &scheme);
            assert!(report.is_strongly_connected, "k={k}");
            // Radius never exceeds lmax.
            assert!(
                report.max_radius_over_lmax <= 1.0 + 1e-9,
                "k={k}: radius {} lmax",
                report.max_radius_over_lmax
            );
            // Spread per sensor never exceeds the Theorem 2 threshold.
            assert!(
                report.max_spread_sum <= worst_case_spread(k) + 1e-9,
                "k={k}: spread {}",
                report.max_spread_sum
            );
            assert!(report.max_antenna_count <= k.max(1));
        }
    }

    #[test]
    fn single_sensor_and_pair() {
        let single = Instance::new(vec![Point::new(0.0, 0.0)]).unwrap();
        let scheme = orient_theorem2(&single, 2).unwrap();
        assert!(verify(&single, &scheme).is_strongly_connected);

        let pair = Instance::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).unwrap();
        let scheme = orient_theorem2(&pair, 1).unwrap();
        let report = verify(&pair, &scheme);
        assert!(report.is_strongly_connected);
        assert!((report.max_radius_over_lmax - 1.0).abs() < 1e-9);
    }

    #[test]
    fn collinear_chain_uses_zero_spread_for_k_at_least_two() {
        let pts: Vec<Point> = (0..8).map(|i| Point::new(i as f64, 0.0)).collect();
        let instance = Instance::new(pts).unwrap();
        let scheme = orient_theorem2(&instance, 2).unwrap();
        let report = verify(&instance, &scheme);
        assert!(report.is_strongly_connected);
        // Interior vertices have degree 2 ≤ k, so only beams are needed.
        assert_eq!(report.max_spread_sum, 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_theorem2_invariants(seed in 0u64..500, n in 2usize..50, k in 1usize..=5) {
            let instance = random_instance(n, seed);
            let scheme = orient_theorem2(&instance, k).unwrap();
            let report = verify(&instance, &scheme);
            prop_assert!(report.is_strongly_connected);
            prop_assert!(report.max_radius_over_lmax <= 1.0 + 1e-6);
            prop_assert!(report.max_spread_sum <= worst_case_spread(k) + 1e-6);
        }
    }
}
