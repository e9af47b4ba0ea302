//! EXP-F2: empirical validation of Facts 1 and 2 (Figure 2).
//!
//! Fact 1: for adjacent MST neighbours `u, w` of a vertex `v`, the angle
//! `∠uvw` is at least `π/3`, `d(u, w) ≤ 2·sin(∠uvw / 2)` (in units of
//! `lmax`), and the triangle `△uvw` is empty.  Fact 2: at a degree-5 vertex
//! the consecutive neighbour angles lie in `[π/3, 2π/3]` and the two-apart
//! angles in `[2π/3, π]`.  This driver measures all of these quantities on
//! generated MSTs and reports the worst observations.

use crate::experiments::common::{fmt_check, TextTable};
use crate::generators::{standard_workloads, PointSetGenerator};
use antennae_geometry::angular::{circular_gaps, sort_ccw};
use antennae_geometry::{Point, Triangle, PI};
use antennae_graph::euclidean::EuclideanMst;
use antennae_parallel::{default_threads, parallel_map};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Measurements over one generated MST.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MstFactsSample {
    /// Number of sensors.
    pub n: usize,
    /// Maximum vertex degree of the MST (must be ≤ 5).
    pub max_degree: usize,
    /// Minimum angle between adjacent MST edges (radians); `f64::INFINITY`
    /// when no vertex has two neighbours.
    pub min_adjacent_angle: f64,
    /// Maximum ratio `d(u, w) / (2·sin(∠uvw / 2) · lmax)` over adjacent
    /// neighbour pairs (Fact 1(2) claims ≤ 1).
    pub max_chord_ratio: f64,
    /// Number of adjacent-neighbour triangles that contained another sensor
    /// strictly inside (Fact 1(3) claims 0).
    pub non_empty_triangles: usize,
    /// Minimum consecutive angle at degree-5 vertices (Fact 2(1): ≥ π/3);
    /// `f64::INFINITY` when there is no degree-5 vertex.
    pub degree5_min_consecutive: f64,
    /// Maximum consecutive angle at degree-5 vertices (Fact 2(1): ≤ 2π/3).
    pub degree5_max_consecutive: f64,
    /// Number of degree-5 vertices observed.
    pub degree5_vertices: usize,
}

/// Aggregated report of the MST-facts experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MstFactsReport {
    /// One row per (workload, seed).
    pub samples: Vec<(String, MstFactsSample)>,
}

impl MstFactsReport {
    /// Whether every sample satisfied Fact 1 and Fact 2 (within numerical
    /// tolerance).
    pub fn all_facts_hold(&self) -> bool {
        self.samples.iter().all(|(_, s)| {
            s.max_degree <= 5
                && (s.min_adjacent_angle.is_infinite() || s.min_adjacent_angle >= PI / 3.0 - 1e-6)
                && s.max_chord_ratio <= 1.0 + 1e-6
                && s.non_empty_triangles == 0
                && (s.degree5_vertices == 0
                    || (s.degree5_min_consecutive >= PI / 3.0 - 1e-6
                        && s.degree5_max_consecutive <= 2.0 * PI / 3.0 + 1e-6))
        })
    }
}

impl fmt::Display for MstFactsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXP-F2 — MST Facts 1 & 2 (angles in radians)")?;
        let mut table = TextTable::new(vec![
            "workload",
            "n",
            "max degree",
            "min adj angle",
            "max chord ratio",
            "non-empty triangles",
            "deg5 vertices",
            "deg5 angle range",
            "facts hold",
        ]);
        for (label, s) in &self.samples {
            let angle_range = if s.degree5_vertices == 0 {
                "-".to_string()
            } else {
                format!(
                    "[{:.3}, {:.3}]",
                    s.degree5_min_consecutive, s.degree5_max_consecutive
                )
            };
            let holds =
                s.max_degree <= 5 && s.max_chord_ratio <= 1.0 + 1e-6 && s.non_empty_triangles == 0;
            table.add_row(vec![
                label.clone(),
                s.n.to_string(),
                s.max_degree.to_string(),
                if s.min_adjacent_angle.is_finite() {
                    format!("{:.4}", s.min_adjacent_angle)
                } else {
                    "-".to_string()
                },
                format!("{:.4}", s.max_chord_ratio),
                s.non_empty_triangles.to_string(),
                s.degree5_vertices.to_string(),
                angle_range,
                fmt_check(holds),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Measures Facts 1 and 2 on the MST of `points`.
pub fn measure(points: &[Point]) -> MstFactsSample {
    let mst = EuclideanMst::build(points).expect("non-empty point set");
    let lmax = mst.lmax().max(f64::MIN_POSITIVE);
    let mut min_adjacent_angle = f64::INFINITY;
    let mut max_chord_ratio: f64 = 0.0;
    let mut non_empty_triangles = 0usize;
    let mut degree5_min = f64::INFINITY;
    let mut degree5_max: f64 = 0.0;
    let mut degree5_vertices = 0usize;

    for v in 0..mst.len() {
        let neighbor_ids: Vec<usize> = mst.neighbors(v).iter().map(|&(u, _)| u).collect();
        if neighbor_ids.len() < 2 {
            continue;
        }
        let apex = points[v];
        let neighbor_pts: Vec<Point> = neighbor_ids.iter().map(|&u| points[u]).collect();
        let sorted = sort_ccw(&apex, &neighbor_pts);
        let gaps = circular_gaps(&sorted);
        let d = sorted.len();
        for i in 0..d {
            // Skip the wrap-around gap when it is not a genuine adjacent pair
            // (for d == 2 both gaps are genuine).
            let angle = gaps[i];
            let a_pt = neighbor_pts[sorted[i].index];
            let b_pt = neighbor_pts[sorted[(i + 1) % d].index];
            if d > 2 || i == 0 {
                min_adjacent_angle = min_adjacent_angle.min(angle);
            }
            // Fact 1(2): chord length vs 2·sin(angle/2)·lmax — only meaningful
            // for the actual adjacent pairs (consecutive in ccw order).
            if angle <= PI + 1e-9 {
                let chord = a_pt.distance(&b_pt);
                let bound = 2.0 * (angle / 2.0).sin() * lmax;
                if bound > 1e-12 {
                    max_chord_ratio = max_chord_ratio.max(chord / bound);
                }
            }
            // Fact 1(3): the triangle (a, v, b) is empty of other sensors.
            let triangle = Triangle::new(a_pt, apex, b_pt);
            let occupied = points.iter().enumerate().any(|(idx, p)| {
                idx != v
                    && idx != neighbor_ids[sorted[i].index]
                    && idx != neighbor_ids[sorted[(i + 1) % d].index]
                    && triangle.contains(p, true)
            });
            if occupied {
                non_empty_triangles += 1;
            }
        }
        if mst.degree(v) == 5 {
            degree5_vertices += 1;
            for &g in &gaps {
                degree5_min = degree5_min.min(g);
                degree5_max = degree5_max.max(g);
            }
        }
    }

    MstFactsSample {
        n: points.len(),
        max_degree: mst.max_degree(),
        min_adjacent_angle,
        max_chord_ratio,
        non_empty_triangles,
        degree5_min_consecutive: degree5_min,
        degree5_max_consecutive: degree5_max,
        degree5_vertices,
    }
}

/// Configuration of the MST-facts experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MstFactsConfig {
    /// Workloads to measure.
    pub workloads: Vec<PointSetGenerator>,
    /// Seeds per workload.
    pub seeds_per_workload: u64,
    /// Worker threads.
    pub threads: usize,
}

impl MstFactsConfig {
    /// Full configuration used by the report binary.
    pub fn full() -> Self {
        let mut workloads = standard_workloads();
        workloads.push(PointSetGenerator::UniformSquare {
            n: 1000,
            side: 40.0,
        });
        MstFactsConfig {
            workloads,
            seeds_per_workload: 10,
            threads: default_threads(),
        }
    }

    /// Quick configuration for tests.
    pub fn quick() -> Self {
        MstFactsConfig {
            workloads: vec![
                PointSetGenerator::UniformSquare { n: 60, side: 10.0 },
                PointSetGenerator::StarArms {
                    arms: 5,
                    arm_length: 3,
                },
            ],
            seeds_per_workload: 2,
            threads: default_threads(),
        }
    }
}

/// Runs the MST-facts experiment.
pub fn run(config: &MstFactsConfig) -> MstFactsReport {
    let mut jobs: Vec<(PointSetGenerator, u64)> = Vec::new();
    for workload in &config.workloads {
        for seed in 0..config.seeds_per_workload {
            jobs.push((workload.clone(), seed));
        }
    }
    let samples = parallel_map(&jobs, config.threads, |(workload, seed)| {
        let points = workload.generate(*seed);
        (format!("{} #{seed}", workload.label()), measure(&points))
    });
    MstFactsReport { samples }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_hold_on_quick_workloads() {
        let report = run(&MstFactsConfig::quick());
        assert!(!report.samples.is_empty());
        assert!(report.all_facts_hold(), "{report}");
        let rendered = report.to_string();
        assert!(rendered.contains("max chord ratio"));
    }

    #[test]
    fn star_configuration_has_a_degree_five_vertex() {
        let points = PointSetGenerator::StarArms {
            arms: 5,
            arm_length: 2,
        }
        .generate(0);
        let sample = measure(&points);
        assert_eq!(sample.degree5_vertices, 1);
        assert!(sample.degree5_min_consecutive >= PI / 3.0 - 1e-9);
        assert!(sample.degree5_max_consecutive <= 2.0 * PI / 3.0 + 1e-9);
        assert_eq!(sample.max_degree, 5);
    }

    #[test]
    fn path_instance_has_wide_angles_only() {
        let points = PointSetGenerator::Path { n: 10 }.generate(0);
        let sample = measure(&points);
        assert_eq!(sample.max_degree, 2);
        // Interior vertices see their two neighbours at exactly π.
        assert!((sample.min_adjacent_angle - PI).abs() < 1e-9);
        assert_eq!(sample.non_empty_triangles, 0);
    }
}
