//! EXP-F5 / EXP-F6: the zero-spread chain constructions of Theorems 5 and 6
//! (Figures 5 and 6).
//!
//! Figures 5 and 6 depict how a vertex connects its children with at most
//! two (respectively three) outgoing beams plus directed sibling edges whose
//! angles stay below `2π/3` (respectively `π/2`).  This driver measures, for
//! `k ∈ {2, 3, 4, 5}`, the quantities those figures are about: the maximum
//! number of beams a vertex aims at children (the "out-degree of the root"
//! in the induction), the largest chained sibling gap, the largest sibling
//! distance, and the worst overall radius, each against its bound.

use crate::experiments::common::{fmt_bound, fmt_check, TextTable};
use crate::generators::{standard_workloads, PointSetGenerator};
use antennae_core::algorithms::chains::{self, ChainStats};
use antennae_core::instance::Instance;
use antennae_core::verify::verify;
use antennae_geometry::PI;
use antennae_parallel::{default_threads, parallel_map};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregated results for one `k`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChainRow {
    /// Number of zero-spread beams per sensor.
    pub k: usize,
    /// Largest number of child-beams used at any vertex (Theorems 5/6 bound
    /// this by `k − 1`).
    pub max_chains: usize,
    /// Largest chained sibling gap observed (radians).
    pub max_gap: f64,
    /// The gap bound implied by the construction (`2π/3` for `k = 3`, `π/2`
    /// for `k = 4`, none for `k = 2`, unused for `k = 5`).
    pub gap_bound: Option<f64>,
    /// Worst measured radius over lmax.
    pub worst_radius: f64,
    /// The Table 1 radius bound for this `k` at spread 0.
    pub radius_bound: f64,
    /// Whether every instance verified strongly connected.
    pub all_connected: bool,
    /// Number of instances evaluated.
    pub instances: usize,
}

/// Report of the chain-construction experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainReport {
    /// One row per `k`.
    pub rows: Vec<ChainRow>,
}

impl ChainReport {
    /// Whether every row stayed within its radius bound and chain bound.
    pub fn all_within_bounds(&self) -> bool {
        self.rows.iter().all(|r| {
            r.all_connected
                && r.worst_radius <= r.radius_bound + 1e-6
                && r.max_chains < r.k
                && r.gap_bound.is_none_or(|b| r.max_gap <= b + 1e-6)
        })
    }
}

impl fmt::Display for ChainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXP-F5/F6 — zero-spread chain constructions (Theorems 5 & 6, Figures 5 & 6)"
        )?;
        let mut table = TextTable::new(vec![
            "k",
            "max child-beams (≤ k−1)",
            "max chained gap",
            "gap bound",
            "worst radius",
            "radius bound",
            "connected",
            "instances",
        ]);
        for r in &self.rows {
            table.add_row(vec![
                r.k.to_string(),
                r.max_chains.to_string(),
                format!("{:.4}", r.max_gap),
                fmt_bound(r.gap_bound),
                format!("{:.4}", r.worst_radius),
                format!("{:.4}", r.radius_bound),
                fmt_check(r.all_connected),
                r.instances.to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Configuration of the chain experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainConfig {
    /// Values of `k` to evaluate.
    pub ks: Vec<usize>,
    /// Workloads.
    pub workloads: Vec<PointSetGenerator>,
    /// Seeds per workload.
    pub seeds_per_workload: u64,
    /// Worker threads.
    pub threads: usize,
}

impl ChainConfig {
    /// Full configuration used by the report binary.
    pub fn full() -> Self {
        let mut workloads = standard_workloads();
        workloads.push(PointSetGenerator::StarArms {
            arms: 5,
            arm_length: 4,
        });
        ChainConfig {
            ks: vec![2, 3, 4, 5],
            workloads,
            seeds_per_workload: 10,
            threads: default_threads(),
        }
    }

    /// Quick configuration for tests.
    pub fn quick() -> Self {
        ChainConfig {
            ks: vec![2, 3, 4, 5],
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

/// The chained-gap bound of the construction for a given `k`.
pub fn gap_bound(k: usize) -> Option<f64> {
    match k {
        3 => Some(2.0 * PI / 3.0),
        4 => Some(PI / 2.0),
        _ => None,
    }
}

/// Runs the chain-construction experiment.
pub fn run(config: &ChainConfig) -> ChainReport {
    let mut rows = Vec::new();
    for &k in &config.ks {
        let mut jobs: Vec<(PointSetGenerator, u64)> = Vec::new();
        for workload in &config.workloads {
            for seed in 0..config.seeds_per_workload {
                jobs.push((workload.clone(), seed));
            }
        }
        let results: Vec<(ChainStats, f64, bool)> =
            parallel_map(&jobs, config.threads, |(workload, seed)| {
                let points = workload.generate(*seed);
                let instance = Instance::new(points).expect("non-empty workload");
                let outcome =
                    chains::orient_chains_with_stats(&instance, k).expect("k is in 2..=5");
                let report = verify(&instance, &outcome.scheme);
                (
                    outcome.stats,
                    report.max_radius_over_lmax,
                    report.is_strongly_connected,
                )
            });
        let mut row = ChainRow {
            k,
            max_chains: 0,
            max_gap: 0.0,
            gap_bound: gap_bound(k),
            worst_radius: 0.0,
            radius_bound: chains::guaranteed_radius(k).expect("k is in 2..=5"),
            all_connected: true,
            instances: results.len(),
        };
        for (stats, radius, connected) in &results {
            row.max_chains = row.max_chains.max(stats.max_chains_per_vertex);
            row.max_gap = row.max_gap.max(stats.max_chained_gap);
            row.worst_radius = row.worst_radius.max(*radius);
            row.all_connected &= connected;
        }
        rows.push(row);
    }
    ChainReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_respects_all_bounds() {
        let report = run(&ChainConfig::quick());
        assert_eq!(report.rows.len(), 4);
        assert!(report.all_within_bounds(), "{report}");
        // Radii are ordered: more beams never increase the worst radius on
        // identical workloads.
        let radii: Vec<f64> = report.rows.iter().map(|r| r.worst_radius).collect();
        assert!(radii.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        let rendered = report.to_string();
        assert!(rendered.contains("Theorems 5 & 6"));
    }

    #[test]
    fn gap_bounds_match_the_theorems() {
        assert_eq!(gap_bound(2), None);
        assert!((gap_bound(3).unwrap() - 2.0 * PI / 3.0).abs() < 1e-12);
        assert!((gap_bound(4).unwrap() - PI / 2.0).abs() < 1e-12);
        assert_eq!(gap_bound(5), None);
    }
}
