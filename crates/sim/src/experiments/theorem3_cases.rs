//! EXP-F3 / EXP-F4: case histogram of the Theorem 3 construction
//! (Figures 3 and 4).
//!
//! Figures 3 and 4 of the paper illustrate the local configurations the
//! two-antenna construction uses, by vertex degree, for `φ₂ = π` (Figure 3)
//! and `2π/3 ≤ φ₂ < π` (Figure 4).  This driver runs the construction over
//! the standard workloads and tallies, per vertex degree, how the vertices
//! were actually configured: how many children the vertex covered itself,
//! how many were delegated to a sibling, and whether the spread budget was
//! split across two wide antennae — together with the worst radius measured
//! for that spread regime.

use crate::experiments::common::{fmt_bound, TextTable};
use crate::generators::{standard_workloads, PointSetGenerator};
use antennae_core::algorithms::theorem3::{self, CaseLabel};
use antennae_core::instance::Instance;
use antennae_core::verify::verify;
use antennae_geometry::PI;
use antennae_parallel::{default_threads, parallel_map};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregated case counts for one spread regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseHistogram {
    /// The spread budget `φ₂` (radians).
    pub phi: f64,
    /// Counts per configuration label.
    pub counts: BTreeMap<CaseLabel, usize>,
    /// Worst measured radius over lmax for this regime.
    pub worst_radius: f64,
    /// The Theorem 3 bound for this regime.
    pub bound: Option<f64>,
    /// Whether every instance verified strongly connected.
    pub all_connected: bool,
    /// Number of instances evaluated.
    pub instances: usize,
}

impl CaseHistogram {
    /// Total number of configured vertices.
    pub fn total_vertices(&self) -> usize {
        self.counts.values().sum()
    }

    /// Counts aggregated by vertex degree (the figures are organized per
    /// degree).
    pub fn by_degree(&self) -> BTreeMap<usize, usize> {
        let mut out = BTreeMap::new();
        for (label, count) in &self.counts {
            *out.entry(label.degree).or_insert(0) += count;
        }
        out
    }
}

/// Report of the Theorem 3 case experiment (one histogram per regime).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Theorem3CasesReport {
    /// One histogram per spread budget evaluated.
    pub histograms: Vec<CaseHistogram>,
}

impl fmt::Display for Theorem3CasesReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXP-F3/F4 — Theorem 3 local-configuration histogram (Figures 3 & 4)"
        )?;
        for h in &self.histograms {
            writeln!(
                f,
                "\nφ₂ = {:.4} rad — worst radius {:.4} (bound {}), {} vertices over {} instances, all connected: {}",
                h.phi,
                h.worst_radius,
                fmt_bound(h.bound),
                h.total_vertices(),
                h.instances,
                h.all_connected
            )?;
            let mut table = TextTable::new(vec![
                "degree",
                "children covered by vertex",
                "children covered by sibling",
                "two wide antennas",
                "count",
            ]);
            for (label, count) in &h.counts {
                table.add_row(vec![
                    label.degree.to_string(),
                    label.children_covered_by_vertex.to_string(),
                    label.children_covered_by_sibling.to_string(),
                    if label.two_wide_antennas { "yes" } else { "no" }.to_string(),
                    count.to_string(),
                ]);
            }
            write!(f, "{table}")?;
        }
        Ok(())
    }
}

/// Configuration of the Theorem 3 case experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Theorem3CasesConfig {
    /// Spread budgets to evaluate (defaults: π for Figure 3, 3π/4 for
    /// Figure 4).
    pub phis: Vec<f64>,
    /// Workloads.
    pub workloads: Vec<PointSetGenerator>,
    /// Seeds per workload.
    pub seeds_per_workload: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Theorem3CasesConfig {
    /// Full configuration used by the report binary.
    ///
    /// The star workload is included on top of the standard mix because
    /// uniform deployments rarely contain degree-5 MST vertices, and the
    /// degree-5 cases are exactly what Figures 3(d–e) and 4(c–f) are about.
    pub fn full() -> Self {
        let mut workloads = standard_workloads();
        workloads.push(PointSetGenerator::StarArms {
            arms: 5,
            arm_length: 4,
        });
        Theorem3CasesConfig {
            phis: vec![PI, 0.75 * PI, 2.0 * PI / 3.0],
            workloads,
            seeds_per_workload: 10,
            threads: default_threads(),
        }
    }

    /// Quick configuration for tests.
    pub fn quick() -> Self {
        Theorem3CasesConfig {
            phis: vec![PI, 0.75 * PI],
            workloads: vec![
                PointSetGenerator::UniformSquare { n: 50, side: 10.0 },
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

/// Runs the Theorem 3 case experiment.
pub fn run(config: &Theorem3CasesConfig) -> Theorem3CasesReport {
    let mut histograms = Vec::new();
    for &phi in &config.phis {
        let mut jobs: Vec<(PointSetGenerator, u64)> = Vec::new();
        for workload in &config.workloads {
            for seed in 0..config.seeds_per_workload {
                jobs.push((workload.clone(), seed));
            }
        }
        let results = parallel_map(&jobs, config.threads, |(workload, seed)| {
            let points = workload.generate(*seed);
            let instance = Instance::new(points).expect("non-empty workload");
            let outcome = theorem3::orient_two_antennae(&instance, phi)
                .expect("phi is above the Theorem 3 threshold");
            let report = verify(&instance, &outcome.scheme);
            (
                outcome.case_counts,
                report.max_radius_over_lmax,
                report.is_strongly_connected,
            )
        });
        let mut counts: BTreeMap<CaseLabel, usize> = BTreeMap::new();
        let mut worst_radius: f64 = 0.0;
        let mut all_connected = true;
        for (case_counts, radius, connected) in &results {
            for (label, count) in case_counts {
                *counts.entry(*label).or_insert(0) += count;
            }
            worst_radius = worst_radius.max(*radius);
            all_connected &= connected;
        }
        histograms.push(CaseHistogram {
            phi,
            counts,
            worst_radius,
            bound: theorem3::guaranteed_radius(phi),
            all_connected,
            instances: results.len(),
        });
    }
    Theorem3CasesReport { histograms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_histograms_within_bounds() {
        let report = run(&Theorem3CasesConfig::quick());
        assert_eq!(report.histograms.len(), 2);
        for h in &report.histograms {
            assert!(h.all_connected);
            assert!(h.total_vertices() > 0);
            assert!(h.worst_radius <= h.bound.unwrap() + 1e-6);
            // Degrees seen are between 1 and 5.
            for degree in h.by_degree().keys() {
                assert!((1..=5).contains(degree));
            }
        }
        let rendered = report.to_string();
        assert!(rendered.contains("Theorem 3"));
        assert!(rendered.contains("degree"));
    }

    #[test]
    fn smaller_budget_never_yields_smaller_worst_radius() {
        let report = run(&Theorem3CasesConfig::quick());
        // histograms[0] is φ = π, histograms[1] is φ = 3π/4 on the same
        // workloads; the tighter budget cannot do better in the worst case.
        let at_pi = report.histograms[0].worst_radius;
        let at_three_quarters = report.histograms[1].worst_radius;
        assert!(at_pi <= at_three_quarters + 1e-9);
    }
}
