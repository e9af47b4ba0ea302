//! EXP-CC: strong c-connectivity of the produced orientations (the paper's
//! open problem, §5).
//!
//! The conclusion of the paper asks whether the constructions can be extended
//! to guarantee strong *c*-connectivity (survival of any `c − 1` node
//! failures).  The constructions themselves only target `c = 1`; this
//! experiment measures how far they already are from `c = 2`: for each
//! `(k, φ)` regime it reports the fraction of instances whose induced
//! digraph tolerates any single node failure, and the average number of
//! "critical" sensors (cut vertices of the communication graph).

use crate::experiments::common::TextTable;
use crate::generators::PointSetGenerator;
use antennae_core::antenna::AntennaBudget;
use antennae_core::instance::Instance;
use antennae_core::solver::Solver;
use antennae_core::verify::VerificationEngine;
use antennae_geometry::PI;
use antennae_graph::traversal::{TraversalScratch, VertexMask};
use antennae_parallel::{default_threads, parallel_map};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregated fault-tolerance results for one `(k, φ)` regime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CConnectivityRow {
    /// Antennae per sensor.
    pub k: usize,
    /// Spread budget (radians).
    pub phi: f64,
    /// Fraction of instances that were strongly connected (should be 1.0).
    pub strongly_connected: f64,
    /// Fraction of instances that tolerate any single node failure
    /// (strongly 2-connected).
    pub survives_single_failure: f64,
    /// Mean fraction of sensors that are critical (their individual removal
    /// disconnects the remaining network).
    pub mean_critical_fraction: f64,
    /// Number of instances evaluated.
    pub instances: usize,
}

/// Report of the c-connectivity experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CConnectivityReport {
    /// One row per regime.
    pub rows: Vec<CConnectivityRow>,
}

impl fmt::Display for CConnectivityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXP-CC — strong c-connectivity of the produced orientations (paper §5 open problem)"
        )?;
        let mut table = TextTable::new(vec![
            "k",
            "φ (rad)",
            "strongly connected",
            "survives 1 failure",
            "mean critical sensors",
            "instances",
        ]);
        for r in &self.rows {
            table.add_row(vec![
                r.k.to_string(),
                format!("{:.3}", r.phi),
                format!("{:.0}%", r.strongly_connected * 100.0),
                format!("{:.0}%", r.survives_single_failure * 100.0),
                format!("{:.1}%", r.mean_critical_fraction * 100.0),
                r.instances.to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Configuration of the c-connectivity experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CConnectivityConfig {
    /// Regimes `(k, φ)` to evaluate.
    pub regimes: Vec<(usize, f64)>,
    /// Workload generator.
    pub workload: PointSetGenerator,
    /// Seeds (instances) per regime.
    pub seeds: u64,
    /// Worker threads.
    pub threads: usize,
}

impl CConnectivityConfig {
    /// Full configuration used by the report binary.
    pub fn full() -> Self {
        CConnectivityConfig {
            regimes: vec![(1, 8.0 * PI / 5.0), (2, PI), (3, 0.0), (4, 0.0), (5, 0.0)],
            workload: PointSetGenerator::UniformSquare { n: 60, side: 10.0 },
            seeds: 15,
            threads: default_threads(),
        }
    }

    /// Quick configuration for tests.
    pub fn quick() -> Self {
        CConnectivityConfig {
            regimes: vec![(2, PI), (5, 0.0)],
            workload: PointSetGenerator::UniformSquare { n: 30, side: 8.0 },
            seeds: 3,
            threads: default_threads(),
        }
    }
}

/// Runs the c-connectivity experiment.
pub fn run(config: &CConnectivityConfig) -> CConnectivityReport {
    let rows = config
        .regimes
        .iter()
        .map(|&(k, phi)| {
            let jobs: Vec<u64> = (0..config.seeds).collect();
            let results = parallel_map(&jobs, config.threads, |seed| {
                let points = config.workload.generate(*seed);
                let instance = Instance::new(points.clone()).expect("non-empty workload");
                let scheme = Solver::on(&instance)
                    .with_budget(AntennaBudget::new(k, phi))
                    .run()
                    .expect("valid budget")
                    .scheme;
                // One CSR build per deployment (sub-quadratic engine), then
                // n masked strong-connectivity probes through one reused
                // scratch — no per-candidate subgraph clone.
                // threads = 1: this closure already runs inside the seed
                // fan-out above, and the outer level saturates the pool (the
                // same no-nested-oversubscription split the batch pipeline
                // and table1 use).
                let digraph = VerificationEngine::new()
                    .with_threads(1)
                    .induced_digraph(&points, &scheme);
                let n = digraph.len();
                let mut scratch = TraversalScratch::new();
                let connected = n <= 1 || scratch.is_strongly_connected(&digraph, None);
                // Critical sensors: vertices whose individual removal
                // disconnects the rest — probed for every deployment
                // (connected or not, matching the pre-mask statistics) with
                // the one scratch and mask.  A deployment survives any
                // single failure iff it is connected and has none.
                let mut mask = VertexMask::new(n);
                let mut critical = 0usize;
                for v in 0..n {
                    mask.remove(v);
                    if !scratch.is_strongly_connected(&digraph, Some(&mask)) {
                        critical += 1;
                    }
                    mask.restore(v);
                }
                let survives = connected && critical == 0;
                (
                    connected,
                    survives,
                    critical as f64 / digraph.len().max(1) as f64,
                )
            });
            let count = results.len().max(1) as f64;
            CConnectivityRow {
                k,
                phi,
                strongly_connected: results.iter().filter(|(c, _, _)| *c).count() as f64 / count,
                survives_single_failure: results.iter().filter(|(_, s, _)| *s).count() as f64
                    / count,
                mean_critical_fraction: results.iter().map(|(_, _, f)| f).sum::<f64>() / count,
                instances: results.len(),
            }
        })
        .collect();
    CConnectivityReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_connectivity_and_criticality() {
        let report = run(&CConnectivityConfig::quick());
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            // Every produced orientation is strongly connected...
            assert!((row.strongly_connected - 1.0).abs() < 1e-9);
            // ...but tree-based constructions have critical sensors, so the
            // critical fraction is a sensible probability.
            assert!(row.mean_critical_fraction >= 0.0 && row.mean_critical_fraction <= 1.0);
            assert!(row.survives_single_failure >= 0.0 && row.survives_single_failure <= 1.0);
        }
        let rendered = report.to_string();
        assert!(rendered.contains("survives 1 failure"));
    }

    #[test]
    fn tree_based_schemes_have_critical_vertices_on_a_path() {
        // On a path instance every interior sensor is critical regardless of
        // k, so single-failure survival must be 0.
        let config = CConnectivityConfig {
            regimes: vec![(3, 0.0)],
            workload: PointSetGenerator::Path { n: 12 },
            seeds: 1,
            threads: 1,
        };
        let report = run(&config);
        assert_eq!(report.rows[0].survives_single_failure, 0.0);
        assert!(report.rows[0].mean_critical_fraction > 0.5);
    }
}
