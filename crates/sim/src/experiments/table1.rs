//! EXP-T1: reproduction of Table 1.
//!
//! For every row of the paper's Table 1 — a `(k, φ_k)` regime together with a
//! claimed radius bound — the driver generates a mix of workloads, runs the
//! dispatched orientation algorithm, verifies strong connectivity with the
//! independent verifier, and reports the worst measured radius (in units of
//! `lmax`) next to the paper's bound.

use crate::experiments::common::{fmt_bound, fmt_check, TextTable};
use crate::generators::{standard_workloads, PointSetGenerator};
use crate::metrics::Summary;
use crate::record::RunRecord;
use antennae_core::antenna::AntennaBudget;
use antennae_core::batch::BatchOrienter;
use antennae_core::bounds;
use antennae_core::solver::implemented_radius_guarantee;
use antennae_core::verify::VerificationEngine;
use antennae_geometry::PI;
use antennae_parallel::{default_threads, parallel_map};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One row of Table 1: an antenna-count / spread regime and its bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Human-readable regime description (matches the paper's row).
    pub regime: String,
    /// Number of antennae per sensor.
    pub k: usize,
    /// Spread budget used for the experiment (the smallest value of the
    /// regime, i.e. the hardest case of the row).
    pub phi: f64,
    /// The paper's radius bound for this row (`None` when the row is the
    /// unbounded-heuristic baseline).
    pub paper_bound: Option<f64>,
    /// Reference the paper cites for the row.
    pub reference: String,
}

/// The twelve rows of Table 1, each evaluated at the *smallest* spread of its
/// regime (the hardest point of the interval).
pub fn table1_rows() -> Vec<Table1Row> {
    vec![
        Table1Row {
            regime: "k=1, φ₁ ≥ 0".into(),
            k: 1,
            phi: 0.0,
            paper_bound: Some(2.0),
            reference: "[14]".into(),
        },
        Table1Row {
            regime: "k=1, π ≤ φ₁ < 8π/5".into(),
            k: 1,
            phi: PI,
            paper_bound: bounds::one_antenna_radius(PI),
            reference: "[4]".into(),
        },
        Table1Row {
            regime: "k=1, φ₁ ≥ 8π/5".into(),
            k: 1,
            phi: 8.0 * PI / 5.0,
            paper_bound: Some(1.0),
            reference: "[4]".into(),
        },
        Table1Row {
            regime: "k=2, φ₂ ≥ 0".into(),
            k: 2,
            phi: 0.0,
            paper_bound: Some(2.0),
            reference: "[14]".into(),
        },
        Table1Row {
            regime: "k=2, 2π/3 ≤ φ₂ < π".into(),
            k: 2,
            phi: 2.0 * PI / 3.0,
            paper_bound: bounds::theorem3_radius(2.0 * PI / 3.0),
            reference: "Theorem 3".into(),
        },
        Table1Row {
            regime: "k=2, φ₂ ≥ π".into(),
            k: 2,
            phi: PI,
            paper_bound: bounds::theorem3_radius(PI),
            reference: "Theorem 3".into(),
        },
        Table1Row {
            regime: "k=2, φ₂ ≥ 6π/5".into(),
            k: 2,
            phi: 6.0 * PI / 5.0,
            paper_bound: Some(1.0),
            reference: "Theorem 2".into(),
        },
        Table1Row {
            regime: "k=3, φ₃ ≥ 0".into(),
            k: 3,
            phi: 0.0,
            paper_bound: Some(3.0_f64.sqrt()),
            reference: "Theorem 5".into(),
        },
        Table1Row {
            regime: "k=3, φ₃ ≥ 4π/5".into(),
            k: 3,
            phi: 4.0 * PI / 5.0,
            paper_bound: Some(1.0),
            reference: "Theorem 2".into(),
        },
        Table1Row {
            regime: "k=4, φ₄ ≥ 0".into(),
            k: 4,
            phi: 0.0,
            paper_bound: Some(2.0_f64.sqrt()),
            reference: "Theorem 6".into(),
        },
        Table1Row {
            regime: "k=4, φ₄ ≥ 2π/5".into(),
            k: 4,
            phi: 2.0 * PI / 5.0,
            paper_bound: Some(1.0),
            reference: "Theorem 2".into(),
        },
        Table1Row {
            regime: "k=5, φ₅ ≥ 0".into(),
            k: 5,
            phi: 0.0,
            paper_bound: Some(1.0),
            reference: "folklore".into(),
        },
    ]
}

/// Configuration of the Table 1 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Config {
    /// Workloads to evaluate every row on.
    pub workloads: Vec<PointSetGenerator>,
    /// Seeds per workload.
    pub seeds_per_workload: u64,
    /// Worker threads for the sweep.
    pub threads: usize,
}

impl Table1Config {
    /// Full configuration used by the report binary.
    pub fn full() -> Self {
        Table1Config {
            workloads: standard_workloads(),
            seeds_per_workload: 20,
            threads: default_threads(),
        }
    }

    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Table1Config {
            workloads: vec![
                PointSetGenerator::UniformSquare { n: 40, side: 10.0 },
                PointSetGenerator::PerturbedGrid {
                    cols: 6,
                    rows: 6,
                    jitter: 0.3,
                },
            ],
            seeds_per_workload: 3,
            threads: default_threads(),
        }
    }
}

/// Aggregated results for one row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1RowResult {
    /// The row definition.
    pub row: Table1Row,
    /// Worst measured radius / lmax over all instances.
    pub worst_radius: f64,
    /// Mean measured radius / lmax.
    pub mean_radius: f64,
    /// Whether every instance was verified strongly connected within budget.
    pub all_valid: bool,
    /// The guarantee of the *implemented* algorithm (differs from the paper
    /// bound only for the `k = 1` intermediate regime).
    pub implemented_bound: Option<f64>,
    /// Whether the worst measured radius respects the paper's bound.
    pub within_paper_bound: bool,
    /// Number of instances evaluated.
    pub instances: usize,
}

/// The full Table 1 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Report {
    /// Per-row aggregates, in the paper's row order.
    pub rows: Vec<Table1RowResult>,
    /// Every individual measurement.
    pub records: Vec<RunRecord>,
}

impl Table1Report {
    /// Returns `true` when every instance of every row verified strongly
    /// connected within its budget.
    pub fn all_valid(&self) -> bool {
        self.rows.iter().all(|r| r.all_valid)
    }
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXP-T1 — Table 1 reproduction (radius in units of lmax)")?;
        let mut table = TextTable::new(vec![
            "regime",
            "ref",
            "paper bound",
            "impl. bound",
            "worst measured",
            "mean",
            "connected",
            "within paper",
            "instances",
        ]);
        for r in &self.rows {
            table.add_row(vec![
                r.row.regime.clone(),
                r.row.reference.clone(),
                fmt_bound(r.row.paper_bound),
                fmt_bound(r.implemented_bound),
                format!("{:.4}", r.worst_radius),
                format!("{:.4}", r.mean_radius),
                fmt_check(r.all_valid),
                fmt_check(r.within_paper_bound),
                r.instances.to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Runs the Table 1 experiment.
///
/// Each `(workload, seed)` deployment is materialised as **one** instance
/// whose Euclidean MST is shared by all twelve budget rows through
/// [`BatchOrienter`] — the batch pipeline removes the per-row MST rebuild the
/// naive row-major sweep would pay.  Deployments fan out over the sweep's
/// worker threads; within a deployment the batch runs sequentially (the
/// outer level already saturates the pool).
pub fn run(config: &Table1Config) -> Table1Report {
    let rows = table1_rows();
    let budgets: Vec<AntennaBudget> = rows
        .iter()
        .map(|r| AntennaBudget::new(r.k, r.phi))
        .collect();
    // One job per (workload, seed): all twelve rows share the instance.
    let mut jobs: Vec<(PointSetGenerator, u64)> = Vec::new();
    for workload in &config.workloads {
        for seed in 0..config.seeds_per_workload {
            jobs.push((workload.clone(), seed));
        }
    }

    let per_job: Vec<Vec<RunRecord>> = parallel_map(&jobs, config.threads, |(workload, seed)| {
        let points = workload.generate(*seed);
        let batch = BatchOrienter::new(points)
            .expect("generated workloads are non-empty")
            .with_threads(1);
        let outcomes = batch.orient_budgets(&budgets);
        // All twelve rows verify against one instance, so they share its
        // cached spatial index: built once per deployment, like the MST
        // substrate.  The outer level already saturates the pool.
        let engine = VerificationEngine::new().with_threads(1);
        rows.iter()
            .zip(budgets.iter())
            .zip(outcomes)
            .map(|((row, budget), outcome)| {
                let outcome = outcome.expect("dispatch succeeds");
                let report =
                    engine.verify_with_budget(batch.instance(), &outcome.scheme, Some(*budget));
                RunRecord {
                    workload: workload.label(),
                    seed: *seed,
                    n: batch.instance().len(),
                    k: row.k,
                    phi: row.phi,
                    algorithm: outcome.algorithm.to_string(),
                    strongly_connected: report.is_valid() && report.is_strongly_connected,
                    radius_over_lmax: report.max_radius_over_lmax,
                    max_spread: report.max_spread_sum,
                    paper_bound: bounds::table1_radius(row.k, row.phi),
                    implemented_bound: implemented_radius_guarantee(row.k, row.phi),
                }
            })
            .collect()
    });
    let records: Vec<RunRecord> = per_job.into_iter().flatten().collect();

    // Aggregate per row.
    let per_row: Vec<Table1RowResult> = rows
        .iter()
        .map(|row| {
            // Rows are uniquely keyed by their (k, φ) pair (asserted by the
            // row-layout test), so records can be matched back without a
            // row-index side channel.
            let row_records: Vec<&RunRecord> = records
                .iter()
                .filter(|rec| rec.k == row.k && rec.phi == row.phi)
                .collect();
            let radii: Vec<f64> = row_records.iter().map(|r| r.radius_over_lmax).collect();
            let summary = Summary::of(&radii);
            let all_valid = row_records.iter().all(|r| r.strongly_connected);
            let worst = summary.max;
            let within = row.paper_bound.is_none_or(|b| worst <= b + 1e-6);
            Table1RowResult {
                row: row.clone(),
                worst_radius: worst,
                mean_radius: summary.mean,
                all_valid,
                implemented_bound: implemented_radius_guarantee(row.k, row.phi),
                within_paper_bound: within,
                instances: row_records.len(),
            }
        })
        .collect();

    Table1Report {
        rows: per_row,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_the_paper_layout() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 12);
        assert_eq!(rows.iter().filter(|r| r.k == 1).count(), 3);
        assert_eq!(rows.iter().filter(|r| r.k == 2).count(), 4);
        assert_eq!(rows.iter().filter(|r| r.k == 3).count(), 2);
        assert_eq!(rows.iter().filter(|r| r.k == 4).count(), 2);
        assert_eq!(rows.iter().filter(|r| r.k == 5).count(), 1);
        // Rows must stay uniquely keyed by (k, φ): run() matches records back
        // to rows through that pair.
        for (i, a) in rows.iter().enumerate() {
            for b in rows.iter().skip(i + 1) {
                assert!(a.k != b.k || a.phi != b.phi, "duplicate (k, φ) row key");
            }
        }
        // The bounds decrease down the k=2 block.
        let k2: Vec<f64> = rows
            .iter()
            .filter(|r| r.k == 2)
            .map(|r| r.paper_bound.unwrap())
            .collect();
        assert!(k2.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn quick_run_verifies_all_rows() {
        let report = run(&Table1Config::quick());
        assert_eq!(report.rows.len(), 12);
        assert!(report.all_valid(), "some instance failed verification");
        for row in &report.rows {
            assert!(row.instances > 0);
            // Every row backed by an implemented guarantee stays within it.
            if let Some(bound) = row.implemented_bound {
                assert!(
                    row.worst_radius <= bound + 1e-6,
                    "{}: worst {} > bound {}",
                    row.row.regime,
                    row.worst_radius,
                    bound
                );
            }
        }
        // The rendered report contains every regime label.
        let rendered = report.to_string();
        for row in &report.rows {
            assert!(rendered.contains(&row.row.regime));
        }
    }

    #[test]
    fn records_capture_individual_runs() {
        let config = Table1Config {
            workloads: vec![PointSetGenerator::UniformSquare { n: 25, side: 5.0 }],
            seeds_per_workload: 2,
            threads: 2,
        };
        let report = run(&config);
        assert_eq!(report.records.len(), 12 * 2);
        assert!(report.records.iter().all(|r| r.strongly_connected));
        assert!(report
            .records
            .iter()
            .all(|r| r.within_implemented_bound(1e-6)));
    }
}
