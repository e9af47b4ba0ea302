//! EXP-CHURN: dynamic deployments under arrival / failure / mobility churn.
//!
//! Every other experiment freezes a deployment before orienting it; this one
//! drives the ROADMAP's ad-hoc-network motivation end to end.  Each cell of
//! the sweep (workload × churn mix × budget × seed) opens a
//! [`DynamicSolverSession`], replays a deterministic
//! [`churn_trace`], and records per edit:
//!
//! * the **dynamic latency** — time to update the MST, re-orient
//!   (incrementally in the Theorem 2 regime) and re-verify after the edit,
//! * at checkpoints, the **static baseline latency** — a from-scratch
//!   `Instance::new` + solve + verify over the same live point set,
//! * the **radius drift** — |dynamic − baseline| measured radius at the
//!   checkpoints (zero whenever both sides select the same construction),
//!   plus the worst measured radius seen across the run,
//! * whether every verdict along the trace was valid.
//!
//! The quick configuration runs in test time; the full one sweeps the edit
//! rates × generators × k × φ grid the issue calls for.

use crate::events::{churn_trace, ChurnEvent, ChurnMix, ChurnOp};
use crate::experiments::common::{fmt_check, TextTable};
use crate::generators::PointSetGenerator;
use antennae_core::antenna::AntennaBudget;
use antennae_core::bounds::theorem2_spread_threshold;
use antennae_core::dynamic::{DynamicInstance, DynamicSolverSession, Edit};
use antennae_core::instance::Instance;
use antennae_core::solver::Solver;
use antennae_core::verify::verify_with_budget;
use antennae_geometry::{Point, PI};
use antennae_parallel::{default_threads, parallel_map};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Configuration of the churn experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Initial deployments.
    pub workloads: Vec<PointSetGenerator>,
    /// Churn mixes to sweep (the edit-rate axis).
    pub mixes: Vec<ChurnMix>,
    /// `(k, φ)` budgets to sweep.
    pub budgets: Vec<(usize, f64)>,
    /// Events replayed per run.
    pub events: usize,
    /// Seeds per (workload, mix, budget) cell.
    pub seeds_per_cell: u64,
    /// Every how many events the static re-solve baseline is sampled.
    pub baseline_every: usize,
    /// Side of the arrival region and scale of mobility steps.
    pub region_side: f64,
    /// Worker threads (cells are independent).
    pub threads: usize,
}

impl ChurnConfig {
    /// Full configuration used by the report binary.
    pub fn full() -> Self {
        ChurnConfig {
            workloads: vec![
                PointSetGenerator::UniformSquare { n: 250, side: 20.0 },
                PointSetGenerator::Clustered {
                    n: 200,
                    clusters: 5,
                    side: 30.0,
                    spread: 1.5,
                },
                PointSetGenerator::PerturbedGrid {
                    cols: 15,
                    rows: 15,
                    jitter: 0.3,
                },
            ],
            mixes: vec![
                ChurnMix::balanced(3.0),
                ChurnMix {
                    arrival: 4.0,
                    failure: 1.0,
                    mobility: 1.0,
                },
                ChurnMix {
                    arrival: 0.5,
                    failure: 0.5,
                    mobility: 5.0,
                },
            ],
            budgets: vec![
                (2, theorem2_spread_threshold(2)),
                (3, theorem2_spread_threshold(3)),
                (2, PI),
                (3, 0.0),
            ],
            events: 300,
            seeds_per_cell: 3,
            baseline_every: 25,
            region_side: 20.0,
            threads: default_threads(),
        }
    }

    /// Quick configuration for tests.
    pub fn quick() -> Self {
        ChurnConfig {
            workloads: vec![PointSetGenerator::UniformSquare { n: 40, side: 10.0 }],
            mixes: vec![ChurnMix::balanced(3.0)],
            budgets: vec![(2, theorem2_spread_threshold(2)), (2, PI)],
            events: 30,
            seeds_per_cell: 1,
            baseline_every: 10,
            region_side: 10.0,
            threads: default_threads(),
        }
    }
}

/// Aggregated measurements of one sweep cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnCell {
    /// Workload label.
    pub workload: String,
    /// Churn-mix label.
    pub mix: String,
    /// Antennae per sensor.
    pub k: usize,
    /// Spread budget (radians).
    pub phi: f64,
    /// Seed of the run.
    pub seed: u64,
    /// Events applied (skipped events — e.g. failures at the population
    /// floor — are not counted).
    pub events: usize,
    /// Whether the session ran the incremental Theorem 2 path.
    pub incremental: bool,
    /// Live sensors after the trace.
    pub final_n: usize,
    /// Mean dynamic per-edit latency (µs).
    pub dyn_mean_us: f64,
    /// Worst dynamic per-edit latency (µs).
    pub dyn_max_us: f64,
    /// Mean static re-solve+re-verify latency at the checkpoints (µs).
    pub baseline_mean_us: f64,
    /// `baseline_mean_us / dyn_mean_us`.
    pub speedup: f64,
    /// Mean digraph rows recomputed per edit.
    pub mean_rows_recomputed: f64,
    /// Worst measured radius over `lmax` seen along the trace.
    pub worst_radius_over_lmax: f64,
    /// Max |dynamic − baseline| measured radius at the checkpoints.
    pub max_radius_drift: f64,
    /// Whether every per-edit verdict was valid.
    pub all_valid: bool,
}

/// The churn report: one [`ChurnCell`] per (workload, mix, budget, seed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// All sweep cells, in configuration order.
    pub cells: Vec<ChurnCell>,
}

impl ChurnReport {
    /// Whether every verdict across every cell was valid.
    pub fn all_valid(&self) -> bool {
        self.cells.iter().all(|c| c.all_valid)
    }

    /// The worst radius drift across all cells.
    pub fn max_radius_drift(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.max_radius_drift)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for ChurnReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXP-CHURN — dynamic re-orientation under churn (latencies per edit), all valid: {}",
            self.all_valid()
        )?;
        let mut table = TextTable::new(vec![
            "workload",
            "mix",
            "k",
            "φ",
            "inc",
            "events",
            "n_end",
            "dyn µs",
            "max µs",
            "rebuild µs",
            "speedup",
            "rows/edit",
            "worst r",
            "drift",
            "valid",
        ]);
        for c in &self.cells {
            table.add_row(vec![
                c.workload.clone(),
                c.mix.clone(),
                c.k.to_string(),
                format!("{:.3}", c.phi),
                fmt_check(c.incremental),
                c.events.to_string(),
                c.final_n.to_string(),
                format!("{:.1}", c.dyn_mean_us),
                format!("{:.1}", c.dyn_max_us),
                format!("{:.1}", c.baseline_mean_us),
                format!("{:.1}x", c.speedup),
                format!("{:.1}", c.mean_rows_recomputed),
                format!("{:.4}", c.worst_radius_over_lmax),
                format!("{:.2e}", c.max_radius_drift),
                fmt_check(c.all_valid),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Translates a trace event into a session edit against the current live
/// population.  Returns `None` for events that must be skipped (failures at
/// the 2-sensor population floor).  Shared with the sharded-vs-global
/// comparison ([`crate::experiments::shard_churn`]).
pub(crate) fn resolve_edit(
    session: &DynamicSolverSession,
    event: &ChurnEvent,
    side: f64,
) -> Option<Edit> {
    match event.op {
        ChurnOp::Arrive(p) => Some(Edit::Insert(p)),
        ChurnOp::Fail { pick } => {
            let ids = session.instance().ids();
            (ids.len() > 2).then(|| Edit::Remove(ids[(pick % ids.len() as u64) as usize]))
        }
        ChurnOp::Step { pick, dx, dy } => {
            let ids = session.instance().ids();
            let id = ids[(pick % ids.len() as u64) as usize];
            let p = session.instance().point(id).expect("live id");
            Some(Edit::Move(
                id,
                Point::new((p.x + dx).clamp(0.0, side), (p.y + dy).clamp(0.0, side)),
            ))
        }
    }
}

fn run_cell(
    workload: &PointSetGenerator,
    mix: ChurnMix,
    (k, phi): (usize, f64),
    seed: u64,
    config: &ChurnConfig,
) -> ChurnCell {
    let budget = AntennaBudget::new(k, phi);
    let points = workload.generate(seed);
    let inst = DynamicInstance::new(&points).expect("non-empty workload");
    let mut session = DynamicSolverSession::new(inst, budget).expect("valid budget");
    let trace = churn_trace(
        mix,
        config.events,
        config.region_side,
        config.region_side / 20.0,
        seed.wrapping_add(0x5EED),
    );

    let mut applied = 0usize;
    let mut dyn_total_us = 0.0f64;
    let mut dyn_max_us = 0.0f64;
    let mut rows_total = 0usize;
    let mut worst_radius = session.report().max_radius_over_lmax;
    let mut all_valid = session.report().is_valid();
    let mut baseline_total_us = 0.0f64;
    let mut baseline_samples = 0usize;
    let mut max_drift = 0.0f64;

    for event in &trace {
        let Some(edit) = resolve_edit(&session, event, config.region_side) else {
            continue;
        };
        let start = Instant::now();
        let outcome = session.apply(edit).expect("edit on live id");
        let elapsed = start.elapsed().as_secs_f64() * 1e6;
        applied += 1;
        dyn_total_us += elapsed;
        dyn_max_us = dyn_max_us.max(elapsed);
        rows_total += outcome.rows_recomputed;
        worst_radius = worst_radius.max(outcome.measured_radius_over_lmax);
        all_valid &= outcome.report.is_valid();

        if applied.is_multiple_of(config.baseline_every) {
            // Static baseline on the identical live deployment: full MST
            // rebuild, full solve, from-scratch verification.
            let live: Vec<Point> = {
                let instance = session.materialized().expect("live deployment");
                instance.points().to_vec()
            };
            let start = Instant::now();
            let instance = Instance::new(live).expect("non-empty");
            let outcome_static = Solver::on(&instance)
                .with_budget(budget)
                .run()
                .expect("valid budget");
            let report = verify_with_budget(&instance, &outcome_static.scheme, Some(budget));
            baseline_total_us += start.elapsed().as_secs_f64() * 1e6;
            baseline_samples += 1;
            all_valid &= report.is_valid();
            max_drift = max_drift
                .max((outcome.measured_radius_over_lmax - report.max_radius_over_lmax).abs());
        }
    }

    let dyn_mean_us = if applied > 0 {
        dyn_total_us / applied as f64
    } else {
        0.0
    };
    let baseline_mean_us = if baseline_samples > 0 {
        baseline_total_us / baseline_samples as f64
    } else {
        0.0
    };
    ChurnCell {
        workload: workload.label(),
        mix: mix.label(),
        k,
        phi,
        seed,
        events: applied,
        incremental: session.is_incremental(),
        final_n: session.instance().len(),
        dyn_mean_us,
        dyn_max_us,
        baseline_mean_us,
        speedup: if dyn_mean_us > 0.0 {
            baseline_mean_us / dyn_mean_us
        } else {
            0.0
        },
        mean_rows_recomputed: if applied > 0 {
            rows_total as f64 / applied as f64
        } else {
            0.0
        },
        worst_radius_over_lmax: worst_radius,
        max_radius_drift: max_drift,
        all_valid,
    }
}

/// Runs the churn experiment: every (workload, mix, budget, seed) cell is an
/// independent session replay, fanned out over the worker pool.
pub fn run(config: &ChurnConfig) -> ChurnReport {
    let mut cells_spec = Vec::new();
    for workload in &config.workloads {
        for &mix in &config.mixes {
            for &budget in &config.budgets {
                for seed in 0..config.seeds_per_cell {
                    cells_spec.push((workload.clone(), mix, budget, seed));
                }
            }
        }
    }
    let cells = parallel_map(
        &cells_spec,
        config.threads,
        |(workload, mix, budget, seed)| run_cell(workload, *mix, *budget, *seed, config),
    );
    ChurnReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_churn_runs_clean() {
        let config = ChurnConfig::quick();
        let report = run(&config);
        assert_eq!(report.cells.len(), 2); // 1 workload × 1 mix × 2 budgets
        assert!(report.all_valid(), "{report}");
        for cell in &report.cells {
            assert!(cell.events > 0);
            assert!(cell.final_n >= 2);
            assert!(cell.dyn_mean_us > 0.0);
        }
        // The Theorem 2 budget takes the incremental path, (2, π) does not;
        // at the checkpoints both sides pick the same construction, so the
        // radius must not drift.
        assert!(report.cells[0].incremental);
        assert!(!report.cells[1].incremental);
        assert!(report.max_radius_drift() < 1e-9, "{report}");
        let rendered = report.to_string();
        assert!(rendered.contains("EXP-CHURN"));
        assert!(rendered.contains("speedup"));
    }
}
