//! EXP-SHARD-CHURN: sharded vs. one-tile dynamic engines on identical traces.
//!
//! The spatial-sharding layer promises two things: tile-sized index work per
//! edit (cost), and **bit-exactness** to the unsharded engine (semantics).
//! This experiment measures both at once.  Each cell replays one
//! deterministic [`churn_trace`] through *two* sessions over the same
//! initial deployment — one on a one-tile index
//! ([`DynamicInstance::new`]), one on a per-tile forest
//! ([`DynamicInstance::new_sharded`]) — applying the identical edit to both
//! and recording:
//!
//! * per-edit latency of each engine and the sharded/global speedup,
//! * whether every edit left the two sessions **bit-identical** (measured
//!   radius, `lmax` and MST weight compared via `f64::to_bits`),
//! * whether every verdict along both traces was valid.
//!
//! A cell with `identical=false` is a sharding bug, full stop — the oracle
//! tests pin the same property, this experiment demonstrates it at
//! simulation scale while the latency columns show what sharding buys.

use crate::events::{churn_trace, ChurnMix};
use crate::experiments::churn::resolve_edit;
use crate::experiments::common::{fmt_check, TextTable};
use crate::generators::PointSetGenerator;
use antennae_core::antenna::AntennaBudget;
use antennae_core::bounds::theorem2_spread_threshold;
use antennae_core::dynamic::{DynamicInstance, DynamicSolverSession};
use antennae_core::shard::ShardSpec;
use antennae_parallel::{default_threads, parallel_map};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Configuration of the sharded-vs-global churn comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardChurnConfig {
    /// Initial deployments (large enough that sharding has tiles to fill).
    pub workloads: Vec<PointSetGenerator>,
    /// Tile counts per axis to sweep (each forced via [`ShardSpec::Grid`]).
    pub grids: Vec<usize>,
    /// `(k, φ)` budget driving both sessions.
    pub budget: (usize, f64),
    /// Churn mix of the trace.
    pub mix: ChurnMix,
    /// Events replayed per cell.
    pub events: usize,
    /// Seeds per (workload, grid) cell.
    pub seeds_per_cell: u64,
    /// Side of the arrival region and scale of mobility steps.
    pub region_side: f64,
    /// Worker threads (cells are independent).
    pub threads: usize,
}

impl ShardChurnConfig {
    /// Full configuration used by the report binary.
    pub fn full() -> Self {
        ShardChurnConfig {
            workloads: vec![
                PointSetGenerator::UniformSquare {
                    n: 2000,
                    side: 40.0,
                },
                PointSetGenerator::Clustered {
                    n: 1500,
                    clusters: 8,
                    side: 40.0,
                    spread: 2.0,
                },
            ],
            grids: vec![3, 6],
            budget: (2, theorem2_spread_threshold(2)),
            mix: ChurnMix::balanced(3.0),
            events: 120,
            seeds_per_cell: 2,
            region_side: 40.0,
            threads: default_threads(),
        }
    }

    /// Quick configuration for tests.
    pub fn quick() -> Self {
        ShardChurnConfig {
            workloads: vec![PointSetGenerator::UniformSquare { n: 250, side: 16.0 }],
            grids: vec![3],
            budget: (2, theorem2_spread_threshold(2)),
            mix: ChurnMix::balanced(3.0),
            events: 30,
            seeds_per_cell: 1,
            region_side: 16.0,
            threads: default_threads(),
        }
    }
}

/// One (workload, grid, seed) comparison cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardChurnCell {
    /// Workload label.
    pub workload: String,
    /// Tiles per axis of the sharded session.
    pub grid: usize,
    /// Seed of the run.
    pub seed: u64,
    /// Edits applied to both sessions.
    pub events: usize,
    /// Live sensors after the trace.
    pub final_n: usize,
    /// Occupied tiles in the sharded session after the trace.
    pub occupied_tiles: usize,
    /// Mean per-edit latency of the global session (µs).
    pub global_mean_us: f64,
    /// Mean per-edit latency of the sharded session (µs).
    pub sharded_mean_us: f64,
    /// `global_mean_us / sharded_mean_us`.
    pub speedup: f64,
    /// Whether radius, `lmax` and MST weight matched bit-for-bit after
    /// every edit.
    pub identical: bool,
    /// Whether every verdict on both sides was valid.
    pub all_valid: bool,
}

/// The comparison report: one [`ShardChurnCell`] per (workload, grid, seed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardChurnReport {
    /// All sweep cells, in configuration order.
    pub cells: Vec<ShardChurnCell>,
}

impl ShardChurnReport {
    /// Whether every cell stayed bit-identical across engines.
    pub fn all_identical(&self) -> bool {
        self.cells.iter().all(|c| c.identical)
    }

    /// Whether every verdict across every cell was valid.
    pub fn all_valid(&self) -> bool {
        self.cells.iter().all(|c| c.all_valid)
    }
}

impl fmt::Display for ShardChurnReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXP-SHARD-CHURN — sharded vs. global engines on identical traces, \
             bit-identical: {}, all valid: {}",
            self.all_identical(),
            self.all_valid()
        )?;
        let mut table = TextTable::new(vec![
            "workload",
            "grid",
            "seed",
            "events",
            "n_end",
            "tiles",
            "global µs",
            "sharded µs",
            "speedup",
            "identical",
            "valid",
        ]);
        for c in &self.cells {
            table.add_row(vec![
                c.workload.clone(),
                format!("{0}x{0}", c.grid),
                c.seed.to_string(),
                c.events.to_string(),
                c.final_n.to_string(),
                c.occupied_tiles.to_string(),
                format!("{:.1}", c.global_mean_us),
                format!("{:.1}", c.sharded_mean_us),
                format!("{:.2}x", c.speedup),
                fmt_check(c.identical),
                fmt_check(c.all_valid),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Radius, `lmax` and MST weight as raw bits — the equality the sharding
/// layer must preserve edit for edit.
fn fingerprint(session: &DynamicSolverSession) -> (u64, u64, u64) {
    let inst = session.instance();
    (
        session.report().max_radius.to_bits(),
        inst.lmax().to_bits(),
        inst.mst_total_weight().to_bits(),
    )
}

fn run_cell(
    workload: &PointSetGenerator,
    grid: usize,
    seed: u64,
    config: &ShardChurnConfig,
) -> ShardChurnCell {
    let (k, phi) = config.budget;
    let budget = AntennaBudget::new(k, phi);
    let points = workload.generate(seed);

    let global_inst = DynamicInstance::new(&points).expect("non-empty workload");
    let mut global = DynamicSolverSession::new(global_inst, budget).expect("valid budget");
    let sharded_inst =
        DynamicInstance::new_sharded(&points, ShardSpec::Grid(grid)).expect("non-empty workload");
    let mut sharded = DynamicSolverSession::new(sharded_inst, budget).expect("valid budget");

    let trace = churn_trace(
        config.mix,
        config.events,
        config.region_side,
        config.region_side / 20.0,
        seed.wrapping_add(0x5EED),
    );

    let mut applied = 0usize;
    let mut global_total_us = 0.0f64;
    let mut sharded_total_us = 0.0f64;
    let mut identical = fingerprint(&global) == fingerprint(&sharded);
    let mut all_valid = global.report().is_valid() && sharded.report().is_valid();

    for event in &trace {
        // Resolve against the global session; both sessions hold the same
        // live population whenever `identical` still holds, so the edit is
        // meaningful for both.
        let Some(edit) = resolve_edit(&global, event, config.region_side) else {
            continue;
        };
        let start = Instant::now();
        let g = global.apply(edit).expect("edit on live id");
        global_total_us += start.elapsed().as_secs_f64() * 1e6;
        let start = Instant::now();
        let s = sharded.apply(edit).expect("edit on live id");
        sharded_total_us += start.elapsed().as_secs_f64() * 1e6;
        applied += 1;
        all_valid &= g.report.is_valid() && s.report.is_valid();
        identical &= fingerprint(&global) == fingerprint(&sharded);
    }

    ShardChurnCell {
        workload: workload.label(),
        grid,
        seed,
        events: applied,
        final_n: global.instance().len(),
        occupied_tiles: sharded.instance().shard_occupied().unwrap_or(0),
        global_mean_us: if applied > 0 {
            global_total_us / applied as f64
        } else {
            0.0
        },
        sharded_mean_us: if applied > 0 {
            sharded_total_us / applied as f64
        } else {
            0.0
        },
        speedup: if sharded_total_us > 0.0 {
            global_total_us / sharded_total_us
        } else {
            0.0
        },
        identical,
        all_valid,
    }
}

/// Runs the comparison: every (workload, grid, seed) cell is an independent
/// double replay, fanned out over the worker pool.
pub fn run(config: &ShardChurnConfig) -> ShardChurnReport {
    let mut cells_spec = Vec::new();
    for workload in &config.workloads {
        for &grid in &config.grids {
            for seed in 0..config.seeds_per_cell {
                cells_spec.push((workload.clone(), grid, seed));
            }
        }
    }
    let cells = parallel_map(&cells_spec, config.threads, |(workload, grid, seed)| {
        run_cell(workload, *grid, *seed, config)
    });
    ShardChurnReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shard_churn_stays_bit_identical() {
        let config = ShardChurnConfig::quick();
        let report = run(&config);
        assert_eq!(report.cells.len(), 1);
        assert!(report.all_identical(), "{report}");
        assert!(report.all_valid(), "{report}");
        let cell = &report.cells[0];
        assert!(cell.events > 0);
        assert!(cell.occupied_tiles >= 2, "grid never occupied: {report}");
        let rendered = report.to_string();
        assert!(rendered.contains("EXP-SHARD-CHURN"));
        assert!(rendered.contains("speedup"));
    }
}
