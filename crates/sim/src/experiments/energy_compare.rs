//! EXP-EN: energy and interference of the paper's orientations versus an
//! omnidirectional deployment.
//!
//! The introduction of the paper motivates directional antennae with energy
//! and capacity arguments (citing \[9\], \[11\], \[19\]) but never quantifies them.
//! This driver closes that loop with the simulation substrate: for each
//! `(k, φ_k)` regime of Table 1 it reports the total and maximum per-sensor
//! energy of the produced orientation, the energy of an omnidirectional
//! deployment that uses the radius the scheme actually needed, and the mean
//! number of unintended receivers per antenna (the interference proxy
//! of \[19\]).

use crate::energy::EnergyModel;
use crate::experiments::common::TextTable;
use crate::generators::PointSetGenerator;
use crate::interference::{interference_stats, omnidirectional_interference};
use antennae_core::antenna::AntennaBudget;
use antennae_core::instance::Instance;
use antennae_core::solver::Solver;
use antennae_geometry::PI;
use antennae_parallel::{default_threads, parallel_map};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregated energy results for one `(k, φ)` regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyRow {
    /// Antennae per sensor.
    pub k: usize,
    /// Spread budget (radians).
    pub phi: f64,
    /// Mean (over instances) of the total directional network energy.
    pub directional_total: f64,
    /// Mean of the maximum per-sensor directional energy.
    pub directional_max_sensor: f64,
    /// Mean total energy of the omnidirectional deployment at the radius the
    /// directional scheme needed.
    pub omni_total: f64,
    /// Mean unintended receivers per directional antenna.
    pub directional_interference: f64,
    /// Mean receivers per omnidirectional antenna.
    pub omni_interference: f64,
    /// Mean measured radius / lmax of the directional scheme.
    pub radius_over_lmax: f64,
}

impl EnergyRow {
    /// Ratio of omnidirectional to directional total energy (> 1 means the
    /// directional scheme saves energy).
    pub fn energy_gain(&self) -> f64 {
        if self.directional_total <= f64::EPSILON {
            0.0
        } else {
            self.omni_total / self.directional_total
        }
    }
}

/// Report of the energy experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// One row per `(k, φ)` regime.
    pub rows: Vec<EnergyRow>,
    /// Path-loss exponent used.
    pub path_loss_exponent: f64,
}

impl fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXP-EN — energy & interference vs. omnidirectional (α = {})",
            self.path_loss_exponent
        )?;
        let mut table = TextTable::new(vec![
            "k",
            "φ (rad)",
            "radius/lmax",
            "directional total",
            "omni total",
            "gain",
            "max sensor",
            "dir. interference",
            "omni interference",
        ]);
        for r in &self.rows {
            table.add_row(vec![
                r.k.to_string(),
                format!("{:.3}", r.phi),
                format!("{:.3}", r.radius_over_lmax),
                format!("{:.3}", r.directional_total),
                format!("{:.3}", r.omni_total),
                format!("{:.2}x", r.energy_gain()),
                format!("{:.3}", r.directional_max_sensor),
                format!("{:.2}", r.directional_interference),
                format!("{:.2}", r.omni_interference),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Configuration of the energy experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyConfig {
    /// The `(k, φ)` regimes to evaluate.
    pub regimes: Vec<(usize, f64)>,
    /// Workload evaluated for each regime.
    pub workload: PointSetGenerator,
    /// Seeds per regime.
    pub seeds: u64,
    /// Path-loss exponent.
    pub path_loss_exponent: f64,
    /// Worker threads.
    pub threads: usize,
}

impl EnergyConfig {
    /// Full configuration used by the report binary.
    pub fn full() -> Self {
        EnergyConfig {
            regimes: vec![
                (1, 8.0 * PI / 5.0),
                (2, PI),
                (2, 6.0 * PI / 5.0),
                (3, 0.0),
                (4, 0.0),
                (5, 0.0),
            ],
            workload: PointSetGenerator::UniformSquare { n: 150, side: 15.0 },
            seeds: 10,
            path_loss_exponent: 2.0,
            threads: default_threads(),
        }
    }

    /// Quick configuration for tests.
    pub fn quick() -> Self {
        EnergyConfig {
            regimes: vec![(2, PI), (3, 0.0), (5, 0.0)],
            workload: PointSetGenerator::UniformSquare { n: 50, side: 10.0 },
            seeds: 2,
            path_loss_exponent: 2.0,
            threads: default_threads(),
        }
    }
}

/// Runs the energy experiment.
pub fn run(config: &EnergyConfig) -> EnergyReport {
    let model = EnergyModel::with_exponent(config.path_loss_exponent);
    let rows = config
        .regimes
        .iter()
        .map(|&(k, phi)| {
            let jobs: Vec<u64> = (0..config.seeds).collect();
            let results = parallel_map(&jobs, config.threads, |seed| {
                let points = config.workload.generate(*seed);
                let instance = Instance::new(points.clone()).expect("non-empty workload");
                let budget = AntennaBudget::new(k, phi);
                let outcome = Solver::on(&instance)
                    .with_budget(budget)
                    .run()
                    .expect("valid budget");
                let scheme = outcome.scheme;
                let radius = scheme.max_radius();
                let lmax = instance.lmax().max(f64::MIN_POSITIVE);
                let directional_total = model.total_power(&scheme);
                let directional_max = model.max_sensor_power(&scheme);
                let omni_total = model.omnidirectional_total(points.len(), radius);
                let dir_intf = interference_stats(&points, &scheme).mean_covered_per_antenna;
                let omni_intf =
                    omnidirectional_interference(&points, radius).mean_covered_per_antenna;
                (
                    directional_total,
                    directional_max,
                    omni_total,
                    dir_intf,
                    omni_intf,
                    radius / lmax,
                )
            });
            let count = results.len().max(1) as f64;
            let mut row = EnergyRow {
                k,
                phi,
                directional_total: 0.0,
                directional_max_sensor: 0.0,
                omni_total: 0.0,
                directional_interference: 0.0,
                omni_interference: 0.0,
                radius_over_lmax: 0.0,
            };
            for (total, max_sensor, omni, dir_intf, omni_intf, radius) in results {
                row.directional_total += total / count;
                row.directional_max_sensor += max_sensor / count;
                row.omni_total += omni / count;
                row.directional_interference += dir_intf / count;
                row.omni_interference += omni_intf / count;
                row.radius_over_lmax += radius / count;
            }
            row
        })
        .collect();
    EnergyReport {
        rows,
        path_loss_exponent: config.path_loss_exponent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directional_schemes_save_energy_and_interference() {
        let report = run(&EnergyConfig::quick());
        assert_eq!(report.rows.len(), 3);
        for row in &report.rows {
            assert!(row.directional_total > 0.0);
            assert!(row.omni_total > 0.0);
            assert!(
                row.energy_gain() > 1.0,
                "k={} phi={}: expected a directional energy gain, got {}",
                row.k,
                row.phi,
                row.energy_gain()
            );
            assert!(row.directional_interference <= row.omni_interference + 1e-9);
            assert!(row.radius_over_lmax >= 1.0 - 1e-9);
        }
        let rendered = report.to_string();
        assert!(rendered.contains("omni total"));
    }
}
