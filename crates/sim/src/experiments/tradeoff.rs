//! EXP-TR: the spread–radius trade-off curves motivated in §1.1 and §5.
//!
//! The paper's central message is a trade-off: fewer/narrower antennae can be
//! compensated by a longer range.  This driver produces the two families of
//! curves that make the trade-off concrete:
//!
//! * `radius(φ₂)` for two antennae, sweeping `φ₂` across `[2π/3, 6π/5]` —
//!   the measured worst radius next to the Theorem 3 / Theorem 2 bounds, and
//! * `radius(k)` at zero spread for `k ∈ {1, …, 5}` — the measured worst
//!   radius of the beam-only constructions next to the Table 1 bounds.

use crate::experiments::common::{fmt_bound, TextTable};
use crate::generators::{standard_workloads, PointSetGenerator};
use crate::record::SeriesPoint;
use antennae_core::antenna::AntennaBudget;
use antennae_core::bounds::table1_radius;
use antennae_core::instance::Instance;
use antennae_core::solver::{implemented_radius_guarantee, Solver};
use antennae_core::verify::verify_with_budget;
use antennae_geometry::PI;
use antennae_parallel::{default_threads, parallel_map};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of the trade-off experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeoffConfig {
    /// Number of φ₂ sample points across `[2π/3, 6π/5]`.
    pub phi_steps: usize,
    /// Workloads.
    pub workloads: Vec<PointSetGenerator>,
    /// Seeds per workload.
    pub seeds_per_workload: u64,
    /// Worker threads.
    pub threads: usize,
}

impl TradeoffConfig {
    /// Full configuration used by the report binary.
    pub fn full() -> Self {
        TradeoffConfig {
            phi_steps: 12,
            workloads: standard_workloads(),
            seeds_per_workload: 10,
            threads: default_threads(),
        }
    }

    /// Quick configuration for tests.
    pub fn quick() -> Self {
        TradeoffConfig {
            phi_steps: 4,
            workloads: vec![PointSetGenerator::UniformSquare { n: 40, side: 10.0 }],
            seeds_per_workload: 2,
            threads: default_threads(),
        }
    }
}

/// The trade-off report: the φ₂ sweep for `k = 2` and the zero-spread sweep
/// over `k`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeoffReport {
    /// Measured worst radius (y) against φ₂ (x); `y_reference` holds the
    /// paper bound.
    pub phi_sweep: Vec<SeriesPoint>,
    /// Measured worst radius (y) against `k` (x) at zero spread.
    pub k_sweep: Vec<SeriesPoint>,
    /// Whether every configuration verified strongly connected.
    pub all_connected: bool,
}

impl fmt::Display for TradeoffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXP-TR — spread/radius trade-off (radii in units of lmax), all connected: {}",
            self.all_connected
        )?;
        writeln!(f, "\nTwo antennae: radius as a function of φ₂")?;
        let mut table = TextTable::new(vec!["φ₂ (rad)", "φ₂/π", "measured worst", "paper bound"]);
        for p in &self.phi_sweep {
            table.add_row(vec![
                format!("{:.4}", p.x),
                format!("{:.3}", p.x / PI),
                format!("{:.4}", p.y),
                fmt_bound(p.y_reference),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(f, "\nZero spread: radius as a function of k")?;
        let mut table = TextTable::new(vec!["k", "measured worst", "paper bound"]);
        for p in &self.k_sweep {
            table.add_row(vec![
                format!("{}", p.x as usize),
                format!("{:.4}", p.y),
                fmt_bound(p.y_reference),
            ]);
        }
        write!(f, "{table}")
    }
}

fn worst_radius_for_budget(budget: AntennaBudget, config: &TradeoffConfig) -> (f64, bool) {
    let mut jobs: Vec<(PointSetGenerator, u64)> = Vec::new();
    for workload in &config.workloads {
        for seed in 0..config.seeds_per_workload {
            jobs.push((workload.clone(), seed));
        }
    }
    let results = parallel_map(&jobs, config.threads, |(workload, seed)| {
        let points = workload.generate(*seed);
        let instance = Instance::new(points).expect("non-empty workload");
        let outcome = Solver::on(&instance)
            .with_budget(budget)
            .run()
            .expect("valid budget");
        let report = verify_with_budget(&instance, &outcome.scheme, Some(budget));
        (report.max_radius_over_lmax, report.is_valid())
    });
    let worst = results.iter().map(|(r, _)| *r).fold(0.0, f64::max);
    let all_ok = results.iter().all(|(_, ok)| *ok);
    (worst, all_ok)
}

/// Runs the trade-off experiment.
pub fn run(config: &TradeoffConfig) -> TradeoffReport {
    let mut all_connected = true;

    // φ₂ sweep for two antennae, from 2π/3 up to the Theorem 2 threshold
    // 6π/5 (beyond which the radius is 1 and the curve is flat).
    let lo = 2.0 * PI / 3.0;
    let hi = 6.0 * PI / 5.0;
    let steps = config.phi_steps.max(2);
    let mut phi_sweep = Vec::with_capacity(steps);
    for i in 0..steps {
        let phi = lo + (hi - lo) * i as f64 / (steps - 1) as f64;
        let budget = AntennaBudget::new(2, phi);
        let (worst, ok) = worst_radius_for_budget(budget, config);
        all_connected &= ok;
        phi_sweep.push(SeriesPoint {
            x: phi,
            y: worst,
            y_reference: table1_radius(2, phi),
            series: "k=2 measured".into(),
        });
    }

    // k sweep at zero spread.
    let mut k_sweep = Vec::with_capacity(5);
    for k in 1..=5usize {
        let budget = AntennaBudget::beams_only(k);
        let (worst, ok) = worst_radius_for_budget(budget, config);
        all_connected &= ok;
        k_sweep.push(SeriesPoint {
            x: k as f64,
            y: worst,
            y_reference: table1_radius(k, 0.0),
            series: "zero-spread measured".into(),
        });
        // Record the implemented guarantee check (used in tests via records).
        if let Some(bound) = implemented_radius_guarantee(k, 0.0) {
            debug_assert!(worst <= bound + 1e-6 || k == 1);
        }
    }

    TradeoffReport {
        phi_sweep,
        k_sweep,
        all_connected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_tradeoff_curves_are_monotone_and_bounded() {
        let report = run(&TradeoffConfig::quick());
        assert!(report.all_connected);
        assert_eq!(report.phi_sweep.len(), 4);
        assert_eq!(report.k_sweep.len(), 5);

        // The measured worst radius of the φ₂ sweep never exceeds the paper
        // bound (every point of the sweep is covered by Theorem 3 / 2).
        for p in &report.phi_sweep {
            let bound = p.y_reference.unwrap();
            assert!(p.y <= bound + 1e-6, "phi {}: {} > {}", p.x, p.y, bound);
        }

        // The zero-spread sweep is monotone non-increasing in k from k = 2
        // onward (k = 1 is the heuristic baseline with no guarantee).
        let tail: Vec<f64> = report.k_sweep.iter().skip(1).map(|p| p.y).collect();
        assert!(tail.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        for p in report.k_sweep.iter().skip(1) {
            assert!(p.y <= p.y_reference.unwrap() + 1e-6);
        }

        let rendered = report.to_string();
        assert!(rendered.contains("radius as a function of"));
    }
}
