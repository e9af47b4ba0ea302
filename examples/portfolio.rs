//! Portfolio vs. best-guarantee selection: run *every* applicable Table 1
//! construction on the same deployment and keep the smallest *measured*
//! radius.
//!
//! The best *guaranteed* bound and the best *measured* radius are not the
//! same thing.  The clearest case is two zero-spread beams per sensor
//! (`k = 2, φ₂ = 0`): the dispatcher must pick the chain construction — the
//! only row with a *proven* bound (2·lmax) — while the Hamiltonian-cycle
//! heuristic, which guarantees nothing, routinely measures a smaller radius
//! on structured deployments.  `SelectionPolicy::Portfolio` runs both (and
//! anything else applicable) in parallel, reports the full candidate table,
//! and never returns a measured radius worse than
//! `SelectionPolicy::BestGuarantee`.
//!
//! Run with: `cargo run --release --example portfolio [seeds]`

use antennae::prelude::*;
use std::f64::consts::PI;

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);

    let workloads: Vec<PointSetGenerator> = vec![
        PointSetGenerator::PerturbedGrid {
            cols: 8,
            rows: 8,
            jitter: 0.25,
        },
        PointSetGenerator::UniformSquare { n: 60, side: 8.0 },
    ];
    let budgets = [(2usize, 0.0), (2, PI), (3, 0.0)];

    for generator in &workloads {
        println!("=== workload: {} ===", generator.label());
        for &(k, phi) in &budgets {
            let mut improved = 0u64;
            let mut largest_gain = 0.0f64;
            for seed in 0..seeds {
                let instance = Instance::new(generator.generate(seed)).expect("non-empty");

                let best = Solver::on(&instance)
                    .budget(k, phi)
                    .policy(SelectionPolicy::BestGuarantee)
                    .run()
                    .expect("orientable");
                // `run_verified` re-verifies every candidate against the
                // instance's cached kd-tree (built once, not once per
                // candidate).
                let verified = Solver::on(&instance)
                    .budget(k, phi)
                    .policy(SelectionPolicy::Portfolio)
                    .run_verified()
                    .expect("orientable");
                let portfolio = &verified.outcome;

                // The portfolio is never worse than the dispatcher's pick…
                assert!(
                    portfolio.measured_radius_over_lmax <= best.measured_radius_over_lmax + 1e-12
                );
                // …and every candidate it evaluated passed independent
                // verification under the solve's own budget.
                assert!(verified.is_valid());
                for report in &verified.candidate_reports {
                    assert!(report.is_valid());
                }

                if seed == 0 {
                    println!("  budget k = {k}, φ = {phi:.3} rad — candidate table (seed 0):");
                    for c in &portfolio.candidates {
                        println!(
                            "    {:>16} guaranteed {:>8} measured {:.4}{}",
                            c.algorithm.to_string(),
                            c.guaranteed_radius_over_lmax
                                .map(|g| format!("{g:.4}"))
                                .unwrap_or_else(|| "—".into()),
                            c.measured_radius_over_lmax,
                            if c.selected { "  ← selected" } else { "" }
                        );
                    }
                }

                let gain = best.measured_radius_over_lmax - portfolio.measured_radius_over_lmax;
                if gain > 1e-9 {
                    improved += 1;
                    largest_gain = largest_gain.max(gain);
                }
            }
            println!(
                "    → portfolio strictly beat best-guarantee on {improved}/{seeds} seeds \
                 (largest gain {largest_gain:.4} · lmax)\n"
            );
        }
    }

    println!("the portfolio pays with extra compute (every candidate runs) and never");
    println!("with quality: its measured radius is at most the dispatcher's, and on");
    println!("beam-only grids it is strictly smaller almost every time.");
}
