//! The orientation algorithms of the paper.
//!
//! Every algorithm takes an [`Instance`](crate::instance::Instance) and
//! produces an [`OrientationScheme`](crate::scheme::OrientationScheme) whose
//! induced digraph is strongly connected.  The algorithms differ in the
//! per-sensor budget they need (number of antennae `k`, spread sum `φ_k`) and
//! in the antenna range they guarantee, exactly as summarized in Table 1 of
//! the paper:
//!
//! * [`lemma1`] — the per-node primitive: orient `k` antennae at a degree-`d`
//!   MST vertex so that all `d` neighbours are covered using spread at most
//!   `2π(d−k)/d`.
//! * [`theorem2`] — apply Lemma 1 at every vertex; whenever
//!   `φ_k ≥ 2π(5−k)/5` this yields radius `lmax`.
//! * [`theorem3`] — the paper's main contribution: two antennae whose spreads
//!   sum to `φ₂ ∈ [2π/3, π]`, radius `2·sin(π/2 − φ₂/4)` (and `2·sin(2π/9)`
//!   at `φ₂ = π`), built by a bottom-up construction maintaining the paper's
//!   Property 1.
//! * [`chains`] — the zero-spread constructions: `k` beams per sensor,
//!   radius 2, √3, √2, 1 for `k = 2, 3, 4, 5` (Theorems 5 and 6, the `[14]`
//!   row and the folklore `k = 5` result).
//! * [`hamiltonian`] / [`one_antenna`] — the single-antenna baselines of
//!   rows 1–3 of Table 1.
//!
//! [`crate::solver::Solver`] picks among them for a `(k, φ_k)` budget and
//! reports the guaranteed radius.

pub mod chains;
pub mod hamiltonian;
pub mod lemma1;
pub mod one_antenna;
pub mod theorem2;
pub mod theorem3;

use serde::{Deserialize, Serialize};

/// Identifies which algorithm produced a scheme (reported by the dispatcher
/// and by the experiment harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// Theorem 2: Lemma 1 applied at every vertex (radius `lmax`).
    Theorem2,
    /// Theorem 3: the two-antenna construction.
    Theorem3,
    /// The zero-spread chain construction with the given number of beams
    /// (Theorem 5 for `k = 3`, Theorem 6 for `k = 4`, folklore for `k = 5`,
    /// the `[14]` row for `k = 2`).
    Chains {
        /// Number of zero-spread beams per sensor.
        k: usize,
    },
    /// The Hamiltonian-cycle baseline (single beam per sensor).
    Hamiltonian,
    /// The `[4]` baseline row: a single wide antenna per sensor covering all
    /// MST neighbours (`φ₁ ≥ 8π/5`, radius `lmax`).
    OneAntennaWide,
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgorithmKind::Theorem2 => write!(f, "theorem2"),
            AlgorithmKind::Theorem3 => write!(f, "theorem3"),
            AlgorithmKind::Chains { k } => write!(f, "chains(k={k})"),
            AlgorithmKind::Hamiltonian => write!(f, "hamiltonian"),
            AlgorithmKind::OneAntennaWide => write!(f, "one-antenna-wide"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_kind_display() {
        assert_eq!(AlgorithmKind::Theorem2.to_string(), "theorem2");
        assert_eq!(AlgorithmKind::Theorem3.to_string(), "theorem3");
        assert_eq!(AlgorithmKind::Chains { k: 3 }.to_string(), "chains(k=3)");
        assert_eq!(AlgorithmKind::Hamiltonian.to_string(), "hamiltonian");
        assert_eq!(
            AlgorithmKind::OneAntennaWide.to_string(),
            "one-antenna-wide"
        );
    }
}
