//! # antennae-core
//!
//! Antenna-orientation algorithms for **strong connectivity with a bounded
//! angular sum**, reproducing Bhattacharya, Hu, Shi, Kranakis, Krizanc,
//! *"Sensor Network Connectivity with Multiple Directional Antennae of a
//! Given Angular Sum"* (IPPS 2009).
//!
//! ## Problem
//!
//! Each of `n` sensors (points in the plane) carries `k` directional
//! antennae, `1 ≤ k ≤ 5`.  The sum of the angular spreads of the antennae at
//! each sensor is bounded by `φ_k`, and every antenna has the same range
//! (radius) `r`.  Orient all antennae so that the induced directed graph
//! (`u → v` iff `v` lies in one of `u`'s sectors) is strongly connected,
//! while keeping `r` as small as possible.  Ranges are reported in units of
//! `lmax`, the longest edge of a Euclidean MST of the point set, which lower
//! bounds every feasible radius.
//!
//! ## What is implemented
//!
//! Every Table 1 construction is a first-class [`solver::Orienter`] held in
//! a [`solver::Registry`] (the [`solver::Registry::paper`] set below); the
//! algorithm internals live one module per theorem:
//!
//! | result | [`solver::Orienter`] | module | guarantee (radius / lmax) |
//! |---|---|---|---|
//! | Lemma 1 (per-node spread bound) | — (primitive used by Theorem 2) | [`algorithms::lemma1`] | spread `2π(d−k)/d` suffices at a degree-`d` node |
//! | Theorem 2 (`φ_k ≥ 2π(5−k)/5`) | [`solver::Theorem2Orienter`] | [`algorithms::theorem2`] | 1 |
//! | Theorem 3.1 (`k = 2`, `φ₂ ≥ π`) | [`solver::Theorem3Orienter`] | [`algorithms::theorem3`] | 2·sin(2π/9) |
//! | Theorem 3.2 (`k = 2`, `2π/3 ≤ φ₂ < π`) | [`solver::Theorem3Orienter`] | [`algorithms::theorem3`] | 2·sin(π/2 − φ₂/4) |
//! | Theorem 5 (`k = 3`, spread 0) | [`solver::ChainsOrienter`] | [`algorithms::chains`] | √3 |
//! | Theorem 6 (`k = 4`, spread 0) | [`solver::ChainsOrienter`] | [`algorithms::chains`] | √2 |
//! | `k = 5`, spread 0 (folklore) | [`solver::ChainsOrienter`] | [`algorithms::chains`] | 1 |
//! | `k = 2`, spread 0 (\[14\] row) | [`solver::ChainsOrienter`] | [`algorithms::chains`] | 2 |
//! | `k = 1`, `φ₁ ≥ 8π/5` (\[4\] row) | [`solver::OneAntennaWideOrienter`] | [`algorithms::one_antenna`] | 1 |
//! | `k = 1` cycle baseline (\[14\] row) | [`solver::HamiltonianOrienter`] | [`algorithms::hamiltonian`] | ≈2 (heuristic) |
//!
//! [`solver::Solver`] is the entry point: it selects among the registered
//! constructions under a [`solver::SelectionPolicy`] — the best proven
//! guarantee (the classic dispatch), one specific algorithm, or a parallel
//! portfolio that keeps the smallest *measured* radius — and
//! [`verify::verify`] independently checks strong connectivity and the
//! radius/spread budgets of any scheme.  Verification itself is served by
//! the sub-quadratic [`verify::VerificationEngine`] (kd-tree range queries,
//! oracle-tested to be bit-identical to the pairwise reference
//! construction); its spatial index is cached on the instance
//! ([`instance::Instance::kd_index`]), so every scheme verified against one
//! instance shares one build.  [`solver::Solver::run_verified`] bundles
//! solving with verification of every candidate.
//!
//! For whole budget grids, [`batch::BatchOrienter`] shares one MST
//! substrate across every solve and fans the work out over the
//! order-preserving [`antennae_parallel::parallel_map`].
//!
//! Deployments under churn go through [`dynamic::DynamicInstance`] and
//! [`dynamic::DynamicSolverSession`]: insert/remove/move edits incrementally
//! maintain the spatial index, the MST, the orientation scheme and the
//! verification verdict, with every layer oracle-tested against the
//! from-scratch pipeline.  Each deployment keeps one dynamic kd-tree as its
//! spatial index, whatever its size ([`shard`] holds the two names the
//! frozen benchmark still calls).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod algorithms;
pub mod antenna;
pub mod batch;
pub mod bounds;
pub mod dynamic;
pub mod error;
pub mod instance;
pub mod scheme;
pub mod shard;
pub mod solver;
pub mod verify;

pub use antenna::{Antenna, AntennaBudget, SensorAssignment};
pub use batch::BatchOrienter;
pub use dynamic::{BatchOutcome, DynamicInstance, DynamicSolverSession, Edit, EditOutcome};
pub use error::OrientError;
pub use instance::Instance;
pub use scheme::OrientationScheme;
pub use solver::{
    Guarantee, OrientationOutcome, Orienter, Registry, SelectionPolicy, Solver, VerifiedOutcome,
};
pub use verify::{verify, VerificationEngine, VerificationReport};
