//! # antennae-sim
//!
//! Sensor-network simulation substrate and the experiment drivers that
//! regenerate every table and figure of the paper.
//!
//! The paper is a theory paper: its "evaluation" is Table 1 plus the
//! constructions behind Figures 1–6.  Reproducing it therefore means
//! (a) generating sensor deployments (from benign uniform deployments to the
//! adversarial extremal configurations used in the proofs), (b) running each
//! orientation algorithm, (c) verifying strong connectivity through the
//! independent verifier, and (d) measuring the achieved radius/spread against
//! the paper's bounds.  On top of that, this crate provides the
//! network-behaviour substrate the paper's introduction motivates but never
//! evaluates — an energy model and a flooding/latency simulator — so that the
//! trade-offs between the number of antennae, their angular sum, and the
//! resulting network behaviour can be explored end to end.
//!
//! * [`generators`] — seeded workload generators (uniform, clustered, grids,
//!   annuli, extremal stars and polygons).
//! * [`energy`] — sector-area / `r^α` energy model.
//! * [`events`], [`flooding`] — discrete-event broadcast simulation over the
//!   induced communication digraph, plus the churn traces
//!   (arrival/failure/mobility) driving the dynamic-deployment experiment.
//! * [`interference`] — receivers-per-sector interference metric.
//! * [`metrics`] — summary statistics helpers.
//! * [`record`] — serde-serializable experiment records.
//! * [`experiments`] — one driver per table/figure: Table 1, Lemma 1 /
//!   Figure 1, Facts 1–2 / Figure 2, the Theorem 3 case histograms /
//!   Figures 3–4, the chain constructions / Figures 5–6, the spread–radius
//!   trade-off, the energy comparison, and the churn sweep over dynamic
//!   deployments (EXP-CHURN).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod energy;
pub mod events;
pub mod experiments;
pub mod flooding;
pub mod generators;
pub mod interference;
pub mod metrics;
pub mod record;
pub mod serve_script;

pub use generators::PointSetGenerator;
