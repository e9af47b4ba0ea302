//! Experiment drivers: one per table / figure of the paper.
//!
//! | driver | paper artifact | what it regenerates |
//! |---|---|---|
//! | [`table1`] | Table 1 | per-row worst measured radius vs. the paper's bound, over the standard workloads |
//! | [`lemma1_polygon`] | Figure 1 / Lemma 1 | necessity & sufficiency of `2π(d−k)/d` on the regular `d`-gon |
//! | [`mst_facts`] | Figure 2 / Facts 1–2 | empirical MST angle and degree statistics |
//! | [`theorem3_cases`] | Figures 3–4 | case histogram of the Theorem 3 construction |
//! | [`chain_constructions`] | Figures 5–6 | out-degree / gap / radius statistics of Theorems 5–6 |
//! | [`tradeoff`] | §1.1 / §5 trade-offs | radius as a function of the angular budget and of `k` |
//! | [`energy_compare`] | §1 motivation | energy & interference of each scheme vs. an omnidirectional deployment |
//! | [`c_connectivity`] | §5 open problem | fault tolerance (strong c-connectivity) of the produced orientations |
//! | [`churn`] | §1 ad-hoc-network motivation | incremental re-orientation latency & radius drift under arrival/failure/mobility churn |
//!
//! Every driver has a `*Config` with `quick()` (seconds, used in tests) and
//! `full()` (the defaults of the report binaries) constructors, produces a
//! typed report, and renders it as a plain-text table via `Display`.

pub mod c_connectivity;
pub mod chain_constructions;
pub mod churn;
pub mod common;
pub mod energy_compare;
pub mod lemma1_polygon;
pub mod mst_facts;
pub mod table1;
pub mod theorem3_cases;
pub mod tradeoff;

pub use common::TextTable;
