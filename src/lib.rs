//! # antennae
//!
//! Umbrella crate for the reproduction of Bhattacharya, Hu, Shi, Kranakis and
//! Krizanc, *"Sensor Network Connectivity with Multiple Directional Antennae
//! of a Given Angular Sum"* (IPPS 2009).
//!
//! The workspace is split into focused crates; this crate simply re-exports
//! them under one roof so that applications (and the runnable examples in
//! `examples/`) can depend on a single facade:
//!
//! * [`geometry`] — planar geometry substrate (points, angles, sectors,
//!   spatial indexing).
//! * [`graph`] — graph substrate (Euclidean MSTs with maximum degree 5,
//!   rooted trees, strong connectivity).
//! * [`core`] — the paper's contribution: antenna orientation algorithms for
//!   every row of Table 1, plus the verification machinery.
//! * [`sim`] — workload generators, energy model, flooding simulation and the
//!   experiment drivers that regenerate every table and figure.
//! * [`serve`] — orientation-as-a-service: the `orientd` multi-tenant
//!   deployment server, its line protocol, and in-process/TCP clients.
//! * [`store`] — `orientd`'s durability layer: per-tenant write-ahead logs,
//!   snapshot compaction and crash recovery.
//!
//! ## Quickstart
//!
//! ```
//! use antennae::prelude::*;
//!
//! // A small deployment of sensors in the unit square.
//! let points = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(1.0, 0.2),
//!     Point::new(0.4, 0.9),
//!     Point::new(1.3, 1.1),
//!     Point::new(0.1, 1.4),
//! ];
//!
//! // Each sensor has two antennae whose spreads sum to at most π; the
//! // solver picks the Table 1 construction with the best proven guarantee.
//! let instance = Instance::new(points).expect("valid instance");
//! let outcome = Solver::on(&instance)
//!     .budget(2, std::f64::consts::PI)
//!     .run()
//!     .expect("orientation exists");
//!
//! // The induced directed graph is strongly connected and every antenna's
//! // range is at most 2·sin(2π/9) times the longest MST edge.
//! let report = verify(&instance, &outcome.scheme);
//! assert!(report.is_strongly_connected);
//! assert!(outcome.measured_radius_over_lmax <= 2.0 * (2.0 * std::f64::consts::PI / 9.0).sin() + 1e-9);
//!
//! // Running *every* applicable construction and keeping the measured best
//! // is a one-line policy change:
//! let portfolio = Solver::on(&instance)
//!     .budget(2, std::f64::consts::PI)
//!     .policy(SelectionPolicy::Portfolio)
//!     .run()
//!     .expect("orientation exists");
//! assert!(portfolio.measured_radius_over_lmax <= outcome.measured_radius_over_lmax);
//! ```

pub use antennae_core as core;
pub use antennae_geometry as geometry;
pub use antennae_graph as graph;
pub use antennae_serve as serve;
pub use antennae_sim as sim;
pub use antennae_store as store;

/// Convenience re-exports of the types used by almost every application.
pub mod prelude {
    pub use antennae_core::algorithms::AlgorithmKind;
    pub use antennae_core::antenna::{Antenna, AntennaBudget, SensorAssignment};
    pub use antennae_core::batch::BatchOrienter;
    pub use antennae_core::bounds;
    pub use antennae_core::dynamic::{
        BatchOutcome, DynamicInstance, DynamicSolverSession, Edit, EditOutcome,
    };
    pub use antennae_core::instance::Instance;
    pub use antennae_core::scheme::OrientationScheme;
    pub use antennae_core::solver::{
        Guarantee, OrientationOutcome, Orienter, Registry, SelectionPolicy, Solver, VerifiedOutcome,
    };
    pub use antennae_core::verify::{verify, VerificationEngine, VerificationReport};
    pub use antennae_geometry::{Angle, Point, Sector};
    pub use antennae_graph::euclidean::EuclideanMst;
    pub use antennae_sim::generators::{self, PointSetGenerator};
}
