//! # antennae-geometry
//!
//! Planar geometry substrate for the directional-antenna orientation
//! algorithms of Bhattacharya et al. (IPPS 2009), *"Sensor Network
//! Connectivity with Multiple Directional Antennae of a Given Angular Sum"*.
//!
//! The paper models every antenna as a circular **sector** (apex at the
//! sensor, a spread angle and a radius) and all of its constructions reason
//! about counterclockwise angles between rays emanating from a sensor towards
//! its Euclidean-MST neighbours.  This crate provides exactly those
//! primitives, built from scratch so the whole reproduction is
//! self-contained:
//!
//! * [`Point`] and [`Vector`] — planar points and displacement vectors.
//! * [`Angle`] — radian angles normalized to `[0, 2π)` with counterclockwise
//!   difference arithmetic (the `∠uvw` notation of the paper).
//! * [`Sector`] — antenna beams.
//! * [`Triangle`], [`Aabb`] — supporting shapes used by the MST facts
//!   (Fact 1: the triangle spanned by two adjacent MST edges is empty) and
//!   by workload generation.
//! * [`predicates`] — the orientation predicate with an explicit tolerance
//!   model, and the exact `orient2d` / `incircle` predicates.
//! * [`delaunay`] — the exact Delaunay triangulation under the Euclidean MST
//!   builder.
//! * [`kdtree`] — the static spatial index under the verifier; [`tiles`]
//!   partitions the plane into a uniform grid and keeps one dynamic kd-tree
//!   per tile ([`TiledKdForest`]) for deployments under churn.
//! * [`angular`] — sorting points counterclockwise around a pivot and
//!   analysing the angular gaps between consecutive neighbours, the key
//!   sub-routine of Lemma 1 and of the chain constructions of Theorems 5/6.
//!
//! All coordinates are `f64`.  Every predicate that the orientation
//! algorithms rely on accepts an explicit epsilon so that constructions that
//! aim an antenna *exactly* at a neighbour remain robust to floating point
//! rounding; the triangulation alone uses exact predicates and no epsilon.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod angle;
pub mod angular;
pub mod bbox;
pub mod delaunay;
pub mod dynamic;
pub mod kdtree;
pub mod point;
pub mod predicates;
pub mod sector;
pub mod tiles;
pub mod triangle;
pub mod vector;

pub use angle::Angle;
pub use bbox::Aabb;
pub use delaunay::Delaunay;
pub use kdtree::{KdIndex, KdTree};
pub use point::Point;
pub use sector::Sector;
pub use tiles::{TileGrid, TiledKdForest};
pub use triangle::Triangle;
pub use vector::Vector;

/// Default tolerance used by geometric predicates throughout the workspace.
///
/// The orientation algorithms frequently aim an antenna exactly at a
/// neighbour or place a sector boundary exactly on a ray towards a neighbour;
/// a small positive tolerance keeps those containment checks stable.
pub const EPS: f64 = 1e-9;

/// 2π as an `f64` constant (full angular spread of an omnidirectional
/// antenna, the budget the paper's φ_k is compared against).
pub const TAU: f64 = std::f64::consts::TAU;

/// π as an `f64` constant.
pub const PI: f64 = std::f64::consts::PI;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert!((TAU - 2.0 * PI).abs() < 1e-15);
        const _: () = assert!(EPS > 0.0 && EPS < 1e-6);
    }
}
