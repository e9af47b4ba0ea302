//! Planar points.
//!
//! The paper's set `S` of `n` sensors is a set of points in the plane; every
//! distance in the paper is the Euclidean distance `d(x, y)`.

use crate::vector::Vector;
use crate::EPS;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A point in the Euclidean plane.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance `d(self, other)`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root when only
    /// comparisons are needed, e.g. inside the MST builder).
    #[inline]
    pub fn distance_squared(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector from `self` to `other`.
    #[inline]
    pub fn vector_to(&self, other: &Point) -> Vector {
        Vector::new(other.x - self.x, other.y - self.y)
    }

    /// Midpoint of the segment `self`–`other`.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Linear interpolation: returns `self` when `t = 0` and `other` when
    /// `t = 1`.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Returns `true` when both coordinates differ by at most `eps`.
    #[inline]
    pub fn approx_eq(&self, other: &Point, eps: f64) -> bool {
        (self.x - other.x).abs() <= eps && (self.y - other.y).abs() <= eps
    }

    /// Returns `true` when the two points coincide under the crate-wide
    /// [`EPS`] tolerance.
    #[inline]
    pub fn coincident(&self, other: &Point) -> bool {
        self.approx_eq(other, EPS)
    }

    /// Centroid (arithmetic mean) of a non-empty set of points.
    ///
    /// Returns `None` for an empty slice.
    pub fn centroid(points: &[Point]) -> Option<Point> {
        if points.is_empty() {
            return None;
        }
        let (sx, sy) = points
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        let n = points.len() as f64;
        Some(Point::new(sx / n, sy / n))
    }

    /// Returns the point rotated by `theta` radians counterclockwise around
    /// `pivot`.
    pub fn rotated_around(&self, pivot: &Point, theta: f64) -> Point {
        let (s, c) = theta.sin_cos();
        let dx = self.x - pivot.x;
        let dy = self.y - pivot.y;
        Point::new(pivot.x + dx * c - dy * s, pivot.y + dx * s + dy * c)
    }

    /// Returns whether every coordinate is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Lexicographic comparison by `(x, y)`, used for deterministic
    /// tie-breaking in hulls and MSTs.  Consistent with `==` on finite
    /// coordinates: `-0.0` and `0.0` compare equal (adding `0.0` folds the
    /// one onto the other before the total order compares them).
    pub fn lex_cmp(&self, other: &Point) -> std::cmp::Ordering {
        (self.x + 0.0)
            .total_cmp(&(other.x + 0.0))
            .then_with(|| (self.y + 0.0).total_cmp(&(other.y + 0.0)))
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

impl Add<Vector> for Point {
    type Output = Point;

    fn add(self, v: Vector) -> Point {
        Point::new(self.x + v.x, self.y + v.y)
    }
}

impl Sub<Vector> for Point {
    type Output = Point;

    fn sub(self, v: Vector) -> Point {
        Point::new(self.x - v.x, self.y - v.y)
    }
}

impl Sub<Point> for Point {
    type Output = Vector;

    fn sub(self, other: Point) -> Vector {
        Vector::new(self.x - other.x, self.y - other.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((b.distance(&a) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn distance_squared_matches_distance() {
        let a = Point::new(-1.0, 0.5);
        let b = Point::new(2.5, -3.0);
        assert!((a.distance_squared(&b) - a.distance(&b).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn midpoint_and_lerp_agree() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert!(a.midpoint(&b).approx_eq(&a.lerp(&b, 0.5), 1e-12));
        assert!(a.lerp(&b, 0.0).approx_eq(&a, 1e-12));
        assert!(a.lerp(&b, 1.0).approx_eq(&b, 1e-12));
    }

    #[test]
    fn centroid_of_square_is_center() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let c = Point::centroid(&pts).unwrap();
        assert!(c.approx_eq(&Point::new(0.5, 0.5), 1e-12));
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(Point::centroid(&[]).is_none());
    }

    #[test]
    fn rotation_by_quarter_turn() {
        let p = Point::new(1.0, 0.0);
        let r = p.rotated_around(&Point::ORIGIN, std::f64::consts::FRAC_PI_2);
        assert!(r.approx_eq(&Point::new(0.0, 1.0), 1e-12));
    }

    #[test]
    fn point_vector_arithmetic() {
        let p = Point::new(1.0, 1.0);
        let v = Vector::new(2.0, -1.0);
        assert!((p + v).approx_eq(&Point::new(3.0, 0.0), 1e-12));
        assert!((p - v).approx_eq(&Point::new(-1.0, 2.0), 1e-12));
        let w = Point::new(3.0, 0.0) - p;
        assert!((w.x - 2.0).abs() < 1e-12 && (w.y + 1.0).abs() < 1e-12);
    }

    #[test]
    fn lex_cmp_orders_by_x_then_y() {
        let a = Point::new(0.0, 5.0);
        let b = Point::new(1.0, -5.0);
        let c = Point::new(0.0, 6.0);
        assert_eq!(a.lex_cmp(&b), std::cmp::Ordering::Less);
        assert_eq!(a.lex_cmp(&c), std::cmp::Ordering::Less);
        assert_eq!(a.lex_cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn lex_cmp_treats_signed_zeros_as_equal() {
        use std::cmp::Ordering::{Equal, Less};
        let (pos, neg) = (Point::new(0.0, 1.0), Point::new(-0.0, 1.0));
        assert_eq!(pos.lex_cmp(&neg), Equal);
        assert_eq!(Point::new(-0.0, 1.0).lex_cmp(&Point::new(0.0, 2.0)), Less);
        assert_eq!(Point::new(3.0, -0.0).lex_cmp(&Point::new(3.0, 0.0)), Equal);
    }

    proptest! {
        #[test]
        fn prop_triangle_inequality(ax in -1e3..1e3f64, ay in -1e3..1e3f64,
                                    bx in -1e3..1e3f64, by in -1e3..1e3f64,
                                    cx in -1e3..1e3f64, cy in -1e3..1e3f64) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
        }

        #[test]
        fn prop_rotation_preserves_distance(px in -1e3..1e3f64, py in -1e3..1e3f64,
                                            qx in -1e3..1e3f64, qy in -1e3..1e3f64,
                                            theta in 0.0..std::f64::consts::TAU) {
            let p = Point::new(px, py);
            let q = Point::new(qx, qy);
            let pivot = Point::new(0.3, -0.7);
            let d_before = p.distance(&q);
            let d_after = p.rotated_around(&pivot, theta).distance(&q.rotated_around(&pivot, theta));
            prop_assert!((d_before - d_after).abs() < 1e-6 * (1.0 + d_before));
        }
    }
}
