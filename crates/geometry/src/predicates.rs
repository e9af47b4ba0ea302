//! Geometric predicates with an explicit tolerance model.

use crate::point::Point;
use crate::EPS;

/// Orientation of an ordered point triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// The triple makes a left turn.
    CounterClockwise,
    /// The triple makes a right turn.
    Clockwise,
    /// The three points are collinear (within tolerance).
    Collinear,
}

/// Twice the signed area of the triangle `(a, b, c)`; positive for a
/// counterclockwise triple.
#[inline]
pub fn cross_of_triple(a: &Point, b: &Point, c: &Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Orientation of the ordered triple `(a, b, c)` using the crate-wide
/// tolerance, scaled by the magnitude of the coordinates involved.
pub fn orientation(a: &Point, b: &Point, c: &Point) -> Orientation {
    orientation_eps(a, b, c, EPS)
}

/// Orientation of the ordered triple `(a, b, c)` with an explicit tolerance.
pub fn orientation_eps(a: &Point, b: &Point, c: &Point, eps: f64) -> Orientation {
    let cross = cross_of_triple(a, b, c);
    // Scale the tolerance by the extent of the triple so that the predicate
    // is meaningful both for unit-square instances and for kilometre-scale
    // deployments.
    let scale = (b.x - a.x)
        .abs()
        .max((b.y - a.y).abs())
        .max((c.x - a.x).abs())
        .max((c.y - a.y).abs())
        .max(1.0);
    if cross > eps * scale {
        Orientation::CounterClockwise
    } else if cross < -eps * scale {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_of_simple_triples() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let up = Point::new(1.0, 1.0);
        let down = Point::new(1.0, -1.0);
        let on = Point::new(2.0, 0.0);
        assert_eq!(orientation(&a, &b, &up), Orientation::CounterClockwise);
        assert_eq!(orientation(&a, &b, &down), Orientation::Clockwise);
        assert_eq!(orientation(&a, &b, &on), Orientation::Collinear);
    }

    #[test]
    fn orientation_scales_with_coordinates() {
        // Large coordinates with a genuinely collinear triple.
        let a = Point::new(1e6, 1e6);
        let b = Point::new(2e6, 2e6);
        let c = Point::new(3e6, 3e6);
        assert_eq!(orientation(&a, &b, &c), Orientation::Collinear);
    }

    #[test]
    fn cross_of_triple_is_twice_signed_area() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        let c = Point::new(0.0, 1.0);
        assert!((cross_of_triple(&a, &b, &c) - 1.0).abs() < 1e-12);
    }
}
