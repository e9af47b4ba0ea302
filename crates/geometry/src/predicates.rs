//! Geometric predicates: a tolerance-based orientation test for the
//! orientation algorithms, and exact [`orient2d`] / [`incircle`] for the
//! Delaunay triangulation.
//!
//! # Exact predicates
//!
//! [`orient2d`] and [`incircle`] return a value whose **sign is the sign of
//! the exact determinant** over the input doubles, following Shewchuk,
//! *Adaptive precision floating-point arithmetic and fast robust geometric
//! predicates* (Discrete Comput. Geom. 18, 1997).  Each first evaluates the
//! determinant in plain `f64` and accepts it when its magnitude exceeds
//! Shewchuk's forward error bound for that expression (his "stage A": the
//! bounds `(3 + 16ε)ε` and `(10 + 96ε)ε` times the permanent, with
//! `ε = 2⁻⁵³`).  When the filter fails the determinant is recomputed
//! exactly as a floating-point *expansion*: a sum of non-overlapping
//! doubles built from error-free transformations (`two_sum`, and a
//! `two_product` whose low part comes from one fused multiply-add), whose
//! largest component carries the exact sign.  There is no tolerance
//! anywhere; like Shewchuk's, the guarantee assumes the intermediate
//! products neither overflow nor underflow.

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

/// Half an ulp of 1.0: Shewchuk's machine epsilon for round-to-nearest.
const HALF_ULP: f64 = f64::EPSILON / 2.0;
/// Forward error bound factor of the `f64` orientation determinant.
const CCW_ERRBOUND: f64 = (3.0 + 16.0 * HALF_ULP) * HALF_ULP;
/// Forward error bound factor of the `f64` incircle determinant.
const ICC_ERRBOUND: f64 = (10.0 + 96.0 * HALF_ULP) * HALF_ULP;

/// Exact orientation of `(a, b, c)`: positive when the triple turns
/// counterclockwise, negative when clockwise, zero when the three points
/// are exactly collinear.  Only the sign is meaningful.
pub fn orient2d(a: &Point, b: &Point, c: &Point) -> f64 {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;
    let errbound = CCW_ERRBOUND * (detleft.abs() + detright.abs());
    if det > errbound || -det > errbound {
        return det;
    }
    let (acx, acy) = (diff(a.x, c.x), diff(a.y, c.y));
    let (bcx, bcy) = (diff(b.x, c.x), diff(b.y, c.y));
    sign_of(&sub(&mul(&acx, &bcy), &mul(&acy, &bcx)))
}

/// Exact incircle test: positive when `d` lies strictly inside the circle
/// through the counterclockwise triple `(a, b, c)`, negative when strictly
/// outside, zero when the four points are exactly cocircular.  (For a
/// clockwise triple the sign flips.)  Only the sign is meaningful.
pub fn incircle(a: &Point, b: &Point, c: &Point, d: &Point) -> f64 {
    let (adx, ady) = (a.x - d.x, a.y - d.y);
    let (bdx, bdy) = (b.x - d.x, b.y - d.y);
    let (cdx, cdy) = (c.x - d.x, c.y - d.y);
    let (bdxcdy, cdxbdy) = (bdx * cdy, cdx * bdy);
    let (cdxady, adxcdy) = (cdx * ady, adx * cdy);
    let (adxbdy, bdxady) = (adx * bdy, bdx * ady);
    let alift = adx * adx + ady * ady;
    let blift = bdx * bdx + bdy * bdy;
    let clift = cdx * cdx + cdy * cdy;
    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);
    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;
    let errbound = ICC_ERRBOUND * permanent;
    if det > errbound || -det > errbound {
        return det;
    }
    let (adx, ady) = (diff(a.x, d.x), diff(a.y, d.y));
    let (bdx, bdy) = (diff(b.x, d.x), diff(b.y, d.y));
    let (cdx, cdy) = (diff(c.x, d.x), diff(c.y, d.y));
    let lift = |x: &[f64], y: &[f64]| add(&mul(x, x), &mul(y, y));
    let minor = |x1: &[f64], y2: &[f64], x2: &[f64], y1: &[f64]| sub(&mul(x1, y2), &mul(x2, y1));
    let a_term = mul(&lift(&adx, &ady), &minor(&bdx, &cdy, &cdx, &bdy));
    let b_term = mul(&lift(&bdx, &bdy), &minor(&cdx, &ady, &adx, &cdy));
    let c_term = mul(&lift(&cdx, &cdy), &minor(&adx, &bdy, &bdx, &ady));
    sign_of(&add(&add(&a_term, &b_term), &c_term))
}

// Expansion arithmetic (Shewchuk §2).  An expansion is a Vec of
// non-overlapping doubles in increasing magnitude with zeros eliminated;
// its exact value is the sum of its components, and its sign is the sign
// of its last (largest) component.

/// `a + b = x + y` exactly, with `x = fl(a + b)` (Knuth's two-sum).
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bv = x - a;
    let av = x - bv;
    (x, (a - av) + (b - bv))
}

/// `a · b = x + y` exactly, with `x = fl(a · b)`: the fused multiply-add
/// computes the rounding error of the product with a single rounding.
fn two_product(a: f64, b: f64) -> (f64, f64) {
    let x = a * b;
    (x, a.mul_add(b, -x))
}

/// The exact difference `a − b` as an expansion.
fn diff(a: f64, b: f64) -> Vec<f64> {
    let (x, y) = two_sum(a, -b);
    [y, x].into_iter().filter(|&v| v != 0.0).collect()
}

/// Shewchuk's Grow-Expansion with zero elimination: `e + b`.
fn grow(e: &[f64], b: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(e.len() + 1);
    let mut q = b;
    for &component in e {
        let (x, y) = two_sum(q, component);
        if y != 0.0 {
            out.push(y);
        }
        q = x;
    }
    if q != 0.0 {
        out.push(q);
    }
    out
}

/// Expansion-Sum: `e + f`, growing `e` by each component of `f`.
fn add(e: &[f64], f: &[f64]) -> Vec<f64> {
    f.iter().fold(e.to_vec(), |acc, &b| grow(&acc, b))
}

/// `e − f`.
fn sub(e: &[f64], f: &[f64]) -> Vec<f64> {
    let negated: Vec<f64> = f.iter().map(|&v| -v).collect();
    add(e, &negated)
}

/// Shewchuk's Scale-Expansion with zero elimination: `e · b`.
fn scale(e: &[f64], b: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(2 * e.len());
    let Some((&first, rest)) = e.split_first() else {
        return out;
    };
    let (mut q, low) = two_product(first, b);
    if low != 0.0 {
        out.push(low);
    }
    for &component in rest {
        let (hi, lo) = two_product(component, b);
        let (sum, err) = two_sum(q, lo);
        if err != 0.0 {
            out.push(err);
        }
        // |hi| ≥ |sum| here, so this is Dekker's fast two-sum.
        q = hi + sum;
        let rounded = sum - (q - hi);
        if rounded != 0.0 {
            out.push(rounded);
        }
    }
    if q != 0.0 {
        out.push(q);
    }
    out
}

/// `e · f`, as the expansion sum of `e` scaled by each component of `f`.
fn mul(e: &[f64], f: &[f64]) -> Vec<f64> {
    f.iter().fold(Vec::new(), |acc, &b| add(&acc, &scale(e, b)))
}

/// The sign of an expansion, as ±1.0 or 0.0.
fn sign_of(e: &[f64]) -> f64 {
    e.last().map_or(0.0, |&v| v.signum())
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

    /// Dyadic points `(x, y) · 2^-shift` with integer numerators, so every
    /// determinant's sign is the sign of an integer one.
    fn dyadic(x: i64, y: i64, shift: i32) -> Point {
        let scale = 2f64.powi(-shift);
        Point::new(x as f64 * scale, y as f64 * scale)
    }

    fn orient_i128(a: (i64, i64), b: (i64, i64), c: (i64, i64)) -> i128 {
        let (acx, acy) = ((a.0 - c.0) as i128, (a.1 - c.1) as i128);
        let (bcx, bcy) = ((b.0 - c.0) as i128, (b.1 - c.1) as i128);
        acx * bcy - acy * bcx
    }

    fn incircle_i128(a: (i64, i64), b: (i64, i64), c: (i64, i64), d: (i64, i64)) -> i128 {
        let rel = |p: (i64, i64)| ((p.0 - d.0) as i128, (p.1 - d.1) as i128);
        let ((ax, ay), (bx, by), (cx, cy)) = (rel(a), rel(b), rel(c));
        let lift = |x: i128, y: i128| x * x + y * y;
        lift(ax, ay) * (bx * cy - cx * by)
            + lift(bx, by) * (cx * ay - ax * cy)
            + lift(cx, cy) * (ax * by - bx * ay)
    }

    fn sign(v: f64) -> i128 {
        if v > 0.0 {
            1
        } else if v < 0.0 {
            -1
        } else {
            0
        }
    }

    /// Kettner et al., "Classroom examples of robustness problems in
    /// geometric computations" (CGTA 40, 2008): a 256×256 grid of points
    /// ulp-spaced around (0.5, 0.5) against the line through (12, 12) and
    /// (24, 24).  The plain determinant misclassifies some of them.
    #[test]
    fn orient2d_is_exact_on_the_kettner_near_collinear_grid() {
        let ulp = f64::EPSILON / 2.0; // spacing of doubles in [0.5, 1)
        let (q, r) = (Point::new(12.0, 12.0), Point::new(24.0, 24.0));
        let (qi, ri) = ((12i64 << 53, 12i64 << 53), (24i64 << 53, 24i64 << 53));
        let mut naive_wrong = 0;
        for i in 0..256i64 {
            for j in 0..256i64 {
                let p = Point::new(0.5 + i as f64 * ulp, 0.5 + j as f64 * ulp);
                let pi = ((1i64 << 52) + i, (1i64 << 52) + j);
                let exact = orient_i128(pi, qi, ri).signum();
                assert_eq!(sign(orient2d(&p, &q, &r)), exact, "p = ({i}, {j})");
                if sign(cross_of_triple(&p, &q, &r)) != exact {
                    naive_wrong += 1;
                }
            }
        }
        assert!(
            naive_wrong > 0,
            "the grid no longer defeats the plain determinant"
        );
    }

    #[test]
    fn predicates_match_i128_on_random_dyadic_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for round in 0..20_000 {
            // Small ranges force exact ties (filter failures); large ones
            // exercise the f64 fast path.  |coordinate| ≤ 2^29 keeps the
            // incircle reference inside i128.
            let bound = if round % 2 == 0 { 6 } else { 1 << 29 };
            let shift = rng.random_range(0..60);
            let mut pick = || {
                (
                    rng.random_range(-bound..=bound),
                    rng.random_range(-bound..=bound),
                )
            };
            let (a, b, c, d) = (pick(), pick(), pick(), pick());
            let pt = |p: (i64, i64)| dyadic(p.0, p.1, shift);
            assert_eq!(
                sign(orient2d(&pt(a), &pt(b), &pt(c))),
                orient_i128(a, b, c).signum()
            );
            assert_eq!(
                sign(incircle(&pt(a), &pt(b), &pt(c), &pt(d))),
                incircle_i128(a, b, c, d).signum(),
                "{a:?} {b:?} {c:?} {d:?}"
            );
        }
    }

    #[test]
    fn incircle_is_exact_near_cocircular_configurations() {
        // The unit square's corners are cocircular; nudging the fourth
        // corner by k ulps-of-2^29 moves it strictly in or out.
        let m = 1i64 << 29;
        let (a, b, c) = ((0, 0), (m, 0), (m, m));
        for dx in -3..=3 {
            for dy in -3..=3 {
                let d = (dx, m + dy);
                let pt = |p: (i64, i64)| dyadic(p.0, p.1, 29);
                assert_eq!(
                    sign(incircle(&pt(a), &pt(b), &pt(c), &pt(d))),
                    incircle_i128(a, b, c, d).signum(),
                    "offset ({dx}, {dy})"
                );
            }
        }
        let on = incircle(
            &Point::new(0.0, 0.0),
            &Point::new(1.0, 0.0),
            &Point::new(1.0, 1.0),
            &Point::new(0.0, 1.0),
        );
        assert_eq!(on, 0.0);
    }
}
