//! Delaunay triangulation of distinct points with exact predicates.
//!
//! [`Delaunay::new`] triangulates a set of **distinct** sites by a sweep
//! over a growing convex hull (the sweep-hull scheme of Sinclair, *S-hull*,
//! arXiv:1604.01428, in the half-edge layout popularised by Delaunator),
//! restoring the Delaunay property after every insertion with Lawson flips.
//! Every orientation and incircle decision goes through the exact
//! [`orient2d`] and [`incircle`], so the result is a Delaunay triangulation
//! of the input doubles themselves, not of a rounded neighbour of them.
//!
//! # Construction
//!
//! A seed triangle is chosen near the centre of the bounding box (the site
//! nearest the centre, its nearest site, and the site completing the
//! smallest circumcircle), and the remaining sites are inserted in order of
//! distance from the seed's circumcentre.
//!
//! * **A site strictly outside the current hull** sees at least one hull
//!   edge strictly from outside (a point outside a convex polygon is
//!   strictly on the outer side of some edge), and the strictly visible
//!   edges form one contiguous chain.  Each gets a triangle with the new
//!   site as apex, and the chain's interior vertices leave the hull.
//! * **Any other site** lies in the closed hull.  The distance order makes
//!   this rare (the hull of sites no farther than `r` from the centre lies
//!   in the disk of radius `r`, so only rounding of the sort key can put a
//!   site inside it), but no site is ever skipped: the site is located by a
//!   visibility walk (which terminates on a Delaunay triangulation) and
//!   splits its triangle into three, or, when it lies on an edge, the one
//!   or two triangles of that edge.
//!
//! Either way the new triangles' edges opposite the new site are legalized:
//! an edge whose opposite apex lies strictly inside the circumcircle of the
//! triangle across it is flipped, and the two edges that become opposite
//! the new site are queued in turn (Lawson's algorithm; the queue is a
//! growable stack).  An edge is flipped only when `incircle > 0`, so the
//! flipped quadrilateral is strictly convex, no triangle is ever degenerate
//! and cocircular ties never flip back and forth.  When the queue drains,
//! every interior edge is locally Delaunay, and by Delaunay's lemma the
//! triangulation is Delaunay.  [`Delaunay::validate`] re-checks all of
//! this exactly.
//!
//! If every site lies on one line there is no triangle; the triangulation
//! then degenerates to the path through the sites in `(x, y)` order (with
//! `-0.0` and `0.0` equal, as [`Point::lex_cmp`] orders them), which
//! [`Delaunay::edges`] reports instead.
//!
//! # Input range
//!
//! Like Shewchuk's, the predicates are exact only while no operation
//! overflows or underflows.  The construction therefore works on a copy of
//! the sites scaled by the power of two that brings the largest coordinate
//! magnitude into `[1, 2)`; scaling by a power of two is exact and keeps
//! every predicate's sign.  After it every coordinate difference is below 4
//! in magnitude, so no term of `incircle` (a degree-4 polynomial in the
//! differences) overflows.  If moreover every nonzero scaled coordinate is
//! at least `2⁻²⁰⁰`, its ulp is at least `2⁻²⁵²`, so every coordinate is a
//! multiple of `2⁻²⁵²`, every value either predicate computes a multiple
//! of `2⁻¹⁰⁰⁸`, and none leaves the normal range: both predicates are
//! exact.  Sites whose nonzero coordinates span more than that (one below
//! `2⁻²⁰⁰` times the largest, about 10⁻⁶⁰) make [`Delaunay::new`] return
//! `None` rather than a triangulation it cannot vouch for.  A NaN from a
//! predicate is impossible in this range; a flip would still need a
//! strictly positive `incircle`, and [`Delaunay::validate`] treats NaN as
//! a violation.

use crate::point::Point;
use crate::predicates::{incircle, orient2d};

/// "No half-edge": the twin of a hull half-edge, and an empty hash slot.
const EMPTY: u32 = u32::MAX;

/// The smallest nonzero scaled coordinate magnitude the predicates are
/// exact for, `2⁻²⁰⁰` (see the module docs).
const MIN_SCALED_EXPONENT: i32 = -200;

/// `2^k` for `-1022 ≤ k ≤ 1023`, exactly.
fn pow2(k: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&k));
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// The coordinates of `sites`, scaled by the power of two that brings the
/// largest magnitude into `[1, 2)` and with `-0.0` folded onto `0.0`, or
/// `None` when a coordinate is not finite or a nonzero one falls below
/// `2⁻²⁰⁰` after scaling (see the module docs).
fn scaled_copy(points: &[Point], sites: &[u32]) -> Option<Vec<Point>> {
    // Starting the maximum at the smallest normal double keeps its
    // exponent in the normal range; all-subnormal inputs then scale by
    // 2^1022, which still makes them exact multiples of 2^-52.
    let largest = sites
        .iter()
        .map(|&v| {
            let p = &points[v as usize];
            p.x.abs().max(p.y.abs())
        })
        .fold(f64::MIN_POSITIVE, f64::max);
    if !largest.is_finite() {
        return None;
    }
    let k = 1023 - (largest.to_bits() >> 52) as i32;
    // Two steps, because 2^k itself may be out of range for k = -1023.
    let (lo, hi) = (pow2(k / 2), pow2(k - k / 2));
    let min_scaled = pow2(MIN_SCALED_EXPONENT);
    let scale = |c: f64| {
        let s = c * lo * hi + 0.0;
        (s.is_finite() && (c == 0.0 || s.abs() >= min_scaled)).then_some(s)
    };
    sites
        .iter()
        .map(|&v| {
            let p = &points[v as usize];
            Some(Point::new(scale(p.x)?, scale(p.y)?))
        })
        .collect()
}

fn next(e: u32) -> u32 {
    if e % 3 == 2 {
        e - 2
    } else {
        e + 1
    }
}

fn prev(e: u32) -> u32 {
    if e.is_multiple_of(3) {
        e + 2
    } else {
        e - 1
    }
}

/// A Delaunay triangulation over a subset of a point slice (see the
/// [module docs](self)).  Vertex ids are indices into that slice.
#[derive(Debug, Clone)]
pub struct Delaunay {
    /// `triangles[e]` is the start vertex of half-edge `e`; triangle `t` is
    /// the half-edges `3t, 3t + 1, 3t + 2`, counterclockwise.
    triangles: Vec<u32>,
    /// The opposite half-edge of `e`, or [`EMPTY`] on the convex hull.
    halfedges: Vec<u32>,
    /// The sites in `(x, y)` order when they are all collinear (no
    /// triangle exists), empty otherwise.
    path: Vec<u32>,
}

impl Delaunay {
    /// Triangulates the sites `points[i]` for `i` in `sites`, which must be
    /// pairwise distinct (callers merge coincident points first; on
    /// coincident sites the result is unspecified and
    /// [`Delaunay::validate`] rejects it).
    ///
    /// Returns `None` when a coordinate is not finite, or when the sites'
    /// nonzero coordinate magnitudes span too widely for the exact
    /// predicates (see the module docs' input range).
    ///
    /// # Panics
    ///
    /// When a site id is out of range, or `points` holds `u32::MAX` or more
    /// points.
    ///
    /// The sites' scaled coordinates are copied, in the order of `sites`,
    /// into one contiguous array the construction works on, so a spatially
    /// coherent order (the Euclidean MST builder passes `(x, y)` order)
    /// keeps neighbouring sites close in memory.
    pub fn new(points: &[Point], sites: &[u32]) -> Option<Self> {
        assert!(points.len() < EMPTY as usize, "at most 2^32 - 1 points");
        let local = scaled_copy(points, sites)?;
        let mut dt = Builder::run(&local);
        for v in dt.triangles.iter_mut().chain(dt.path.iter_mut()) {
            *v = sites[*v as usize];
        }
        Some(dt)
    }

    /// Number of triangles (zero when the sites are collinear).
    pub fn triangle_count(&self) -> usize {
        self.triangles.len() / 3
    }

    /// Every edge once, as `(u, v)` vertex ids: the triangulation's edges,
    /// or the `(x, y)`-ordered path when the sites are collinear.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let triangulated = (0..self.halfedges.len() as u32)
            .filter(|&e| {
                let twin = self.halfedges[e as usize];
                twin == EMPTY || e < twin
            })
            .map(|e| (self.triangles[e as usize], self.triangles[next(e) as usize]));
        let path = self.path.windows(2).map(|w| (w[0], w[1]));
        triangulated.chain(path)
    }

    /// Checks, with the exact predicates on the same scaled coordinates
    /// [`Delaunay::new`] uses, that this is a Delaunay triangulation of
    /// `sites`: every vertex is a site, every triangle is counterclockwise,
    /// twins are consistent, every site is a vertex, the triangle count
    /// matches Euler's formula for the hull size, and every interior edge
    /// is locally Delaunay.  A NaN predicate counts as a violation.
    /// Returns the first violation found.
    pub fn validate(&self, points: &[Point], sites: &[u32]) -> Result<(), String> {
        let local = scaled_copy(points, sites)
            .ok_or("the sites are outside the exact predicates' range")?;
        let mut slot = vec![EMPTY; points.len()];
        for (i, &v) in sites.iter().enumerate() {
            slot[v as usize] = i as u32;
        }
        if let Some(&v) = self
            .triangles
            .iter()
            .chain(&self.path)
            .find(|&&v| slot.get(v as usize).is_none_or(|&s| s == EMPTY))
        {
            return Err(format!("vertex {v} is not a site"));
        }
        let pt = |v: u32| &local[slot[v as usize] as usize];
        let mut seen = vec![false; points.len()];
        if !self.path.is_empty() {
            for w in self.path.windows(2) {
                if pt(w[0]).lex_cmp(pt(w[1])) != std::cmp::Ordering::Less {
                    return Err(format!("path {} -> {} is not in (x, y) order", w[0], w[1]));
                }
            }
            if let [a, b, ..] = self.path[..] {
                if let Some(&c) = self
                    .path
                    .iter()
                    .find(|&&c| orient2d(pt(a), pt(b), pt(c)) != 0.0)
                {
                    return Err(format!("site {c} is off the collinear path"));
                }
            }
            self.path.iter().for_each(|&v| seen[v as usize] = true);
        }
        let mut hull = 0;
        for t in 0..self.triangle_count() {
            let (a, b, c) = (
                self.triangles[3 * t],
                self.triangles[3 * t + 1],
                self.triangles[3 * t + 2],
            );
            let counterclockwise = orient2d(pt(a), pt(b), pt(c)) > 0.0;
            if !counterclockwise {
                return Err(format!("triangle ({a}, {b}, {c}) is not counterclockwise"));
            }
            [a, b, c].iter().for_each(|&v| seen[v as usize] = true);
        }
        for e in 0..self.halfedges.len() as u32 {
            let twin = self.halfedges[e as usize];
            if twin == EMPTY {
                hull += 1;
                continue;
            }
            let (p, q) = (self.triangles[e as usize], self.triangles[next(e) as usize]);
            if self.halfedges[twin as usize] != e
                || self.triangles[twin as usize] != q
                || self.triangles[next(twin) as usize] != p
            {
                return Err(format!("half-edge {e} and its twin {twin} disagree"));
            }
            let l = self.triangles[prev(e) as usize];
            let r = self.triangles[prev(twin) as usize];
            let legal = incircle(pt(p), pt(q), pt(l), pt(r)) <= 0.0;
            if !legal {
                return Err(format!("edge ({p}, {q}) is not locally Delaunay"));
            }
        }
        if let Some(&v) = sites.iter().find(|&&v| !seen[v as usize]) {
            return Err(format!("site {v} is missing from the triangulation"));
        }
        if self.triangle_count() > 0 && self.triangle_count() + hull + 2 != 2 * sites.len() {
            return Err(format!(
                "{} triangles and {hull} hull edges do not triangulate {} sites",
                self.triangle_count(),
                sites.len()
            ));
        }
        Ok(())
    }
}

/// Construction state over a local point array: the growing triangulation
/// plus the hull as a counterclockwise doubly linked list over vertex ids.
struct Builder<'a> {
    points: &'a [Point],
    triangles: Vec<u32>,
    halfedges: Vec<u32>,
    /// `hull_next[v]` / `hull_prev[v]` for hull vertices; a vertex that left
    /// the hull has `hull_next[v] == v`.
    hull_next: Vec<u32>,
    hull_prev: Vec<u32>,
    /// The hull half-edge `v → hull_next[v]` of each hull vertex.
    hull_tri: Vec<u32>,
    /// Hull vertices bucketed by pseudo-angle around `center`: the start
    /// of the search for a visible edge.
    hash: Vec<u32>,
    center: Point,
    /// Pending edges of the Lawson flip pass.
    stack: Vec<u32>,
}

impl<'a> Builder<'a> {
    /// Triangulates all of `points`.
    fn run(points: &'a [Point]) -> Delaunay {
        let pt = |v: u32| &points[v as usize];
        let ids = || 0..points.len() as u32;
        let collinear = || {
            let mut path: Vec<u32> = ids().collect();
            path.sort_unstable_by(|&a, &b| pt(a).lex_cmp(pt(b)));
            Delaunay {
                triangles: Vec::new(),
                halfedges: Vec::new(),
                path,
            }
        };
        if points.len() < 3 {
            return collinear();
        }
        let (lo, hi) = points.iter().fold(
            (
                Point::new(f64::INFINITY, f64::INFINITY),
                Point::new(-f64::INFINITY, -f64::INFINITY),
            ),
            |(lo, hi), p| {
                (
                    Point::new(lo.x.min(p.x), lo.y.min(p.y)),
                    Point::new(hi.x.max(p.x), hi.y.max(p.y)),
                )
            },
        );
        let mid = lo.midpoint(&hi);
        let nearest_to = |q: &Point, skip: u32| {
            ids()
                .filter(|&v| v != skip)
                .min_by(|&a, &b| {
                    q.distance_squared(pt(a))
                        .total_cmp(&q.distance_squared(pt(b)))
                        .then(a.cmp(&b))
                })
                .expect("at least three sites")
        };
        let i0 = nearest_to(&mid, EMPTY);
        let i1 = nearest_to(pt(i0), i0);
        // The third seed closes the smallest circumcircle; a triple whose
        // radius overflows still qualifies when nothing else does.
        let third = ids()
            .filter(|&v| v != i0 && v != i1 && orient2d(pt(i0), pt(i1), pt(v)) != 0.0)
            .map(|v| {
                let r = circumradius_sq(pt(i0), pt(i1), pt(v));
                (if r.is_finite() { r } else { f64::INFINITY }, v)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let Some((_, i2)) = third else {
            return collinear();
        };
        let center = circumcenter(pt(i0), pt(i1), pt(i2))
            .filter(Point::is_finite)
            .unwrap_or_else(|| {
                Point::centroid(&[*pt(i0), *pt(i1), *pt(i2)]).expect("three points")
            });
        let mut b = Builder::new(points, center);
        b.seed(i0, i1, i2);

        let mut order: Vec<(u64, u32)> = ids()
            .filter(|&v| v != i0 && v != i1 && v != i2)
            .map(|v| (pt(v).distance_squared(&center).to_bits(), v))
            .collect();
        order.sort_unstable();
        let mut hull_start = i0;
        for (_, v) in order {
            hull_start = b.insert(v, hull_start);
        }
        Delaunay {
            triangles: b.triangles,
            halfedges: b.halfedges,
            path: Vec::new(),
        }
    }

    /// An empty triangulation of `points`, hashing the hull around `center`.
    fn new(points: &'a [Point], center: Point) -> Self {
        let n = points.len();
        Builder {
            points,
            triangles: Vec::with_capacity(6 * n),
            halfedges: Vec::with_capacity(6 * n),
            hull_next: vec![0; n],
            hull_prev: vec![0; n],
            hull_tri: vec![0; n],
            hash: vec![EMPTY; ((n as f64).sqrt().ceil() as usize).max(1)],
            center,
            stack: Vec::new(),
        }
    }

    /// Starts the triangulation with the non-degenerate triangle
    /// `(i0, i1, i2)`, in either orientation.
    fn seed(&mut self, i0: u32, i1: u32, i2: u32) {
        let (i1, i2) = if orient2d(self.point(i0), self.point(i1), self.point(i2)) > 0.0 {
            (i1, i2)
        } else {
            (i2, i1)
        };
        let t = self.add_triangle(i0, i1, i2);
        for (v, w, e) in [(i0, i1, t), (i1, i2, t + 1), (i2, i0, t + 2)] {
            self.hull_next[v as usize] = w;
            self.hull_prev[w as usize] = v;
            self.hull_tri[v as usize] = e;
            self.hash_vertex(v);
        }
    }

    fn point(&self, v: u32) -> &Point {
        &self.points[v as usize]
    }

    /// Bucket of `p` by its pseudo-angle around the centre (monotone in the
    /// counterclockwise angle).
    fn hash_key(&self, p: &Point) -> usize {
        let (dx, dy) = (p.x - self.center.x, p.y - self.center.y);
        let t = dx / (dx.abs() + dy.abs());
        let a = if dy > 0.0 { 3.0 - t } else { 1.0 + t } / 4.0;
        // A site at the centre gives NaN, which casts to bucket 0.
        ((a * self.hash.len() as f64).floor() as usize) % self.hash.len()
    }

    fn hash_vertex(&mut self, v: u32) {
        let key = self.hash_key(self.point(v));
        self.hash[key] = v;
    }

    /// Inserts site `v`; `hull_start` is any vertex on the current hull.
    /// Returns a vertex on the new hull.
    fn insert(&mut self, v: u32, hull_start: u32) -> u32 {
        let p = *self.point(v);
        let key = self.hash_key(&p);
        let len = self.hash.len();
        let mut start = (0..len)
            .map(|j| self.hash[(key + j) % len])
            .find(|&s| s != EMPTY && self.hull_next[s as usize] != s)
            .unwrap_or(hull_start);
        start = self.hull_prev[start as usize];

        // First hull edge e → next(e) that sees p strictly from outside.
        let mut e = start;
        loop {
            let q = self.hull_next[e as usize];
            if orient2d(self.point(e), self.point(q), &p) < 0.0 {
                break;
            }
            e = q;
            if e == start {
                self.insert_inside(v, self.hull_tri[start as usize] / 3);
                return start;
            }
        }

        // Fan over the visible chain: first the edge e → n…
        let mut n = self.hull_next[e as usize];
        let t = self.add_triangle(v, n, e);
        self.pair(t + 1, self.hull_tri[e as usize]);
        self.adopt(t, EMPTY);
        self.adopt(t + 2, EMPTY);
        self.legalize(t + 1);
        // …then forward while the next hull edge is visible…
        loop {
            let q = self.hull_next[n as usize];
            if orient2d(self.point(n), self.point(q), &p) >= 0.0 {
                break;
            }
            let t = self.add_triangle(v, q, n);
            self.pair(t + 2, self.hull_tri[v as usize]);
            self.pair(t + 1, self.hull_tri[n as usize]);
            self.adopt(t, EMPTY);
            self.legalize(t + 1);
            self.hull_next[n as usize] = n;
            n = q;
        }
        // …and backward when the chain may extend before the search start.
        if e == start {
            loop {
                let q = self.hull_prev[e as usize];
                if orient2d(self.point(q), self.point(e), &p) >= 0.0 {
                    break;
                }
                let t = self.add_triangle(v, e, q);
                self.pair(t, self.hull_tri[e as usize]);
                self.pair(t + 1, self.hull_tri[q as usize]);
                self.adopt(t + 2, EMPTY);
                self.legalize(t + 1);
                self.hull_next[e as usize] = e;
                e = q;
            }
        }
        self.hull_prev[v as usize] = e;
        self.hull_next[e as usize] = v;
        self.hull_prev[n as usize] = v;
        self.hull_next[v as usize] = n;
        self.hash_vertex(v);
        self.hash_vertex(e);
        e
    }

    /// Inserts site `v`, which lies in the closed hull, by locating its
    /// triangle from triangle `t` and splitting.
    fn insert_inside(&mut self, v: u32, mut t: u32) {
        let p = *self.point(v);
        let sees = |b: &Self, e: u32| {
            orient2d(
                b.point(b.triangles[e as usize]),
                b.point(b.triangles[next(e) as usize]),
                &p,
            )
        };
        // Visibility walk: cross any edge that separates the triangle from
        // p.  It cannot leave the hull, and on a Delaunay triangulation it
        // visits no triangle twice.
        let mut steps = 0;
        while let Some(e) = (3 * t..3 * t + 3).find(|&e| sees(self, e) < 0.0) {
            let twin = self.halfedges[e as usize];
            assert!(
                twin != EMPTY && steps <= self.triangles.len(),
                "point location left the triangulation"
            );
            t = twin / 3;
            steps += 1;
        }
        match (3 * t..3 * t + 3).find(|&e| sees(self, e) == 0.0) {
            None => self.split_triangle(v, t),
            Some(e) => self.split_edge(v, e),
        }
    }

    /// Splits triangle `t = (a, b, c)` at the interior site `v`.
    fn split_triangle(&mut self, v: u32, t: u32) {
        let e = 3 * t;
        let (b, c, a) = (
            self.triangles[e as usize + 1],
            self.triangles[e as usize + 2],
            self.triangles[e as usize],
        );
        debug_assert!(a != v && b != v && c != v);
        let (hb, hc) = (
            self.halfedges[e as usize + 1],
            self.halfedges[e as usize + 2],
        );
        // t becomes (a, b, v); two new triangles (b, c, v) and (c, a, v).
        self.triangles[e as usize + 2] = v;
        let t2 = self.add_triangle(b, c, v);
        let t3 = self.add_triangle(c, a, v);
        self.adopt(t2, hb);
        self.adopt(t3, hc);
        self.pair(e + 1, t2 + 2);
        self.pair(t2 + 1, t3 + 2);
        self.pair(t3 + 1, e + 2);
        self.legalize(e);
        self.legalize(t2);
        self.legalize(t3);
    }

    /// Splits the edge of half-edge `e = a → b` at the site `v` on its
    /// relative interior, together with the triangle across it if any.
    fn split_edge(&mut self, v: u32, e: u32) {
        let twin = self.halfedges[e as usize];
        let (a, c) = (self.triangles[e as usize], self.triangles[prev(e) as usize]);
        let hc = self.halfedges[prev(e) as usize];
        // (a, b, c) becomes (v, b, c) plus the new (a, v, c).
        self.triangles[e as usize] = v;
        let t1 = self.add_triangle(a, v, c);
        self.pair(t1 + 1, prev(e));
        self.adopt(t1 + 2, hc);
        if twin == EMPTY {
            // A hull edge: v joins the hull between a and b.
            let b = self.hull_next[a as usize];
            self.adopt(t1, EMPTY);
            self.adopt(e, EMPTY);
            self.hull_next[a as usize] = v;
            self.hull_prev[v as usize] = a;
            self.hull_next[v as usize] = b;
            self.hull_prev[b as usize] = v;
            self.hash_vertex(v);
        } else {
            // (b, a, d) across the edge becomes (v, a, d) plus (b, v, d).
            let (b, d) = (
                self.triangles[twin as usize],
                self.triangles[prev(twin) as usize],
            );
            let hd = self.halfedges[prev(twin) as usize];
            self.triangles[twin as usize] = v;
            let t2 = self.add_triangle(b, v, d);
            self.pair(t2 + 1, prev(twin));
            self.adopt(t2 + 2, hd);
            self.pair(e, t2);
            self.pair(twin, t1);
            self.legalize(next(twin));
            self.legalize(t2 + 2);
        }
        self.legalize(next(e));
        self.legalize(t1 + 2);
    }

    /// Appends the triangle `(a, b, c)` with no twins yet; returns its first
    /// half-edge.
    fn add_triangle(&mut self, a: u32, b: u32, c: u32) -> u32 {
        let t = self.triangles.len() as u32;
        self.triangles.extend([a, b, c]);
        self.halfedges.extend([EMPTY; 3]);
        t
    }

    /// Makes `x` and `y` twins (`y` is a real half-edge).
    fn pair(&mut self, x: u32, y: u32) {
        self.halfedges[x as usize] = y;
        self.halfedges[y as usize] = x;
    }

    /// Gives `x` its final twin `y`; when `y` is [`EMPTY`], `x` is a hull
    /// edge and becomes its start vertex's hull half-edge.
    fn adopt(&mut self, x: u32, y: u32) {
        if y == EMPTY {
            self.halfedges[x as usize] = EMPTY;
            self.hull_tri[self.triangles[x as usize] as usize] = x;
        } else {
            self.pair(x, y);
        }
    }

    /// Lawson's flip pass from half-edge `a`, whose triangle's third vertex
    /// is the site just inserted.
    fn legalize(&mut self, a: u32) {
        self.stack.push(a);
        while let Some(a) = self.stack.pop() {
            let b = self.halfedges[a as usize];
            if b == EMPTY {
                continue;
            }
            // Triangle (p, q, l) on a = p → q, and (q, p, r) across it.
            let (ap, al, bp) = (prev(a), a, prev(b));
            let p = self.triangles[a as usize];
            let q = self.triangles[next(a) as usize];
            let l = self.triangles[ap as usize];
            let r = self.triangles[bp as usize];
            // Flip only on a strictly positive answer, so cocircular ties
            // (and, impossible in range, NaN) leave the edge alone.
            let inside = incircle(self.point(p), self.point(q), self.point(l), self.point(r)) > 0.0;
            if !inside {
                continue;
            }
            // Flip p–q to l–r: (r, q, l) on a's slots, (l, p, r) on b's.
            let hal = self.halfedges[ap as usize];
            let hbr = self.halfedges[bp as usize];
            self.triangles[al as usize] = r;
            self.triangles[b as usize] = l;
            self.adopt(a, hbr);
            self.adopt(b, hal);
            self.pair(ap, bp);
            self.stack.push(a);
            self.stack.push(next(b));
        }
    }
}

/// Squared circumradius of `(a, b, c)` in plain `f64` (a seed heuristic
/// only; infinite or NaN for near-collinear triples).
fn circumradius_sq(a: &Point, b: &Point, c: &Point) -> f64 {
    circumcenter(a, b, c).map_or(f64::INFINITY, |o| o.distance_squared(a))
}

/// Circumcentre of `(a, b, c)` in plain `f64`, `None` when the triple is
/// numerically collinear.
fn circumcenter(a: &Point, b: &Point, c: &Point) -> Option<Point> {
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let (ex, ey) = (c.x - a.x, c.y - a.y);
    let (bl, cl) = (dx * dx + dy * dy, ex * ex + ey * ey);
    let det = dx * ey - dy * ex;
    if det == 0.0 {
        return None;
    }
    let d = 0.5 / det;
    Some(Point::new(
        a.x + (ey * bl - dy * cl) * d,
        a.y + (dx * cl - ex * bl) * d,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn all(points: &[Point]) -> Vec<u32> {
        (0..points.len() as u32).collect()
    }

    fn check(points: &[Point]) -> Delaunay {
        let sites = all(points);
        let dt = Delaunay::new(points, &sites).unwrap();
        dt.validate(points, &sites).unwrap();
        dt
    }

    /// On the line x = 0, `-0.0` and `0.0` are one abscissa: the path
    /// follows y, whatever the zeros' signs and the input order.
    #[test]
    fn signed_zero_abscissae_keep_the_collinear_path_in_y_order() {
        let p = Point::new;
        let dt = check(&[p(0.0, 1.0), p(-0.0, 2.0), p(0.0, 3.0)]);
        assert_eq!(dt.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2)]);
        let mixed = [p(-0.0, 4.0), p(0.0, 2.0), p(-0.0, 1.0), p(0.0, 3.0)];
        let dt = check(&mixed);
        assert_eq!(dt.edges().collect::<Vec<_>>(), vec![(2, 1), (1, 3), (3, 0)]);
    }

    /// Coordinates near 10⁸⁰ overflow `incircle` and near 10⁻⁸⁰ underflow
    /// it; the scaled copy keeps both exact.
    #[test]
    fn extreme_coordinate_scales_triangulate_exactly() {
        let mut rng = StdRng::seed_from_u64(29);
        let unit: Vec<Point> = (0..400)
            .map(|_| Point::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect();
        let lattice: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        for factor in [1e80, 1e-80, 2f64.powi(1000), 2f64.powi(-1000)] {
            for pts in [&unit, &lattice] {
                let scaled: Vec<Point> = pts
                    .iter()
                    .map(|p| Point::new(p.x * factor, p.y * factor))
                    .collect();
                check(&scaled);
            }
        }
        // Subnormal coordinates are in range too.
        let tiny: Vec<Point> = lattice
            .iter()
            .map(|p| Point::new(p.x * f64::from_bits(1), p.y * f64::from_bits(1)))
            .collect();
        assert_eq!(check(&tiny).triangle_count(), 2 * 81);
    }

    /// A nonzero coordinate more than 2²⁰⁰ below the largest one, or a
    /// non-finite one, is refused instead of triangulated inexactly.
    #[test]
    fn coordinates_beyond_the_exact_range_are_refused() {
        let p = Point::new;
        let edge = 2f64.powi(-200);
        let inside = [p(1.0, 0.0), p(0.0, 1.0), p(edge, 0.5), p(1.5, 1.5)];
        check(&inside);
        let outside = [p(1.0, 0.0), p(0.0, 1.0), p(edge / 2.0, 0.5), p(1.5, 1.5)];
        assert!(Delaunay::new(&outside, &all(&outside)).is_none());
        let nan = [p(1.0, 0.0), p(f64::NAN, 1.0), p(0.5, 0.5)];
        assert!(Delaunay::new(&nan, &all(&nan)).is_none());
        let inf = [p(1.0, 0.0), p(f64::INFINITY, 1.0), p(0.5, 0.5)];
        assert!(Delaunay::new(&inf, &all(&inf)).is_none());
    }

    #[test]
    fn tiny_and_collinear_inputs_degenerate_to_paths() {
        assert_eq!(check(&[]).edges().count(), 0);
        assert_eq!(check(&[Point::new(1.0, 1.0)]).edges().count(), 0);
        let line: Vec<Point> = [3.0, -1.0, 7.0, 0.0, 2.5]
            .iter()
            .map(|&t| Point::new(t, 2.0 * t))
            .collect();
        let dt = check(&line);
        assert_eq!(dt.triangle_count(), 0);
        let edges: Vec<(u32, u32)> = dt.edges().collect();
        assert_eq!(edges, vec![(1, 3), (3, 4), (4, 0), (0, 2)]);
    }

    #[test]
    fn uniform_points_triangulate_with_euler_counts() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<Point> = (0..5000)
            .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        let dt = check(&pts);
        assert!(dt.triangle_count() > 9000);
    }

    #[test]
    fn cocircular_lattices_and_hulls_with_collinear_sides() {
        for side in 2..=25usize {
            let pts: Vec<Point> = (0..side * side)
                .map(|i| Point::new((i % side) as f64, (i / side) as f64))
                .collect();
            let dt = check(&pts);
            assert_eq!(dt.triangle_count(), 2 * (side - 1) * (side - 1));
        }
        // A regular polygon: every site on one circle.
        let ring: Vec<Point> = (0..64)
            .map(|k| {
                let a = k as f64 * std::f64::consts::TAU / 64.0;
                Point::new(a.cos(), a.sin())
            })
            .collect();
        check(&ring);
    }

    /// A hexagonal lattice: six-fold exact distance ties and many exactly
    /// cocircular quadruples after rounding.
    #[test]
    fn hexagonal_lattice() {
        let mut pts = Vec::new();
        for i in -20i32..=20 {
            for j in -20i32..=20 {
                pts.push(Point::new(
                    i as f64 + 0.5 * j as f64,
                    j as f64 * 3f64.sqrt() / 2.0,
                ));
            }
        }
        check(&pts);
    }

    /// Sites inserted inside the hull take the locate-and-split path:
    /// feeding the builder sites in random order (instead of by distance
    /// from the centre) exercises it on every insertion that lands inside,
    /// including sites on interior and hull edges of integer grids.
    #[test]
    fn inside_insertions_split_triangles_and_edges() {
        let mut rng = StdRng::seed_from_u64(17);
        for round in 0..40 {
            let pts: Vec<Point> = if round % 2 == 0 {
                (0..300)
                    .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
                    .collect()
            } else {
                let mut grid: Vec<Point> = (0..144)
                    .map(|i| Point::new((i % 12) as f64, (i / 12) as f64))
                    .collect();
                for i in (1..grid.len()).rev() {
                    grid.swap(i, rng.random_range(0..=i));
                }
                grid
            };
            let mut b = Builder::new(&pts, Point::new(0.5, 0.5));
            let i2 = (2..pts.len() as u32)
                .find(|&v| orient2d(&pts[0], &pts[1], &pts[v as usize]) != 0.0)
                .unwrap();
            b.seed(0, 1, i2);
            let mut start = 0;
            for v in (2..pts.len() as u32).filter(|&v| v != i2) {
                start = b.insert(v, start);
            }
            let dt = Delaunay {
                triangles: b.triangles,
                halfedges: b.halfedges,
                path: Vec::new(),
            };
            dt.validate(&pts, &all(&pts)).unwrap();
        }
    }

    proptest! {
        #[test]
        fn prop_snapped_points_triangulate(
            xs in proptest::collection::vec((0i32..16, 0i32..16), 1..120)
        ) {
            let mut pts: Vec<Point> =
                xs.iter().map(|&(x, y)| Point::new(x as f64, y as f64)).collect();
            pts.sort_unstable_by(|a, b| a.lex_cmp(b));
            pts.dedup();
            let sites = all(&pts);
            let dt = Delaunay::new(&pts, &sites).unwrap();
            prop_assert_eq!(dt.validate(&pts, &sites), Ok(()));
        }
    }
}
