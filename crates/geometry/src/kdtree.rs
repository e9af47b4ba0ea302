//! A 2-d tree (kd-tree) over points, supporting nearest-neighbour and
//! range queries.
//!
//! The verification engine in `antennae-core` issues one range query per
//! sensor to rebuild the induced digraph, the dynamic index in
//! [`crate::dynamic`] answers the incremental MST's nearest queries, the
//! Euclidean MST builder's rounding guard collects annuli through
//! [`KdIndex::within_annulus_into`], and the simulation crate uses range
//! queries to compute interference metrics (receivers inside a sector).
//!
//! Nearest queries order candidates by the computed length
//! [`Point::distance`], then by index, so every query is deterministic even
//! on degenerate inputs (duplicate points, co-circular neighbours, distinct
//! squared lengths that round to one length) **and independent of the
//! tree's internal layout**: a query's answer is a pure function of the
//! point set, in the same `(length, index)` order the MST engines use for
//! edges.
//!
//! # Two flavours
//!
//! * [`KdIndex`] — the index alone, borrowing the point slice at every
//!   query, so indexing points the caller already owns copies nothing.
//! * [`KdTree`] — an index bundled with an owned copy of the points, for
//!   callers that want a self-contained value (the dynamic snapshot
//!   index).  [`KdTree::build_owned`] takes the point
//!   vector by value, so handing ownership over costs nothing; only
//!   [`KdTree::build`] on a borrowed slice pays one copy.
//!
//! # Construction
//!
//! Nodes are found by **median selection** (`select_nth_unstable_by`), not
//! by sorting: each level partitions its slice around the median of the
//! splitting axis in O(len), for O(n log n) total.  The build is serial.

use crate::bbox::Aabb;
use crate::point::Point;

/// Sentinel for "no node" in the flat child links.
const NONE: u32 = u32::MAX;

/// Widening of a squared bound: every point whose computed length rounds
/// to at most `d` has a squared length at most `d·d·BOUND_SLACK`, so
/// pruning against it never hides a tie.
const BOUND_SLACK: f64 = 1.0 + 4.0 * f64::EPSILON;

/// A node of the flat kd-tree: 12 bytes instead of the 40 of the earlier
/// boxed-`Option<usize>` layout (u32 ids are exact for every supported
/// instance size, and the splitting axis is derived from the node's depth
/// during traversal instead of being stored).  At a million sensors this is
/// the difference between a 12 MB and a 40 MB node array — and the smaller
/// stride is measurably kinder to the cache on query-heavy workloads.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Index into the point slice the index was built over.
    point: u32,
    left: u32,
    right: u32,
}

/// A kd-tree index over an *externally owned* point slice.
///
/// Every query takes the point slice as a parameter; the caller must pass
/// the same points (same order, same length) the index was built over.
/// This is the zero-copy flavour — see the module docs for the owning
/// [`KdTree`] wrapper.
#[derive(Debug, Clone)]
pub struct KdIndex {
    nodes: Vec<Node>,
    root: u32,
    /// Bounding box of the indexed points: the root's region, which the
    /// annulus query splits along the way down.
    bounds: Aabb,
}

impl KdIndex {
    /// Builds the index over `points`.  An empty slice yields an empty
    /// index.
    pub fn build(points: &[Point]) -> Self {
        let n = points.len();
        assert!(
            n < NONE as usize,
            "kd-tree supports at most 2^32 - 1 points"
        );
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        let root = build_rec(points, &mut idx, 0, &mut nodes);
        let bounds = Aabb::from_points(points).unwrap_or(Aabb::new(Point::ORIGIN, Point::ORIGIN));
        KdIndex {
            nodes,
            root,
            bounds,
        }
    }

    /// Number of points indexed.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the index covers no points.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nearest neighbour of `query` among the indexed points, optionally
    /// skipping indices for which `skip` returns `true` (e.g. the query
    /// point itself, or points already attached to a growing MST).
    ///
    /// Returns `(index, distance)` or `None` when every point is skipped.
    /// Candidates are ordered by computed distance, then index.
    pub fn nearest_filtered<F: Fn(usize) -> bool>(
        &self,
        points: &[Point],
        query: &Point,
        skip: F,
    ) -> Option<(usize, f64)> {
        self.nearest_filtered_within(points, query, skip, f64::INFINITY)
    }

    /// Like [`KdIndex::nearest_filtered`], but only reports points at
    /// distance `max_dist` or closer.
    ///
    /// Subtrees beyond `max_dist` are pruned from the start, which is what
    /// makes bounded searches cheap: once one candidate is known, later
    /// searches look only within its distance.  A point at exactly
    /// `max_dist` is still reported (the bound behaves like an already-seen
    /// candidate with an infinite index), so a minimum under the
    /// `(distance, index)` order is never lost.  A returned point is always
    /// the true nearest non-skipped point; `None` only ever hides strictly
    /// farther ones.  The dynamic index's snapshot queries go through it.
    pub fn nearest_filtered_within<F: Fn(usize) -> bool>(
        &self,
        points: &[Point],
        query: &Point,
        skip: F,
        max_dist: f64,
    ) -> Option<(usize, f64)> {
        if self.root == NONE {
            return None;
        }
        let mut best = Best {
            index: usize::MAX,
            dist: max_dist,
            bound_sq: max_dist * max_dist * BOUND_SLACK,
        };
        self.nearest_rec(points, self.root, 0, query, &skip, &mut best);
        (best.index != usize::MAX).then_some((best.index, best.dist))
    }

    /// Nearest neighbour of `query` (no filtering).
    pub fn nearest(&self, points: &[Point], query: &Point) -> Option<(usize, f64)> {
        self.nearest_filtered(points, query, |_| false)
    }

    /// Recursive nearest search.  Squared distances prune and filter (a
    /// square above `best.bound_sq` cannot round to a length at most
    /// `best.dist`); survivors are compared by `(computed length, index)`.
    /// The splitting axis is the depth parity, flipped on the way down.
    fn nearest_rec<F: Fn(usize) -> bool>(
        &self,
        points: &[Point],
        node_idx: u32,
        axis: u8,
        query: &Point,
        skip: &F,
        best: &mut Best,
    ) {
        let node = self.nodes[node_idx as usize];
        let point_idx = node.point as usize;
        let p = &points[point_idx];
        if !skip(point_idx) {
            let d2 = query.distance_squared(p);
            if d2 <= best.bound_sq {
                let d = d2.sqrt();
                if d < best.dist || (d == best.dist && point_idx < best.index) {
                    *best = Best {
                        index: point_idx,
                        dist: d,
                        bound_sq: d * d * BOUND_SLACK,
                    };
                }
            }
        }
        let diff = if axis == 0 {
            query.x - p.x
        } else {
            query.y - p.y
        };
        let (near, far) = if diff <= 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NONE {
            self.nearest_rec(points, near, axis ^ 1, query, skip, best);
        }
        // `<=` (not `<`): with index tie-breaking an equally distant,
        // smaller-indexed point on the far side must still be found.
        if diff * diff <= best.bound_sq && far != NONE {
            self.nearest_rec(points, far, axis ^ 1, query, skip, best);
        }
    }

    /// All indices of points within `radius` of `query` (closed ball).
    pub fn within_radius(&self, points: &[Point], query: &Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.within_radius_into(points, query, radius, &mut out);
        out
    }

    /// Like [`KdIndex::within_radius`], but clears and fills a caller-owned
    /// buffer instead of allocating a fresh `Vec` per query.
    ///
    /// The verification engine in `antennae-core` issues one range query per
    /// sensor while rebuilding an induced communication digraph; reusing a
    /// single buffer across the whole sweep keeps that loop allocation-free.
    /// Results are sorted ascending, exactly as [`KdIndex::within_radius`]
    /// returns them.
    pub fn within_radius_into(
        &self,
        points: &[Point],
        query: &Point,
        radius: f64,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        if self.root != NONE {
            self.radius_rec(points, self.root, 0, query, radius, out);
        }
        out.sort_unstable();
    }

    fn radius_rec(
        &self,
        points: &[Point],
        node_idx: u32,
        axis: u8,
        query: &Point,
        radius: f64,
        out: &mut Vec<usize>,
    ) {
        let node = self.nodes[node_idx as usize];
        let p = &points[node.point as usize];
        if query.distance(p) <= radius {
            out.push(node.point as usize);
        }
        let diff = if axis == 0 {
            query.x - p.x
        } else {
            query.y - p.y
        };
        if diff <= radius && node.left != NONE {
            self.radius_rec(points, node.left, axis ^ 1, query, radius, out);
        }
        if -diff <= radius && node.right != NONE {
            self.radius_rec(points, node.right, axis ^ 1, query, radius, out);
        }
    }

    /// Clears `out` and fills it, in ascending order, with every index whose
    /// computed distance [`Point::distance`] from `query` lies in
    /// `[inner, outer]`.
    ///
    /// Each subtree's region (the bounding box cut by the splits above it)
    /// is tracked on the way down, and a subtree whose farthest corner
    /// rounds to less than `inner` is skipped unvisited: rounding is
    /// monotone, so no point of it can have a computed distance of `inner`
    /// or more.  A query whose annulus holds few points is therefore cheap
    /// even when its inner disk holds most of the index.
    pub fn within_annulus_into(
        &self,
        points: &[Point],
        query: &Point,
        inner: f64,
        outer: f64,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        if self.root != NONE {
            let annulus = Annulus {
                query,
                inner,
                outer,
            };
            self.annulus_rec(points, self.root, 0, &annulus, self.bounds, out);
        }
        out.sort_unstable();
    }

    fn annulus_rec(
        &self,
        points: &[Point],
        node_idx: u32,
        axis: u8,
        a: &Annulus<'_>,
        region: Aabb,
        out: &mut Vec<usize>,
    ) {
        let q = a.query;
        let far_x = (q.x - region.min.x).abs().max((q.x - region.max.x).abs());
        let far_y = (q.y - region.min.y).abs().max((q.y - region.max.y).abs());
        if (far_x * far_x + far_y * far_y).sqrt() < a.inner {
            return;
        }
        let node = self.nodes[node_idx as usize];
        let p = &points[node.point as usize];
        let d = q.distance(p);
        if a.inner <= d && d <= a.outer {
            out.push(node.point as usize);
        }
        let (diff, split) = if axis == 0 {
            (q.x - p.x, p.x)
        } else {
            (q.y - p.y, p.y)
        };
        if diff <= a.outer && node.left != NONE {
            let mut left = region;
            if axis == 0 {
                left.max.x = split;
            } else {
                left.max.y = split;
            }
            self.annulus_rec(points, node.left, axis ^ 1, a, left, out);
        }
        if -diff <= a.outer && node.right != NONE {
            let mut right = region;
            if axis == 0 {
                right.min.x = split;
            } else {
                right.min.y = split;
            }
            self.annulus_rec(points, node.right, axis ^ 1, a, right, out);
        }
    }
}

/// The parameters of one [`KdIndex::within_annulus_into`] query.
struct Annulus<'a> {
    query: &'a Point,
    inner: f64,
    outer: f64,
}

/// The incumbent of a nearest search: `index` (`usize::MAX` while only the
/// caller's bound is known), its computed distance, and the widened square
/// of that distance used for pruning.
struct Best {
    index: usize,
    dist: f64,
    bound_sq: f64,
}

/// Recursive build over a (sub)slice of point ids: partition
/// around the median of the splitting axis in O(len) with
/// `select_nth_unstable_by`, push the node, recurse into the halves.  Child
/// links are indices into `nodes`.
fn build_rec(points: &[Point], idx: &mut [u32], axis: u8, nodes: &mut Vec<Node>) -> u32 {
    if idx.is_empty() {
        return NONE;
    }
    let mid = idx.len() / 2;
    if idx.len() > 1 {
        idx.select_nth_unstable_by(mid, |&a, &b| {
            let (pa, pb) = (&points[a as usize], &points[b as usize]);
            if axis == 0 {
                pa.x.total_cmp(&pb.x)
            } else {
                pa.y.total_cmp(&pb.y)
            }
        });
    }
    let node_pos = nodes.len() as u32;
    nodes.push(Node {
        point: idx[mid],
        left: NONE,
        right: NONE,
    });
    let (left_slice, rest) = idx.split_at_mut(mid);
    let right_slice = &mut rest[1..];
    let left = build_rec(points, left_slice, axis ^ 1, nodes);
    let right = build_rec(points, right_slice, axis ^ 1, nodes);
    let node = &mut nodes[node_pos as usize];
    node.left = left;
    node.right = right;
    node_pos
}

/// A static kd-tree built once over a point set, bundling a [`KdIndex`] with
/// an owned copy of the points.
///
/// Indices returned by queries refer to positions in the original slice the
/// tree was built from.
#[derive(Debug, Clone)]
pub struct KdTree {
    index: KdIndex,
    points: Vec<Point>,
}

impl KdTree {
    /// Builds a kd-tree over `points`.  An empty slice yields an empty tree.
    ///
    /// This copies the slice once (the tree owns its points); callers that
    /// can part with their vector should use [`KdTree::build_owned`], which
    /// copies nothing.
    pub fn build(points: &[Point]) -> Self {
        Self::build_owned(points.to_vec())
    }

    /// Builds a kd-tree that takes ownership of `points` — no copy is made.
    ///
    /// Million-point callers that hold a `Vec<Point>` they no longer need
    /// (the dynamic snapshot rebuild, for one) should prefer this over
    /// [`KdTree::build`], which would otherwise hold a second copy of the
    /// point set for the tree's lifetime.
    pub fn build_owned(points: Vec<Point>) -> Self {
        let index = KdIndex::build(&points);
        KdTree { index, points }
    }

    /// Number of points stored.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// The stored point at index `i` (the index space query results use).
    ///
    /// The dynamic wrapper ([`crate::dynamic::DynamicKdTree`]) reads points
    /// back out of its snapshot through this when compacting its edit log.
    pub fn point(&self, i: usize) -> Point {
        self.points[i]
    }

    /// Returns `true` when the tree stores no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Nearest neighbour of `query` among the stored points, skipping
    /// indices for which `skip` returns `true`, reporting only points at
    /// distance `max_dist` or closer.  See
    /// [`KdIndex::nearest_filtered_within`].
    pub fn nearest_filtered_within<F: Fn(usize) -> bool>(
        &self,
        query: &Point,
        skip: F,
        max_dist: f64,
    ) -> Option<(usize, f64)> {
        self.index
            .nearest_filtered_within(&self.points, query, skip, max_dist)
    }

    /// Nearest neighbour of `query` (no filtering).
    pub fn nearest(&self, query: &Point) -> Option<(usize, f64)> {
        self.index.nearest(&self.points, query)
    }

    /// All indices of points within `radius` of `query` (closed ball).
    pub fn within_radius(&self, query: &Point, radius: f64) -> Vec<usize> {
        self.index.within_radius(&self.points, query, radius)
    }

    /// Like [`KdTree::within_radius`], but clears and fills a caller-owned
    /// buffer instead of allocating a fresh `Vec` per query.  See
    /// [`KdIndex::within_radius_into`].
    pub fn within_radius_into(&self, query: &Point, radius: f64, out: &mut Vec<usize>) {
        self.index
            .within_radius_into(&self.points, query, radius, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_points() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(-1.0, 3.0),
            Point::new(4.0, -2.0),
            Point::new(0.5, 0.4),
        ]
    }

    #[test]
    fn empty_tree_queries() {
        let t = KdTree::build(&[]);
        assert!(t.is_empty());
        assert!(t.nearest(&Point::ORIGIN).is_none());
        assert!(t.within_radius(&Point::ORIGIN, 10.0).is_empty());
        let idx = KdIndex::build(&[]);
        assert!(idx.is_empty());
        assert!(idx.nearest(&[], &Point::ORIGIN).is_none());
    }

    #[test]
    fn nearest_neighbour_simple() {
        let pts = sample_points();
        let t = KdTree::build(&pts);
        let (idx, d) = t.nearest(&Point::new(0.6, 0.5)).unwrap();
        assert_eq!(idx, 5);
        assert!(d < 0.2);
    }

    #[test]
    fn nearest_with_skip_excludes_self() {
        let pts = sample_points();
        let t = KdTree::build(&pts);
        let (idx, _) = t
            .nearest_filtered_within(&pts[0], |i| i == 0, f64::INFINITY)
            .unwrap();
        assert_eq!(idx, 5); // (0.5, 0.4) is the closest other point
    }

    #[test]
    fn within_radius_returns_ball_members() {
        let pts = sample_points();
        let t = KdTree::build(&pts);
        let hits = t.within_radius(&Point::new(0.0, 0.0), 1.5);
        assert_eq!(hits, vec![0, 1, 5]);
    }

    /// Points far inside the inner disk are pruned as whole subtrees: a
    /// grid plus one far point, queried from a grid point, visits only a
    /// logarithmic number of nodes and returns the far point alone.
    #[test]
    fn annulus_query_returns_only_the_ring() {
        let mut pts: Vec<Point> = (0..400)
            .map(|i| Point::new((i % 20) as f64, (i / 20) as f64))
            .collect();
        pts.push(Point::new(1e8, 0.0));
        let t = KdIndex::build(&pts);
        let mut out = vec![7];
        t.within_annulus_into(&pts, &pts[21], 1e7, 2e8, &mut out);
        assert_eq!(out, vec![400]);
        t.within_annulus_into(&pts, &pts[0], 1.0, 1.0, &mut out);
        assert_eq!(out, vec![1, 20]);
        KdIndex::build(&[]).within_annulus_into(&[], &Point::ORIGIN, 0.0, 1.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn within_radius_into_reuses_the_buffer() {
        let pts = sample_points();
        let t = KdTree::build(&pts);
        let mut buf = vec![99, 98]; // stale contents must be cleared
        t.within_radius_into(&Point::new(0.0, 0.0), 1.5, &mut buf);
        assert_eq!(buf, vec![0, 1, 5]);
        t.within_radius_into(&Point::new(100.0, 100.0), 0.5, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn label_filtered_nearest_skips_own_component() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        // Points 0 and 5 share component 7; the nearest foreigner of point 0
        // must therefore be point 1, not the closer point 5.
        let labels = [7, 1, 1, 2, 2, 7];
        let (idx, d) = t
            .nearest_filtered(&pts, &pts[0], |i| labels[i] == 7)
            .unwrap();
        assert_eq!(idx, 1);
        assert!((d - pts[0].distance(&pts[1])).abs() < 1e-12);
        // A component holding every point sees no foreigner.
        assert!(t.nearest_filtered(&pts, &pts[0], |_| true).is_none());
    }

    #[test]
    fn nearest_filtered_within_respects_the_bound() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        let labels = [7, 1, 1, 2, 2, 7];
        let foreign = |i: usize| labels[i] == 7;
        let exact = t.nearest_filtered(&pts, &pts[0], foreign).unwrap();
        // A bound at exactly the true distance still reports the point…
        let bounded = t
            .nearest_filtered_within(&pts, &pts[0], foreign, exact.1)
            .unwrap();
        assert_eq!(bounded, exact);
        // …while a tighter bound hides everything.
        assert!(t
            .nearest_filtered_within(&pts, &pts[0], foreign, exact.1 * 0.99)
            .is_none());
    }

    /// Two squared lengths, 1 and 1 + 2⁻⁵², round to the same length 1.0:
    /// the smaller index wins, as in the MST engines' edge order, although
    /// its square is larger.
    #[test]
    fn nearest_orders_by_rounded_length_then_index() {
        let pts = [Point::new(1.0, 2f64.powi(-26)), Point::new(1.0, 0.0)];
        let t = KdIndex::build(&pts);
        assert_eq!(t.nearest(&pts, &Point::ORIGIN), Some((0, 1.0)));
        assert_eq!(
            t.nearest_filtered_within(&pts, &Point::ORIGIN, |_| false, 1.0),
            Some((0, 1.0))
        );
    }

    #[test]
    fn nearest_breaks_distance_ties_towards_smaller_index() {
        // Two points equidistant from the query, straddling the splitting
        // plane; the smaller index must win regardless of tree layout.
        let pts = vec![
            Point::new(-1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 5.0),
        ];
        let t = KdTree::build(&pts);
        let (idx, d) = t.nearest(&Point::ORIGIN).unwrap();
        assert_eq!(idx, 0);
        assert!((d - 1.0).abs() < 1e-12);
        // Duplicate points: both at distance 0, index 0 wins.
        let dup = vec![Point::new(2.0, 2.0), Point::new(2.0, 2.0)];
        let td = KdTree::build(&dup);
        assert_eq!(td.nearest(&Point::new(2.0, 2.0)).unwrap().0, 0);
    }

    #[test]
    fn build_owned_matches_build() {
        let pts = sample_points();
        let borrowed = KdTree::build(&pts);
        let owned = KdTree::build_owned(pts.clone());
        for q in &pts {
            assert_eq!(borrowed.nearest(q), owned.nearest(q));
            assert_eq!(borrowed.within_radius(q, 2.0), owned.within_radius(q, 2.0));
        }
        assert_eq!(owned.point(3), pts[3]);
    }

    proptest! {
        #[test]
        fn prop_nearest_matches_linear_scan(
            xs in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 1..60),
            qx in -50.0..50.0f64, qy in -50.0..50.0f64,
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let q = Point::new(qx, qy);
            let t = KdTree::build(&pts);
            let (idx, d) = t.nearest(&q).unwrap();
            let best_lin = pts.iter().map(|p| q.distance(p)).fold(f64::INFINITY, f64::min);
            prop_assert!((d - best_lin).abs() < 1e-9);
            prop_assert!((q.distance(&pts[idx]) - d).abs() < 1e-12);
        }

        #[test]
        fn prop_label_filtered_nearest_matches_linear_scan(
            xs in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64, 0usize..4), 1..50),
            qx in -50.0..50.0f64, qy in -50.0..50.0f64,
            label in 0usize..4,
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
            let labels: Vec<usize> = xs.iter().map(|&(_, _, l)| l).collect();
            let q = Point::new(qx, qy);
            let t = KdIndex::build(&pts);
            let got = t.nearest_filtered(&pts, &q, |i| labels[i] == label);
            let expected = (0..pts.len())
                .filter(|&i| labels[i] != label)
                .map(|i| (i, q.distance(&pts[i])))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            match (got, expected) {
                (None, None) => {}
                (Some((gi, gd)), Some((ei, ed))) => {
                    prop_assert_eq!(gi, ei);
                    prop_assert_eq!(gd.to_bits(), ed.to_bits());
                }
                other => prop_assert!(false, "mismatch: {:?}", other),
            }
        }

        #[test]
        fn prop_annulus_query_matches_linear_scan(
            xs in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 1..80),
            qx in -60.0..60.0f64, qy in -60.0..60.0f64,
            r in 0.0..80.0f64, width in 0.0..80.0f64,
        ) {
            // Snapping half the points to a coarse grid adds duplicates and
            // points exactly on the annulus' edges.
            let pts: Vec<Point> = xs
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| if i % 2 == 0 { Point::new(x, y) } else { Point::new(x.round(), y.round()) })
                .collect();
            let q = Point::new(qx.round(), qy.round());
            let t = KdIndex::build(&pts);
            let (inner, outer) = (r.round(), (r + width).round());
            let mut got = Vec::new();
            t.within_annulus_into(&pts, &q, inner, outer, &mut got);
            let expected: Vec<usize> = (0..pts.len())
                .filter(|&i| (inner..=outer).contains(&q.distance(&pts[i])))
                .collect();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn prop_radius_query_matches_linear_scan(
            xs in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 1..60),
            qx in -50.0..50.0f64, qy in -50.0..50.0f64,
            r in 0.0..100.0f64,
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let q = Point::new(qx, qy);
            let t = KdTree::build(&pts);
            let mut expected: Vec<usize> = (0..pts.len()).filter(|&i| q.distance(&pts[i]) <= r).collect();
            expected.sort_unstable();
            prop_assert_eq!(t.within_radius(&q, r), expected);
        }
    }
}
