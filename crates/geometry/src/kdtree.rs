//! A 2-d tree (kd-tree) over points, supporting nearest-neighbour,
//! nearest-foreign-component and range queries.
//!
//! The sub-quadratic Euclidean MST builder in `antennae-graph` drives its
//! Borůvka rounds through [`KdIndex::nearest_foreign`] (the nearest point
//! that belongs to a *different* connected component), and the simulation
//! crate uses range queries to compute interference metrics (receivers
//! inside a sector).
//!
//! Ties on distance are broken towards the smaller point index everywhere, so
//! every query is deterministic even on degenerate inputs (duplicate points,
//! co-circular neighbours) **and independent of the tree's internal layout**:
//! a query's answer is a pure function of the point set.  The MST builder
//! relies on that determinism for its tie-broken total order on candidate
//! edges, and the parallel construction below relies on the layout
//! independence for its bit-equality guarantee.
//!
//! # Two flavours
//!
//! * [`KdIndex`] — the index alone, borrowing the point slice at every
//!   query.  This is what the million-sensor build pipeline uses: the MST
//!   engine already owns the points, so indexing them must not copy them.
//! * [`KdTree`] — an index bundled with an owned copy of the points, for
//!   callers that want a self-contained value (the verification session, the
//!   dynamic snapshot index).  [`KdTree::build_owned`] takes the point
//!   vector by value, so handing ownership over costs nothing; only
//!   [`KdTree::build`] on a borrowed slice pays one copy.
//!
//! # Construction
//!
//! Nodes are found by **median selection** (`select_nth_unstable_by`), not
//! by sorting: each level partitions its slice around the median of the
//! splitting axis in O(len), for O(n log n) total.  (An earlier
//! implementation re-sorted the full index slice with a stable sort at every
//! level — O(n log² n) with a large constant, and the dominant cost of
//! million-point builds.)  [`KdIndex::build_with_threads`] additionally fans
//! subtree construction out over worker threads: the top of the tree is
//! partitioned serially until the pending subtrees are small enough, then
//! each subtree is built as an independent task.  The partition performed
//! for a given subtree is the same whether it runs inline or in a task, so
//! serial and parallel builds produce the *identical logical tree* — and
//! queries would agree even if they didn't, by the layout independence noted
//! above.

use crate::point::Point;
use antennae_parallel::parallel_map;
use std::sync::Mutex;

/// Sentinel for "no node" in the flat child links.
const NONE: u32 = u32::MAX;

/// Smallest point count for which a parallel build is attempted; below this
/// the thread-scope setup costs more than the whole build.
const PARALLEL_BUILD_MIN: usize = 8192;

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
/// This is the zero-copy flavour the Euclidean MST engine builds over the
/// instance's own point storage — see the module docs for the owning
/// [`KdTree`] wrapper.
#[derive(Debug, Clone)]
pub struct KdIndex {
    nodes: Vec<Node>,
    root: u32,
}

/// A subtree deferred to the parallel phase of the build: the (already
/// partitioned) point ids it spans, the splitting axis at its root, and the
/// parent slot to patch once built.  The id vector sits behind a `Mutex`
/// only so the worker can take ownership through the `&Task` that
/// `parallel_map` hands it — each task is claimed exactly once.
struct Task {
    idx: Mutex<Vec<u32>>,
    axis: u8,
    parent: u32,
    is_left: bool,
}

impl KdIndex {
    /// Builds the index over `points` sequentially.  An empty slice yields
    /// an empty index.
    pub fn build(points: &[Point]) -> Self {
        Self::build_with_threads(points, 1)
    }

    /// Builds the index over `points` using up to `threads` workers.
    ///
    /// The tree is partitioned serially from the root until the pending
    /// subtrees are small enough to balance across workers, then each
    /// subtree is built as an independent task over
    /// [`antennae_parallel::parallel_map`].  The result is the identical
    /// logical tree for every thread count (each subtree performs the same
    /// median partition wherever it runs), so parallel construction is
    /// invisible to queries.
    pub fn build_with_threads(points: &[Point], threads: usize) -> Self {
        let n = points.len();
        assert!(
            n < NONE as usize,
            "kd-tree supports at most 2^32 - 1 points"
        );
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        if n == 0 {
            return KdIndex { nodes, root: NONE };
        }
        if threads <= 1 || n < PARALLEL_BUILD_MIN {
            let root = build_rec(points, &mut idx, 0, &mut nodes);
            return KdIndex { nodes, root };
        }

        // Serial skeleton: partition until subtrees reach the task size.
        // ~8 tasks per worker keeps the fan-out load-balanced even when the
        // point distribution makes subtree costs uneven.
        let task_len = (n / (threads * 8)).max(PARALLEL_BUILD_MIN / 16);
        let mut tasks: Vec<Task> = Vec::new();
        let mut root = skeleton_rec(points, &mut idx, 0, &mut nodes, &mut tasks, task_len);

        // Fan out: each task builds its subtree into a local node arena with
        // local child links.
        let built: Vec<Vec<Node>> = parallel_map(&tasks, threads, |task| {
            let mut idx = std::mem::take(&mut *task.idx.lock().expect("task idx poisoned"));
            let mut local = Vec::with_capacity(idx.len());
            build_rec(points, &mut idx, task.axis, &mut local);
            local
        });

        // Splice: shift each arena's links by its offset and patch the
        // parent slot (a subtree's root is the first node its arena pushed).
        for (task, mut local) in tasks.iter().zip(built) {
            let offset = nodes.len() as u32;
            for node in &mut local {
                if node.left != NONE {
                    node.left += offset;
                }
                if node.right != NONE {
                    node.right += offset;
                }
            }
            nodes.extend(local);
            if task.parent == NONE {
                root = offset;
            } else if task.is_left {
                nodes[task.parent as usize].left = offset;
            } else {
                nodes[task.parent as usize].right = offset;
            }
        }
        KdIndex { nodes, root }
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
    /// Distance ties are broken towards the smaller index.
    pub fn nearest_filtered<F: Fn(usize) -> bool>(
        &self,
        points: &[Point],
        query: &Point,
        skip: F,
    ) -> Option<(usize, f64)> {
        if self.root == NONE {
            return None;
        }
        // Sentinel seed: accepts any real point, never reported.
        let mut best = (usize::MAX, f64::INFINITY);
        self.nearest_rec(points, self.root, 0, query, &skip, &mut best);
        (best.0 != usize::MAX).then(|| (best.0, best.1.sqrt()))
    }

    /// Nearest point to `query` whose component label differs from `label`.
    ///
    /// `labels[i]` is the component of indexed point `i`; points whose label
    /// equals `label` are invisible to the search.  This is the inner query
    /// of the kd-tree Borůvka MST engine: each Borůvka round asks, for every
    /// vertex, for the nearest vertex *outside* its own component.  Distance
    /// ties are broken towards the smaller index so that concurrent
    /// component searches agree on a single total order of candidate edges.
    ///
    /// Returns `(index, distance)`, or `None` when every point carries
    /// `label`.
    pub fn nearest_foreign(
        &self,
        points: &[Point],
        query: &Point,
        labels: &[usize],
        label: usize,
    ) -> Option<(usize, f64)> {
        self.nearest_foreign_within(points, query, labels, label, f64::INFINITY)
    }

    /// Like [`KdIndex::nearest_foreign`], but only reports points at
    /// distance `max_dist` or closer.
    ///
    /// Subtrees beyond `max_dist` are pruned from the start, which is what
    /// makes the Borůvka engine's late rounds cheap: once one vertex of a
    /// component has found a nearby foreign point, its component-mates search
    /// only within that radius.  A point at exactly `max_dist` is still
    /// reported (the bound behaves like an already-seen candidate with an
    /// infinite index), so a component's minimum candidate edge under the
    /// `(distance, index)` tie order is never lost.  The bound is widened by
    /// a few ulps before use — callers commonly pass a distance a previous
    /// query returned, and the `sqrt`/square round-trip may otherwise land
    /// one ulp *below* the tied candidate's squared distance and hide it; the
    /// widening can only admit marginally farther points, never lose one,
    /// and a returned point is always the true nearest foreigner.
    pub fn nearest_foreign_within(
        &self,
        points: &[Point],
        query: &Point,
        labels: &[usize],
        label: usize,
        max_dist: f64,
    ) -> Option<(usize, f64)> {
        assert_eq!(labels.len(), self.len(), "one label per indexed point");
        self.nearest_filtered_within(points, query, |i| labels[i] == label, max_dist)
    }

    /// Like [`KdIndex::nearest_filtered`], but only reports points at
    /// distance `max_dist` or closer — the general-predicate sibling of
    /// [`KdIndex::nearest_foreign_within`], with the same inclusive,
    /// ulp-widened bound semantics (a returned point is always the true
    /// nearest non-skipped point; `None` only ever hides strictly farther
    /// ones).  The dynamic index's snapshot queries go through it.
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
        let bound_sq = (max_dist * max_dist) * (1.0 + 4.0 * f64::EPSILON);
        let mut best = (usize::MAX, bound_sq);
        self.nearest_rec(points, self.root, 0, query, &skip, &mut best);
        (best.0 != usize::MAX).then(|| (best.0, best.1.sqrt()))
    }

    /// Nearest neighbour of `query` (no filtering).
    pub fn nearest(&self, points: &[Point], query: &Point) -> Option<(usize, f64)> {
        self.nearest_filtered(points, query, |_| false)
    }

    /// Recursive nearest search over *squared* distances (saves a `sqrt` per
    /// visited node).  `best` is `(index, squared distance)` with
    /// `usize::MAX` as the not-yet-found sentinel.  The splitting axis is
    /// the depth parity, flipped on the way down.
    fn nearest_rec<F: Fn(usize) -> bool>(
        &self,
        points: &[Point],
        node_idx: u32,
        axis: u8,
        query: &Point,
        skip: &F,
        best: &mut (usize, f64),
    ) {
        let node = self.nodes[node_idx as usize];
        let point_idx = node.point as usize;
        let p = &points[point_idx];
        if !skip(point_idx) {
            let d2 = query.distance_squared(p);
            if d2 < best.1 || (d2 == best.1 && point_idx < best.0) {
                *best = (point_idx, d2);
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
        if diff * diff <= best.1 && far != NONE {
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
}

/// Sequential recursive build over a (sub)slice of point ids: partition
/// around the median of the splitting axis in O(len) with
/// `select_nth_unstable_by`, push the node, recurse into the halves.  Child
/// links are indices into `nodes` — local to whatever arena the caller is
/// filling, which is what lets parallel subtree tasks build into private
/// arenas that are spliced (offset) afterwards.
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

/// The serial top of a parallel build: performs exactly the partitions
/// [`build_rec`] would, but once a subslice is no longer larger than
/// `task_len` it is deferred as a [`Task`] (the ids are moved out, the
/// parent link patched after the fan-out).  Returns the subtree root, or
/// [`NONE`] for an empty or deferred subtree.
fn skeleton_rec(
    points: &[Point],
    idx: &mut [u32],
    axis: u8,
    nodes: &mut Vec<Node>,
    tasks: &mut Vec<Task>,
    task_len: usize,
) -> u32 {
    if idx.is_empty() {
        return NONE;
    }
    if idx.len() <= task_len {
        tasks.push(Task {
            idx: Mutex::new(idx.to_vec()),
            axis,
            parent: NONE,
            is_left: false,
        });
        return NONE;
    }
    let mid = idx.len() / 2;
    idx.select_nth_unstable_by(mid, |&a, &b| {
        let (pa, pb) = (&points[a as usize], &points[b as usize]);
        if axis == 0 {
            pa.x.total_cmp(&pb.x)
        } else {
            pa.y.total_cmp(&pb.y)
        }
    });
    let node_pos = nodes.len() as u32;
    nodes.push(Node {
        point: idx[mid],
        left: NONE,
        right: NONE,
    });
    let (left_slice, rest) = idx.split_at_mut(mid);
    let right_slice = &mut rest[1..];
    let tasks_before_left = tasks.len();
    let left = skeleton_rec(points, left_slice, axis ^ 1, nodes, tasks, task_len);
    // A deferred child registered itself as the most recent task; wire the
    // parent slot it must patch.
    if left == NONE && tasks.len() > tasks_before_left {
        let task = tasks.last_mut().expect("task was just pushed");
        task.parent = node_pos;
        task.is_left = true;
    }
    let tasks_before_right = tasks.len();
    let right = skeleton_rec(points, right_slice, axis ^ 1, nodes, tasks, task_len);
    if right == NONE && tasks.len() > tasks_before_right {
        let task = tasks.last_mut().expect("task was just pushed");
        task.parent = node_pos;
        task.is_left = false;
    }
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
    fn nearest_foreign_skips_own_component() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        // Points 0 and 5 share component 7; the nearest foreigner of point 0
        // must therefore be point 1, not the closer point 5.
        let labels = vec![7, 1, 1, 2, 2, 7];
        let (idx, d) = t.nearest_foreign(&pts, &pts[0], &labels, 7).unwrap();
        assert_eq!(idx, 1);
        assert!((d - pts[0].distance(&pts[1])).abs() < 1e-12);
        // A component holding every point sees no foreigner.
        let all_same = vec![3; pts.len()];
        assert!(t.nearest_foreign(&pts, &pts[0], &all_same, 3).is_none());
    }

    #[test]
    fn nearest_foreign_within_respects_the_bound() {
        let pts = sample_points();
        let t = KdIndex::build(&pts);
        let labels = vec![7, 1, 1, 2, 2, 7];
        let exact = t.nearest_foreign(&pts, &pts[0], &labels, 7).unwrap();
        // A bound at exactly the true distance still reports the point…
        let bounded = t
            .nearest_foreign_within(&pts, &pts[0], &labels, 7, exact.1)
            .unwrap();
        assert_eq!(bounded.0, exact.0);
        // …while a tighter bound hides everything.
        assert!(t
            .nearest_foreign_within(&pts, &pts[0], &labels, 7, exact.1 * 0.99)
            .is_none());
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

    #[test]
    fn parallel_build_produces_the_identical_logical_tree() {
        // Enough points to clear PARALLEL_BUILD_MIN, with duplicate
        // coordinates sprinkled in so median ties are exercised.
        let n = PARALLEL_BUILD_MIN + 137;
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let x = ((i * 7919) % 1000) as f64 * 0.25;
                let y = ((i * 104729) % 997) as f64 * 0.5;
                Point::new(x, y)
            })
            .collect();
        let serial = KdIndex::build_with_threads(&pts, 1);
        for threads in [2usize, 3, 8] {
            let parallel = KdIndex::build_with_threads(&pts, threads);
            assert_eq!(parallel.len(), serial.len());
            // The logical trees are identical: compare a full preorder walk
            // (point ids + child presence) rather than raw node arrays,
            // whose layout legitimately differs between schedules.
            fn preorder(index: &KdIndex, node: u32, out: &mut Vec<(u32, bool, bool)>) {
                if node == NONE {
                    return;
                }
                let n = index.nodes[node as usize];
                out.push((n.point, n.left != NONE, n.right != NONE));
                preorder(index, n.left, out);
                preorder(index, n.right, out);
            }
            let mut a = Vec::new();
            let mut b = Vec::new();
            preorder(&serial, serial.root, &mut a);
            preorder(&parallel, parallel.root, &mut b);
            assert_eq!(a, b, "threads={threads}");
            // And queries agree bit-for-bit.
            for q in pts.iter().step_by(991) {
                assert_eq!(serial.nearest(&pts, q), parallel.nearest(&pts, q));
            }
        }
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
        fn prop_nearest_foreign_matches_linear_scan(
            xs in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64, 0usize..4), 1..50),
            qx in -50.0..50.0f64, qy in -50.0..50.0f64,
            label in 0usize..4,
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y, _)| Point::new(x, y)).collect();
            let labels: Vec<usize> = xs.iter().map(|&(_, _, l)| l).collect();
            let q = Point::new(qx, qy);
            let t = KdIndex::build(&pts);
            let got = t.nearest_foreign(&pts, &q, &labels, label);
            let expected = (0..pts.len())
                .filter(|&i| labels[i] != label)
                .map(|i| (i, q.distance(&pts[i])))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            match (got, expected) {
                (None, None) => {}
                (Some((gi, gd)), Some((ei, ed))) => {
                    prop_assert_eq!(gi, ei);
                    prop_assert!((gd - ed).abs() < 1e-12);
                }
                other => prop_assert!(false, "mismatch: {:?}", other),
            }
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
