//! Rooted trees with geometrically (counterclockwise) sorted children.
//!
//! The paper roots the MST `T` at a degree-one vertex `R_T` and, for every
//! internal vertex `v`, enumerates its children `v(1), …, v(δ(v)−1)` **in
//! counterclockwise order**, starting from the ray towards `v`'s parent (or
//! towards the "imaginary point" `p` in Property 1).  [`RootedTree`] captures
//! exactly this structure on top of a [`EuclideanMst`].

use crate::euclidean::EuclideanMst;
use antennae_geometry::angular::sort_ccw_from;
use antennae_geometry::{Angle, Point};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A rooted view of a Euclidean MST.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RootedTree {
    points: Vec<Point>,
    root: usize,
    parent: Vec<Option<usize>>,
    /// Children of each vertex, sorted counterclockwise by direction from the
    /// vertex (absolute angle order; use [`RootedTree::children_ccw_from`] to
    /// re-order relative to a reference ray as the paper does).
    children: Vec<Vec<usize>>,
    depth: Vec<usize>,
    lmax: f64,
}

impl RootedTree {
    /// Roots `mst` at `root`.
    ///
    /// Panics when `root` is out of range.  Most callers should use
    /// [`RootedTree::from_mst`] which picks a degree-one root as the paper
    /// prescribes.
    pub fn with_root(mst: &EuclideanMst, root: usize) -> Self {
        let n = mst.len();
        assert!(root < n, "root index out of range");
        let points = mst.points().to_vec();
        let mut parent = vec![None; n];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut depth = vec![0usize; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[root] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in mst.neighbors(u) {
                if !visited[v] {
                    visited[v] = true;
                    parent[v] = Some(u);
                    depth[v] = depth[u] + 1;
                    children[u].push(v);
                    queue.push_back(v);
                }
            }
        }
        // Sort children counterclockwise (by absolute direction).
        for u in 0..n {
            let pts = &points;
            children[u].sort_by(|&a, &b| {
                let da = Angle::of_ray(&pts[u], &pts[a]).radians();
                let db = Angle::of_ray(&pts[u], &pts[b]).radians();
                da.total_cmp(&db)
            });
        }
        RootedTree {
            points,
            root,
            parent,
            children,
            depth,
            lmax: mst.lmax(),
        }
    }

    /// Roots the tree at a degree-one vertex (the smallest-index leaf), as
    /// the paper prescribes ("a degree-one vertex is arbitrarily chosen to be
    /// the root vertex of T").  For a single-vertex tree the unique vertex is
    /// used.
    pub fn from_mst(mst: &EuclideanMst) -> Self {
        let root = mst.leaves().into_iter().next().unwrap_or(0);
        RootedTree::with_root(mst, root)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the tree has no vertices.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The root vertex `R_T`.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The point set underlying the tree.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Location of vertex `v`.
    pub fn point(&self, v: usize) -> Point {
        self.points[v]
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// Children of `v` in counterclockwise order (absolute direction).
    pub fn children(&self, v: usize) -> &[usize] {
        &self.children[v]
    }

    /// Children of `v` sorted by counterclockwise offset from the direction
    /// `reference` — the paper's "`u(1)` is the first neighbour of `u` when
    /// rotating the ray `~up`".
    pub fn children_ccw_from(&self, v: usize, reference: Angle) -> Vec<usize> {
        let child_points: Vec<Point> = self.children[v].iter().map(|&c| self.points[c]).collect();
        sort_ccw_from(&self.points[v], &child_points, reference)
            .into_iter()
            .map(|n| self.children[v][n.index])
            .collect()
    }

    /// Number of children of `v`.
    pub fn child_count(&self, v: usize) -> usize {
        self.children[v].len()
    }

    /// Degree of `v` in the (undirected) tree: children plus parent.
    pub fn tree_degree(&self, v: usize) -> usize {
        self.child_count(v) + usize::from(self.parent[v].is_some())
    }

    /// Depth of `v` (root has depth 0).
    pub fn depth(&self, v: usize) -> usize {
        self.depth[v]
    }

    /// Height of the tree (maximum depth).
    pub fn height(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// `lmax` of the underlying MST.
    pub fn lmax(&self) -> f64 {
        self.lmax
    }

    /// Vertices in BFS (level) order starting from the root.
    pub fn bfs_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.len());
        let mut queue = VecDeque::new();
        queue.push_back(self.root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &c in &self.children[v] {
                queue.push_back(c);
            }
        }
        order
    }

    /// All vertices in the subtree rooted at `v` (including `v`).
    pub fn subtree(&self, v: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend(self.children[u].iter().copied());
        }
        out
    }

    /// Maximum tree degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.len())
            .map(|v| self.tree_degree(v))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antennae_geometry::Point;

    fn plus_shape() -> EuclideanMst {
        // Centre with four arms; centre has degree 4.
        let pts = vec![
            Point::new(0.0, 0.0),  // 0 centre
            Point::new(1.0, 0.0),  // 1 east
            Point::new(0.0, 1.0),  // 2 north
            Point::new(-1.0, 0.0), // 3 west
            Point::new(0.0, -1.0), // 4 south
        ];
        EuclideanMst::build(&pts).unwrap()
    }

    #[test]
    fn roots_at_a_leaf_by_default() {
        let tree = RootedTree::from_mst(&plus_shape());
        assert_eq!(tree.tree_degree(tree.root()), 1);
        assert_eq!(tree.len(), 5);
        assert!(tree.parent(tree.root()).is_none());
    }

    #[test]
    fn parent_child_relationships_are_consistent() {
        let tree = RootedTree::from_mst(&plus_shape());
        for v in 0..tree.len() {
            for &c in tree.children(v) {
                assert_eq!(tree.parent(c), Some(v));
                assert_eq!(tree.depth(c), tree.depth(v) + 1);
            }
        }
        // Exactly n-1 vertices have parents.
        let with_parent = (0..tree.len())
            .filter(|&v| tree.parent(v).is_some())
            .count();
        assert_eq!(with_parent, tree.len() - 1);
    }

    #[test]
    fn children_sorted_counterclockwise() {
        let mst = plus_shape();
        let tree = RootedTree::with_root(&mst, 1); // root at the east leaf
                                                   // The centre (0) then has children north, west, south; sorted ccw by
                                                   // absolute angle: north (90°), west (180°), south (270°).
        assert_eq!(tree.children(0), &[2, 3, 4]);
        // Relative to the ray towards the parent (east, 0°), the ccw order is
        // the same here.
        let rel = tree.children_ccw_from(0, Angle::ZERO);
        assert_eq!(rel, vec![2, 3, 4]);
        // Relative to a ray pointing just past north the order rotates.
        let rel_rotated = tree.children_ccw_from(0, Angle::from_degrees(100.0));
        assert_eq!(rel_rotated, vec![3, 4, 2]);
        // A child exactly on the reference ray is listed first (ccw offset 0).
        let rel_north = tree.children_ccw_from(0, Angle::from_degrees(90.0));
        assert_eq!(rel_north, vec![2, 3, 4]);
    }

    #[test]
    fn bfs_order_starts_at_root_and_respects_levels() {
        let tree = RootedTree::from_mst(&plus_shape());
        let order = tree.bfs_order();
        assert_eq!(order[0], tree.root());
        assert_eq!(order.len(), tree.len());
        for w in order.windows(2) {
            assert!(tree.depth(w[0]) <= tree.depth(w[1]));
        }
    }

    #[test]
    fn subtree_of_root_is_everything() {
        let tree = RootedTree::from_mst(&plus_shape());
        let mut sub = tree.subtree(tree.root());
        sub.sort_unstable();
        assert_eq!(sub, (0..tree.len()).collect::<Vec<_>>());
        // Subtree of a leaf is itself.
        let leaf = (0..tree.len())
            .find(|&v| tree.children(v).is_empty())
            .unwrap();
        assert_eq!(tree.subtree(leaf), vec![leaf]);
    }

    #[test]
    fn height_and_degrees_of_path() {
        let pts: Vec<Point> = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        let mst = EuclideanMst::build(&pts).unwrap();
        let tree = RootedTree::from_mst(&mst);
        assert_eq!(tree.height(), 4);
        assert_eq!(tree.max_degree(), 2);
        assert!((tree.lmax() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_vertex_tree() {
        let mst = EuclideanMst::build(&[Point::new(0.0, 0.0)]).unwrap();
        let tree = RootedTree::from_mst(&mst);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.root(), 0);
        assert!(tree.children(0).is_empty());
        assert_eq!(tree.height(), 0);
    }
}
