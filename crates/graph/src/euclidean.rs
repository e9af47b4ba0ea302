//! Euclidean minimum spanning trees with maximum degree 5.
//!
//! The paper's constructions all operate on "an arbitrary minimum weight
//! spanning tree (MST) induced when edges between any two points are weighted
//! by their corresponding Euclidean distance", and use the well-known fact
//! that **an MST of maximum degree 5 always exists**.  In exact arithmetic,
//! any Euclidean MST already has maximum degree ≤ 6, and degree 6 only occurs
//! when six neighbours sit at exactly 60° from each other at identical
//! distances; a local exchange (replace one of the two tied star edges by the
//! equally long edge between the two neighbours) removes the tie without
//! increasing the weight.  [`EuclideanMst::build`] runs one of two engines
//! followed by that repair pass, and the test-suite checks the degree bound
//! on adversarial inputs (hexagonal lattices) as well as random ones.
//!
//! # Engines
//!
//! Two interchangeable MST engines produce the spanning edges (see
//! [`MstEngine`]):
//!
//! * **Dense Prim** — the classic O(n²)-time, O(n)-memory pass over the
//!   complete Euclidean graph.  Unbeatable for small inputs (no spatial index
//!   to build) and kept as the *oracle* the kd-tree engine is property-tested
//!   against.
//! * **Kd-tree Borůvka** — Borůvka rounds whose "cheapest outgoing edge per
//!   component" queries run as nearest-foreign-component searches against a
//!   [`KdIndex`] built directly over the caller's points (no copy).
//!   O(n log n)-class on typical inputs: each of the O(log n) rounds performs
//!   n pruned nearest-neighbour queries, and on multi-core hosts both the
//!   index construction and the per-round scans fan out over worker threads
//!   (see [`EuclideanMst::build_with_engine_threads`]) while producing
//!   bit-identical trees at every thread count.
//!
//! Both engines break weight ties by one total order on edges — weight, then
//! smaller endpoint, then larger endpoint — under which all edge keys are
//! distinct and the MST is unique.  Each therefore computes a true MST even
//! on degenerate inputs, and both compute the *same* tree: the cross-engine
//! tests compare edge sets, weight bits included, on tie-heavy lattices.
//!
//! [`EuclideanMst::build`] selects the engine by input size (the
//! [`KDTREE_CROSSOVER`] threshold); `build_with_engine` pins one explicitly.

use crate::graph::{Edge, Graph};
use crate::union_find::UnionFind;
use antennae_geometry::angular::{circular_gaps, sort_ccw};
use antennae_geometry::{KdIndex, Point};
use antennae_parallel::{chunk_ranges, default_threads, parallel_map};
use serde::{Deserialize, Serialize};

/// Maximum vertex degree the orientation algorithms assume (`Δ(T) ≤ 5`).
pub const MAX_MST_DEGREE: usize = 5;

/// Input size at which [`MstEngine::Auto`] switches from dense Prim to the
/// kd-tree Borůvka engine.
///
/// Below this size the O(n²) pass is faster in practice because it builds no
/// spatial index and touches memory linearly.  The `mst_scaling` criterion
/// bench in `antennae-bench` tracks the real crossover; on container
/// hardware dense Prim wins at n = 500 (1.04 ms vs 1.35 ms) and loses from
/// n = 1000 (3.66 ms vs 3.00 ms), so the threshold sits between those
/// points.  Misclassifying slightly is cheap near the crossover (tens of
/// percent on sub-millisecond builds) and expensive far above it
/// (quadratic vs quasi-linear), which is why it leans low.
pub const KDTREE_CROSSOVER: usize = 768;

/// Which algorithm produces the spanning edges of a [`EuclideanMst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MstEngine {
    /// Pick by input size: dense Prim below [`KDTREE_CROSSOVER`] points,
    /// kd-tree Borůvka at or above it.
    Auto,
    /// The O(n²) dense Prim pass (also the property-test oracle).
    DensePrim,
    /// Borůvka rounds over kd-tree nearest-foreign-component queries,
    /// O(n log n)-class on typical inputs.
    KdTreeBoruvka,
}

impl Default for MstEngine {
    /// `Auto`, so that payloads serialized before the engine field existed
    /// (and builders that don't care) get size-based selection.
    fn default() -> Self {
        MstEngine::Auto
    }
}

impl MstEngine {
    /// The concrete engine `Auto` resolves to for an input of `n` points.
    pub fn resolve(self, n: usize) -> MstEngine {
        match self {
            MstEngine::Auto => {
                if n >= KDTREE_CROSSOVER {
                    MstEngine::KdTreeBoruvka
                } else {
                    MstEngine::DensePrim
                }
            }
            other => other,
        }
    }
}

/// Errors that can occur while building a Euclidean MST.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmstError {
    /// The input point set was empty.
    EmptyPointSet,
    /// The degree-repair pass failed to reduce the maximum degree to 5.
    ///
    /// This cannot happen for point sets in general position; it is reported
    /// rather than panicking so that degenerate inputs fail loudly.
    DegreeRepairFailed {
        /// The maximum degree that remained after the repair pass.
        remaining_max_degree: usize,
    },
}

impl std::fmt::Display for EmstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmstError::EmptyPointSet => write!(f, "cannot build an MST over an empty point set"),
            EmstError::DegreeRepairFailed {
                remaining_max_degree,
            } => write!(
                f,
                "failed to reduce the MST maximum degree to {MAX_MST_DEGREE} (still {remaining_max_degree})"
            ),
        }
    }
}

impl std::error::Error for EmstError {}

/// A Euclidean MST over a point set, with maximum degree at most 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EuclideanMst {
    points: Vec<Point>,
    tree: Graph,
    lmax: f64,
    #[serde(default)]
    engine: MstEngine,
}

impl EuclideanMst {
    /// Builds the Euclidean MST of `points` and repairs it to maximum degree
    /// 5, selecting the engine by input size ([`MstEngine::Auto`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use antennae_geometry::Point;
    /// use antennae_graph::euclidean::EuclideanMst;
    ///
    /// let points = vec![
    ///     Point::new(0.0, 0.0),
    ///     Point::new(3.0, 4.0),
    ///     Point::new(3.0, 5.0),
    /// ];
    /// let mst = EuclideanMst::build(&points)?;
    /// assert_eq!(mst.edges().len(), 2);
    /// // The longest edge (0,0)–(3,4) normalises every radius guarantee.
    /// assert!((mst.lmax() - 5.0).abs() < 1e-12);
    /// assert!(mst.max_degree() <= 5);
    /// # Ok::<(), antennae_graph::euclidean::EmstError>(())
    /// ```
    pub fn build(points: &[Point]) -> Result<Self, EmstError> {
        Self::build_with_engine(points, MstEngine::Auto)
    }

    /// Builds the Euclidean MST of `points` with an explicitly chosen engine,
    /// using [`antennae_parallel::default_threads`] worker threads for the
    /// kd-tree engine's build pipeline.
    ///
    /// `MstEngine::DensePrim` runs in O(n²) time and O(n) additional memory;
    /// `MstEngine::KdTreeBoruvka` in O(n log n)-class time.  Both produce a
    /// genuine MST (identical `total_weight` and `lmax`; the trees themselves
    /// may differ on tied edge weights).
    pub fn build_with_engine(points: &[Point], engine: MstEngine) -> Result<Self, EmstError> {
        Self::build_with_engine_threads(points, engine, default_threads())
    }

    /// [`EuclideanMst::build_with_engine`] with an explicit worker-thread
    /// count for the kd-tree engine (index construction and the per-round
    /// Borůvka scans fan out; dense Prim and the degree-repair pass are
    /// serial at every thread count).
    ///
    /// The result is **bit-identical** for every `threads` value: the
    /// parallel kd-tree build produces the same logical tree as the serial
    /// one, kd queries are layout-independent pure functions of the point
    /// set, and each Borůvka round's per-component minimum under the
    /// tie-broken total order does not depend on how the scan is chunked.
    /// The `parallel_build_oracle` integration suite in `antennae-core`
    /// pins this equality end-to-end (MST, scheme, digraph, report).
    pub fn build_with_engine_threads(
        points: &[Point],
        engine: MstEngine,
        threads: usize,
    ) -> Result<Self, EmstError> {
        if points.is_empty() {
            return Err(EmstError::EmptyPointSet);
        }
        let n = points.len();
        let resolved = engine.resolve(n);
        let spanning = if n > 1 {
            match resolved {
                MstEngine::DensePrim => dense_prim(points),
                MstEngine::KdTreeBoruvka => kd_boruvka(points, threads),
                MstEngine::Auto => unreachable!("resolve() returns a concrete engine"),
            }
        } else {
            Vec::new()
        };
        // Adjacency is sorted before *and* after the degree-repair pass, so
        // the tree depends only on the spanning edge **set**, never on the
        // order an engine discovered the edges in.
        let mut tree = Graph::new(n);
        for e in &spanning {
            tree.add_edge(e.u, e.v, e.weight);
        }
        tree.sort_adjacency();
        repair_degree(points, &mut tree);
        tree.sort_adjacency();
        let max_degree = tree.max_degree();
        if max_degree > MAX_MST_DEGREE {
            return Err(EmstError::DegreeRepairFailed {
                remaining_max_degree: max_degree,
            });
        }
        let lmax = tree.max_edge_weight();
        Ok(EuclideanMst {
            points: points.to_vec(),
            tree,
            lmax,
            engine: resolved,
        })
    }

    /// Wraps an already-computed spanning tree as a [`EuclideanMst`] without
    /// re-running an engine — the materialization hook of the incremental
    /// engine ([`crate::dynamic::DynamicEmst`]).
    ///
    /// The caller asserts that `tree` is a genuine Euclidean MST over
    /// `points`; only the degree bound is re-validated here (the incremental
    /// engine's repair pass mirrors the static one, so a violation means a
    /// bug upstream).  `lmax` is derived from the tree, and the engine field
    /// reports [`MstEngine::Auto`] ("provenance unknown"), matching the
    /// contract for payloads that predate the engine field.
    pub fn from_precomputed(points: Vec<Point>, mut tree: Graph) -> Result<Self, EmstError> {
        if points.is_empty() {
            return Err(EmstError::EmptyPointSet);
        }
        // Same canonical neighbour order as the engine paths (a no-op for
        // the incremental engine, whose materialization already inserts
        // edges in ascending order).
        tree.sort_adjacency();
        let max_degree = tree.max_degree();
        if max_degree > MAX_MST_DEGREE {
            return Err(EmstError::DegreeRepairFailed {
                remaining_max_degree: max_degree,
            });
        }
        let lmax = tree.max_edge_weight();
        Ok(EuclideanMst {
            points,
            tree,
            lmax,
            engine: MstEngine::Auto,
        })
    }

    /// Returns a copy of the tree with every coordinate and edge length
    /// divided by `divisor` (which must be positive and finite).
    ///
    /// A Euclidean MST's topology is scale-invariant, so no rebuild is
    /// needed: the edge set is preserved exactly and only the lengths
    /// change.  Dividing each stored weight `w` by `divisor` makes
    /// `rescaled(lmax).lmax() == 1.0` *exact* (`x/x == 1.0` for any finite
    /// positive `x`), which is what `Instance::normalized` relies on.  Note
    /// the rescaled weights may differ by an ulp from distances recomputed
    /// from the rescaled coordinates — `(xu − xv)/d` is not bit-identical
    /// to `xu/d − xv/d` in floating point — so don't assert exact equality
    /// between the two.
    pub fn rescaled(&self, divisor: f64) -> EuclideanMst {
        assert!(
            divisor.is_finite() && divisor > 0.0,
            "rescale divisor must be positive and finite"
        );
        let points: Vec<Point> = self
            .points
            .iter()
            .map(|p| Point::new(p.x / divisor, p.y / divisor))
            .collect();
        let mut tree = self.tree.clone();
        tree.map_weights(|w| w / divisor);
        EuclideanMst {
            points,
            tree,
            lmax: self.lmax / divisor,
            engine: self.engine,
        }
    }

    /// The engine that produced this tree.
    ///
    /// Freshly built trees always report a concrete engine
    /// ([`MstEngine::Auto`] is resolved before building); only a tree
    /// deserialized from a payload predating the engine field reports the
    /// [`MstEngine::default`] of `Auto`, meaning "provenance unknown".
    pub fn engine(&self) -> MstEngine {
        self.engine
    }

    /// The underlying point set (indices of the tree refer to this slice).
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The tree as an undirected weighted graph.
    pub fn tree(&self) -> &Graph {
        &self.tree
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the MST has no vertices.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The longest edge of the MST (`lmax`), the paper's lower bound on the
    /// antenna range needed for connectivity.  Zero for a single point.
    pub fn lmax(&self) -> f64 {
        self.lmax
    }

    /// Total weight of the tree.
    pub fn total_weight(&self) -> f64 {
        self.tree.total_weight()
    }

    /// Degree of vertex `v` in the tree.
    pub fn degree(&self, v: usize) -> usize {
        self.tree.degree(v)
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        self.tree.max_degree()
    }

    /// Neighbours of `v` in the tree (with edge lengths).
    pub fn neighbors(&self, v: usize) -> &[(usize, f64)] {
        self.tree.neighbors(v)
    }

    /// Edges of the tree.
    pub fn edges(&self) -> Vec<Edge> {
        self.tree.edges()
    }

    /// Indices of the degree-one vertices (leaves).  Every tree with ≥ 2
    /// vertices has at least two.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.len()).filter(|&v| self.degree(v) == 1).collect()
    }

    /// The minimum interior angle (radians) between two tree edges sharing a
    /// vertex, over all such pairs — Fact 1(1) of the paper states that this
    /// is at least π/3 for a true MST.  Returns `None` when no vertex has two
    /// or more neighbours.
    pub fn min_adjacent_edge_angle(&self) -> Option<f64> {
        let mut min_angle: Option<f64> = None;
        for v in 0..self.len() {
            let neighbors: Vec<Point> = self
                .neighbors(v)
                .iter()
                .map(|&(u, _)| self.points[u])
                .collect();
            if neighbors.len() < 2 {
                continue;
            }
            let sorted = sort_ccw(&self.points[v], &neighbors);
            let gaps = circular_gaps(&sorted);
            // Adjacent-edge angles are the circular gaps; exclude the single
            // "wrap-around" gap only when there are exactly 2 neighbours
            // (both gaps are genuine angles then as well, so keep all).
            for g in gaps {
                if min_angle.is_none_or(|m| g < m) {
                    min_angle = Some(g);
                }
            }
        }
        min_angle
    }
}

/// Dense Prim over the complete Euclidean graph: O(n²) time, O(n) memory.
///
/// Every step adds the minimum edge across the cut under the shared
/// `(distance, min endpoint, max endpoint)` order: each outside vertex keeps
/// its minimum edge to the tree (equal distances prefer the smaller tree
/// endpoint, which for a fixed outside vertex is the smaller key), and the
/// pick compares those edges by distance, then by `(min, max)` endpoints —
/// so the result is the same unique MST the kd-tree engine builds.
fn dense_prim(points: &[Point]) -> Vec<Edge> {
    let n = points.len();
    let mut in_tree = vec![false; n];
    // best_dist[v] = squared distance from v to the tree, best_from[v] = the
    // tree vertex realising it.
    let mut best_dist = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    let mut edges = Vec::with_capacity(n - 1);

    in_tree[0] = true;
    for v in 1..n {
        best_dist[v] = points[0].distance_squared(&points[v]);
        best_from[v] = 0;
    }
    for _ in 1..n {
        // Pick the unvisited vertex whose tree edge is minimal.
        let key = |v: usize| (best_from[v].min(v), best_from[v].max(v));
        let mut pick = usize::MAX;
        for v in 0..n {
            if in_tree[v] {
                continue;
            }
            if pick == usize::MAX
                || best_dist[v] < best_dist[pick]
                || (best_dist[v] == best_dist[pick] && key(v) < key(pick))
            {
                pick = v;
            }
        }
        let from = best_from[pick];
        edges.push(Edge::new(from, pick, points[from].distance(&points[pick])));
        in_tree[pick] = true;
        // Relax the remaining vertices.
        for v in 0..n {
            if in_tree[v] {
                continue;
            }
            let d = points[pick].distance_squared(&points[v]);
            if d < best_dist[v] || (d == best_dist[v] && pick < best_from[v]) {
                best_dist[v] = d;
                best_from[v] = pick;
            }
        }
    }
    edges
}

/// Smallest input for which a Borůvka round's scan is worth fanning out;
/// below this the thread-scope setup dwarfs the queries themselves.
const PARALLEL_BORUVKA_MIN: usize = 4096;

/// Kd-tree Borůvka over the implicit complete Euclidean graph.
///
/// Each round relabels every vertex with its component root, asks the kd-tree
/// for every vertex's nearest *foreign* point ([`KdIndex::nearest_foreign`]),
/// keeps the minimal candidate edge per component, and merges.  Candidate
/// edges are compared by the total order `(weight, min endpoint, max
/// endpoint)`; because the kd-tree breaks distance ties towards the smaller
/// index, each component's winner is *the* minimum outgoing edge under that
/// order, which makes the procedure the plain Borůvka algorithm on a graph
/// with all-distinct (tie-perturbed) weights: no cycles form, and the result
/// is a true MST even for duplicate points and exact-tie lattices.
///
/// The component count at least halves per round, so there are O(log n)
/// rounds of n pruned nearest-neighbour queries each.  With `threads > 1`
/// each round's scan is chunked over [`chunk_ranges`] and the per-chunk
/// winners merged serially; the per-component minimum under the total order
/// is the same whatever the chunking (see [`scan_run`]), so every thread
/// count yields the identical edge list, bit for bit.
fn kd_boruvka(points: &[Point], threads: usize) -> Vec<Edge> {
    let n = points.len();
    // The index borrows `points` — the MST build path holds no extra copy of
    // the point set (the earlier owning `KdTree` doubled point storage,
    // which at a million sensors is 16 MB of needless resident memory).
    let tree = KdIndex::build_with_threads(points, threads);
    let mut uf = UnionFind::new(n);
    let mut labels = vec![0usize; n];
    let mut edges = Vec::with_capacity(n - 1);
    // Cross-round cache: `cache[v]` is v's exact nearest foreign point from
    // an earlier round.  Components only ever merge, so the cached point
    // stays v's exact nearest foreigner for as long as it remains foreign —
    // only vertices whose candidate got absorbed re-query the tree.
    let mut cache: Vec<Option<(usize, f64)>> = vec![None; n];
    // Vertices grouped by component so that a component's best distance so
    // far can bound its other members' searches.
    let mut order: Vec<usize> = (0..n).collect();
    // Round-persistent scratch, allocated once and reset through `touched`
    // instead of reallocated every round: the minimal outgoing candidate per
    // component root as (weight, min endpoint, max endpoint), and the roots
    // written this round.
    let mut best: Vec<Option<(f64, usize, usize)>> = vec![None; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut round: Vec<(f64, usize, usize)> = Vec::new();

    while uf.component_count() > 1 {
        for (v, label) in labels.iter_mut().enumerate() {
            *label = uf.find(v);
        }
        order.sort_unstable_by_key(|&v| labels[v]);
        // Still-foreign cached candidates cost no query: fold them into the
        // per-root minimum first, where they bound every member's search.
        for v in 0..n {
            if let Some((u, d)) = cache[v].filter(|&(u, _)| labels[u] != labels[v]) {
                offer(&mut best, &mut touched, labels[v], (d, v.min(u), v.max(u)));
            }
        }
        // Query every other vertex, grouped into per-run winners.  The
        // parallel path chunks the sorted order; a component run that
        // straddles a chunk boundary simply produces one winner per
        // fragment, reconciled in the merge below.
        let scans: Vec<RunScan> = if threads > 1 && n >= PARALLEL_BORUVKA_MIN {
            let ranges = chunk_ranges(n, threads);
            parallel_map(&ranges, threads, |&(start, end)| {
                scan_run(points, &tree, &labels, &cache, &best, &order[start..end])
            })
        } else {
            vec![scan_run(points, &tree, &labels, &cache, &best, &order)]
        };
        for (winners, cache_updates) in scans {
            // Chunks cover disjoint vertex sets (each v appears once in
            // `order`), so these writes never conflict.
            for (v, found) in cache_updates {
                cache[v] = Some(found);
            }
            for (root, candidate) in winners {
                offer(&mut best, &mut touched, root, candidate);
            }
        }
        round.clear();
        for &root in &touched {
            round.extend(best[root].take()); // take() resets the scratch slot
        }
        touched.clear();
        round.sort_by(|&a, &b| edge_order(a, b));
        let before = uf.component_count();
        for &(d, a, b) in &round {
            // Two components may nominate the same edge; the second union is
            // a no-op rather than a duplicate edge.
            if uf.union(a, b) {
                edges.push(Edge::new(a, b, d));
            }
        }
        debug_assert!(
            uf.component_count() < before,
            "every Borůvka round merges at least two components"
        );
    }
    edges
}

/// Per-run winners and newly learned nearest-foreigner facts from one scan
/// over a slice of the component-sorted vertex order: `(root, candidate)`
/// pairs (one per contiguous same-root run in the slice) and `(v, nearest
/// foreigner)` cache updates.
type RunScan = (
    Vec<(usize, (f64, usize, usize))>,
    Vec<(usize, (usize, f64))>,
);

/// Queries one slice of the component-sorted vertex order for candidate
/// edges.
///
/// Every run of same-root vertices starts from `seeds[root]`, the minimum of
/// the component's still-foreign cached candidates (those vertices need no
/// query), and the run's best so far bounds each query: a farther point
/// cannot win the run anyway, and points at exactly the bound are still
/// found.  Seeding from the cache is what keeps the last rounds cheap.
/// There a run is a huge component laid out as contiguous blocks of earlier
/// components; scanned in that order, the blocks far from every foreign
/// point come first, and each of their members would sweep a ball holding
/// much of the component before the bound tightens.  A bounded query that
/// returns `None` merely means "cannot beat the run's best"; a `Some` is the
/// vertex's true nearest foreigner (the bound only hides strictly farther
/// points) and is recorded as a cache update.
///
/// **Chunking invariance:** splitting a component's run across chunks only
/// weakens the bounds of the later fragments, which can make more queries
/// return `Some` — but every `Some` is the exact per-vertex nearest
/// foreigner, so the per-root minimum of the merged fragment winners under
/// [`edge_order`] equals the single-scan winner.  Cache contents may
/// likewise differ across thread counts, but a cache entry is only ever an
/// exact nearest foreigner and is used only while still foreign, when a
/// fresh query would return the very same pair.  Hence the merged result —
/// and therefore the whole MST — is bit-identical for every chunking.
fn scan_run(
    points: &[Point],
    tree: &KdIndex,
    labels: &[usize],
    cache: &[Option<(usize, f64)>],
    seeds: &[Option<(f64, usize, usize)>],
    order: &[usize],
) -> RunScan {
    let mut winners: Vec<(usize, (f64, usize, usize))> = Vec::new();
    let mut cache_updates: Vec<(usize, (usize, f64))> = Vec::new();
    for run in order.chunk_by(|&a, &b| labels[a] == labels[b]) {
        let root = labels[run[0]];
        let mut best = seeds[root];
        for &v in run {
            if cache[v].is_some_and(|(u, _)| labels[u] != root) {
                continue; // already folded into the seed
            }
            let bound = best.map_or(f64::INFINITY, |(d, _, _)| d);
            if let Some((u, d)) =
                tree.nearest_foreign_within(points, &points[v], labels, root, bound)
            {
                cache_updates.push((v, (u, d)));
                keep_min(&mut best, (d, v.min(u), v.max(u)));
            }
        }
        winners.extend(best.map(|b| (root, b)));
    }
    (winners, cache_updates)
}

/// Replaces `best` by `candidate` when the candidate precedes it under
/// [`edge_order`] (or nothing was kept yet).
fn keep_min(best: &mut Option<(f64, usize, usize)>, candidate: (f64, usize, usize)) {
    if best.is_none_or(|b| edge_order(candidate, b) == std::cmp::Ordering::Less) {
        *best = Some(candidate);
    }
}

/// Folds `candidate` into the per-root minimum `best[root]`, recording the
/// root in `touched` on its first write of the round.
fn offer(
    best: &mut [Option<(f64, usize, usize)>],
    touched: &mut Vec<usize>,
    root: usize,
    candidate: (f64, usize, usize),
) {
    if best[root].is_none() {
        touched.push(root);
    }
    keep_min(&mut best[root], candidate);
}

/// The tie-broken total order on candidate edges shared by both engines.
fn edge_order(a: (f64, usize, usize), b: (f64, usize, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0)
        .then_with(|| a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
}

/// Local exchange pass that reduces vertices of degree > 5 (which can only
/// arise from exact 60° / equal-length ties) without increasing the tree
/// weight by more than floating-point noise.
fn repair_degree(points: &[Point], tree: &mut Graph) {
    let n = points.len();
    // A generous iteration cap: each exchange strictly reduces the number of
    // (vertex, excess-degree) units, but guard against pathological floating
    // point behaviour anyway.
    let mut budget = 4 * n + 16;
    loop {
        let Some(v) = (0..n).find(|&v| tree.degree(v) > MAX_MST_DEGREE) else {
            return;
        };
        if budget == 0 {
            return;
        }
        budget -= 1;
        // Sort v's neighbours counterclockwise and find the angularly closest
        // adjacent pair.
        let neighbor_ids: Vec<usize> = tree.neighbors(v).iter().map(|&(u, _)| u).collect();
        let neighbor_pts: Vec<Point> = neighbor_ids.iter().map(|&u| points[u]).collect();
        let sorted = sort_ccw(&points[v], &neighbor_pts);
        let gaps = circular_gaps(&sorted);
        let d = sorted.len();
        let (closest_pair_idx, _) = gaps
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("degree > 5 vertex has neighbours");
        let a = neighbor_ids[sorted[closest_pair_idx].index];
        let b = neighbor_ids[sorted[(closest_pair_idx + 1) % d].index];
        // Replace the longer of (v,a),(v,b) by (a,b).
        let da = points[v].distance(&points[a]);
        let db = points[v].distance(&points[b]);
        let drop_endpoint = if da >= db { a } else { b };
        tree.remove_edge(v, drop_endpoint);
        tree.add_edge(a, b, points[a].distance(&points[b]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::kruskal_mst;
    use antennae_geometry::PI;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
            .collect()
    }

    #[test]
    fn empty_input_is_rejected() {
        match EuclideanMst::build(&[]) {
            Err(EmstError::EmptyPointSet) => {}
            other => panic!("expected EmptyPointSet error, got {other:?}"),
        }
    }

    #[test]
    fn single_point_tree() {
        let mst = EuclideanMst::build(&[Point::new(1.0, 2.0)]).unwrap();
        assert_eq!(mst.len(), 1);
        assert_eq!(mst.lmax(), 0.0);
        assert!(mst.edges().is_empty());
        assert_eq!(mst.max_degree(), 0);
    }

    #[test]
    fn two_points_single_edge() {
        let mst = EuclideanMst::build(&[Point::new(0.0, 0.0), Point::new(3.0, 4.0)]).unwrap();
        assert_eq!(mst.edges().len(), 1);
        assert!((mst.lmax() - 5.0).abs() < 1e-12);
        assert_eq!(mst.leaves(), vec![0, 1]);
    }

    #[test]
    fn collinear_points_form_a_path() {
        let pts: Vec<Point> = (0..6).map(|i| Point::new(i as f64, 0.0)).collect();
        let mst = EuclideanMst::build(&pts).unwrap();
        assert_eq!(mst.edges().len(), 5);
        assert!((mst.total_weight() - 5.0).abs() < 1e-12);
        assert!((mst.lmax() - 1.0).abs() < 1e-12);
        assert_eq!(mst.max_degree(), 2);
        assert_eq!(mst.leaves().len(), 2);
    }

    #[test]
    fn matches_kruskal_on_random_points() {
        for seed in 0..5 {
            let pts = random_points(60, seed);
            let mst = EuclideanMst::build(&pts).unwrap();
            let complete = Graph::complete(pts.len(), |u, v| pts[u].distance(&pts[v]));
            let reference = kruskal_mst(&complete);
            assert!(
                (mst.total_weight() - reference.total_weight).abs() < 1e-6,
                "seed {seed}: {} vs {}",
                mst.total_weight(),
                reference.total_weight
            );
        }
    }

    #[test]
    fn max_degree_is_at_most_five_on_random_points() {
        for seed in 0..10 {
            let pts = random_points(200, seed);
            let mst = EuclideanMst::build(&pts).unwrap();
            assert!(mst.max_degree() <= MAX_MST_DEGREE);
        }
    }

    #[test]
    fn hexagonal_star_is_repaired_to_degree_five() {
        // A centre with 6 neighbours at exactly 60° and equal distance: the
        // adversarial tie configuration that produces degree 6.
        let mut pts = vec![Point::new(0.0, 0.0)];
        for k in 0..6 {
            let theta = k as f64 * PI / 3.0;
            pts.push(Point::new(theta.cos(), theta.sin()));
        }
        let mst = EuclideanMst::build(&pts).unwrap();
        assert!(mst.max_degree() <= MAX_MST_DEGREE);
        // The repair must preserve the spanning property and the weight.
        assert_eq!(mst.edges().len(), pts.len() - 1);
        assert!((mst.total_weight() - 6.0).abs() < 1e-9);
        assert!((mst.lmax() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hexagonal_lattice_is_repaired() {
        // Several rings of a triangular lattice: many exact ties at once.
        let mut pts = Vec::new();
        for i in -3i32..=3 {
            for j in -3i32..=3 {
                let x = i as f64 + 0.5 * j as f64;
                let y = j as f64 * (3.0f64).sqrt() / 2.0;
                pts.push(Point::new(x, y));
            }
        }
        let mst = EuclideanMst::build(&pts).unwrap();
        assert!(mst.max_degree() <= MAX_MST_DEGREE);
        assert_eq!(mst.edges().len(), pts.len() - 1);
    }

    #[test]
    fn duplicate_points_are_connected_with_zero_length_edges() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
        ];
        let mst = EuclideanMst::build(&pts).unwrap();
        assert_eq!(mst.edges().len(), 2);
        assert!((mst.total_weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fact1_minimum_adjacent_angle_at_least_sixty_degrees() {
        // Fact 1(1): adjacent MST edges form an angle of at least π/3.  We
        // allow a tiny tolerance for floating point and for the repair pass.
        for seed in 20..26 {
            let pts = random_points(150, seed);
            let mst = EuclideanMst::build(&pts).unwrap();
            if let Some(min_angle) = mst.min_adjacent_edge_angle() {
                assert!(
                    min_angle >= PI / 3.0 - 1e-6,
                    "seed {seed}: min adjacent angle {min_angle} < π/3"
                );
            }
        }
    }

    #[test]
    fn rescaled_preserves_topology_and_normalizes_lmax_exactly() {
        let pts = random_points(80, 7);
        let mst = EuclideanMst::build(&pts).unwrap();
        let scaled = mst.rescaled(mst.lmax());
        // lmax/lmax is exactly 1.0 — no tolerance needed.
        assert_eq!(scaled.lmax(), 1.0);
        assert_eq!(scaled.engine(), mst.engine());
        // Identical edge sets (topology is scale-invariant), lengths divided.
        let key = |e: &Edge| (e.u.min(e.v), e.u.max(e.v));
        let mut original: Vec<_> = mst.edges().iter().map(key).collect();
        let mut rescaled: Vec<_> = scaled.edges().iter().map(key).collect();
        original.sort_unstable();
        rescaled.sort_unstable();
        assert_eq!(original, rescaled);
        for e in scaled.edges() {
            let expected = mst.points()[e.u].distance(&mst.points()[e.v]) / mst.lmax();
            assert!((e.weight - expected).abs() < 1e-15);
        }
        assert!(scaled.max_degree() <= MAX_MST_DEGREE);
    }

    #[test]
    fn engines_agree_on_collinear_points() {
        let pts: Vec<Point> = (0..40).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_engines_agree(&pts);
    }

    #[test]
    fn engines_agree_on_duplicate_and_shared_coordinate_points() {
        // Duplicates and duplicate-coordinate columns/rows: worst case for
        // kd-tree splitting planes and for distance ties.
        let mut pts = Vec::new();
        for i in 0..8 {
            for j in 0..4 {
                pts.push(Point::new(i as f64, j as f64));
                pts.push(Point::new(i as f64, j as f64)); // exact duplicate
            }
        }
        assert_engines_agree(&pts);
    }

    #[test]
    fn engines_agree_on_hexagonal_lattice() {
        let mut pts = Vec::new();
        for i in -3i32..=3 {
            for j in -3i32..=3 {
                let x = i as f64 + 0.5 * j as f64;
                let y = j as f64 * (3.0f64).sqrt() / 2.0;
                pts.push(Point::new(x, y));
            }
        }
        assert_engines_agree(&pts);
    }

    #[test]
    fn auto_engine_switches_at_the_crossover() {
        let small = random_points(8, 1);
        let mst = EuclideanMst::build(&small).unwrap();
        assert_eq!(mst.engine(), MstEngine::DensePrim);

        let big = random_points(KDTREE_CROSSOVER, 2);
        let mst = EuclideanMst::build(&big).unwrap();
        assert_eq!(mst.engine(), MstEngine::KdTreeBoruvka);
        assert_eq!(mst.edges().len(), big.len() - 1);
        assert!(mst.max_degree() <= MAX_MST_DEGREE);
    }

    #[test]
    fn kd_engine_matches_dense_on_larger_random_sets() {
        for seed in 0..3 {
            let pts = random_points(600, 100 + seed);
            assert_engines_agree(&pts);
        }
    }

    #[test]
    fn kd_engine_is_bit_identical_across_thread_counts() {
        // Above PARALLEL_BORUVKA_MIN so the chunked scan path actually runs;
        // the edge lists (not just the weights) must match bit for bit.
        let pts = random_points(PARALLEL_BORUVKA_MIN + 500, 42);
        let serial =
            EuclideanMst::build_with_engine_threads(&pts, MstEngine::KdTreeBoruvka, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let parallel =
                EuclideanMst::build_with_engine_threads(&pts, MstEngine::KdTreeBoruvka, threads)
                    .unwrap();
            let key = |e: &Edge| (e.u, e.v, e.weight.to_bits());
            let serial_edges: Vec<_> = serial.edges().iter().map(key).collect();
            let parallel_edges: Vec<_> = parallel.edges().iter().map(key).collect();
            assert_eq!(serial_edges, parallel_edges, "threads={threads}");
            assert_eq!(serial.lmax().to_bits(), parallel.lmax().to_bits());
        }
    }

    /// Lattice sizes 3×3 … 30×30 in shuffled index order: every edge weight
    /// ties, so any tie-break other than the shared `(weight, min, max)`
    /// order makes the engines pick different trees.
    #[test]
    fn engines_build_the_same_tree_on_shuffled_lattices() {
        let mut rng = StdRng::seed_from_u64(0x1A77);
        for side in 3..=30usize {
            let mut pts: Vec<Point> = (0..side * side)
                .map(|i| Point::new((i % side) as f64, (i / side) as f64))
                .collect();
            for i in (1..pts.len()).rev() {
                pts.swap(i, rng.random_range(0..=i));
            }
            let dense = EuclideanMst::build_with_engine(&pts, MstEngine::DensePrim).unwrap();
            let kd = EuclideanMst::build_with_engine(&pts, MstEngine::KdTreeBoruvka).unwrap();
            let key = |e: &Edge| (e.u, e.v, e.weight.to_bits());
            let dense_edges: Vec<_> = dense.edges().iter().map(key).collect();
            let kd_edges: Vec<_> = kd.edges().iter().map(key).collect();
            assert_eq!(dense_edges, kd_edges, "{side}×{side} lattice");
        }
    }

    /// Both engines must produce genuine MSTs: spanning, degree ≤ 5, and —
    /// since all MSTs of a graph share one multiset of edge weights —
    /// identical total weight and identical `lmax`.
    fn assert_engines_agree(pts: &[Point]) {
        let dense = EuclideanMst::build_with_engine(pts, MstEngine::DensePrim).unwrap();
        let kd = EuclideanMst::build_with_engine(pts, MstEngine::KdTreeBoruvka).unwrap();
        assert_eq!(dense.edges().len(), pts.len() - 1);
        assert_eq!(kd.edges().len(), pts.len() - 1);
        assert!(
            (dense.total_weight() - kd.total_weight()).abs() < 1e-6,
            "total weight: dense {} vs kd {}",
            dense.total_weight(),
            kd.total_weight()
        );
        assert!(
            (dense.lmax() - kd.lmax()).abs() < 1e-9,
            "lmax: dense {} vs kd {}",
            dense.lmax(),
            kd.lmax()
        );
        assert!(kd.max_degree() <= MAX_MST_DEGREE);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_kdtree_engine_matches_dense_oracle(
            xs in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 1..120)
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let dense = EuclideanMst::build_with_engine(&pts, MstEngine::DensePrim).unwrap();
            let kd = EuclideanMst::build_with_engine(&pts, MstEngine::KdTreeBoruvka).unwrap();
            prop_assert_eq!(kd.edges().len(), pts.len() - 1);
            prop_assert!((dense.total_weight() - kd.total_weight()).abs() < 1e-6,
                "weight {} vs {}", dense.total_weight(), kd.total_weight());
            prop_assert!((dense.lmax() - kd.lmax()).abs() < 1e-9,
                "lmax {} vs {}", dense.lmax(), kd.lmax());
            prop_assert!(kd.max_degree() <= MAX_MST_DEGREE);
        }

        #[test]
        fn prop_kdtree_engine_handles_snapped_degenerate_grids(
            xs in proptest::collection::vec((0usize..12, 0usize..12), 2..80)
        ) {
            // Integer-snapped points: many exact duplicates, shared x/y
            // columns, and tied candidate distances in every round.
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x as f64, y as f64)).collect();
            let dense = EuclideanMst::build_with_engine(&pts, MstEngine::DensePrim).unwrap();
            let kd = EuclideanMst::build_with_engine(&pts, MstEngine::KdTreeBoruvka).unwrap();
            prop_assert!((dense.total_weight() - kd.total_weight()).abs() < 1e-6,
                "weight {} vs {}", dense.total_weight(), kd.total_weight());
            prop_assert!((dense.lmax() - kd.lmax()).abs() < 1e-9,
                "lmax {} vs {}", dense.lmax(), kd.lmax());
            prop_assert!(kd.max_degree() <= MAX_MST_DEGREE);
        }

        #[test]
        fn prop_spanning_tree_with_degree_bound(
            xs in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 1..80)
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mst = EuclideanMst::build(&pts).unwrap();
            prop_assert_eq!(mst.edges().len(), pts.len() - 1);
            prop_assert!(mst.max_degree() <= MAX_MST_DEGREE);
            // lmax is indeed the maximum edge weight.
            let lmax = mst.edges().iter().map(|e| e.weight).fold(0.0, f64::max);
            prop_assert!((mst.lmax() - lmax).abs() < 1e-12);
        }

        #[test]
        fn prop_weight_matches_kruskal(
            xs in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 2..40)
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mst = EuclideanMst::build(&pts).unwrap();
            let complete = Graph::complete(pts.len(), |u, v| pts[u].distance(&pts[v]));
            let reference = kruskal_mst(&complete);
            prop_assert!((mst.total_weight() - reference.total_weight).abs() < 1e-6);
        }
    }
}
