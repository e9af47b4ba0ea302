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
//!   complete Euclidean graph.  Unbeatable for small inputs (nothing to
//!   build first) and kept as the *oracle* the Delaunay engine is
//!   property-tested against.
//! * **Delaunay → Kruskal** — merges coincident sensors into one site each,
//!   triangulates the distinct sites with exact predicates
//!   ([`Delaunay`]), and runs Kruskal over the triangulation's ≤ 3n edges:
//!   O(n log n) time, serial.
//!
//! Both engines order edges by one total order — the computed length
//! [`Point::distance`], then the smaller endpoint, then the larger one —
//! under which all edge keys are distinct and the MST is unique.  Each
//! therefore computes a true MST even on degenerate inputs, and both compute
//! the *same* tree: the tests compare edge lists, weight bits included,
//! against each other and against a brute-force Kruskal over the complete
//! graph on tie-heavy lattices.  Inputs must be finite
//! ([`EmstError::NonFinitePoint`]).
//!
//! [`EuclideanMst::build`] selects the engine by input size (the
//! [`DELAUNAY_CROSSOVER`] threshold); `build_with_engine` pins one
//! explicitly.
//!
//! # Why Delaunay → Kruskal builds the same tree
//!
//! Write `T*` for the unique MST under the shared order and `d̃` for the
//! computed length.  The engine builds a candidate set `C`, runs Kruskal
//! over it in the shared order, and gets `T′`; `T′ = T*` as soon as
//! `T* ⊆ C` (every edge of `C` outside `T*` is the strict maximum of its
//! cycle in `T*`, which lies in `C`).
//!
//! * **Coincident sensors.**  Ids are sorted by `(x, y)` and grouped with
//!   `==` (so `-0.0 == 0.0`); each group becomes one site, represented by
//!   its lowest id, and every other member gets its zero-length edge to
//!   the representative.  The sites, in `(x, y)` order, are what the
//!   triangulation works on.  All pairs between two sites have the same `d̃`, so the
//!   representative pair, which has the smallest `(min, max)`, precedes
//!   every other pair between them; Kruskal on all points therefore takes
//!   each group's zero-length star on its lowest id, then exactly the
//!   representative edges Kruskal takes on the sites alone.  That star on
//!   the lowest id is the tree dense Prim builds too.
//! * **Distinct sites: Gabriel edges are Delaunay.**  If a site `w` lies in
//!   the closed diametral disk of `uv`, then `|uw|² + |wv|² ≤ |uv|²`, so
//!   `uv` is exactly the longest side of triangle `uwv`, and no site lies in
//!   the closed diametral disk of an MST edge (Shamos & Hoey, FOCS 1975).
//!   Such an edge is in every Delaunay triangulation, and the exact
//!   predicates make [`Delaunay`] one.  The sites' Delaunay edges (or, when
//!   every site is on one line, the path through them in `(x, y)` order,
//!   which contains every such edge) go into `C`.
//! * **The rounding guard.**  The order compares `d̃`, not exact lengths.
//!   `d̃` is within a relative `3·2⁻⁵³` of the exact length, so rounding
//!   can keep `uv` from being the strict maximum of triangle `uwv` only
//!   if `|uw|² ≥ (1 − 14·2⁻⁵³)·|uv|²` (or the same for `wv`), which with
//!   `|uw|² + |wv|² ≤ |uv|²` puts `w` within `ρ·|uv|` of `v` (or `u`),
//!   `ρ = √(14·2⁻⁵³) ≈ 4·10⁻⁸`.  A nearest-neighbour edge is Gabriel,
//!   hence Delaunay, so `v`'s shortest Delaunay edge `s̃(v)` is at most
//!   about `ρ·|uv|`, and `d̃(uv) > s̃(v)/GUARD` with `GUARD` = 10⁻⁷ (a
//!   2.5-fold margin over `ρ` covers every rounding).  By the bottleneck
//!   property of `T*`, `d̃(uv) ≤ lmax′`, the longest edge of `T′`.  So
//!   `T′ = T*` when no site has `s̃(v) ≤ GUARD·lmax′`, an O(n) check.
//!   Otherwise each such site `v` offers its edges to every site `u` with
//!   `s̃(v)/GUARD ≤ d̃(uv) ≤ lmax′` ([`KdIndex::within_annulus_into`]),
//!   and Kruskal runs again over `T′` plus the offers
//!   (`MST(C ∪ X) = MST(MST(C) ∪ X)`).
//!
//! [`Delaunay::new`] refuses sites whose nonzero coordinates span more
//! than about 10⁶⁰ in magnitude (beyond that its exact predicates would
//! underflow); the engine then returns dense Prim's tree, which is the same
//! tree.  Like dense Prim, the analysis assumes the squared distances
//! neither overflow nor underflow.
//!
//! Cost: sorting by `(x, y)`, the triangulation and Kruskal's sort are
//! O(n log n), in O(n) memory.  The guard's check is O(n).  Its widening,
//! when it runs, makes one annulus query per flagged site, each O(log n)
//! plus the sites it returns; the query skips whole kd subtrees inside the
//! inner radius, so the sites around `v` closer than `s̃(v)/GUARD` cost
//! nothing.  Memory stays O(n): the offers fold back into a tree whenever
//! they pass 4n.  Time is O(n log n) unless Θ(n) sites each have a
//! neighbour 10⁷ times closer than Θ(n) other sites within `lmax′`; that
//! takes near-coincident sites spread across the whole deployment *and*
//! an MST edge as long as the deployment is wide, and costs O(n²) time.

use crate::graph::{Edge, Graph};
use crate::union_find::UnionFind;
use antennae_geometry::angular::{circular_gaps, sort_ccw};
use antennae_geometry::{Delaunay, KdIndex, Point};
use serde::{Deserialize, Serialize};

/// Maximum vertex degree the orientation algorithms assume (`Δ(T) ≤ 5`).
pub const MAX_MST_DEGREE: usize = 5;

/// Input size at which [`MstEngine::Auto`] switches from dense Prim to the
/// Delaunay engine.
///
/// Below this size the O(n²) pass is faster in practice because it builds
/// nothing first and touches memory linearly.  The `mst_scaling` criterion
/// bench in `antennae-bench` tracks the real crossover; on a 2-vCPU
/// container dense Prim wins at n = 64 (12 µs vs 38 µs), the two are within
/// run-to-run noise at n = 125, and the Delaunay engine wins from n = 250
/// (162 µs vs 266 µs).
pub const DELAUNAY_CROSSOVER: usize = 128;

/// Relative length at or below which a Delaunay edge triggers the rounding
/// guard's widening (see the module docs).
const GUARD: f64 = 1e-7;

/// Which algorithm produces the spanning edges of a [`EuclideanMst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MstEngine {
    /// Pick by input size: dense Prim below [`DELAUNAY_CROSSOVER`] points,
    /// the Delaunay engine at or above it.
    Auto,
    /// The O(n²) dense Prim pass (also the property-test oracle).
    DensePrim,
    /// Kruskal over the exact Delaunay triangulation's edges, O(n log n).
    Delaunay,
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
                if n >= DELAUNAY_CROSSOVER {
                    MstEngine::Delaunay
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
    /// A coordinate is NaN or infinite.
    NonFinitePoint {
        /// Index of the first such point.
        index: usize,
    },
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
            EmstError::NonFinitePoint { index } => {
                write!(f, "point {index} has a non-finite coordinate")
            }
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

    /// Builds the Euclidean MST of `points` with an explicitly chosen engine.
    ///
    /// `MstEngine::DensePrim` runs in O(n²) time and O(n) additional memory;
    /// `MstEngine::Delaunay` in O(n log n).  Both produce the same tree, edge
    /// for edge, weight bits included.
    pub fn build_with_engine(points: &[Point], engine: MstEngine) -> Result<Self, EmstError> {
        Self::build_with_engine_threads(points, engine, 1)
    }

    /// [`EuclideanMst::build_with_engine`] with a worker-thread count.  Both
    /// engines and the degree-repair pass are serial, so `threads` does not
    /// change the work done, and the result is bit-identical for every
    /// value.
    ///
    /// # Errors
    ///
    /// [`EmstError::EmptyPointSet`] for no points,
    /// [`EmstError::NonFinitePoint`] when a coordinate is NaN or infinite.
    pub fn build_with_engine_threads(
        points: &[Point],
        engine: MstEngine,
        _threads: usize,
    ) -> Result<Self, EmstError> {
        if points.is_empty() {
            return Err(EmstError::EmptyPointSet);
        }
        if let Some(index) = points.iter().position(|p| !p.is_finite()) {
            return Err(EmstError::NonFinitePoint { index });
        }
        let n = points.len();
        let resolved = engine.resolve(n);
        let spanning = if n > 1 {
            match resolved {
                MstEngine::DensePrim => dense_prim(points),
                MstEngine::Delaunay => delaunay_kruskal(points).0,
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

/// A squared length more than this factor above a vertex's best one has a
/// computed length strictly above the best's (the square root rounds with
/// half an ulp, so the factor leaves room to spare), so dense Prim skips its
/// square root.
const NEAR_TIE: f64 = 1.0 + 4.0 * f64::EPSILON;

/// Dense Prim over the complete Euclidean graph: O(n²) time, O(n) memory.
///
/// Every step adds the minimum edge across the cut under the shared
/// `(computed length, min endpoint, max endpoint)` order.  Each outside
/// vertex keeps its minimum edge to the tree, where equal lengths prefer
/// the smaller tree endpoint (for a fixed outside vertex that is the smaller
/// key), and the pick compares those edges by length, then by `(min, max)`
/// endpoints — so the result is the same unique MST the Delaunay engine
/// builds.  Squared lengths serve only as a filter: a candidate whose square
/// is clearly larger cannot round to an equal or smaller length.
fn dense_prim(points: &[Point]) -> Vec<Edge> {
    let n = points.len();
    let mut in_tree = vec![false; n];
    // For each outside vertex: the computed length of its best edge to the
    // tree, that edge's tree endpoint, and the squared length above which a
    // candidate can neither beat nor tie it.
    let mut best_w = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    let mut limit = vec![f64::INFINITY; n];
    let mut edges = Vec::with_capacity(n - 1);

    let mut pick = 0;
    in_tree[0] = true;
    for _ in 1..n {
        // Relax every outside vertex against the vertex just added, and
        // pick the one whose tree edge is minimal.
        let mut next = usize::MAX;
        for v in 0..n {
            if in_tree[v] {
                continue;
            }
            let sq = points[pick].distance_squared(&points[v]);
            if sq <= limit[v] {
                let w = sq.sqrt();
                if w < best_w[v] || (w == best_w[v] && pick < best_from[v]) {
                    best_w[v] = w;
                    best_from[v] = pick;
                    limit[v] = sq * NEAR_TIE;
                }
            }
            let key = |v: usize| (best_from[v].min(v), best_from[v].max(v));
            if next == usize::MAX
                || best_w[v] < best_w[next]
                || (best_w[v] == best_w[next] && key(v) < key(next))
            {
                next = v;
            }
        }
        edges.push(Edge::new(best_from[next], next, best_w[next]));
        in_tree[next] = true;
        pick = next;
    }
    edges
}

/// A candidate edge under the shared order: `(computed length bits, min,
/// max)`.  Lengths are non-negative, so their bit patterns sort like the
/// lengths.
type Candidate = (u64, u32, u32);

fn candidate(points: &[Point], a: u32, b: u32) -> Candidate {
    let (u, v) = (a.min(b), a.max(b));
    let w = points[u as usize].distance(&points[v as usize]);
    (w.to_bits(), u, v)
}

fn to_edge(&(w, u, v): &Candidate) -> Edge {
    Edge::new(u as usize, v as usize, f64::from_bits(w))
}

/// Kruskal over `candidates` in the shared order (sorting `candidates` in
/// place): the spanning forest's edges, in that order.
fn kruskal(n: usize, candidates: &mut [Candidate]) -> Vec<Candidate> {
    candidates.sort_unstable();
    let mut uf = UnionFind::new(n);
    let mut tree = Vec::with_capacity(n - 1);
    for &c in candidates.iter() {
        if uf.union(c.1 as usize, c.2 as usize) {
            tree.push(c);
            if tree.len() + 1 == n {
                break;
            }
        }
    }
    tree
}

/// An order-preserving integer image of a finite coordinate.  Adding `0.0`
/// maps `-0.0` onto `0.0`, so two coordinates get equal images exactly
/// when they compare `==`.
fn ordered_bits(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The Delaunay engine: coincident sensors merged into sites, Kruskal over
/// the sites' exact Delaunay edges plus the zero-length member edges, and
/// the rounding guard (see the module docs for why this is `T*`).  Sites
/// outside the exact predicates' range go to dense Prim instead.  Also
/// returns how many edges the guard's widening offered.
fn delaunay_kruskal(points: &[Point]) -> (Vec<Edge>, usize) {
    let n = points.len();
    assert!(n < u32::MAX as usize, "at most 2^32 - 1 points");
    let mut order: Vec<(u64, u64, u32)> = points
        .iter()
        .zip(0..n as u32)
        .map(|(p, i)| (ordered_bits(p.x), ordered_bits(p.y), i))
        .collect();
    order.sort_unstable();
    let mut sites = Vec::new();
    let mut is_site = vec![false; n];
    let mut members = Vec::new();
    for group in order.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let rep = group[0].2;
        sites.push(rep);
        is_site[rep as usize] = true;
        members.extend(
            group[1..]
                .iter()
                .map(|&(_, _, m)| candidate(points, rep, m)),
        );
    }
    drop(order);

    let Some(dt) = Delaunay::new(points, &sites) else {
        return (dense_prim(points), 0);
    };
    if cfg!(debug_assertions) {
        if let Err(violation) = dt.validate(points, &sites) {
            panic!("the triangulation is not Delaunay: {violation}");
        }
    }
    // A triangulation of m sites has at most 3m edges.
    let mut candidates = members;
    candidates.reserve(3 * sites.len());
    candidates.extend(dt.edges().map(|(u, v)| candidate(points, u, v)));
    drop(dt);
    let tree = kruskal(n, &mut candidates);
    debug_assert_eq!(tree.len(), n - 1, "Kruskal spans the candidates");
    let (tree, offered) = rounding_guard(points, &is_site, &candidates, tree);
    drop(candidates);
    (tree.iter().map(to_edge).collect(), offered)
}

/// The rounding guard over Kruskal's result `tree` (`T′`) from the
/// candidate set `candidates` (see the module docs): `T*`, and the number
/// of annulus edges the widening offered.
fn rounding_guard(
    points: &[Point],
    is_site: &[bool],
    candidates: &[Candidate],
    tree: Vec<Candidate>,
) -> (Vec<Candidate>, usize) {
    let n = points.len();
    let lmax = tree.last().map_or(0.0, |c| f64::from_bits(c.0));
    let delaunay_edges = || {
        candidates
            .iter()
            .filter(|&&(_, u, v)| is_site[u as usize] && is_site[v as usize])
    };
    if delaunay_edges().all(|&(w, _, _)| f64::from_bits(w) > GUARD * lmax) {
        return (tree, 0);
    }
    // The shortest Delaunay edge at each site: its nearest-neighbour
    // distance, as a computed length.
    let mut nearest = vec![f64::INFINITY; n];
    for &(w, u, v) in delaunay_edges() {
        let w = f64::from_bits(w);
        for end in [u, v] {
            nearest[end as usize] = nearest[end as usize].min(w);
        }
    }
    let index = KdIndex::build(points);
    // Kruskal's result summarises the candidates it came from
    // (MST(C ∪ X) = MST(MST(C) ∪ X)), so the widening starts from `T′` and
    // folds its offers back into a tree whenever they pass 4n.
    let mut widened = tree;
    let mut offered = 0;
    let mut ring = Vec::new();
    for v in 0..n {
        let inner = nearest[v] / GUARD;
        if inner > lmax {
            continue;
        }
        index.within_annulus_into(points, &points[v], inner, lmax, &mut ring);
        for &u in &ring {
            if is_site[u] && u != v {
                widened.push(candidate(points, v as u32, u as u32));
                offered += 1;
            }
        }
        if widened.len() > 4 * n {
            widened = kruskal(n, &mut widened);
        }
    }
    let tree = kruskal(n, &mut widened);
    debug_assert_eq!(tree.len(), n - 1, "Kruskal spans the candidates");
    (tree, offered)
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

    /// An edge list as sorted `(min, max, weight bits)` triples.
    fn bits(edges: &[Edge]) -> Vec<(usize, usize, u64)> {
        let mut out: Vec<_> = edges
            .iter()
            .map(|e| (e.u.min(e.v), e.u.max(e.v), e.weight.to_bits()))
            .collect();
        out.sort_unstable();
        out
    }

    /// Brute-force Kruskal over the complete graph in the shared order.
    fn brute_force(pts: &[Point]) -> Vec<Edge> {
        kruskal_mst(&Graph::complete(pts.len(), |u, v| pts[u].distance(&pts[v]))).edges
    }

    /// Both engines return the brute-force tree edge for edge, weight bits
    /// included, before the degree repair; after it, the public builds
    /// still agree bit for bit.
    fn assert_engines_agree(pts: &[Point]) {
        if pts.len() > 1 {
            let oracle = bits(&brute_force(pts));
            assert_eq!(bits(&dense_prim(pts)), oracle, "dense Prim vs brute force");
            assert_eq!(
                bits(&delaunay_kruskal(pts).0),
                oracle,
                "Delaunay vs brute force"
            );
        }
        let dense = EuclideanMst::build_with_engine(pts, MstEngine::DensePrim).unwrap();
        let delaunay = EuclideanMst::build_with_engine(pts, MstEngine::Delaunay).unwrap();
        assert_eq!(bits(&dense.edges()), bits(&delaunay.edges()));
        assert_eq!(dense.lmax().to_bits(), delaunay.lmax().to_bits());
        assert_eq!(delaunay.edges().len(), pts.len() - 1);
        assert!(delaunay.max_degree() <= MAX_MST_DEGREE);
    }

    #[test]
    fn engines_agree_on_collinear_points() {
        let pts: Vec<Point> = (0..40).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_engines_agree(&pts);
        // A slanted line, shuffled: only the (x, y)-ordered path survives.
        let mut rng = StdRng::seed_from_u64(5);
        let mut slanted: Vec<Point> = (0..200)
            .map(|i| Point::new(i as f64, 3.0 * i as f64))
            .collect();
        for i in (1..slanted.len()).rev() {
            slanted.swap(i, rng.random_range(0..=i));
        }
        assert_engines_agree(&slanted);
    }

    #[test]
    fn engines_agree_on_duplicate_and_shared_coordinate_points() {
        // Duplicates and duplicate-coordinate columns/rows: coincident
        // sites and distance ties everywhere.
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

    /// The forced Delaunay engine on the inputs that stress its special
    /// cases: tiny inputs, one line, one location, signed zeros, and
    /// cocircular sites.
    #[test]
    fn delaunay_engine_handles_degenerate_inputs() {
        let p = Point::new;
        let one = EuclideanMst::build_with_engine(&[p(1.0, 2.0)], MstEngine::Delaunay).unwrap();
        assert_eq!((one.edges().len(), one.lmax()), (0, 0.0));
        assert_engines_agree(&[p(0.0, 0.0), p(3.0, 4.0)]);
        assert_engines_agree(&[p(2.0, 1.0), p(-4.0, -2.0), p(6.0, 3.0), p(0.0, 0.0)]);
        assert_engines_agree(&[p(1.5, -2.5); 9]);
        assert_engines_agree(&[
            p(0.0, 0.0),
            p(-0.0, 0.0),
            p(0.0, -0.0),
            p(1.0, 0.0),
            p(-0.0, 1.0),
        ]);
        // Sites on the line x = 0 with both signs of zero: one abscissa,
        // so the collinear path follows y.  At 150 sites `Auto` takes the
        // Delaunay engine too.
        assert_engines_agree(&[p(0.0, 1.0), p(-0.0, 2.0), p(0.0, 3.0)]);
        let mut rng = StdRng::seed_from_u64(9);
        let mut zeros: Vec<Point> = (0..150)
            .map(|i| {
                p(
                    if rng.random_range(0..2) == 0 {
                        0.0
                    } else {
                        -0.0
                    },
                    i as f64,
                )
            })
            .collect();
        for i in (1..zeros.len()).rev() {
            zeros.swap(i, rng.random_range(0..=i));
        }
        assert_engines_agree(&zeros);
        assert_eq!(EuclideanMst::build(&zeros).unwrap().lmax(), 1.0);
        // Distinct squared lengths that round to one length: the shared
        // order compares the rounded length, then the endpoints.
        assert_engines_agree(&[p(1.0, 2f64.powi(-26)), p(1.0, 0.0), p(0.0, 0.0)]);
        // The twelve lattice points on the circle of radius 5, plus its
        // centre, and a ring of 3-4-5 circles.
        let mut circle = vec![p(0.0, 0.0)];
        for (x, y) in [(3.0, 4.0), (4.0, 3.0), (5.0, 0.0)] {
            for (sx, sy) in [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)] {
                circle.push(p(sx * x, sy * y));
                circle.push(p(sy * y, sx * x));
            }
        }
        circle.sort_unstable_by(|a, b| a.lex_cmp(b));
        circle.dedup();
        assert_engines_agree(&circle);
        let rings: Vec<Point> = (0..10)
            .flat_map(|k| circle.iter().map(move |c| p(c.x + 10.0 * k as f64, c.y)))
            .collect();
        assert_engines_agree(&rings);
    }

    /// Pairs 10⁻⁹·`lmax` apart trip the rounding guard; the widened
    /// candidate set must still give the brute-force tree.  The first
    /// inputs need the widening: `w` and `z` sit inside the diametral disk
    /// of `uv` on either side, so `uv` is not a Delaunay edge, yet `uv`, `uw`
    /// and `uz` all round to one length and the order keeps `uv` (ids 0, 1).
    #[test]
    fn rounding_guard_keeps_the_tree_around_near_coincident_pairs() {
        let p = Point::new;
        let needs_widening = [
            [
                p(57.85496210133457, 2.457935115981247),
                p(58.19289940565772, 1.5167664922230992),
                p(58.192899418507636, 1.5167664968370083),
                p(58.1928993928078, 1.5167664876091906),
            ],
            [
                p(1.2681881374883686, 0.2794837642265069),
                p(1.1914620890492003, 1.2765359762449702),
                p(1.1914620746593485, 1.2765359751376293),
                p(1.191462103439052, 1.2765359773523106),
            ],
        ];
        for pts in &needs_widening {
            let sites: Vec<u32> = (0..4).collect();
            let dt = Delaunay::new(pts, &sites).unwrap();
            assert!(!dt.edges().any(|(a, b)| a.min(b) == 0 && a.max(b) == 1));
            assert_engines_agree(pts);
        }
        for seed in 0..6 {
            let mut pts = random_points(300, 50 + seed);
            let lmax = EuclideanMst::build(&pts).unwrap().lmax();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..40 {
                let q = pts[i * 7];
                let angle: f64 = rng.random_range(0.0..std::f64::consts::TAU);
                let d = 1e-9 * lmax * rng.random_range(0.5..2.0);
                pts.push(Point::new(q.x + d * angle.cos(), q.y + d * angle.sin()));
            }
            assert_engines_agree(&pts);
        }
    }

    /// Spreads near 10⁸⁰ would overflow the incircle test and near 10⁻⁸⁰
    /// underflow it without the triangulation's power-of-two scaling.
    #[test]
    fn delaunay_engine_is_exact_at_extreme_coordinate_scales() {
        for factor in [1e80, 1e-80] {
            let pts: Vec<Point> = random_points(300, 31)
                .iter()
                .map(|q| Point::new(q.x * factor, q.y * factor))
                .collect();
            assert_engines_agree(&pts);
        }
    }

    /// A nonzero coordinate 10⁻⁷⁰ beside coordinates near 100 is outside
    /// the exact predicates' range: the engine falls back to dense Prim.
    #[test]
    fn coordinates_beyond_the_predicates_range_fall_back_to_dense_prim() {
        let mut pts = random_points(200, 37);
        pts.push(Point::new(1e-70, 50.0));
        pts.push(Point::new(1e-70, 50.0));
        let sites: Vec<u32> = (0..pts.len() as u32 - 1).collect();
        assert!(Delaunay::new(&pts, &sites).is_none());
        assert_engines_agree(&pts);
    }

    /// One far sensor makes `lmax′` huge and flags every grid site, but each
    /// grid site's annulus starts 10⁷ grid spacings out, where only the far
    /// sensor can be: at most one offer per site, not one per pair (a ball
    /// of radius `lmax′` would hold the whole grid, 1600² offers).
    #[test]
    fn rounding_guard_offers_stay_linear_with_a_far_outlier() {
        let mut pts: Vec<Point> = (0..1600)
            .map(|i| Point::new((i % 40) as f64, (i / 40) as f64))
            .collect();
        pts.push(Point::new(1e8, 0.0));
        let (edges, offered) = delaunay_kruskal(&pts);
        assert!(offered <= 1600, "{offered} offers");
        assert_eq!(bits(&edges), bits(&dense_prim(&pts)));
    }

    #[test]
    fn non_finite_points_are_rejected_by_every_engine() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for n in [10usize, 2000] {
                let mut pts = random_points(n, 3);
                pts[n / 2] = Point::new(bad, 1.0);
                for engine in [MstEngine::Auto, MstEngine::DensePrim, MstEngine::Delaunay] {
                    assert_eq!(
                        EuclideanMst::build_with_engine(&pts, engine).unwrap_err(),
                        EmstError::NonFinitePoint { index: n / 2 },
                        "{bad} among {n} points, {engine:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_engine_switches_at_the_crossover() {
        let small = random_points(8, 1);
        let mst = EuclideanMst::build(&small).unwrap();
        assert_eq!(mst.engine(), MstEngine::DensePrim);

        let big = random_points(DELAUNAY_CROSSOVER, 2);
        let mst = EuclideanMst::build(&big).unwrap();
        assert_eq!(mst.engine(), MstEngine::Delaunay);
        assert_eq!(mst.edges().len(), big.len() - 1);
        assert!(mst.max_degree() <= MAX_MST_DEGREE);
    }

    #[test]
    fn engines_agree_on_larger_random_sets() {
        for seed in 0..3 {
            let pts = random_points(600, 100 + seed);
            assert_engines_agree(&pts);
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
            assert_engines_agree(&pts);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_engines_match_brute_force_kruskal(
            xs in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 1..120)
        ) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            assert_engines_agree(&pts);
        }

        #[test]
        fn prop_engines_agree_on_snapped_degenerate_grids(
            xs in proptest::collection::vec((0usize..12, 0usize..12), 2..80)
        ) {
            // Integer-snapped points: many exact duplicates, shared x/y
            // columns, cocircular quadruples and tied lengths.
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x as f64, y as f64)).collect();
            assert_engines_agree(&pts);
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
