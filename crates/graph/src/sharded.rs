//! Sharded Euclidean MST construction: per-tile forests plus an exact
//! boundary stitch.
//!
//! [`build_sharded`] partitions the input by a [`TileGrid`], builds every
//! occupied tile's MST independently (fanning the tiles out over
//! `antennae-parallel`), and then runs a cross-tile Borůvka merge that is
//! **bit-identical** to the global [`EuclideanMst`] build.  The argument has
//! three steps, each leaning on the engines' shared tie-broken total edge
//! order `(weight, min endpoint, max endpoint)` under which all edge keys
//! are distinct and the MST `T*` is unique:
//!
//! 1. **Containment (cycle property).**  Any `T*` edge with both endpoints
//!    in tile `i` is also an edge of `MST(S_i)`: it is not the heaviest edge
//!    of any cycle in the complete graph over all points, hence not of any
//!    cycle within tile `i`.  So `T* ⊆ H`, where `H` is the union of every
//!    tile's MST edges and all cross-tile point pairs.
//! 2. **Monotone relabeling.**  Each tile's members are listed in ascending
//!    global index, so the local `(weight, min, max)` order the per-tile
//!    Borůvka breaks ties with is exactly the global order restricted to the
//!    tile — every tile forest is computed under the *same* perturbed order
//!    as the global build.
//! 3. **Stitch = Borůvka on `H`.**  Since `T* ⊆ H ⊆` complete graph and the
//!    MST is unique, `MST(H) = T*`.  The stitch runs plain Borůvka from
//!    singletons over `H`: each vertex's candidate edges are its tile-tree
//!    edges (scanned directly) plus its nearest *cross-tile* foreign point
//!    (a bounded kd query whose smaller-index distance tie-break yields the
//!    minimal candidate key, the same argument the global engine uses).
//!    Per-tile MST edges are candidates, never seeds — a tile-MST edge need
//!    not lie in `T*`, so no edge is accepted without winning a cut.
//!
//! The shared `EuclideanMst::assemble` tail (canonical adjacency order
//! around one global degree-repair pass) then makes the resulting structure
//! — tree, weight, `lmax`, neighbour order — a pure function of the spanning
//! edge set, so equality of edge sets becomes bit-equality of everything
//! downstream (scheme, digraph, verification report).  The root
//! `tests/shard_oracle.rs` suite pins this against stochastic and extremal
//! workloads across tile sizes and thread counts.

use crate::euclidean::{
    edge_order, kd_boruvka, keep_min, offer, EmstError, EuclideanMst, MstEngine,
    PARALLEL_BORUVKA_MIN,
};
use crate::graph::Edge;
use crate::union_find::UnionFind;
use antennae_geometry::tiles::TileGrid;
use antennae_geometry::{KdIndex, Point};
use antennae_parallel::{chunk_ranges, parallel_map};

/// One stitch-round winner: a component root paired with its minimal
/// candidate edge under the `(weight, min endpoint, max endpoint)` order.
type StitchCandidate = (usize, (f64, usize, usize));

/// What a [`build_sharded`] run did — telemetry for STATS, the sim
/// comparison and the oracle tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchStats {
    /// Total tiles in the grid.
    pub tiles: usize,
    /// Tiles holding at least one point.
    pub occupied_tiles: usize,
    /// Points in the most populated tile.
    pub largest_tile: usize,
    /// Edges contributed by the per-tile MST forests (stitch candidates).
    pub tile_edges: usize,
    /// Chosen spanning edges whose endpoints lie in different tiles.
    pub cross_edges: usize,
    /// Borůvka rounds the stitch ran.
    pub stitch_rounds: usize,
    /// `false` when the input was below the kd-tree crossover (or occupied
    /// fewer than two tiles) and the build delegated to the global engine.
    pub stitched: bool,
}

/// Builds the Euclidean MST of `points` tile-by-tile and stitches the tile
/// forests into the **bit-identical** result of
/// [`EuclideanMst::build_with_engine_threads`] with [`MstEngine::Auto`] (see
/// the [module docs](self) for the exactness argument).
///
/// Inputs below [`crate::euclidean::KDTREE_CROSSOVER`] — where the global build would use
/// dense Prim anyway — and inputs occupying fewer than two tiles delegate
/// to the global engine outright (`stats.stitched == false`).
pub fn build_sharded(
    points: &[Point],
    grid: &TileGrid,
    threads: usize,
) -> Result<(EuclideanMst, StitchStats), EmstError> {
    if points.is_empty() {
        return Err(EmstError::EmptyPointSet);
    }
    let n = points.len();
    let tile_of: Vec<u32> = points.iter().map(|p| grid.tile_of(p) as u32).collect();
    // Tile membership in ascending global index (iteration order) — the
    // monotone relabeling step 2 of the module docs.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); grid.tiles()];
    for (v, &t) in tile_of.iter().enumerate() {
        members[t as usize].push(v as u32);
    }
    let occupied: Vec<&Vec<u32>> = members.iter().filter(|m| !m.is_empty()).collect();
    let largest_tile = occupied.iter().map(|m| m.len()).max().unwrap_or(0);

    if MstEngine::Auto.resolve(n) == MstEngine::DensePrim || occupied.len() < 2 {
        let mst = EuclideanMst::build_with_engine_threads(points, MstEngine::Auto, threads)?;
        let stats = StitchStats {
            tiles: grid.tiles(),
            occupied_tiles: occupied.len(),
            largest_tile,
            tile_edges: 0,
            cross_edges: 0,
            stitch_rounds: 0,
            stitched: false,
        };
        return Ok((mst, stats));
    }

    // Per-tile MST forests, one task per occupied tile.  Each tile's
    // Borůvka runs serially (threads = 1) — the parallelism is across
    // tiles, which is the sharding decomposition itself.
    let tile_forests: Vec<Vec<Edge>> = parallel_map(&occupied, threads, |tile| {
        if tile.len() < 2 {
            return Vec::new();
        }
        let local: Vec<Point> = tile.iter().map(|&g| points[g as usize]).collect();
        kd_boruvka(&local, 1)
            .into_iter()
            .map(|e| Edge::new(tile[e.u] as usize, tile[e.v] as usize, e.weight))
            .collect()
    });
    let tile_edges: usize = tile_forests.iter().map(Vec::len).sum();
    // Tile-tree adjacency over global indices: the cheap candidate source
    // the stitch scans before asking the kd index for cross-tile points.
    let mut tile_adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for e in tile_forests.iter().flatten() {
        tile_adj[e.u].push((e.v as u32, e.weight));
        tile_adj[e.v].push((e.u as u32, e.weight));
    }

    let index = KdIndex::build_with_threads(points, threads);
    let mut uf = UnionFind::new(n);
    let mut labels = vec![0usize; n];
    let mut order: Vec<usize> = (0..n).collect();
    let mut best: Vec<Option<(f64, usize, usize)>> = vec![None; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut round: Vec<(f64, usize, usize)> = Vec::new();
    let mut edges: Vec<Edge> = Vec::with_capacity(n - 1);
    let mut rounds = 0usize;

    while uf.component_count() > 1 {
        rounds += 1;
        for (v, label) in labels.iter_mut().enumerate() {
            *label = uf.find(v);
        }
        order.sort_unstable_by_key(|&v| labels[v]);
        // (a) Tile-tree edges leaving a component need no query: fold them
        // into the per-root minimum first, where they bound every member's
        // cross-tile search.
        for (v, adj) in tile_adj.iter().enumerate() {
            for &(u, w) in adj {
                let u = u as usize;
                if labels[u] != labels[v] {
                    offer(&mut best, &mut touched, labels[v], (w, v.min(u), v.max(u)));
                }
            }
        }
        let scans: Vec<Vec<StitchCandidate>> = if threads > 1 && n >= PARALLEL_BORUVKA_MIN {
            let ranges = chunk_ranges(n, threads);
            parallel_map(&ranges, threads, |&(start, end)| {
                stitch_scan(points, &index, &labels, &tile_of, &best, &order[start..end])
            })
        } else {
            vec![stitch_scan(
                points, &index, &labels, &tile_of, &best, &order,
            )]
        };
        for winners in scans {
            for (root, candidate) in winners {
                offer(&mut best, &mut touched, root, candidate);
            }
        }
        round.clear();
        for &root in &touched {
            round.extend(best[root].take());
        }
        touched.clear();
        round.sort_by(|&a, &b| edge_order(a, b));
        let before = uf.component_count();
        for &(d, a, b) in &round {
            if uf.union(a, b) {
                edges.push(Edge::new(a, b, d));
            }
        }
        debug_assert!(
            uf.component_count() < before,
            "every stitch round merges at least two components"
        );
    }

    let cross_edges = edges
        .iter()
        .filter(|e| tile_of[e.u] != tile_of[e.v])
        .count();
    let mst = EuclideanMst::assemble(points, &edges, MstEngine::KdTreeBoruvka)?;
    let stats = StitchStats {
        tiles: grid.tiles(),
        occupied_tiles: occupied.len(),
        largest_tile,
        tile_edges,
        cross_edges,
        stitch_rounds: rounds,
        stitched: true,
    };
    Ok((mst, stats))
}

/// One stitch round's scan over a slice of the component-sorted vertex
/// order: per contiguous same-root run, the minimum outgoing `H` edge among
/// (a) the component's tile-tree edges leaving it, already folded into
/// `seeds[root]`, and (b) each member's nearest cross-tile foreign point,
/// queried with the run's best distance so far as an inclusive bound
/// (exactly the seeding the global engine's `scan_run` uses, with the same
/// chunking-invariance argument: fragment winners merge to the same
/// per-root minimum).
fn stitch_scan(
    points: &[Point],
    index: &KdIndex,
    labels: &[usize],
    tile_of: &[u32],
    seeds: &[Option<(f64, usize, usize)>],
    order: &[usize],
) -> Vec<StitchCandidate> {
    let mut winners: Vec<StitchCandidate> = Vec::new();
    for run in order.chunk_by(|&a, &b| labels[a] == labels[b]) {
        let root = labels[run[0]];
        let mut best = seeds[root];
        for &v in run {
            // The bound is inclusive (points at exactly the bound are still
            // reported), so an equal-distance candidate with a smaller edge
            // key is never hidden; `None` only ever means "strictly farther".
            let bound = best.map_or(f64::INFINITY, |(d, _, _)| d);
            let tile = tile_of[v];
            let found = index.nearest_filtered_within(
                points,
                &points[v],
                |u| tile_of[u] == tile || labels[u] == root,
                bound,
            );
            if let Some((u, d)) = found {
                keep_min(&mut best, (d, v.min(u), v.max(u)));
            }
        }
        winners.extend(best.map(|b| (root, b)));
    }
    winners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::KDTREE_CROSSOVER;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
            .collect()
    }

    fn assert_bit_identical(points: &[Point], grid: &TileGrid, threads: usize) {
        let global =
            EuclideanMst::build_with_engine_threads(points, MstEngine::Auto, threads).unwrap();
        let (sharded, stats) = build_sharded(points, grid, threads).unwrap();
        assert_eq!(sharded.lmax().to_bits(), global.lmax().to_bits());
        assert_eq!(
            sharded.total_weight().to_bits(),
            global.total_weight().to_bits()
        );
        let key = |e: &Edge| (e.u, e.v, e.weight.to_bits());
        let got: Vec<_> = sharded.edges().iter().map(key).collect();
        let want: Vec<_> = global.edges().iter().map(key).collect();
        assert_eq!(got, want, "stats {stats:?}");
        assert_eq!(sharded.engine(), global.engine());
    }

    #[test]
    fn sharded_build_is_bit_identical_above_crossover() {
        let pts = random_points(KDTREE_CROSSOVER + 300, 1);
        for per_axis in [2usize, 3, 5] {
            let grid = TileGrid::with_tiles_per_axis(&pts, per_axis).unwrap();
            for threads in [1usize, 4] {
                assert_bit_identical(&pts, &grid, threads);
            }
        }
    }

    #[test]
    fn small_inputs_delegate_to_the_global_engine() {
        let pts = random_points(50, 2);
        let grid = TileGrid::with_tiles_per_axis(&pts, 4).unwrap();
        let (mst, stats) = build_sharded(&pts, &grid, 1).unwrap();
        assert!(!stats.stitched);
        assert_eq!(mst.engine(), MstEngine::DensePrim);
        assert_bit_identical(&pts, &grid, 1);
    }

    #[test]
    fn one_occupied_tile_delegates() {
        // All points cluster inside a single tile of a coarse grid.
        let mut pts = random_points(KDTREE_CROSSOVER + 100, 3);
        for p in &mut pts {
            p.x *= 0.001;
            p.y *= 0.001;
        }
        let all = random_points(4, 4); // widen the grid's box past the cluster
        let mut boxed = pts.clone();
        boxed.extend(all.iter().map(|p| Point::new(p.x + 50.0, p.y + 50.0)));
        let grid = TileGrid::with_tiles_per_axis(&boxed, 2).unwrap();
        let (_, stats) = build_sharded(&pts, &grid, 2).unwrap();
        assert!(!stats.stitched);
        assert_eq!(stats.occupied_tiles, 1);
        assert_bit_identical(&pts, &grid, 2);
    }

    #[test]
    fn degenerate_grids_with_ties_stay_exact() {
        // Integer lattice with duplicates on exact tile boundaries.
        let mut pts = Vec::new();
        for i in 0..40 {
            for j in 0..20 {
                pts.push(Point::new(i as f64, j as f64));
            }
        }
        pts.extend_from_slice(&[
            Point::new(20.0, 10.0),
            Point::new(20.0, 10.0),
            Point::new(0.0, 0.0),
        ]);
        assert!(pts.len() >= KDTREE_CROSSOVER);
        let grid = TileGrid::with_tiles_per_axis(&pts, 3).unwrap();
        assert_bit_identical(&pts, &grid, 1);
        assert_bit_identical(&pts, &grid, 3);
    }

    #[test]
    fn stats_report_the_stitch() {
        let pts = random_points(KDTREE_CROSSOVER + 500, 9);
        let grid = TileGrid::with_tiles_per_axis(&pts, 3).unwrap();
        let (_, stats) = build_sharded(&pts, &grid, 2).unwrap();
        assert!(stats.stitched);
        assert!(stats.occupied_tiles > 1);
        assert!(stats.cross_edges >= stats.occupied_tiles - 1);
        assert!(stats.tile_edges > 0);
        assert!(stats.stitch_rounds > 0);
        assert!(stats.largest_tile < pts.len());
    }
}
