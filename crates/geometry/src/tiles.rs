//! Uniform spatial tiling and the per-tile dynamic kd forest.
//!
//! The spatial-sharding subsystem partitions the plane into a uniform grid
//! of square tiles ([`TileGrid`]) so that churn edits touch only tile-sized
//! spatial indexes ([`TiledKdForest`]).  The MST itself is always built by
//! one global engine; the grid partitions only the dynamic index.
//!
//! A tile assignment is **only a partition** of the live points: every
//! correctness argument downstream (the bounded star of the dynamic insert,
//! the nearest-foreign queries of the removal repair) holds for *any*
//! partition, so a point outside the grid's bounding box is simply clamped
//! to the nearest boundary tile.  Tiling choices affect performance, never
//! results.

use crate::bbox::Aabb;
use crate::dynamic::DynamicKdTree;
use crate::point::Point;

/// Relative slack applied wherever a tile's bounding-box distance prunes a
/// spatial search: a tile is only skipped when its box is farther than the
/// current bound by more than a few ulps, so floating-point rounding in the
/// box-distance computation can never hide a point that ties the bound.
const PRUNE_SLACK: f64 = 1.0 + 4.0 * f64::EPSILON;

/// A uniform grid of square tiles over a bounding box.
///
/// Tiles are indexed row-major: tile `(ix, iy)` has index `iy * nx + ix`.
/// [`TileGrid::tile_of`] is a pure, deterministic function of the query
/// point (points outside the box clamp to the nearest edge tile), so a
/// point's owning tile never depends on insertion order or on other points.
///
/// # Examples
///
/// ```
/// use antennae_geometry::{Aabb, Point};
/// use antennae_geometry::tiles::TileGrid;
///
/// let bbox = Aabb::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
/// let grid = TileGrid::new(bbox, 5.0);
/// assert_eq!(grid.tiles(), 4); // 2 x 2
/// assert_eq!(grid.tile_of(&Point::new(1.0, 1.0)), 0);
/// assert_eq!(grid.tile_of(&Point::new(9.0, 9.0)), 3);
/// // Points outside the box clamp to the nearest tile.
/// assert_eq!(grid.tile_of(&Point::new(-100.0, -100.0)), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TileGrid {
    bbox: Aabb,
    tile: f64,
    nx: usize,
    ny: usize,
}

impl TileGrid {
    /// Grid over `bbox` with square tiles of side `tile_size` (must be
    /// positive and finite).  Degenerate boxes (zero width or height) get a
    /// single row/column of tiles along the degenerate axis.
    pub fn new(bbox: Aabb, tile_size: f64) -> Self {
        assert!(
            tile_size.is_finite() && tile_size > 0.0,
            "tile size must be positive and finite"
        );
        let nx = (bbox.width() / tile_size).ceil().max(1.0) as usize;
        let ny = (bbox.height() / tile_size).ceil().max(1.0) as usize;
        TileGrid {
            bbox,
            tile: tile_size,
            nx,
            ny,
        }
    }

    /// The one-tile grid: every point, wherever it lies, clamps into tile
    /// 0, so a [`TiledKdForest`] over it is a single dynamic kd-tree — the
    /// index of an unsharded deployment.
    pub fn single() -> Self {
        TileGrid::new(Aabb::new(Point::ORIGIN, Point::ORIGIN), 1.0)
    }

    /// Grid over the bounding box of `points` with at most `per_axis ×
    /// per_axis` tiles (the shorter axis gets fewer); `None` for an empty
    /// point set.
    pub fn with_tiles_per_axis(points: &[Point], per_axis: usize) -> Option<Self> {
        let per_axis = per_axis.max(1);
        let bbox = Aabb::from_points(points)?;
        let span = bbox.width().max(bbox.height());
        if span <= 0.0 {
            // All points coincide: one tile is the only sensible grid.
            return Some(TileGrid::new(bbox, 1.0));
        }
        let mut grid = TileGrid::new(bbox, span / per_axis as f64);
        // `span / (span / k)` can round up past `k`; the extra tile would be
        // an ulp-wide sliver, and edge tiles already absorb the box edge.
        grid.nx = grid.nx.min(per_axis);
        grid.ny = grid.ny.min(per_axis);
        Some(grid)
    }

    /// Auto-sized grid for `points`: the tile side targets
    /// `target_per_tile` points per tile under a uniform density model
    /// (`side = sqrt(area · target / n)`), floored at the Lemma-1
    /// interaction radius scale `sqrt(area / n)` — the expected
    /// nearest-neighbour / `lmax` scale, below which a tile would be
    /// smaller than the edges that have to cross it and every edit would be
    /// a boundary event.  Returns `None` for an empty or degenerate
    /// (all-coincident) point set, where tiling cannot help.
    pub fn auto(points: &[Point], target_per_tile: usize) -> Option<Self> {
        let bbox = Aabb::from_points(points)?;
        let n = points.len().max(1);
        let area = bbox.area();
        if area <= 0.0 {
            return None;
        }
        let target = target_per_tile.max(1) as f64;
        let side = (area * target / n as f64).sqrt();
        let radius_floor = (area / n as f64).sqrt();
        Some(TileGrid::new(bbox, side.max(radius_floor)))
    }

    /// Total number of tiles (`nx × ny`).
    pub fn tiles(&self) -> usize {
        self.nx * self.ny
    }

    /// Tiles along the x axis.
    pub fn tiles_x(&self) -> usize {
        self.nx
    }

    /// Tiles along the y axis.
    pub fn tiles_y(&self) -> usize {
        self.ny
    }

    /// The grid's bounding box.
    pub fn bbox(&self) -> &Aabb {
        &self.bbox
    }

    /// The owning tile of `p` (row-major index; out-of-box points clamp).
    pub fn tile_of(&self, p: &Point) -> usize {
        let ix = (((p.x - self.bbox.min.x) / self.tile).floor().max(0.0) as usize).min(self.nx - 1);
        let iy = (((p.y - self.bbox.min.y) / self.tile).floor().max(0.0) as usize).min(self.ny - 1);
        iy * self.nx + ix
    }

    /// The closed bounding box of tile `t`.
    ///
    /// Edge tiles extend to infinity conceptually (out-of-box points clamp
    /// into them), so their boxes are widened to the full half-plane on the
    /// outer side; this keeps box-distance pruning conservative for clamped
    /// points.
    pub fn tile_bbox(&self, t: usize) -> Aabb {
        let ix = t % self.nx;
        let iy = t / self.nx;
        let lo_x = if ix == 0 {
            f64::NEG_INFINITY
        } else {
            self.bbox.min.x + ix as f64 * self.tile
        };
        let lo_y = if iy == 0 {
            f64::NEG_INFINITY
        } else {
            self.bbox.min.y + iy as f64 * self.tile
        };
        let hi_x = if ix + 1 == self.nx {
            f64::INFINITY
        } else {
            self.bbox.min.x + (ix + 1) as f64 * self.tile
        };
        let hi_y = if iy + 1 == self.ny {
            f64::INFINITY
        } else {
            self.bbox.min.y + (iy + 1) as f64 * self.tile
        };
        Aabb {
            min: Point::new(lo_x, lo_y),
            max: Point::new(hi_x, hi_y),
        }
    }

    /// The tiles of the index rectangle covering the closed ball of
    /// `radius` around `p`, row-major ascending — widened by one tile on
    /// every side, so rounding in the index arithmetic can never drop a
    /// tile the ball touches.  Range queries filter these with
    /// [`TileGrid::tile_distance`] instead of scanning every tile.
    pub fn tiles_around(&self, p: &Point, radius: f64) -> impl Iterator<Item = usize> + '_ {
        let span = |c: f64, lo: f64, n: usize| {
            let index = |v: f64| ((v - lo) / self.tile).floor().max(0.0) as usize;
            let first = index(c - radius).saturating_sub(1).min(n - 1);
            let last = index(c + radius).saturating_add(1).min(n - 1);
            first..=last
        };
        let xs = span(p.x, self.bbox.min.x, self.nx);
        let ys = span(p.y, self.bbox.min.y, self.ny);
        ys.flat_map(move |iy| xs.clone().map(move |ix| iy * self.nx + ix))
    }

    /// Minimum distance from `p` to tile `t`'s box (0 when inside).
    pub fn tile_distance(&self, t: usize, p: &Point) -> f64 {
        let bb = self.tile_bbox(t);
        let dx = (bb.min.x - p.x).max(0.0).max(p.x - bb.max.x);
        let dy = (bb.min.y - p.y).max(0.0).max(p.y - bb.max.y);
        (dx * dx + dy * dy).sqrt()
    }
}

/// A forest of per-tile [`DynamicKdTree`]s keyed by **global** slots.
///
/// Mirrors the `DynamicKdTree` query surface (closed-ball range queries with
/// ascending slot output, filtered nearest with smaller-slot tie-breaking)
/// while keeping every index tile-sized: an edit rebuilds at most one tile's
/// index, and amortized maintenance cost scales with the tile population,
/// not the deployment size.
///
/// **Exactness:** query results are a pure function of the live
/// `(slot, point)` set — identical to a single global `DynamicKdTree` over
/// the same entries.  Range queries union per-tile closed balls over every
/// tile whose box intersects the ball; nearest queries visit tiles in
/// box-distance order and never prune a tile that could tie the incumbent
/// (see [`TileGrid`] on the pruning slack).  The dynamic shard oracle pins
/// this equivalence edit-for-edit.
///
/// # Examples
///
/// ```
/// use antennae_geometry::{Aabb, Point};
/// use antennae_geometry::tiles::{TileGrid, TiledKdForest};
///
/// let grid = TileGrid::new(
///     Aabb::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0)),
///     2.0,
/// );
/// let mut forest = TiledKdForest::new(grid, &[]);
/// forest.insert(0, Point::new(0.5, 0.5));
/// forest.insert(1, Point::new(3.5, 3.5));
/// assert_eq!(forest.len_live(), 2);
/// // Nearest to the far corner, skipping nothing: slot 1.
/// let (slot, _) = forest.nearest_filtered_slot(&Point::new(4.0, 4.0), |_| false).unwrap();
/// assert_eq!(slot, 1);
/// ```
#[derive(Debug, Clone)]
pub struct TiledKdForest {
    grid: TileGrid,
    /// One dynamic index per tile (allocated lazily on first use — an empty
    /// `DynamicKdTree` is cheap, so "lazily" just means `new(&[])`).
    tiles: Vec<DynamicKdTree>,
    /// slot → owning tile (`u32::MAX` when the slot is not live here).
    tile_of_slot: Vec<u32>,
    live: usize,
}

const NO_TILE: u32 = u32::MAX;

impl TiledKdForest {
    /// Builds the forest over `entries` (distinct slots with their points).
    pub fn new(grid: TileGrid, entries: &[(usize, Point)]) -> Self {
        let tile_count = grid.tiles();
        let mut per_tile: Vec<Vec<(usize, Point)>> = vec![Vec::new(); tile_count];
        let max_slot = entries.iter().map(|&(s, _)| s + 1).max().unwrap_or(0);
        let mut tile_of_slot = vec![NO_TILE; max_slot];
        for &(slot, p) in entries {
            let t = grid.tile_of(&p);
            debug_assert_eq!(tile_of_slot[slot], NO_TILE, "duplicate slot {slot}");
            tile_of_slot[slot] = t as u32;
            per_tile[t].push((slot, p));
        }
        let tiles = per_tile
            .into_iter()
            .map(|entries| DynamicKdTree::new(&entries))
            .collect();
        TiledKdForest {
            grid,
            tiles,
            tile_of_slot,
            live: entries.len(),
        }
    }

    /// The grid this forest partitions by.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Number of live entries across all tiles.
    pub fn len_live(&self) -> usize {
        self.live
    }

    /// Number of tiles holding at least one live entry.
    pub fn occupied_tiles(&self) -> usize {
        self.tiles.iter().filter(|t| !t.is_empty()).count()
    }

    /// Total threshold-triggered rebuilds across every tile index.
    pub fn rebuild_count(&self) -> usize {
        self.tiles.iter().map(DynamicKdTree::rebuild_count).sum()
    }

    /// Inserts a live entry under a fresh `slot`.
    pub fn insert(&mut self, slot: usize, point: Point) {
        let t = self.grid.tile_of(&point);
        if slot >= self.tile_of_slot.len() {
            self.tile_of_slot.resize(slot + 1, NO_TILE);
        }
        debug_assert_eq!(self.tile_of_slot[slot], NO_TILE, "slot {slot} already live");
        self.tile_of_slot[slot] = t as u32;
        self.tiles[t].insert(slot, point);
        self.live += 1;
    }

    /// Removes the live entry under `slot`.
    pub fn remove(&mut self, slot: usize) {
        let t = self.tile_of_slot[slot];
        debug_assert_ne!(t, NO_TILE, "slot {slot} not live");
        self.tiles[t as usize].remove(slot);
        self.tile_of_slot[slot] = NO_TILE;
        self.live -= 1;
    }

    /// Moves the live entry under `slot` (re-routing it to its new tile).
    pub fn update(&mut self, slot: usize, point: Point) {
        self.remove(slot);
        self.insert(slot, point);
    }

    /// All live slots within `radius` of `query` (closed ball), ascending,
    /// written into `out`.  `scratch` is reusable query scratch.
    pub fn within_radius_with(
        &self,
        query: &Point,
        radius: f64,
        scratch: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        for t in self.grid.tiles_around(query, radius) {
            let tile = &self.tiles[t];
            if tile.is_empty() {
                continue;
            }
            // Conservative inclusion: only skip a tile strictly farther than
            // the (slack-widened) radius, so boundary points are never lost.
            if self.grid.tile_distance(t, query) > radius * PRUNE_SLACK {
                continue;
            }
            tile.append_within_radius(query, radius, scratch, out);
        }
        out.sort_unstable();
    }

    /// Nearest live slot to `query` for which `skip` returns `false`, as
    /// `(slot, distance)` — distance ties break towards the smaller slot,
    /// exactly like [`DynamicKdTree::nearest_filtered_slot`].
    pub fn nearest_filtered_slot<F: Fn(usize) -> bool>(
        &self,
        query: &Point,
        skip: F,
    ) -> Option<(usize, f64)> {
        self.nearest_filtered_slot_within(query, skip, f64::INFINITY)
    }

    /// Like [`TiledKdForest::nearest_filtered_slot`], but only reports slots
    /// at distance `max_dist` or closer (inclusive: `None` only ever hides
    /// strictly farther slots, as in
    /// [`DynamicKdTree::nearest_filtered_slot_within`]).
    pub fn nearest_filtered_slot_within<F: Fn(usize) -> bool>(
        &self,
        query: &Point,
        skip: F,
        max_dist: f64,
    ) -> Option<(usize, f64)> {
        if let [tile] = self.tiles.as_slice() {
            return tile.nearest_filtered_slot_within(query, skip, max_dist);
        }
        // Visit tiles in box-distance order so the incumbent tightens fast,
        // then stop at the first tile that cannot beat (or tie) it.
        let mut order: Vec<(f64, usize)> = Vec::with_capacity(self.tiles.len());
        for (t, tile) in self.tiles.iter().enumerate() {
            if !tile.is_empty() {
                order.push((self.grid.tile_distance(t, query), t));
            }
        }
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let mut best: Option<(usize, f64)> = None;
        for &(box_dist, t) in &order {
            let bound = best.map_or(max_dist, |(_, bd)| bd);
            if box_dist > bound * PRUNE_SLACK {
                break;
            }
            if let Some((slot, d)) = self.tiles[t].nearest_filtered_slot_within(query, &skip, bound)
            {
                let better = match best {
                    None => true,
                    // Lexicographic (distance, slot) minimum: the global
                    // smaller-slot tie-break, independent of tile order.
                    Some((bs, bd)) => d < bd || (d == bd && slot < bs),
                };
                if better {
                    best = Some((slot, d));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
        // Cheap deterministic LCG scatter (the vendored rand stays out of
        // unit-test hot paths here).
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect()
    }

    #[test]
    fn grid_partitions_every_point() {
        let pts = pseudo_points(200, 7);
        let grid = TileGrid::auto(&pts, 20).unwrap();
        for p in &pts {
            let t = grid.tile_of(p);
            assert!(t < grid.tiles());
            assert!(grid.tile_distance(t, p) == 0.0, "owning tile contains it");
        }
    }

    #[test]
    fn grid_clamps_outside_points() {
        let grid = TileGrid::new(Aabb::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)), 2.5);
        assert_eq!(grid.tiles(), 16);
        assert_eq!(grid.tile_of(&Point::new(-5.0, -5.0)), 0);
        assert_eq!(grid.tile_of(&Point::new(50.0, 50.0)), 15);
        // Edge tiles are half-open to infinity, so clamped points have
        // distance 0 to their owning tile.
        assert_eq!(grid.tile_distance(0, &Point::new(-5.0, -5.0)), 0.0);
        assert_eq!(grid.tile_distance(15, &Point::new(50.0, 50.0)), 0.0);
    }

    #[test]
    fn per_axis_grids_never_exceed_the_requested_count() {
        // 2.1 / (2.1 / 7) rounds to just above 7: the grid must still have
        // 7 columns, not an eighth ulp-wide one.
        let pts = [Point::new(0.0, 0.0), Point::new(2.1, 1.0)];
        let grid = TileGrid::with_tiles_per_axis(&pts, 7).unwrap();
        assert_eq!((grid.tiles_x(), grid.tiles_y()), (7, 4));
        assert_eq!(grid.tile_of(&pts[1]), grid.tiles() - 1);
    }

    #[test]
    fn auto_grid_rejects_degenerate_inputs() {
        assert!(TileGrid::auto(&[], 16).is_none());
        let coincident = vec![Point::new(1.0, 1.0); 5];
        assert!(TileGrid::auto(&coincident, 16).is_none());
    }

    #[test]
    fn tiles_around_covers_every_tile_the_ball_touches() {
        let grid = TileGrid::new(Aabb::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)), 2.5);
        for (q, r) in [
            (Point::new(5.0, 5.0), 0.1),
            (Point::new(5.0, 5.0), 3.0),
            (Point::new(-40.0, 2.5), 1.0),
            (Point::new(12.0, 30.0), 50.0),
            (Point::new(7.5, 7.5), 0.0),
        ] {
            let near: Vec<usize> = grid.tiles_around(&q, r).collect();
            let touched: Vec<usize> = (0..grid.tiles())
                .filter(|&t| grid.tile_distance(t, &q) <= r * PRUNE_SLACK)
                .collect();
            assert!(touched.iter().all(|t| near.contains(t)), "{q} r={r}");
            assert!(near.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(
            TileGrid::single()
                .tiles_around(&Point::ORIGIN, 1e300)
                .count(),
            1
        );
    }

    #[test]
    fn with_tiles_per_axis_covers_the_box() {
        let pts = pseudo_points(50, 3);
        let grid = TileGrid::with_tiles_per_axis(&pts, 3).unwrap();
        assert!(grid.tiles() >= 9);
        for p in &pts {
            assert!(grid.tile_of(p) < grid.tiles());
        }
    }

    /// Forest queries must agree with one global DynamicKdTree over the same
    /// live entries — range sets and filtered nearest, under churn.
    #[test]
    fn forest_matches_global_index_under_churn() {
        let pts = pseudo_points(120, 11);
        let grid = TileGrid::with_tiles_per_axis(&pts, 4).unwrap();
        let entries: Vec<(usize, Point)> = pts.iter().copied().enumerate().collect();
        let mut forest = TiledKdForest::new(grid, &entries);
        let mut global = DynamicKdTree::new(&entries);

        let moves = pseudo_points(40, 13);
        for (i, p) in moves.iter().enumerate() {
            let slot = (i * 7) % pts.len();
            forest.update(slot, *p);
            global.update(slot, *p);

            let query = Point::new(p.x * 0.5, p.y * 0.5);
            let mut scratch = Vec::new();
            let mut got = Vec::new();
            forest.within_radius_with(&query, 20.0, &mut scratch, &mut got);
            let mut want = Vec::new();
            global.within_radius_with(&query, 20.0, &mut scratch, &mut want);
            assert_eq!(got, want, "range mismatch after move {i}");

            let got_near = forest.nearest_filtered_slot(&query, |s| s == slot);
            let want_near = global.nearest_filtered_slot(&query, |s| s == slot);
            match (got_near, want_near) {
                (Some((gs, gd)), Some((ws, wd))) => {
                    assert_eq!(gs, ws, "nearest slot mismatch after move {i}");
                    assert_eq!(gd.to_bits(), wd.to_bits());
                }
                (a, b) => assert_eq!(a.is_none(), b.is_none(), "{a:?} vs {b:?}"),
            }
        }
        assert_eq!(forest.len_live(), global.len_live());
        assert!(forest.occupied_tiles() >= 1);
    }

    #[test]
    fn forest_handles_empty_and_growth() {
        let grid = TileGrid::new(Aabb::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)), 4.0);
        let mut forest = TiledKdForest::new(grid, &[]);
        assert_eq!(forest.len_live(), 0);
        assert!(forest
            .nearest_filtered_slot(&Point::new(1.0, 1.0), |_| false)
            .is_none());
        forest.insert(5, Point::new(7.0, 7.0));
        // Out-of-box insert clamps to an edge tile instead of panicking.
        forest.insert(9, Point::new(100.0, -3.0));
        assert_eq!(forest.len_live(), 2);
        let (slot, _) = forest
            .nearest_filtered_slot(&Point::new(6.0, 6.0), |_| false)
            .unwrap();
        assert_eq!(slot, 5);
        forest.remove(5);
        assert_eq!(forest.len_live(), 1);
        assert_eq!(forest.occupied_tiles(), 1);
    }
}
