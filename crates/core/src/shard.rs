//! Spatial sharding: a uniform tile grid over the dynamic spatial index.
//!
//! A deployment's live sensors are partitioned into a uniform grid of
//! square tiles (side auto-derived from `n` and the Lemma-1 interaction
//! radius, or pinned explicitly), and the dynamic spatial index every edit
//! queries is a per-tile kd forest ([`antennae_geometry::TiledKdForest`]):
//! one edit at `n = 10⁵` rebuilds and range-queries tile-sized kd-trees
//! instead of one deployment-sized tree.  The grid partitions **only** that
//! index.  Every bulk MST build — a fresh [`DynamicInstance::new_sharded`],
//! a recovered [`DynamicInstance::from_entries`] — is the one global engine
//! ([`antennae_graph::euclidean::EuclideanMst::build_with_engine_threads`]),
//! and an edit's repair is exact for any partition, so sharding changes
//! costs, never answers.  The root `tests/shard_oracle.rs` suite pins sharded
//! sessions bit-equal to one-tile sessions over stochastic and extremal
//! workloads, edit for edit.
//!
//! A spec falls back to one tile when sharding cannot pay for itself —
//! small inputs, degenerate (zero-area) deployments, or an explicit
//! [`ShardSpec::Off`] — so callers never need to special-case.
//!
//! [`DynamicInstance::new_sharded`]: crate::dynamic::DynamicInstance::new_sharded
//! [`DynamicInstance::from_entries`]: crate::dynamic::DynamicInstance::from_entries
//!
//! # Examples
//!
//! ```
//! use antennae_core::dynamic::DynamicInstance;
//! use antennae_core::shard::ShardSpec;
//! use antennae_geometry::Point;
//!
//! let points: Vec<Point> = (0..900)
//!     .map(|i| Point::new((i % 30) as f64, (i / 30) as f64))
//!     .collect();
//! let sharded = DynamicInstance::new_sharded(&points, ShardSpec::Grid(3))?;
//! let one_tile = DynamicInstance::new(&points)?;
//! assert_eq!(sharded.shard_grid(), Some((3, 3)));
//! assert_eq!(one_tile.shard_grid(), None);
//! // Bit-exact: not approximately equal — the same f64s.
//! assert_eq!(sharded.lmax().to_bits(), one_tile.lmax().to_bits());
//! # Ok::<(), antennae_core::error::OrientError>(())
//! ```

use antennae_geometry::{Point, TileGrid};

/// Below this many points [`ShardSpec::Auto`] keeps one tile: the whole
/// index is at most a handful of tiles' worth of points.
pub const AUTO_SHARD_MIN_POINTS: usize = 4096;

/// The tile occupancy [`ShardSpec::Auto`] aims for.  Tiles of ~10³ points
/// keep every tile's kd-tree rebuild and range query comfortably in cache,
/// and they bound the index region a dynamic edit has to touch.
pub const AUTO_TARGET_PER_TILE: usize = 1024;

/// How (and whether) to shard a deployment — the value behind the orientd
/// `--shards auto|N|off` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardSpec {
    /// Shard when it pays: inputs of at least [`AUTO_SHARD_MIN_POINTS`]
    /// points get a grid targeting [`AUTO_TARGET_PER_TILE`] points per tile;
    /// smaller or degenerate inputs keep one tile.  Safe as the default
    /// because a sharded index answers exactly like a one-tile one.
    #[default]
    Auto,
    /// Force a grid with this many tiles per axis (≥ 2), clamped to
    /// `⌊√n⌋` for an `n`-point deployment so a grid never has more tiles
    /// than points; degenerate inputs permitting.
    Grid(usize),
    /// Never shard: a one-tile dynamic index.
    Off,
}

impl ShardSpec {
    /// Parses the orientd `--shards` flag value: `auto`, `off`, or a tile
    /// count per axis (an integer ≥ 2).
    ///
    /// ```
    /// use antennae_core::shard::ShardSpec;
    ///
    /// assert_eq!(ShardSpec::parse("auto"), Ok(ShardSpec::Auto));
    /// assert_eq!(ShardSpec::parse("off"), Ok(ShardSpec::Off));
    /// assert_eq!(ShardSpec::parse("8"), Ok(ShardSpec::Grid(8)));
    /// assert!(ShardSpec::parse("1").is_err());
    /// assert!(ShardSpec::parse("lots").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        match s {
            "auto" => Ok(ShardSpec::Auto),
            "off" => Ok(ShardSpec::Off),
            other => match other.parse::<usize>() {
                Ok(n) if n >= 2 => Ok(ShardSpec::Grid(n)),
                Ok(n) => Err(format!("--shards {n}: need at least 2 tiles per axis")),
                Err(_) => Err(format!(
                    "--shards {other}: expected auto, off or an integer ≥ 2"
                )),
            },
        }
    }

    /// Resolves the spec against a concrete deployment: the tile grid to
    /// shard with, or `None` for one tile (spec is `Off`, the input is too
    /// small for `Auto`, too small for two tiles under the `Grid` clamp, or
    /// the bounding box is degenerate).
    pub fn resolve(&self, points: &[Point]) -> Option<TileGrid> {
        let grid = match *self {
            ShardSpec::Off => None,
            // At most ⌊√n⌋ per axis, so at most n tiles: every tile is a
            // kd-tree allocated up front.
            ShardSpec::Grid(per_axis) => {
                TileGrid::with_tiles_per_axis(points, per_axis.min(points.len().isqrt()))
            }
            ShardSpec::Auto => {
                if points.len() >= AUTO_SHARD_MIN_POINTS {
                    TileGrid::auto(points, AUTO_TARGET_PER_TILE)
                } else {
                    None
                }
            }
        };
        // A single-tile grid (coincident or near-degenerate deployments)
        // cannot shard anything.
        grid.filter(|g| g.tiles() >= 2)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardSpec::Auto => write!(f, "auto"),
            ShardSpec::Grid(n) => write!(f, "{n}"),
            ShardSpec::Off => write!(f, "off"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n_side: usize) -> Vec<Point> {
        (0..n_side * n_side)
            .map(|i| Point::new((i % n_side) as f64, (i / n_side) as f64))
            .collect()
    }

    #[test]
    fn spec_parse_round_trips_through_display() {
        for s in ["auto", "off", "4", "16"] {
            assert_eq!(ShardSpec::parse(s).unwrap().to_string(), s);
        }
        assert!(ShardSpec::parse("0").is_err());
        assert!(ShardSpec::parse("-3").is_err());
        assert!(ShardSpec::parse("").is_err());
    }

    #[test]
    fn auto_keeps_one_tile_below_threshold() {
        let pts = lattice(20); // 400 points < AUTO_SHARD_MIN_POINTS
        assert!(ShardSpec::Auto.resolve(&pts).is_none());
    }

    #[test]
    fn auto_shards_large_inputs_near_the_target_occupancy() {
        let pts = lattice(80); // 6400 points ≥ AUTO_SHARD_MIN_POINTS
        let grid = ShardSpec::Auto.resolve(&pts).expect("large input shards");
        let tiles = grid.tiles();
        assert!(tiles >= 2, "auto produced a single tile");
        let per_tile = pts.len() / tiles;
        assert!(
            (AUTO_TARGET_PER_TILE / 4..=AUTO_TARGET_PER_TILE * 4).contains(&per_tile),
            "auto occupancy {per_tile} strays from the target"
        );
    }

    #[test]
    fn off_and_degenerate_inputs_keep_one_tile() {
        assert!(ShardSpec::Off.resolve(&lattice(80)).is_none());
        // Coincident points: zero-area bounding box, Grid cannot resolve.
        let coincident = vec![Point::new(1.0, 1.0); 8];
        assert!(ShardSpec::Grid(4).resolve(&coincident).is_none());
    }

    #[test]
    fn grid_never_has_more_tiles_than_points() {
        // Three points spanning a 2×1 box: unclamped, a million tiles per
        // axis would be 10⁶ × 5·10⁵ tiles, each one a kd-tree.
        let three = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 0.5),
        ];
        let tiles = ShardSpec::Grid(1_000_000)
            .resolve(&three)
            .map_or(1, |g| g.tiles());
        assert!(tiles <= three.len(), "{tiles} tiles for 3 points");
        // The clamp keeps every grid that fits: 5 points still get 2×2.
        let five = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0), (1.0, 1.0)]
            .map(|(x, y)| Point::new(x, y));
        let grid = ShardSpec::Grid(2)
            .resolve(&five)
            .expect("2×2 fits 5 points");
        assert_eq!((grid.tiles_x(), grid.tiles_y()), (2, 2));
        for n_side in [4usize, 10, 31] {
            let pts = lattice(n_side);
            let grid = ShardSpec::Grid(1000).resolve(&pts).expect("clamped grid");
            assert!(grid.tiles() <= pts.len());
            assert_eq!(grid.tiles_x(), n_side);
        }
    }
}
