//! Spatial sharding: per-tile kd/MST forests with exact boundary stitching.
//!
//! Large deployments are partitioned into a uniform grid of square tiles
//! (side auto-derived from `n` and the Lemma-1 interaction radius, or pinned
//! explicitly), each tile's kd-tree and Borůvka MST forest is built
//! independently — fanned out over `antennae-parallel` — and the per-tile
//! forests are stitched with a cross-tile Borůvka merge pass that is
//! **bit-exact to the global build**: identical MST edge set, identical
//! `f64::to_bits` on every weight, `lmax` and total weight, hence identical
//! orientation scheme, induced digraph and verification report downstream.
//! The exactness argument lives in [`antennae_graph::sharded`]; the root
//! `tests/shard_oracle.rs` suite pins it over stochastic and extremal
//! workloads across tile sizes and thread counts.
//!
//! Two front doors:
//!
//! * [`ShardedInstance`] — build a static [`Instance`] shard-by-shard, with
//!   a [`ShardReport`] describing the decomposition.
//! * [`crate::dynamic::DynamicInstance::new_sharded`] (and the bulk
//!   [`crate::dynamic::DynamicInstance::from_entries`] recovery builds
//!   with) — a deployment under churn whose spatial index is a per-tile
//!   forest; every edit queries tile-sized indexes, edit-for-edit
//!   bit-identical to the one-tile index (one edit at `n = 10⁵` is repaired
//!   inside a ~10³-point tile instead of touching the whole deployment).
//!
//! Both paths fall back to one tile when sharding cannot pay for itself —
//! small inputs, degenerate (zero-area) deployments, or an explicit
//! [`ShardSpec::Off`]: the static build is then the global engine, and the
//! dynamic index a single kd-tree — so callers never need to special-case.
//!
//! # Examples
//!
//! ```
//! use antennae_core::shard::{ShardSpec, ShardedInstance};
//! use antennae_core::Instance;
//! use antennae_geometry::Point;
//!
//! let points: Vec<Point> = (0..900)
//!     .map(|i| Point::new((i % 30) as f64, (i / 30) as f64))
//!     .collect();
//! let sharded = ShardedInstance::build(&points, ShardSpec::Grid(3))?;
//! let global = Instance::new(points)?;
//! // Bit-exact: not approximately equal — the same f64s.
//! assert_eq!(sharded.instance().lmax().to_bits(), global.lmax().to_bits());
//! # Ok::<(), antennae_core::error::OrientError>(())
//! ```

use crate::error::OrientError;
use crate::instance::Instance;
use crate::parallel::default_threads;
use antennae_geometry::{Point, TileGrid};
use antennae_graph::sharded::{build_sharded, StitchStats};

/// Below this many points [`ShardSpec::Auto`] stays global: the whole input
/// is at most a handful of tiles' worth of work, and the static engine would
/// use dense Prim or a single kd Borůvka anyway.
pub const AUTO_SHARD_MIN_POINTS: usize = 4096;

/// The tile occupancy [`ShardSpec::Auto`] aims for.  Tiles of ~10³ points
/// keep every per-tile build comfortably in cache while leaving enough tiles
/// to saturate the worker pool, and they bound the region a dynamic edit has
/// to touch — the "one edit at `n = 10⁵` repaired in a ~10³-point tile"
/// headline.
pub const AUTO_TARGET_PER_TILE: usize = 1024;

/// How (and whether) to shard a deployment — the value behind the orientd
/// `--shards auto|N|off` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardSpec {
    /// Shard when it pays: inputs of at least [`AUTO_SHARD_MIN_POINTS`]
    /// points get a grid targeting [`AUTO_TARGET_PER_TILE`] points per tile;
    /// smaller or degenerate inputs stay global.  Safe as the default
    /// because the sharded build is bit-exact to the global one.
    #[default]
    Auto,
    /// Force a grid with this many tiles per axis (≥ 2), degenerate inputs
    /// permitting.
    Grid(usize),
    /// Never shard: the global static engine and a one-tile dynamic index.
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
    /// small for `Auto`, or the bounding box is degenerate).
    pub fn resolve(&self, points: &[Point]) -> Option<TileGrid> {
        let grid = match *self {
            ShardSpec::Off => None,
            ShardSpec::Grid(per_axis) => TileGrid::with_tiles_per_axis(points, per_axis),
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

/// The decomposition a sharded build used, for telemetry (STATS, the sim
/// churn comparison, the oracle tests).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Tiles along the x axis.
    pub tiles_x: usize,
    /// Tiles along the y axis.
    pub tiles_y: usize,
    /// Tile side length.
    pub tile_size: f64,
    /// What the per-tile build + stitch did.
    pub stats: StitchStats,
}

/// A static [`Instance`] built shard-by-shard — bit-exact to
/// [`Instance::new`], with a [`ShardReport`] when sharding actually ran
/// (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ShardedInstance {
    instance: Instance,
    report: Option<ShardReport>,
}

impl ShardedInstance {
    /// Builds with [`default_threads`] workers.
    pub fn build(points: &[Point], spec: ShardSpec) -> Result<Self, OrientError> {
        Self::build_with_threads(points, spec, default_threads())
    }

    /// Builds with an explicit worker count (the oracle tests sweep this to
    /// pin thread-count invariance).
    pub fn build_with_threads(
        points: &[Point],
        spec: ShardSpec,
        threads: usize,
    ) -> Result<Self, OrientError> {
        match spec.resolve(points) {
            None => Ok(ShardedInstance {
                instance: Instance::new(points.to_vec())?,
                report: None,
            }),
            Some(grid) => {
                let (mst, stats) = build_sharded(points, &grid, threads)
                    .map_err(|e| OrientError::MstConstruction(e.to_string()))?;
                let report = ShardReport {
                    tiles_x: grid.tiles_x(),
                    tiles_y: grid.tiles_y(),
                    tile_size: grid.tile_size(),
                    stats,
                };
                Ok(ShardedInstance {
                    instance: Instance::from_prebuilt(points.to_vec(), mst),
                    report: Some(report),
                })
            }
        }
    }

    /// The built instance (hand it to [`crate::Solver::on`] as usual).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Consumes the wrapper, keeping the instance.
    pub fn into_instance(self) -> Instance {
        self.instance
    }

    /// The decomposition, `None` when the build stayed global.
    pub fn report(&self) -> Option<&ShardReport> {
        self.report.as_ref()
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
    fn auto_stays_global_below_threshold() {
        let pts = lattice(20); // 400 points < AUTO_SHARD_MIN_POINTS
        assert!(ShardSpec::Auto.resolve(&pts).is_none());
        let built = ShardedInstance::build(&pts, ShardSpec::Auto).unwrap();
        assert!(built.report().is_none());
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
    fn forced_grid_matches_global_bit_for_bit() {
        let pts = lattice(32); // 1024 ≥ kd crossover, so the stitch runs
        let sharded = ShardedInstance::build_with_threads(&pts, ShardSpec::Grid(3), 2).unwrap();
        let global = Instance::new(pts).unwrap();
        let report = sharded.report().expect("grid spec shards");
        assert!(report.stats.stitched);
        assert_eq!(report.tiles_x * report.tiles_y, report.stats.tiles);
        assert_eq!(sharded.instance().lmax().to_bits(), global.lmax().to_bits());
        assert_eq!(
            sharded.instance().mst().total_weight().to_bits(),
            global.mst().total_weight().to_bits()
        );
    }

    #[test]
    fn off_and_degenerate_inputs_stay_global() {
        assert!(ShardSpec::Off.resolve(&lattice(80)).is_none());
        // Coincident points: zero-area bounding box, Grid cannot resolve.
        let coincident = vec![Point::new(1.0, 1.0); 8];
        let built = ShardedInstance::build(&coincident, ShardSpec::Grid(4)).unwrap();
        assert!(built.report().is_none());
        assert_eq!(built.into_instance().len(), 8);
    }
}
