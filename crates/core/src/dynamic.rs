//! Dynamic instances: incremental edits with solver and verifier reuse.
//!
//! Every other entry point in this crate assumes a *static* deployment; the
//! paper's target — ad-hoc sensor networks — is defined by churn.  This
//! module is the dynamic front door:
//!
//! * [`DynamicInstance`] wraps the incrementally maintained degree-5
//!   Euclidean MST ([`antennae_graph::dynamic::DynamicEmst`]: a per-tile
//!   dynamic kd forest — one tile unless sharded — bounded-star inserts,
//!   localized Borůvka removal repair) and materializes a regular
//!   [`Instance`] on demand — live slots in ascending order, the maintained
//!   tree handed over without a rebuild.  Every instance, fresh or
//!   recovered, comes from one bulk build over its live set
//!   ([`DynamicInstance::from_entries`]).
//! * [`DynamicSolverSession`] owns a dynamic instance plus one budget and
//!   keeps the orientation scheme, the induced digraph and the verification
//!   verdict continuously up to date across edits — one at a time through
//!   [`DynamicSolverSession::apply`], or as a coalesced burst through
//!   [`DynamicSolverSession::apply_coalesced`], which pays the repair once
//!   for the whole batch (the substrate under the deployment server's
//!   edit-stream batching).  When the budget admits
//!   the Theorem 2 construction (whose per-vertex Lemma 1 orientation is
//!   purely local), re-orientation touches only the sensors whose tree
//!   neighborhood changed; the induced digraph is repaired row-wise (dirty
//!   rows = re-oriented sensors plus every sensor whose coverage ball
//!   contains an edited location, found through the shared spatial index);
//!   strong connectivity is then re-checked on the repaired CSR.
//!
//! The correctness story mirrors the earlier engines: the dynamic path is a
//! *different route to the same values*.  After every edit, the maintained
//! MST is the from-scratch build's edge set (same weight and `lmax` even
//! where the degree-5 exchange makes the tree history-dependent), the scheme
//! equals a full re-orientation on the materialized instance, the digraph
//! equals the verification engine's from-scratch construction, and the
//! report equals a fresh [`crate::verify::verify_with_budget`] — all pinned
//! by the edit-script oracle suite in `tests/dynamic_oracle.rs`.

use crate::algorithms::lemma1::orient_node;
use crate::algorithms::AlgorithmKind;
use crate::antenna::{AntennaBudget, SensorAssignment};
use crate::bounds::{radius_over_lmax, SPREAD_EPS};
use crate::error::OrientError;
use crate::instance::Instance;
use crate::scheme::OrientationScheme;
use crate::shard::ShardSpec;
use crate::solver::{Orienter, SelectionPolicy, Solver, Theorem2Orienter};
use crate::verify::{VerificationReport, Violation};
use antennae_geometry::{Point, TileGrid, EPS};
use antennae_graph::dynamic::{DynamicEmst, DynamicEmstError};
use antennae_graph::{DiGraph, TraversalScratch};

/// Stable identifier of a sensor inside a [`DynamicInstance`].
///
/// Ids are assigned monotonically by [`DynamicInstance::insert`] (the
/// initial deployment gets `0..n`) and never reused; a removed id stays dead
/// forever.  Ids are *not* the indices of the materialized [`Instance`] —
/// the dense index of a live id is its rank among the live ids.
pub type SensorId = usize;

fn map_emst_error(e: DynamicEmstError) -> OrientError {
    match e {
        DynamicEmstError::UnknownSlot(id) => OrientError::UnknownSensor { id },
    }
}

/// A sensor deployment under churn: accepts insert/remove/move edits while
/// incrementally maintaining the spatial index, the Euclidean MST and
/// `lmax`, and the cached materialized [`Instance`] (with its lazily rooted
/// tree).
///
/// # Examples
///
/// ```
/// use antennae_core::dynamic::DynamicInstance;
/// use antennae_geometry::Point;
///
/// let mut deployment = DynamicInstance::new(&[
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(2.0, 0.0),
/// ])?;
/// let id = deployment.insert(Point::new(3.0, 0.0));
/// deployment.move_sensor(id, Point::new(3.0, 1.0))?;
/// deployment.remove(0)?;
/// assert_eq!(deployment.len(), 3);
/// // The materialized instance is a regular `Instance` over the live set.
/// assert_eq!(deployment.instance()?.len(), 3);
/// # Ok::<(), antennae_core::error::OrientError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynamicInstance {
    emst: DynamicEmst,
    /// Materialized dense instance (invalidated by every edit).
    cache: Option<Instance>,
}

impl DynamicInstance {
    /// Builds an unsharded dynamic instance over an initial deployment;
    /// sensor `i` of `points` gets id `i` (see
    /// [`DynamicInstance::from_entries`]).
    ///
    /// An empty `points` slice is allowed: the deployment starts with zero
    /// live sensors and grows through [`DynamicInstance::insert`] — the shape
    /// a deployment server needs when a tenant is registered before its
    /// first sensor arrives.  (Only [`DynamicInstance::instance`] requires a
    /// non-empty live set, because a static [`Instance`] cannot be empty.)
    pub fn new(points: &[Point]) -> Result<Self, OrientError> {
        Self::new_sharded(points, ShardSpec::Off)
    }

    /// Builds a dynamic instance whose spatial index is sharded per `spec`
    /// (see [`DynamicInstance::from_entries`]); sensor `i` of `points` gets
    /// id `i`.
    pub fn new_sharded(points: &[Point], spec: ShardSpec) -> Result<Self, OrientError> {
        let entries: Vec<(SensorId, Point)> = points.iter().copied().enumerate().collect();
        Self::from_entries(&entries, points.len(), spec)
    }

    /// The bulk constructor every dynamic instance comes from: the live
    /// `(id, point)` set in strictly ascending id order, plus the `next_id`
    /// horizon (ids below it without an entry are dead, and stay dead).
    ///
    /// The MST is one global static build over the live set
    /// ([`antennae_graph::euclidean::EuclideanMst::build_with_engine_threads`]),
    /// the tree the same live set reaches through any edit history, so
    /// crash recovery costs O(n log n).  `spec` only partitions the spatial
    /// index that edits query (see [`crate::shard`]).  Specs that do not
    /// resolve for this deployment ([`ShardSpec::Off`], [`ShardSpec::Auto`]
    /// below its size threshold, degenerate bounding boxes — including the
    /// empty deployment) mean a one-tile grid; either way the answers are
    /// bit-identical, only their cost differs.
    ///
    /// Fails with [`OrientError::Internal`] when the ids are not strictly
    /// ascending below `next_id`.
    pub fn from_entries(
        entries: &[(SensorId, Point)],
        next_id: SensorId,
        spec: ShardSpec,
    ) -> Result<Self, OrientError> {
        let mut prev: Option<SensorId> = None;
        for &(id, _) in entries {
            if id >= next_id || prev.is_some_and(|p| p >= id) {
                return Err(OrientError::Internal(format!(
                    "live ids must be strictly ascending below the next_id \
                     horizon {next_id} (got {id})"
                )));
            }
            prev = Some(id);
        }
        let live: Vec<Point> = entries.iter().map(|&(_, p)| p).collect();
        let grid = spec.resolve(&live).unwrap_or_else(TileGrid::single);
        let emst = DynamicEmst::from_entries(entries, next_id, grid)
            .map_err(|e| OrientError::MstConstruction(e.to_string()))?;
        Ok(DynamicInstance { emst, cache: None })
    }

    /// The shard grid backing this instance as `(tiles_x, tiles_y)`, `None`
    /// when the instance is unsharded (one tile).
    pub fn shard_grid(&self) -> Option<(usize, usize)> {
        let grid = self.emst.tile_grid();
        (grid.tiles() > 1).then(|| (grid.tiles_x(), grid.tiles_y()))
    }

    /// Occupied (non-empty) tiles of a sharded instance, `None` when
    /// unsharded.
    pub fn shard_occupied(&self) -> Option<usize> {
        self.shard_grid().map(|_| self.emst.occupied_tiles())
    }

    /// A dynamic instance with zero live sensors (grow it with
    /// [`DynamicInstance::insert`]).
    pub fn empty() -> Self {
        Self::new(&[]).expect("building an empty dynamic instance cannot fail")
    }

    /// Number of live sensors.
    pub fn len(&self) -> usize {
        self.emst.live_count()
    }

    /// Returns `true` when no sensor is live (a freshly created empty
    /// deployment, or one drained to zero by removals).
    pub fn is_empty(&self) -> bool {
        self.emst.live_count() == 0
    }

    /// The id the next [`DynamicInstance::insert`] will assign.  Ids are
    /// monotone and never reused, so this also bounds every id ever handed
    /// out — the deployment server's edit validator projects id assignment
    /// from it without mutating the instance.
    pub fn next_id(&self) -> SensorId {
        self.emst.slot_bound()
    }

    /// Returns `true` when `id` names a live sensor.
    pub fn is_alive(&self, id: SensorId) -> bool {
        self.emst.is_alive(id)
    }

    /// The live sensor ids in ascending order (the materialized instance's
    /// dense index order).
    pub fn ids(&self) -> Vec<SensorId> {
        self.emst.live_slots()
    }

    /// The location of a live sensor.
    pub fn point(&self, id: SensorId) -> Result<Point, OrientError> {
        if !self.emst.is_alive(id) {
            return Err(OrientError::UnknownSensor { id });
        }
        Ok(self.emst.point(id))
    }

    /// The longest MST edge over the live deployment.
    pub fn lmax(&self) -> f64 {
        self.emst.lmax()
    }

    /// Total weight of the maintained MST.
    pub fn mst_total_weight(&self) -> f64 {
        self.emst.total_weight()
    }

    /// Ids whose MST neighborhood changed in the most recent edit.
    pub fn changed_ids(&self) -> &[SensorId] {
        self.emst.changed_slots()
    }

    /// The underlying incremental MST engine (spatial index included).
    pub fn emst(&self) -> &DynamicEmst {
        &self.emst
    }

    /// Inserts a sensor, returning its id.
    pub fn insert(&mut self, p: Point) -> SensorId {
        self.cache = None;
        self.emst.insert(p)
    }

    /// Removes a live sensor.  Draining to zero is allowed; the deployment
    /// can be regrown with [`DynamicInstance::insert`] afterwards.
    pub fn remove(&mut self, id: SensorId) -> Result<(), OrientError> {
        self.cache = None;
        self.emst.remove(id).map_err(map_emst_error)
    }

    /// Moves a live sensor to a new location (id is preserved).
    pub fn move_sensor(&mut self, id: SensorId, p: Point) -> Result<(), OrientError> {
        self.cache = None;
        self.emst.move_to(id, p).map_err(map_emst_error)
    }

    /// Materializes (and caches) the live deployment as a regular
    /// [`Instance`]: live ids ascending, the maintained MST handed over
    /// without a rebuild, the rooted view re-derived lazily as usual.
    ///
    /// Errors with [`OrientError::EmptyInstance`] when no sensor is live —
    /// a static [`Instance`] cannot be empty, so an empty deployment has no
    /// materialization (its scheme/digraph/report are trivially empty, as
    /// [`DynamicSolverSession`] defines them).
    pub fn instance(&mut self) -> Result<&Instance, OrientError> {
        if self.is_empty() {
            return Err(OrientError::EmptyInstance);
        }
        if self.cache.is_none() {
            let mst = self
                .emst
                .materialize()
                .map_err(|e| OrientError::MstConstruction(e.to_string()))?;
            let points = mst.points().to_vec();
            self.cache = Some(Instance::from_prebuilt(points, mst));
        }
        Ok(self.cache.as_ref().expect("cache was just filled"))
    }
}

/// One edit applied to a [`DynamicSolverSession`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edit {
    /// A sensor arrives at the given location.
    Insert(Point),
    /// The sensor with the given id fails.
    Remove(SensorId),
    /// The sensor with the given id moves to the given location.
    Move(SensorId, Point),
}

/// What one [`DynamicSolverSession::apply_coalesced`] did: the refreshed
/// verdict plus the incrementality counters the deployment server's
/// per-tenant stats record.
///
/// A coalesced batch pays the orientation/digraph repair **once** for the
/// whole burst: `mst_changed` and `rows_recomputed` count the union of the
/// per-edit dirty sets, not their sum.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// How many edits the batch applied.
    pub applied: usize,
    /// Ids assigned to the batch's inserts, in edit order.
    pub inserted_ids: Vec<SensorId>,
    /// The construction that produced the current scheme.
    pub algorithm: AlgorithmKind,
    /// Whether re-orientation took the incremental per-vertex path (`false`
    /// means a full solve on the materialized instance).
    pub incremental_orientation: bool,
    /// Sensors whose MST neighborhood changed across the batch (union).
    pub mst_changed: usize,
    /// Induced-digraph rows recomputed by the verification repair (union).
    pub rows_recomputed: usize,
    /// The verification verdict for the refreshed scheme under the
    /// session's budget.
    pub report: VerificationReport,
    /// The refreshed scheme's measured max radius in units of `lmax`.
    pub measured_radius_over_lmax: f64,
}

/// What one [`DynamicSolverSession::apply`] did: the refreshed verdict plus
/// the incrementality counters the churn experiment records.
#[derive(Debug, Clone, PartialEq)]
pub struct EditOutcome {
    /// The id the edit referenced (the fresh id for an insert).
    pub id: SensorId,
    /// The construction that produced the current scheme.
    pub algorithm: AlgorithmKind,
    /// Whether re-orientation took the incremental per-vertex path (`false`
    /// means a full solve on the materialized instance).
    pub incremental_orientation: bool,
    /// Sensors whose MST neighborhood changed (and were re-oriented on the
    /// incremental path).
    pub mst_changed: usize,
    /// Induced-digraph rows recomputed by the verification repair.
    pub rows_recomputed: usize,
    /// The verification verdict for the refreshed scheme under the
    /// session's budget.
    pub report: VerificationReport,
    /// The refreshed scheme's measured max radius in units of `lmax`.
    pub measured_radius_over_lmax: f64,
}

/// A solver+verifier session over a [`DynamicInstance`]: one budget, a
/// continuously maintained orientation scheme, induced digraph and
/// verification verdict.
///
/// When the budget admits Theorem 2 (`φ_k ≥ 2π(5−k)/5` — exactly the regime
/// where the registry's best guarantee *is* Theorem 2), the session
/// re-orients incrementally: only sensors whose MST neighborhood changed get
/// a fresh per-vertex Lemma 1 orientation, and only digraph rows that could
/// have changed are recomputed.  Other budgets fall back to a full
/// [`Solver`] run per edit, still reusing the incrementally maintained MST
/// substrate and spatial index.
///
/// # Examples
///
/// ```
/// use antennae_core::antenna::AntennaBudget;
/// use antennae_core::bounds::theorem2_spread_threshold;
/// use antennae_core::dynamic::{DynamicInstance, DynamicSolverSession, Edit};
/// use antennae_geometry::Point;
///
/// let deployment = DynamicInstance::new(&[
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.1),
///     Point::new(2.0, 0.3),
///     Point::new(1.1, 1.2),
/// ])?;
/// let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
/// let mut session = DynamicSolverSession::new(deployment, budget)?;
/// assert!(session.report().is_valid());
///
/// let outcome = session.apply(Edit::Insert(Point::new(0.5, 0.8)))?;
/// assert!(outcome.incremental_orientation);
/// assert!(outcome.report.is_strongly_connected);
/// # Ok::<(), antennae_core::error::OrientError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynamicSolverSession {
    inst: DynamicInstance,
    budget: AntennaBudget,
    /// `true` when the session runs the incremental Theorem 2 path.
    incremental: bool,
    algorithm: AlgorithmKind,
    /// Per-id assignments (dead ids hold empty assignments).
    assignments: Vec<SensorAssignment>,
    /// Per-id induced-digraph rows, targets in id space, ascending.
    rows: Vec<Vec<u32>>,
    /// Largest antenna radius across all live assignments.
    max_radius: f64,
    /// Dense scheme mirror of `assignments`, rebuilt lazily on access (the
    /// verdict no longer needs it — see `dense_dirty`).
    scheme: OrientationScheme,
    /// Dense digraph mirror of `rows`, rebuilt lazily on access.
    digraph: DiGraph,
    report: VerificationReport,
    /// `true` when `scheme`/`digraph` are stale relative to the id-space
    /// state; [`DynamicSolverSession::ensure_dense`] clears it.
    dense_dirty: bool,
    /// Scratch buffers for the row queries (allocation-free steady state).
    scratch: Vec<usize>,
    row_buf: Vec<usize>,
    /// Tarjan scratch for the per-edit connectivity re-check.
    scc_scratch: TraversalScratch,
}

impl DynamicSolverSession {
    /// Opens a session: solves and verifies the initial deployment under
    /// `budget` and keeps the state warm for [`DynamicSolverSession::apply`].
    pub fn new(inst: DynamicInstance, budget: AntennaBudget) -> Result<Self, OrientError> {
        let incremental = Theorem2Orienter.applicability(&budget).is_some();
        let mut session = DynamicSolverSession {
            inst,
            budget,
            incremental,
            algorithm: AlgorithmKind::Theorem2,
            assignments: Vec::new(),
            rows: Vec::new(),
            max_radius: 0.0,
            scheme: OrientationScheme::empty(0),
            digraph: DiGraph::from_edges(0, &[]),
            report: VerificationReport {
                is_strongly_connected: true,
                scc_count: 0,
                edge_count: 0,
                max_radius: 0.0,
                max_radius_over_lmax: 0.0,
                max_spread_sum: 0.0,
                max_antenna_count: 0,
                violations: Vec::new(),
            },
            dense_dirty: false,
            scratch: Vec::new(),
            row_buf: Vec::new(),
            scc_scratch: TraversalScratch::default(),
        };
        session.reorient_full()?;
        let all: Vec<SensorId> = session.inst.ids();
        session.recompute_rows(&all);
        session.refresh_verdict()?;
        Ok(session)
    }

    /// The session's budget.
    pub fn budget(&self) -> AntennaBudget {
        self.budget
    }

    /// Returns `true` when the session re-orients incrementally (Theorem 2
    /// regime).
    pub fn is_incremental(&self) -> bool {
        self.incremental
    }

    /// The construction that produced the current scheme.
    pub fn algorithm(&self) -> AlgorithmKind {
        self.algorithm
    }

    /// The dynamic instance (read-only; edits go through
    /// [`DynamicSolverSession::apply`] so the cached state stays in sync).
    pub fn instance(&self) -> &DynamicInstance {
        &self.inst
    }

    /// The materialized static instance for the current live deployment.
    pub fn materialized(&mut self) -> Result<&Instance, OrientError> {
        self.inst.instance()
    }

    /// The current orientation scheme (dense, aligned with
    /// [`DynamicSolverSession::materialized`]).
    ///
    /// Takes `&mut self`: the dense mirror is rebuilt lazily from the
    /// id-space state — the per-edit repair maintains assignments and rows
    /// in id space only, so steady-state edits never pay the O(n) dense
    /// projection unless someone asks for it.
    pub fn scheme(&mut self) -> &OrientationScheme {
        self.ensure_dense();
        &self.scheme
    }

    /// The current induced communication digraph (dense); lazily rebuilt
    /// like [`DynamicSolverSession::scheme`].
    pub fn digraph(&mut self) -> &DiGraph {
        self.ensure_dense();
        &self.digraph
    }

    /// The current verification verdict.
    pub fn report(&self) -> &VerificationReport {
        &self.report
    }

    /// Applies one edit: updates the MST substrate, re-orients (incrementally
    /// in the Theorem 2 regime), repairs the induced digraph row-wise and
    /// re-checks strong connectivity.
    ///
    /// Removing the last live sensor is allowed: the session drains to the
    /// empty deployment (empty scheme and digraph, trivially valid report)
    /// and can be regrown with inserts.
    pub fn apply(&mut self, edit: Edit) -> Result<EditOutcome, OrientError> {
        let outcome = self.apply_coalesced(std::slice::from_ref(&edit))?;
        let id = match edit {
            Edit::Insert(_) => outcome.inserted_ids[0],
            Edit::Remove(id) | Edit::Move(id, _) => id,
        };
        Ok(EditOutcome {
            id,
            algorithm: outcome.algorithm,
            incremental_orientation: outcome.incremental_orientation,
            mst_changed: outcome.mst_changed,
            rows_recomputed: outcome.rows_recomputed,
            report: outcome.report,
            measured_radius_over_lmax: outcome.measured_radius_over_lmax,
        })
    }

    /// Validates `edits` against a *projected* live set (ids are monotone,
    /// so insert ids are predictable) without touching any state.  Returns
    /// the ids the batch's inserts will be assigned.
    fn validate_edits(&self, edits: &[Edit]) -> Result<Vec<SensorId>, OrientError> {
        // Single-edit batches (the server's common case) need no projected
        // live table: ids are monotone, so the one insert gets `next_id`,
        // and a remove/move only needs its id to be live right now.
        if let [edit] = edits {
            return match *edit {
                Edit::Insert(_) => Ok(vec![self.inst.next_id()]),
                Edit::Remove(id) | Edit::Move(id, _) => {
                    if self.inst.is_alive(id) {
                        Ok(Vec::new())
                    } else {
                        Err(OrientError::UnknownSensor { id })
                    }
                }
            };
        }
        let mut alive = vec![false; self.inst.next_id()];
        for id in self.inst.ids() {
            alive[id] = true;
        }
        let mut inserted = Vec::new();
        for edit in edits {
            match *edit {
                Edit::Insert(_) => {
                    inserted.push(alive.len());
                    alive.push(true);
                }
                Edit::Remove(id) => {
                    if !alive.get(id).copied().unwrap_or(false) {
                        return Err(OrientError::UnknownSensor { id });
                    }
                    alive[id] = false;
                }
                Edit::Move(id, _) => {
                    if !alive.get(id).copied().unwrap_or(false) {
                        return Err(OrientError::UnknownSensor { id });
                    }
                }
            }
        }
        Ok(inserted)
    }

    /// Applies a **burst of edits with one repair**: every edit updates the
    /// MST substrate immediately, but re-orientation, the row-wise digraph
    /// repair and the connectivity re-check run once over the *union* of the
    /// per-edit dirty sets — the batching layer the deployment server's
    /// edit-stream coalescing sits on.
    ///
    /// The result is exactly the state that applying the edits one at a time
    /// produces (pinned by the coalescing oracle in `tests/dynamic_oracle.rs`):
    /// per-vertex orientation depends only on the final MST neighborhood, and
    /// a row can differ from its pre-batch value only when its sensor was
    /// re-oriented or some edited location lies inside its coverage ball —
    /// both captured by the accumulated dirty set, with the reverse-radius
    /// query widened to the larger of the pre- and post-batch max radius.
    ///
    /// The whole batch is validated against a projected live set before any
    /// state changes, so an invalid edit (unknown or dead id anywhere in the
    /// burst) rejects the batch atomically.
    pub fn apply_coalesced(&mut self, edits: &[Edit]) -> Result<BatchOutcome, OrientError> {
        let inserted_ids = self.validate_edits(edits)?;
        let old_max_radius = self.max_radius;

        // Apply every edit to the substrate, accumulating the union of the
        // per-edit changed neighborhoods and every edited location (the
        // reverse row-repair queries below need both old and new positions).
        let mut edited_positions: Vec<Point> = Vec::with_capacity(edits.len() + 1);
        let mut changed: Vec<SensorId> = Vec::new();
        let mut removed: Vec<SensorId> = Vec::new();
        for edit in edits {
            match *edit {
                Edit::Insert(p) => {
                    edited_positions.push(p);
                    self.inst.insert(p);
                }
                Edit::Remove(id) => {
                    edited_positions.push(self.inst.point(id)?);
                    self.inst.remove(id)?;
                    removed.push(id);
                }
                Edit::Move(id, p) => {
                    edited_positions.push(self.inst.point(id)?);
                    edited_positions.push(p);
                    self.inst.move_sensor(id, p)?;
                }
            }
            changed.extend_from_slice(self.inst.changed_ids());
        }
        changed.sort_unstable();
        changed.dedup();
        changed.retain(|&s| self.inst.is_alive(s));
        let mst_changed = changed.len();

        // Re-orient: dead ids lose their assignment and row, changed live
        // ids get a fresh per-vertex orientation (incremental path) or the
        // whole deployment is re-solved (fallback path).
        self.grow_id_tables();
        for &id in &removed {
            self.assignments[id] = SensorAssignment::empty();
            self.rows[id].clear();
        }
        let incremental_orientation = if self.incremental {
            for &slot in &changed {
                self.assignments[slot] = self.orient_one(slot);
            }
            self.refresh_max_radius();
            true
        } else {
            self.reorient_full()?;
            false
        };

        // Repair the induced digraph: dirty rows are the re-oriented sensors
        // plus every sensor whose coverage ball contains an edited location.
        let dirty: Vec<SensorId> = if incremental_orientation {
            let reverse_radius = self.max_radius.max(old_max_radius) + EPS;
            let mut dirty = changed;
            let mut hits = Vec::new();
            for p in &edited_positions {
                self.inst.emst().within_radius_with(
                    p,
                    reverse_radius,
                    &mut self.scratch,
                    &mut hits,
                );
                dirty.extend_from_slice(&hits);
            }
            dirty.sort_unstable();
            dirty.dedup();
            dirty.retain(|&s| self.inst.is_alive(s));
            dirty
        } else {
            self.inst.ids()
        };
        self.recompute_rows(&dirty);
        self.refresh_verdict()?;

        Ok(BatchOutcome {
            applied: edits.len(),
            inserted_ids,
            algorithm: self.algorithm,
            incremental_orientation,
            mst_changed,
            rows_recomputed: dirty.len(),
            report: self.report.clone(),
            measured_radius_over_lmax: self.report.max_radius_over_lmax,
        })
    }

    /// Rebuilds a session from a durable image: a sparse `base` live set
    /// (original ids, strictly ascending, below the `next_id` horizon) plus
    /// a `tail` of logged-but-uncompacted edits — the shape a write-ahead
    /// log hands recovery.  Shards per [`ShardSpec::default`]; see
    /// [`DynamicSolverSession::replay_sharded`].
    pub fn replay(
        budget: AntennaBudget,
        base: &[(SensorId, Point)],
        next_id: SensorId,
        tail: &[Edit],
    ) -> Result<Self, OrientError> {
        Self::replay_sharded(budget, base, next_id, tail, ShardSpec::default())
    }

    /// [`DynamicSolverSession::replay`] with an explicit shard spec: one
    /// bulk build of `base` ([`DynamicInstance::from_entries`], O(n log n)),
    /// a session over it, and the whole `tail` applied as **one**
    /// [`DynamicSolverSession::apply_coalesced`] repair.  The bulk build is
    /// the tree the base's live set reached through its history, and the
    /// coalescing and incremental-vs-fresh oracles (`tests/dynamic_oracle.rs`)
    /// make the result bit-equal (`f64::to_bits` on `lmax`/MST weights,
    /// exact scheme/digraph equality) to the session that lived through the
    /// original edit history, whatever its batch boundaries were — except
    /// where coincident sensors force the history-dependent degree-5
    /// exchange (see `antennae_graph::dynamic`).
    ///
    /// Fails with [`OrientError::Internal`] on a malformed base, or with the
    /// usual batch errors when the tail references ids the projected live
    /// set does not hold (a salvaged-but-inconsistent log).
    pub fn replay_sharded(
        budget: AntennaBudget,
        base: &[(SensorId, Point)],
        next_id: SensorId,
        tail: &[Edit],
        spec: ShardSpec,
    ) -> Result<Self, OrientError> {
        let inst = DynamicInstance::from_entries(base, next_id, spec)?;
        let mut session = DynamicSolverSession::new(inst, budget)?;
        if !tail.is_empty() {
            session.apply_coalesced(tail)?;
        }
        Ok(session)
    }

    /// Grows the per-id tables to cover freshly assigned ids (including ids
    /// inserted and removed again within one coalesced batch).
    fn grow_id_tables(&mut self) {
        let slots = self.inst.next_id().max(self.assignments.len());
        self.assignments.resize(slots, SensorAssignment::empty());
        self.rows.resize(slots, Vec::new());
    }

    /// The per-vertex Theorem 2 orientation of one live sensor: Lemma 1 over
    /// its current MST neighbours (ascending id order — the same neighbour
    /// order the materialized instance presents to a full re-orientation).
    fn orient_one(&self, id: SensorId) -> SensorAssignment {
        let apex = self.inst.emst().point(id);
        let neighbors: Vec<Point> = self
            .inst
            .emst()
            .neighbors(id)
            .iter()
            .map(|&(u, _)| self.inst.emst().point(u))
            .collect();
        SensorAssignment::new(orient_node(&apex, &neighbors, self.budget.k))
    }

    /// Full re-orientation: the incremental path rebuilds every per-vertex
    /// assignment (initial solve), the fallback path runs the policy solver
    /// on the materialized instance and scatters the dense scheme back into
    /// id space.
    fn reorient_full(&mut self) -> Result<(), OrientError> {
        self.grow_id_tables();
        for a in &mut self.assignments {
            *a = SensorAssignment::empty();
        }
        if self.inst.is_empty() {
            // Nothing to orient; the empty deployment has the empty scheme.
            self.max_radius = 0.0;
            return Ok(());
        }
        if self.incremental {
            self.algorithm = AlgorithmKind::Theorem2;
            for id in self.inst.ids() {
                self.assignments[id] = self.orient_one(id);
            }
        } else {
            let budget = self.budget;
            let outcome = {
                let instance = self.inst.instance()?;
                Solver::on(instance)
                    .with_budget(budget)
                    .policy(SelectionPolicy::BestGuarantee)
                    .run()?
            };
            self.algorithm = outcome.algorithm;
            for (dense, id) in self.inst.ids().into_iter().enumerate() {
                self.assignments[id] = outcome.scheme.assignments[dense].clone();
            }
        }
        self.refresh_max_radius();
        Ok(())
    }

    fn refresh_max_radius(&mut self) {
        let mut max_radius = 0.0f64;
        for id in 0..self.inst.next_id() {
            if self.inst.is_alive(id) {
                max_radius = f64::max(max_radius, self.assignments[id].max_radius());
            }
        }
        self.max_radius = max_radius;
    }

    /// Recomputes the induced-digraph rows of `ids` (live, id space): one
    /// bounded range query against the shared spatial index, then the exact
    /// sector filter — the same candidate-superset contract as the static
    /// verification engine, so the assembled rows are bit-identical to a
    /// from-scratch rebuild.
    fn recompute_rows(&mut self, ids: &[SensorId]) {
        self.grow_id_tables();
        for &u in ids {
            debug_assert!(self.inst.is_alive(u));
            let assignment = std::mem::take(&mut self.assignments[u]);
            let apex = self.inst.emst().point(u);
            self.inst.emst().within_radius_with(
                &apex,
                assignment.max_radius() + EPS,
                &mut self.scratch,
                &mut self.row_buf,
            );
            let row = &mut self.rows[u];
            row.clear();
            for &v in self.row_buf.iter() {
                if v != u && assignment.covers(&apex, &self.inst.emst().point(v)) {
                    row.push(v as u32);
                }
            }
            self.assignments[u] = assignment;
        }
    }

    /// Refreshes the verification verdict **directly from the id-space
    /// state** — no materialized [`Instance`], no dense scheme clone, no
    /// dense digraph rebuild (those are all Θ(n) per edit and dominated the
    /// repair once the MST surgery became local).
    ///
    /// The sparse computation is bit-equal to
    /// [`crate::verify::verify_with_budget`] on the dense mirrors, field by
    /// field, because each piece replicates the dense path exactly:
    ///
    /// - budget violations scan the live assignments in ascending id order —
    ///   precisely the dense index order of the materialized scheme — with
    ///   the same thresholds (`> budget.k`, `> budget.phi + SPREAD_EPS`);
    ///   `MissingAssignments` cannot fire (the session assigns every live
    ///   sensor by construction);
    /// - the scheme maxima use the same fold shapes as
    ///   [`OrientationScheme::max_radius`] / `max_spread_sum` (`f64::max`
    ///   from `0.0`) and `max_antenna_count` (`usize::max`);
    /// - component count and largest-component size come from the same
    ///   masked Tarjan kernel run over the id-space rows
    ///   ([`TraversalScratch::scc_summary_rows`]); both are graph
    ///   invariants, independent of vertex labelling;
    /// - `edge_count` sums live row lengths = the dense digraph's edge
    ///   count; `lmax` is the maintained MST's, which materialization hands
    ///   over bit-identically.
    ///
    /// The dense mirrors are just **marked stale** here; accessors rebuild
    /// them on demand (see [`DynamicSolverSession::ensure_dense`]).
    ///
    /// The empty deployment (zero live sensors) is **defined** to be valid:
    /// empty scheme, empty digraph, a report with zero components and no
    /// violations — strong connectivity holds vacuously.  There is no
    /// materialized [`Instance`] to verify against in that state.
    fn refresh_verdict(&mut self) -> Result<(), OrientError> {
        let live = self.inst.len();
        if live == 0 {
            self.scheme = OrientationScheme::empty(0);
            self.digraph = DiGraph::from_edges(0, &[]);
            self.report = VerificationReport {
                is_strongly_connected: true,
                scc_count: 0,
                edge_count: 0,
                max_radius: 0.0,
                max_radius_over_lmax: 0.0,
                max_spread_sum: 0.0,
                max_antenna_count: 0,
                violations: Vec::new(),
            };
            self.dense_dirty = false;
            return Ok(());
        }

        let mut violations = Vec::new();
        let mut max_radius = 0.0f64;
        let mut max_spread_sum = 0.0f64;
        let mut max_antenna_count = 0usize;
        let mut edge_count = 0usize;
        let mut dense = 0usize;
        for id in 0..self.inst.next_id() {
            if !self.inst.is_alive(id) {
                continue;
            }
            let assignment = &self.assignments[id];
            if assignment.antenna_count() > self.budget.k {
                violations.push(Violation::TooManyAntennas {
                    sensor: dense,
                    used: assignment.antenna_count(),
                    allowed: self.budget.k,
                });
            }
            if assignment.total_spread() > self.budget.phi + SPREAD_EPS {
                violations.push(Violation::SpreadExceeded {
                    sensor: dense,
                    used: assignment.total_spread(),
                    allowed: self.budget.phi,
                });
            }
            max_radius = f64::max(max_radius, assignment.max_radius());
            max_spread_sum = f64::max(max_spread_sum, assignment.total_spread());
            max_antenna_count = max_antenna_count.max(assignment.antenna_count());
            edge_count += self.rows[id].len();
            dense += 1;
        }
        debug_assert_eq!(dense, live, "live scan disagrees with live count");

        let inst = &self.inst;
        let summary = self
            .scc_scratch
            .scc_summary_rows(&self.rows, |v| inst.is_alive(v));
        let strongly_connected = live <= 1 || summary.count == 1;
        if !strongly_connected {
            violations.push(Violation::NotStronglyConnected {
                components: summary.count,
                largest_component: summary.largest,
            });
        }

        self.report = VerificationReport {
            is_strongly_connected: strongly_connected,
            scc_count: summary.count,
            edge_count,
            max_radius,
            max_radius_over_lmax: radius_over_lmax(max_radius, self.inst.lmax()),
            max_spread_sum,
            max_antenna_count,
            violations,
        };
        self.dense_dirty = true;
        Ok(())
    }

    /// Rebuilds the dense scheme + digraph mirrors from the id-space state
    /// when an accessor finds them stale.  Id → dense is monotone over
    /// ascending live ids, so the ascending id-space rows map to ascending
    /// dense rows — the digraph is bit-identical to the static engine's
    /// construction.
    fn ensure_dense(&mut self) {
        if !self.dense_dirty {
            return;
        }
        let ids = self.inst.ids();
        let assignments: Vec<SensorAssignment> =
            ids.iter().map(|&id| self.assignments[id].clone()).collect();
        self.scheme = OrientationScheme::new(assignments);
        let mut dense_of = vec![u32::MAX; ids.last().map_or(0, |&id| id + 1)];
        for (dense, &id) in ids.iter().enumerate() {
            dense_of[id] = dense as u32;
        }
        self.digraph = DiGraph::from_adjacency(
            ids.len(),
            ids.iter()
                .map(|&u| self.rows[u].iter().map(|&v| dense_of[v as usize] as usize)),
        );
        self.dense_dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::theorem2_spread_threshold;
    use crate::verify::{verify_with_budget, DigraphStrategy, VerificationEngine};
    use antennae_geometry::PI;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)))
            .collect()
    }

    /// The session's scheme, digraph and report must equal the from-scratch
    /// static pipeline on the materialized instance.
    fn assert_matches_static(session: &mut DynamicSolverSession) {
        let budget = session.budget();
        let scheme = session.scheme().clone();
        let digraph = session.digraph().clone();
        let report = session.report().clone();
        let instance = session.materialized().unwrap().clone();
        let dense = VerificationEngine::new()
            .with_strategy(DigraphStrategy::Dense)
            .induced_digraph(instance.points(), &scheme);
        assert_eq!(digraph, dense, "digraph diverged from static rebuild");
        let fresh = verify_with_budget(&instance, &scheme, Some(budget));
        assert_eq!(report, fresh, "report diverged from static verify");
        if session.is_incremental() {
            let full = crate::algorithms::theorem2::orient_theorem2(&instance, budget.k).unwrap();
            assert_eq!(scheme, full, "incremental scheme diverged from full orient");
        }
    }

    #[test]
    fn incremental_session_tracks_static_pipeline() {
        let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
        let inst = DynamicInstance::new(&random_points(40, 1)).unwrap();
        let mut session = DynamicSolverSession::new(inst, budget).unwrap();
        assert!(session.is_incremental());
        assert!(session.report().is_valid());
        assert_matches_static(&mut session);

        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..30 {
            let edit = match step % 3 {
                0 => Edit::Insert(Point::new(
                    rng.random_range(0.0..10.0),
                    rng.random_range(0.0..10.0),
                )),
                1 => {
                    let ids = session.instance().ids();
                    Edit::Remove(ids[rng.random_range(0..ids.len())])
                }
                _ => {
                    let ids = session.instance().ids();
                    Edit::Move(
                        ids[rng.random_range(0..ids.len())],
                        Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)),
                    )
                }
            };
            let outcome = session.apply(edit).unwrap();
            assert!(outcome.incremental_orientation);
            assert_eq!(outcome.algorithm, AlgorithmKind::Theorem2);
            assert!(
                outcome.report.is_valid(),
                "step {step}: {:?}",
                outcome.report
            );
            assert_matches_static(&mut session);
        }
    }

    #[test]
    fn incremental_edits_touch_few_rows_on_a_path() {
        // A long path: one interior move must not re-verify the far ends.
        let pts: Vec<Point> = (0..200).map(|i| Point::new(i as f64, 0.0)).collect();
        let inst = DynamicInstance::new(&pts).unwrap();
        let budget = AntennaBudget::new(3, theorem2_spread_threshold(3));
        let mut session = DynamicSolverSession::new(inst, budget).unwrap();
        let outcome = session
            .apply(Edit::Move(100, Point::new(100.0, 0.2)))
            .unwrap();
        assert!(outcome.incremental_orientation);
        assert!(
            outcome.rows_recomputed < 20,
            "rows_recomputed = {} is not local",
            outcome.rows_recomputed
        );
        assert!(outcome.report.is_valid());
        assert_matches_static(&mut session);
    }

    #[test]
    fn fallback_session_uses_the_policy_solver() {
        // (2, π) admits Theorem 3 but not Theorem 2 → full-solve fallback.
        let inst = DynamicInstance::new(&random_points(25, 3)).unwrap();
        let mut session = DynamicSolverSession::new(inst, AntennaBudget::new(2, PI)).unwrap();
        assert!(!session.is_incremental());
        assert_eq!(session.report().violations, vec![]);
        assert_matches_static(&mut session);
        let outcome = session.apply(Edit::Insert(Point::new(5.0, 5.0))).unwrap();
        assert!(!outcome.incremental_orientation);
        assert_eq!(outcome.algorithm, AlgorithmKind::Theorem3);
        assert!(outcome.report.is_valid());
        assert_matches_static(&mut session);
    }

    #[test]
    fn drain_to_one_sensor_and_regrow() {
        let inst = DynamicInstance::new(&random_points(6, 4)).unwrap();
        let budget = AntennaBudget::new(1, theorem2_spread_threshold(1));
        let mut session = DynamicSolverSession::new(inst, budget).unwrap();
        while session.instance().len() > 1 {
            let victim = session.instance().ids()[0];
            let outcome = session.apply(Edit::Remove(victim)).unwrap();
            assert!(outcome.report.is_valid());
            assert_matches_static(&mut session);
        }
        // A single live sensor is trivially strongly connected…
        assert!(session.report().is_strongly_connected);
        assert_eq!(session.instance().lmax(), 0.0);
        // …and removing the last one drains the session to the (defined to
        // be valid) empty deployment.
        let last = session.instance().ids()[0];
        let drained = session.apply(Edit::Remove(last)).unwrap();
        assert!(drained.report.is_valid());
        assert!(drained.report.is_strongly_connected);
        assert_eq!(drained.report.scc_count, 0);
        assert_eq!(session.instance().len(), 0);
        assert_eq!(session.scheme().len(), 0);
        assert!(matches!(
            session.materialized(),
            Err(OrientError::EmptyInstance)
        ));
        // Edits on the empty deployment keep rejecting dead ids.
        assert!(matches!(
            session.apply(Edit::Remove(last)),
            Err(OrientError::UnknownSensor { .. })
        ));
        // Regrowing works.
        let outcome = session.apply(Edit::Insert(Point::new(1.0, 2.0))).unwrap();
        assert!(outcome.report.is_valid());
        assert_matches_static(&mut session);
    }

    #[test]
    fn empty_session_grows_from_nothing() {
        let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
        let mut session = DynamicSolverSession::new(DynamicInstance::empty(), budget).unwrap();
        assert!(session.report().is_valid());
        assert_eq!(session.instance().len(), 0);
        assert_eq!(session.instance().next_id(), 0);
        for i in 0..6 {
            let p = Point::new(i as f64, (i * i % 3) as f64);
            let outcome = session.apply(Edit::Insert(p)).unwrap();
            assert_eq!(outcome.id, i);
            assert!(outcome.report.is_valid());
            assert_matches_static(&mut session);
        }
    }

    #[test]
    fn coalesced_batch_equals_one_at_a_time() {
        let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
        let points = random_points(30, 8);
        let edits = vec![
            Edit::Insert(Point::new(2.5, 2.5)),
            Edit::Move(3, Point::new(9.0, 1.0)),
            Edit::Remove(7),
            Edit::Insert(Point::new(4.0, 8.0)),
            Edit::Move(30, Point::new(0.5, 0.5)), // the first insert's id
            Edit::Remove(31),                     // the second insert's id
        ];

        let mut batched =
            DynamicSolverSession::new(DynamicInstance::new(&points).unwrap(), budget).unwrap();
        let outcome = batched.apply_coalesced(&edits).unwrap();
        assert_eq!(outcome.applied, edits.len());
        assert_eq!(outcome.inserted_ids, vec![30, 31]);

        let mut serial =
            DynamicSolverSession::new(DynamicInstance::new(&points).unwrap(), budget).unwrap();
        for &edit in &edits {
            serial.apply(edit).unwrap();
        }

        assert_eq!(batched.scheme(), serial.scheme());
        assert_eq!(batched.digraph(), serial.digraph());
        assert_eq!(batched.report(), serial.report());
        assert_matches_static(&mut batched);
    }

    #[test]
    fn invalid_batch_is_rejected_atomically() {
        let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
        let points = random_points(10, 9);
        let mut session =
            DynamicSolverSession::new(DynamicInstance::new(&points).unwrap(), budget).unwrap();
        let before_scheme = session.scheme().clone();
        let before_len = session.instance().len();
        // The remove of id 4 is fine, but the later move of the same id must
        // reject the whole batch before any state changes.
        let err = session
            .apply_coalesced(&[
                Edit::Insert(Point::new(1.0, 1.0)),
                Edit::Remove(4),
                Edit::Move(4, Point::new(2.0, 2.0)),
            ])
            .unwrap_err();
        assert!(matches!(err, OrientError::UnknownSensor { id: 4 }));
        assert_eq!(session.instance().len(), before_len);
        assert_eq!(session.scheme(), &before_scheme);
        assert_matches_static(&mut session);
    }

    #[test]
    fn dead_ids_are_rejected() {
        let inst = DynamicInstance::new(&random_points(5, 5)).unwrap();
        let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
        let mut session = DynamicSolverSession::new(inst, budget).unwrap();
        session.apply(Edit::Remove(2)).unwrap();
        assert!(matches!(
            session.apply(Edit::Remove(2)),
            Err(OrientError::UnknownSensor { id: 2 })
        ));
        assert!(matches!(
            session.apply(Edit::Move(2, Point::ORIGIN)),
            Err(OrientError::UnknownSensor { id: 2 })
        ));
        // The session state is still consistent after the rejected edits.
        assert_matches_static(&mut session);
    }

    #[test]
    fn duplicate_point_edits_stay_consistent() {
        let inst = DynamicInstance::new(&[Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).unwrap();
        let budget = AntennaBudget::new(2, theorem2_spread_threshold(2));
        let mut session = DynamicSolverSession::new(inst, budget).unwrap();
        let dup = session.apply(Edit::Insert(Point::new(1.0, 0.0))).unwrap();
        assert!(dup.report.is_valid());
        assert_matches_static(&mut session);
        let moved = session
            .apply(Edit::Move(dup.id, Point::new(0.0, 0.0)))
            .unwrap();
        assert!(moved.report.is_valid());
        assert_matches_static(&mut session);
    }
}
