//! The deployment registry: many named tenants, each one dynamic solver
//! session behind its own lock.
//!
//! Locking rules (the concurrency contract the oracle suite pins):
//!
//! * The registry map is an [`RwLock`]: request handlers take a read lock
//!   just long enough to clone the tenant's [`Arc`], so traffic to distinct
//!   tenants never serializes on the map.  `CREATE`/`DROP` take the write
//!   lock briefly.
//! * Each tenant's mutable state (the [`DynamicSolverSession`] plus the
//!   buffered edit queue) sits behind one [`Mutex`]: edits and repairs on
//!   one deployment are serialized, edits and repairs on different
//!   deployments run in parallel.
//! * Each tenant additionally keeps an immutable [`Snapshot`] behind an
//!   [`RwLock`], rewritten at the end of every repair.  `QUERY` reads only
//!   the snapshot — it never touches the state mutex, so snapshot reads are
//!   served even while a repair on the same tenant is in flight.
//! * Counters are atomics; `STATS` reads them without any lock.
//!
//! Edit-stream batching: `EDIT` requests validate against a *projected*
//! live-id set (the session's live ids plus the buffered edits' effects) and
//! append to the queue; the next `ORIENT`/`VERIFY` drains the queue through
//! [`DynamicSolverSession::apply_coalesced`], paying one incremental repair
//! for the whole burst.
//!
//! Degraded mode (graceful degradation under storage faults): when a WAL
//! append, rollback, sync, or compaction leaves the durability layer
//! poisoned, the tenant flips to **degraded-read-only** — mutations fail
//! fast with [`ErrorCode::Degraded`] while `QUERY`/`VERIFY` keep serving
//! the last published snapshot.  Because the failing record was
//! un-acknowledged by the WAL's poison discipline and mutations are
//! rejected from then on, memory never diverges from the acknowledged
//! history; [`Tenant::recover`] therefore only has to repair storage
//! ([`TenantWal::try_recover`]) before returning the tenant to service.

use crate::protocol::{EditOp, ErrorCode, ProtocolError};
use antennae_core::algorithms::AlgorithmKind;
use antennae_core::antenna::AntennaBudget;
use antennae_core::dynamic::{BatchOutcome, DynamicInstance, DynamicSolverSession, Edit, SensorId};
use antennae_core::error::OrientError;
use antennae_core::shard::ShardSpec;
use antennae_core::verify::VerificationReport;
use antennae_geometry::Point;
use antennae_store::TenantWal;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// A monotone process-relative clock in milliseconds, used to report
/// last-snapshot ages through atomics (lock-free `STATS`).
pub(crate) fn process_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Maps a durability-layer I/O failure onto the protocol error grammar.
pub(crate) fn storage_error(what: &str, e: &std::io::Error) -> ProtocolError {
    ProtocolError::new(ErrorCode::Storage, format!("{what}: {e}"))
}

/// The error every mutation gets while its tenant is degraded-read-only.
fn degraded_error(reason: &str) -> ProtocolError {
    ProtocolError::new(
        ErrorCode::Degraded,
        format!("deployment is degraded to read-only ({reason}); RECOVER to retry"),
    )
}

/// Maps a solver error onto the protocol error grammar.
pub(crate) fn map_orient_error(e: &OrientError) -> ProtocolError {
    let code = match e {
        OrientError::UnknownSensor { .. } => ErrorCode::UnknownSensor,
        OrientError::EmptyInstance => ErrorCode::EmptyDeployment,
        OrientError::UnsupportedAntennaCount { .. }
        | OrientError::InsufficientSpread { .. }
        | OrientError::NoApplicableAlgorithm { .. }
        | OrientError::AlgorithmNotApplicable { .. } => ErrorCode::BadBudget,
        _ => ErrorCode::Internal,
    };
    ProtocolError::new(code, e.to_string())
}

/// Per-tenant request counters (atomics; `STATS` reads them lock-free).
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Edits accepted into the buffer.
    pub edits_buffered: AtomicU64,
    /// Edits drained through coalesced repairs.
    pub edits_applied: AtomicU64,
    /// Coalesced repairs run (`ORIENT` + `VERIFY` flushes).
    pub batches: AtomicU64,
    /// Largest single batch drained so far.
    pub max_batch: AtomicU64,
    /// Digraph rows recomputed across all repairs.
    pub rows_recomputed: AtomicU64,
    /// Sensors re-oriented across all repairs.
    pub mst_changed: AtomicU64,
    /// Snapshot reads served.
    pub queries: AtomicU64,
    /// Requests rejected with a structured error.
    pub errors: AtomicU64,
    /// Records in the tenant's current-epoch WAL (0 for ephemeral tenants;
    /// mirrored from the log after every append/flush so `STATS` stays
    /// lock-free).
    pub wal_records: AtomicU64,
    /// Bytes in the tenant's current-epoch WAL (buffered included).
    pub wal_bytes: AtomicU64,
    /// Snapshot compactions performed this process.
    pub snapshots: AtomicU64,
    /// When the last compaction happened, as `process_ms() + 1` (0 = never;
    /// the `+1` keeps a compaction at process start distinguishable).
    pub last_snapshot_ms: AtomicU64,
    /// Edits rejected by the per-tenant pending-edit quota.
    pub quota_rejections: AtomicU64,
}

/// An immutable view of a tenant's last repaired state.  `QUERY` is served
/// from this (plus the pending-edit counter) without taking the tenant's
/// state mutex.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotone repair counter (0 = the initial solve at `CREATE`).
    pub revision: u64,
    /// Live sensors at the last repair.
    pub n: usize,
    /// The session budget's antenna count.
    pub k: usize,
    /// The session budget's spread bound, radians.
    pub phi: f64,
    /// Longest MST edge at the last repair.
    pub lmax: f64,
    /// MST total weight at the last repair.
    pub mst_weight: f64,
    /// The construction that produced the current scheme.
    pub algorithm: AlgorithmKind,
    /// Whether the session runs the incremental Theorem 2 path.
    pub incremental: bool,
    /// The last repaired verification verdict.
    pub report: VerificationReport,
    /// The shard grid backing the tenant as `(tiles_x, tiles_y)`, `None`
    /// when the tenant is unsharded (one tile).
    pub shard_grid: Option<(usize, usize)>,
    /// Occupied tiles at the last repair (`None` when unsharded).
    pub shard_occupied: Option<usize>,
    /// Live `(id, position)` pairs, ascending by id.
    pub positions: Vec<(SensorId, Point)>,
}

impl Snapshot {
    fn of(session: &DynamicSolverSession, revision: u64) -> Self {
        let inst = session.instance();
        let budget = session.budget();
        let positions: Vec<(SensorId, Point)> = inst
            .ids()
            .into_iter()
            .map(|id| (id, inst.point(id).expect("live id has a position")))
            .collect();
        Snapshot {
            revision,
            n: positions.len(),
            k: budget.k,
            phi: budget.phi,
            lmax: inst.lmax(),
            mst_weight: inst.mst_total_weight(),
            algorithm: session.algorithm(),
            incremental: session.is_incremental(),
            report: session.report().clone(),
            shard_grid: inst.shard_grid(),
            shard_occupied: inst.shard_occupied(),
            positions,
        }
    }

    /// The position of a live sensor id, if present in this snapshot.
    pub fn position_of(&self, id: SensorId) -> Option<Point> {
        self.positions
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|at| self.positions[at].1)
    }
}

/// Projected liveness of a tenant's id space: the session's live set with
/// the buffered (not yet repaired) edits applied on top.  Lets `EDIT`
/// validate ids immediately — and assign insert ids eagerly — without
/// running a repair.
#[derive(Debug)]
struct Projection {
    alive: Vec<bool>,
}

impl Projection {
    fn of(session: &DynamicSolverSession) -> Self {
        let mut alive = vec![false; session.instance().next_id()];
        for id in session.instance().ids() {
            alive[id] = true;
        }
        Projection { alive }
    }

    fn check_live(&self, id: SensorId) -> Result<(), ProtocolError> {
        if self.alive.get(id).copied().unwrap_or(false) {
            Ok(())
        } else {
            Err(ProtocolError::new(
                ErrorCode::UnknownSensor,
                format!("sensor id {id} is not live (or already removed by a buffered edit)"),
            ))
        }
    }
}

/// Mutable tenant state, serialized by the tenant's mutex.
struct TenantState {
    session: DynamicSolverSession,
    pending: Vec<Edit>,
    projection: Projection,
    revision: u64,
    /// The durable write-ahead log (`None` for ephemeral tenants).  Lives
    /// under the same mutex as the session so the log's content always
    /// equals the acknowledged edit history.
    wal: Option<TenantWal>,
    /// `Some(reason)` while the tenant is degraded to read-only after a
    /// storage fault.  Cleared only by [`Tenant::recover`].
    degraded: Option<String>,
}

/// One named deployment: a solver session, its edit buffer, the lock-free
/// snapshot and the per-tenant counters.
pub struct Tenant {
    name: String,
    state: Mutex<TenantState>,
    snapshot: RwLock<Arc<Snapshot>>,
    /// Buffered-edit count, readable without the state mutex.
    pending_count: AtomicUsize,
    /// Mirror of `TenantState::degraded`'s presence, readable without the
    /// state mutex (lock-free `STATS` and fast-path checks).
    degraded_flag: AtomicBool,
    /// Whether the tenant writes a WAL (fixed at construction).
    durable: bool,
    /// Per-tenant counters.
    pub stats: TenantStats,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("pending", &self.pending())
            .finish_non_exhaustive()
    }
}

/// What a flush (coalesced repair) reported, for response formatting.
pub struct FlushOutcome {
    /// The repair outcome (`applied == 0` when the buffer was empty).
    pub outcome: BatchOutcome,
    /// Live sensors after the repair.
    pub n: usize,
    /// `lmax` after the repair.
    pub lmax: f64,
    /// Snapshot revision after the repair.
    pub revision: u64,
}

impl Tenant {
    fn new(name: String, session: DynamicSolverSession, wal: Option<TenantWal>) -> Self {
        let snapshot = Arc::new(Snapshot::of(&session, 0));
        let projection = Projection::of(&session);
        let tenant = Tenant {
            name,
            durable: wal.is_some(),
            state: Mutex::new(TenantState {
                session,
                pending: Vec::new(),
                projection,
                revision: 0,
                wal,
                degraded: None,
            }),
            snapshot: RwLock::new(snapshot),
            pending_count: AtomicUsize::new(0),
            degraded_flag: AtomicBool::new(false),
            stats: TenantStats::default(),
        };
        if let Some(wal) = tenant
            .state
            .lock()
            .expect("tenant state lock poisoned")
            .wal
            .as_ref()
        {
            tenant.mirror_wal_stats(wal);
        }
        tenant
    }

    /// The tenant's registry key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns `true` when the tenant writes a WAL.
    pub fn durable(&self) -> bool {
        self.durable
    }

    /// Copies the WAL's counters into the lock-free stats mirror.
    fn mirror_wal_stats(&self, wal: &TenantWal) {
        self.stats
            .wal_records
            .store(wal.wal_records(), Ordering::Relaxed);
        self.stats
            .wal_bytes
            .store(wal.wal_bytes(), Ordering::Relaxed);
        self.stats
            .snapshots
            .store(wal.snapshots(), Ordering::Relaxed);
        if let Some(at) = wal.last_snapshot() {
            let at_ms = process_ms().saturating_sub(at.elapsed().as_millis() as u64);
            self.stats
                .last_snapshot_ms
                .store(at_ms + 1, Ordering::Relaxed);
        }
    }

    /// Flush + fsync the tenant's WAL, regardless of sync policy (clean
    /// shutdown).  A no-op for ephemeral tenants.  A sync failure degrades
    /// the tenant: some acknowledged records may not be durable yet, and the
    /// writer stays poisoned until recovery.
    pub fn sync_wal(&self) -> std::io::Result<()> {
        let mut state = self.state.lock().expect("tenant state lock poisoned");
        let result = match state.wal.as_mut() {
            Some(wal) => wal.sync(),
            None => Ok(()),
        };
        if let Err(e) = &result {
            let _ = self.degrade(&mut state, format!("wal sync failed: {e}"));
        }
        result
    }

    /// Puts the tenant into degraded-read-only mode and returns the
    /// structured error mutations should surface.  The reason sticks until
    /// [`Tenant::recover`] succeeds.
    fn degrade(&self, state: &mut TenantState, reason: String) -> ProtocolError {
        let err = ProtocolError::new(
            ErrorCode::Degraded,
            format!("deployment degraded to read-only ({reason}); RECOVER to retry"),
        );
        state.degraded = Some(reason);
        self.degraded_flag.store(true, Ordering::Release);
        err
    }

    /// Returns `true` while the tenant is degraded to read-only (lock-free).
    pub fn is_degraded(&self) -> bool {
        self.degraded_flag.load(Ordering::Acquire)
    }

    /// The reason the tenant is degraded, when it is.
    pub fn degraded_reason(&self) -> Option<String> {
        self.state
            .lock()
            .expect("tenant state lock poisoned")
            .degraded
            .clone()
    }

    /// Re-attempts the failed I/O behind a degraded tenant and, on success,
    /// returns it to full service.  Memory never diverged from the
    /// acknowledged history — the failing record was un-acknowledged by the
    /// WAL's poison discipline and every later mutation was rejected — so
    /// recovery is purely a storage-side repair
    /// ([`TenantWal::try_recover`]).  Idempotent: recovering a healthy
    /// tenant just re-syncs its log.
    pub fn recover(&self) -> Result<(), ProtocolError> {
        let mut state = self.state.lock().expect("tenant state lock poisoned");
        let recover_err = match state.wal.as_mut() {
            Some(wal) => wal.try_recover().err(),
            None => None,
        };
        if let Some(e) = recover_err {
            let reason = format!("recovery failed: {e}");
            return Err(self.degrade(&mut state, reason));
        }
        state.degraded = None;
        self.degraded_flag.store(false, Ordering::Release);
        if let Some(wal) = state.wal.as_ref() {
            self.mirror_wal_stats(wal);
        }
        Ok(())
    }

    /// Buffered edits not yet drained by a repair (lock-free read).
    pub fn pending(&self) -> usize {
        self.pending_count.load(Ordering::Acquire)
    }

    /// The last repaired snapshot (lock-free with respect to repairs).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshot
            .read()
            .expect("snapshot lock poisoned")
            .clone()
    }

    /// Runs `f` against the live solver session under the tenant mutex.
    /// This is how the concurrency oracle compares served state against a
    /// bare-session replay bit for bit; it is not part of the wire surface.
    pub fn with_session<R>(&self, f: impl FnOnce(&DynamicSolverSession) -> R) -> R {
        let state = self.state.lock().expect("tenant state lock poisoned");
        f(&state.session)
    }

    /// Like [`Tenant::with_session`] but with mutable access — the oracle
    /// suites need this to read the lazily rebuilt dense scheme/digraph
    /// mirrors ([`DynamicSolverSession::scheme`] takes `&mut self`).
    pub fn with_session_mut<R>(&self, f: impl FnOnce(&mut DynamicSolverSession) -> R) -> R {
        let mut state = self.state.lock().expect("tenant state lock poisoned");
        f(&mut state.session)
    }

    /// Validates one edit against the projected live set, logs it (durable
    /// tenants), and appends it to the buffer.  Returns the assigned id for
    /// inserts and the new buffered count.  No repair runs here.
    ///
    /// Ordering matters: validation must not mutate, and the WAL append
    /// happens *before* the in-memory buffer mutation — an edit is
    /// acknowledged only once the log holds it, and a storage failure
    /// leaves no trace in memory (it degrades the tenant instead).
    pub fn buffer_edit(&self, op: EditOp) -> Result<(Option<SensorId>, usize), ProtocolError> {
        let mut state = self.state.lock().expect("tenant state lock poisoned");
        if let Some(reason) = state.degraded.as_deref() {
            return Err(degraded_error(reason));
        }
        let (edit, inserted) = match op {
            EditOp::Insert(x, y) => {
                let id = state.projection.alive.len();
                (Edit::Insert(Point::new(x, y)), Some(id))
            }
            EditOp::Remove(id) => {
                state.projection.check_live(id)?;
                (Edit::Remove(id), None)
            }
            EditOp::Move(id, x, y) => {
                state.projection.check_live(id)?;
                (Edit::Move(id, Point::new(x, y)), None)
            }
        };
        let append_err = match state.wal.as_mut() {
            Some(wal) => wal.append_edit(&edit).err(),
            None => None,
        };
        if let Some(e) = append_err {
            // The WAL's poison discipline already un-acknowledged the
            // record; nothing was buffered, so memory and log agree on the
            // acknowledged history.  Degrade instead of retrying.
            return Err(self.degrade(&mut state, format!("wal append failed: {e}")));
        }
        match edit {
            Edit::Insert(_) => state.projection.alive.push(true),
            Edit::Remove(id) => state.projection.alive[id] = false,
            Edit::Move(..) => {}
        }
        state.pending.push(edit);
        let pending = state.pending.len();
        self.pending_count.store(pending, Ordering::Release);
        self.stats.edits_buffered.fetch_add(1, Ordering::Relaxed);
        if let Some(wal) = state.wal.as_ref() {
            self.mirror_wal_stats(wal);
        }
        Ok((inserted, pending))
    }

    /// Drains the edit buffer through **one** coalesced repair and publishes
    /// a fresh snapshot.  With an empty buffer this still refreshes the
    /// verdict (a cheap no-op repair), so `ORIENT` doubles as "make sure the
    /// published state is current".
    pub fn flush(&self) -> Result<FlushOutcome, ProtocolError> {
        let mut state = self.state.lock().expect("tenant state lock poisoned");
        if let Some(reason) = state.degraded.as_deref() {
            return Err(degraded_error(reason));
        }
        let edits = std::mem::take(&mut state.pending);
        self.pending_count.store(0, Ordering::Release);
        let applied = state.session.apply_coalesced(&edits);
        // Whatever happened, re-derive the projection from the session so
        // buffered-edit validation stays truthful (on the error path the
        // batch was rejected atomically and the projection simply rolls back
        // to the session's live set).
        state.projection = Projection::of(&state.session);
        let outcome = match applied {
            Ok(outcome) => {
                // The session holds the batch; the log may keep it.
                if let Some(wal) = state.wal.as_mut() {
                    wal.commit();
                }
                outcome
            }
            Err(e) => {
                // The batch was rejected atomically — the log must forget
                // it too, or recovery would replay edits the live session
                // never applied.  A failed rollback leaves the log holding
                // rejected records the session refused: that divergence is
                // exactly what degraded mode exists for.
                let rollback_err = match state.wal.as_mut() {
                    Some(wal) => wal.rollback().err(),
                    None => None,
                };
                if let Some(io) = rollback_err {
                    return Err(self.degrade(&mut state, format!("wal rollback failed: {io}")));
                }
                if let Some(wal) = state.wal.as_ref() {
                    self.mirror_wal_stats(wal);
                }
                return Err(map_orient_error(&e));
            }
        };
        state.revision += 1;
        let revision = state.revision;
        let snapshot = Arc::new(Snapshot::of(&state.session, revision));
        // Compaction: once the log outgrows its thresholds, absorb it into
        // a durable snapshot (the freshly built one already carries the
        // exact live set).  Failure is non-fatal — the WAL alone still
        // recovers — so it is counted, not surfaced.
        if state.wal.as_ref().is_some_and(TenantWal::needs_compaction) {
            let budget = state.session.budget();
            let next_id = state.session.instance().next_id();
            let live = snapshot.positions.clone();
            let wal = state.wal.as_mut().expect("compaction check held a wal");
            if wal.compact(budget.k, budget.phi, next_id, live).is_err() {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        // A compaction failure is non-fatal while the log stays healthy (the
        // WAL alone still recovers), but if it poisoned the writer or the
        // epoch bookkeeping the tenant must stop acknowledging mutations.
        // The repair itself succeeded and its edits are committed, so this
        // flush still publishes and returns `Ok`.
        let poison = state
            .wal
            .as_ref()
            .and_then(|w| w.poisoned().map(String::from));
        if let Some(reason) = poison {
            if state.degraded.is_none() {
                let _ = self.degrade(&mut state, reason);
            }
        }
        if let Some(wal) = state.wal.as_ref() {
            self.mirror_wal_stats(wal);
        }
        let (n, lmax) = (snapshot.n, snapshot.lmax);
        *self.snapshot.write().expect("snapshot lock poisoned") = snapshot;
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .edits_applied
            .fetch_add(outcome.applied as u64, Ordering::Relaxed);
        self.stats
            .max_batch
            .fetch_max(outcome.applied as u64, Ordering::Relaxed);
        self.stats
            .rows_recomputed
            .fetch_add(outcome.rows_recomputed as u64, Ordering::Relaxed);
        self.stats
            .mst_changed
            .fetch_add(outcome.mst_changed as u64, Ordering::Relaxed);
        Ok(FlushOutcome {
            outcome,
            n,
            lmax,
            revision,
        })
    }
}

/// The server-wide tenant map plus global counters.
#[derive(Default)]
pub struct Registry {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    /// Deployments ever created.
    pub created: AtomicU64,
    /// Deployments dropped.
    pub dropped: AtomicU64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registered deployment count.
    pub fn len(&self) -> usize {
        self.tenants.read().expect("registry lock poisoned").len()
    }

    /// Returns `true` when no deployment is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered deployment names, sorted (for `STATS` output stability).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tenants
            .read()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Returns `true` when a deployment with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tenants
            .read()
            .expect("registry lock poisoned")
            .contains_key(name)
    }

    /// Clones every tenant's `Arc` under one short read lock (shutdown
    /// sync, recovery bookkeeping).
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("registry lock poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Looks a tenant up, cloning its `Arc` under a short read lock.
    pub fn get(&self, name: &str) -> Result<Arc<Tenant>, ProtocolError> {
        self.tenants
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| {
                ProtocolError::new(
                    ErrorCode::UnknownDeployment,
                    format!("no deployment named {name:?}"),
                )
            })
    }

    /// Creates and registers an ephemeral deployment (no WAL, default
    /// [`ShardSpec::Auto`] sharding).
    pub fn create(
        &self,
        name: &str,
        budget: AntennaBudget,
        points: &[Point],
    ) -> Result<Arc<Tenant>, ProtocolError> {
        self.create_with_wal(name, budget, points, None, ShardSpec::default())
    }

    /// Creates and registers a deployment, optionally with a durable write
    /// handle, sharding its spatial substrate per `spec` (bit-exact to one
    /// tile — a pure cost knob).  The initial solve runs
    /// *outside* the map's write lock; only the name reservation is
    /// serialized.  On any error the `wal` handle is dropped (closing its
    /// file cleanly); removing the tenant's directory is the caller's
    /// cleanup.
    pub fn create_with_wal(
        &self,
        name: &str,
        budget: AntennaBudget,
        points: &[Point],
        wal: Option<TenantWal>,
        spec: ShardSpec,
    ) -> Result<Arc<Tenant>, ProtocolError> {
        // Reserve the name first so a concurrent duplicate CREATE fails fast
        // instead of paying a redundant solve.
        {
            let tenants = self.tenants.read().expect("registry lock poisoned");
            if tenants.contains_key(name) {
                return Err(ProtocolError::new(
                    ErrorCode::DuplicateDeployment,
                    format!("deployment {name:?} already exists"),
                ));
            }
        }
        let inst = DynamicInstance::new_sharded(points, spec).map_err(|e| map_orient_error(&e))?;
        let session = DynamicSolverSession::new(inst, budget).map_err(|e| map_orient_error(&e))?;
        let tenant = Arc::new(Tenant::new(name.to_string(), session, wal));
        let mut tenants = self.tenants.write().expect("registry lock poisoned");
        if tenants.contains_key(name) {
            // A racing CREATE won the name between our check and now.
            return Err(ProtocolError::new(
                ErrorCode::DuplicateDeployment,
                format!("deployment {name:?} already exists"),
            ));
        }
        tenants.insert(name.to_string(), tenant.clone());
        self.created.fetch_add(1, Ordering::Relaxed);
        Ok(tenant)
    }

    /// Registers a tenant rebuilt by crash recovery: an already-solved
    /// session plus its reopened write handle.  Boot-time only; a duplicate
    /// name (two recovery passes, or a race with `CREATE`) is refused.
    pub fn install_recovered(
        &self,
        name: &str,
        session: DynamicSolverSession,
        wal: TenantWal,
    ) -> Result<Arc<Tenant>, ProtocolError> {
        let tenant = Arc::new(Tenant::new(name.to_string(), session, Some(wal)));
        let mut tenants = self.tenants.write().expect("registry lock poisoned");
        if tenants.contains_key(name) {
            return Err(ProtocolError::new(
                ErrorCode::DuplicateDeployment,
                format!("deployment {name:?} already exists"),
            ));
        }
        tenants.insert(name.to_string(), tenant.clone());
        Ok(tenant)
    }

    /// Unregisters a deployment.  In-flight requests holding the tenant's
    /// `Arc` finish against the orphaned state.
    pub fn drop_tenant(&self, name: &str) -> Result<(), ProtocolError> {
        let removed = self
            .tenants
            .write()
            .expect("registry lock poisoned")
            .remove(name);
        match removed {
            Some(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            None => Err(ProtocolError::new(
                ErrorCode::UnknownDeployment,
                format!("no deployment named {name:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antennae_core::bounds::theorem2_spread_threshold;

    fn budget() -> AntennaBudget {
        AntennaBudget::new(2, theorem2_spread_threshold(2))
    }

    fn grid(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f64, (i % 3) as f64))
            .collect()
    }

    #[test]
    fn create_edit_flush_round_trip() {
        let reg = Registry::new();
        let tenant = reg.create("west", budget(), &grid(6)).unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(tenant.snapshot().n, 6);
        assert_eq!(tenant.snapshot().revision, 0);

        let (id, pending) = tenant.buffer_edit(EditOp::Insert(2.5, 2.5)).unwrap();
        assert_eq!(id, Some(6));
        assert_eq!(pending, 1);
        let (_, pending) = tenant.buffer_edit(EditOp::Move(0, 0.25, 0.25)).unwrap();
        assert_eq!(pending, 2);
        // The snapshot is still the pre-edit state…
        assert_eq!(tenant.snapshot().n, 6);
        assert_eq!(tenant.pending(), 2);

        let flushed = tenant.flush().unwrap();
        assert_eq!(flushed.outcome.applied, 2);
        assert_eq!(flushed.n, 7);
        assert_eq!(flushed.revision, 1);
        assert_eq!(tenant.pending(), 0);
        assert_eq!(tenant.snapshot().n, 7);
        assert!(tenant.snapshot().report.is_valid());
        assert_eq!(tenant.snapshot().position_of(6), Some(Point::new(2.5, 2.5)));
    }

    #[test]
    fn projection_rejects_buffered_dead_ids() {
        let reg = Registry::new();
        let tenant = reg.create("t", budget(), &grid(4)).unwrap();
        tenant.buffer_edit(EditOp::Remove(2)).unwrap();
        // Still buffered, but the projection already counts 2 as dead.
        let e = tenant.buffer_edit(EditOp::Move(2, 0.0, 0.0)).unwrap_err();
        assert_eq!(e.code, ErrorCode::UnknownSensor);
        // A buffered insert's id is usable by later buffered edits.
        let (id, _) = tenant.buffer_edit(EditOp::Insert(9.0, 9.0)).unwrap();
        tenant
            .buffer_edit(EditOp::Move(id.unwrap(), 8.0, 8.0))
            .unwrap();
        let flushed = tenant.flush().unwrap();
        assert_eq!(flushed.outcome.applied, 3);
        assert!(tenant.snapshot().report.is_valid());
    }

    #[test]
    fn duplicate_and_unknown_names() {
        let reg = Registry::new();
        reg.create("a", budget(), &grid(3)).unwrap();
        assert_eq!(
            reg.create("a", budget(), &grid(3)).unwrap_err().code,
            ErrorCode::DuplicateDeployment
        );
        assert_eq!(reg.get("b").unwrap_err().code, ErrorCode::UnknownDeployment);
        reg.drop_tenant("a").unwrap();
        assert_eq!(
            reg.drop_tenant("a").unwrap_err().code,
            ErrorCode::UnknownDeployment
        );
        assert!(reg.is_empty());
    }

    #[test]
    fn empty_create_grows_through_edits() {
        let reg = Registry::new();
        let tenant = reg.create("empty", budget(), &[]).unwrap();
        assert_eq!(tenant.snapshot().n, 0);
        assert!(tenant.snapshot().report.is_valid());
        for i in 0..5 {
            let (id, _) = tenant
                .buffer_edit(EditOp::Insert(i as f64, 0.5 * i as f64))
                .unwrap();
            assert_eq!(id, Some(i));
        }
        let flushed = tenant.flush().unwrap();
        assert_eq!(flushed.n, 5);
        assert!(tenant.snapshot().report.is_strongly_connected);
        // Drain back to zero: the empty deployment is defined to be valid.
        for i in 0..5 {
            tenant.buffer_edit(EditOp::Remove(i)).unwrap();
        }
        let drained = tenant.flush().unwrap();
        assert_eq!(drained.n, 0);
        assert!(tenant.snapshot().report.is_valid());
    }
}
