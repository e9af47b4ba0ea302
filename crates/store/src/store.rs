//! The directory-level durability API: one [`Store`] per `--data-dir`, one
//! subdirectory per tenant, and [`Store::recover`] to turn a directory tree
//! back into live [`DynamicSolverSession`]s after a restart.
//!
//! Lifecycle of a tenant directory:
//!
//! 1. **Birth** — [`Store::create_tenant`] makes `<root>/<name>/` and writes
//!    `wal.0.log` whose first record is `CREATE` (budget + seed points),
//!    synced unconditionally: the tenant's existence is never policy-soft.
//! 2. **Churn** — the serve layer appends one record per acknowledged `EDIT`
//!    via [`TenantWal::append_edit`], marks [`TenantWal::commit`] after each
//!    successful coalesced repair and [`TenantWal::rollback`] when a repair
//!    rejects its batch, keeping log content equal to applied history.
//! 3. **Compaction** — once the log outgrows the configured thresholds,
//!    [`TenantWal::compact`] snapshots the live state at epoch `e+1`,
//!    starts `wal.<e+1>.log` and deletes `wal.<e>.log` last, so a crash at
//!    any point leaves either (old snapshot, old log) or (new snapshot,
//!    empty new log) — never a double-apply.
//! 4. **Death** — [`Store::drop_tenant`] removes the directory.
//!
//! [`Store::recover`] is total over arbitrary directory contents: torn and
//! corrupt log tails are truncated to the salvaged prefix, stale epochs are
//! swept, and structurally broken tenants (corrupt snapshot, missing
//! `CREATE`) are reported as [`SkippedTenant`]s instead of failing the boot.

use crate::snapshot::{read_snapshot, SnapshotReadOutcome, SnapshotState};
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{read_wal, SyncPolicy, WalRecord, WalTail, WalWriter};
use antennae_core::dynamic::{DynamicSolverSession, Edit, SensorId};
use antennae_core::AntennaBudget;
use antennae_geometry::Point;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Tuning for a [`Store`]: how hard the WAL syncs and when it compacts.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// When appended records are fsynced (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Compact once the current log holds at least this many records.
    pub compact_records: u64,
    /// Compact once the current log holds at least this many bytes.
    pub compact_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            sync: SyncPolicy::EveryN(32),
            compact_records: 1024,
            compact_bytes: 1 << 20,
        }
    }
}

fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal.{epoch}.log"))
}

/// Parses `wal.<epoch>.log` file names (used to sweep stale epochs).
fn parse_wal_epoch(name: &str) -> Option<u64> {
    name.strip_prefix("wal.")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// One tenant's durable write handle: the current-epoch [`WalWriter`] plus
/// the compaction machinery.  Lives next to the tenant's live session (the
/// serve layer keeps both under the same mutex).
#[derive(Debug)]
pub struct TenantWal {
    dir: PathBuf,
    epoch: u64,
    writer: WalWriter,
    config: StoreConfig,
    vfs: Arc<dyn Vfs>,
    snapshots: u64,
    last_snapshot: Option<Instant>,
    /// `Some(reason)` after a compaction failed past its sync barrier: the
    /// in-memory epoch and the on-disk epoch may disagree, and only
    /// [`TenantWal::try_recover`]'s reconciliation may mutate again.
    compact_poison: Option<String>,
}

impl TenantWal {
    /// Appends one edit record under the configured sync policy.
    pub fn append_edit(&mut self, edit: &Edit) -> std::io::Result<()> {
        self.check_compact_poison()?;
        self.writer.append(&WalRecord::Edit(*edit))
    }

    fn check_compact_poison(&self) -> std::io::Result<()> {
        match &self.compact_poison {
            Some(reason) => Err(std::io::Error::other(format!("wal poisoned: {reason}"))),
            None => Ok(()),
        }
    }

    /// The poison reason if a previous I/O failure poisoned this handle —
    /// either the writer itself (failed append/sync) or an incomplete
    /// compaction.  The serve layer mirrors this as the tenant's degraded
    /// state.
    pub fn poisoned(&self) -> Option<&str> {
        self.compact_poison.as_deref().or(self.writer.poisoned())
    }

    /// Attempts to clear a poisoned handle.  For a poisoned writer this is
    /// the truncate/flush/sync cycle of [`WalWriter::try_recover`]; for an
    /// incomplete compaction it reconciles with the disk: if the new
    /// snapshot was published, roll the compaction **forward** (durable-sync
    /// the publish, switch to the new epoch's log, drop the superseded one);
    /// otherwise roll it **back** (sweep the leftovers, stay on the current
    /// epoch).  A no-op on a healthy handle; safe to retry on failure.
    pub fn try_recover(&mut self) -> std::io::Result<()> {
        self.writer.try_recover()?;
        if self.compact_poison.is_none() {
            return Ok(());
        }
        let published = matches!(
            read_snapshot(&self.dir.join("snapshot.bin"))?,
            SnapshotReadOutcome::Valid(s) if s.epoch == self.epoch + 1
        );
        if published {
            // The rename happened; make it durable before trusting it, then
            // adopt the new epoch.  The new log holds nothing (the tenant
            // was read-only from the moment the compaction failed), but
            // open it salvaging anyway — a torn create costs nothing here.
            self.vfs.sync_dir(&self.dir)?;
            let next_path = wal_path(&self.dir, self.epoch + 1);
            let salvage = read_wal(&next_path)?;
            let writer = WalWriter::open_salvaged_with(
                &*self.vfs,
                &next_path,
                self.config.sync,
                salvage.salvaged_bytes,
                salvage.records.len() as u64,
            )?;
            let old_path = wal_path(&self.dir, self.epoch);
            self.writer = writer;
            self.epoch += 1;
            self.snapshots += 1;
            self.last_snapshot = Some(Instant::now());
            let _ = std::fs::remove_file(old_path);
        } else {
            // The old (snapshot, log) pair is still authoritative; sweep
            // what the failed attempt left behind.
            let _ = std::fs::remove_file(self.dir.join("snapshot.tmp"));
            let _ = std::fs::remove_file(wal_path(&self.dir, self.epoch + 1));
        }
        self.compact_poison = None;
        Ok(())
    }

    /// Marks every appended record as applied (call after a successful
    /// coalesced repair).
    pub fn commit(&mut self) {
        self.writer.commit();
    }

    /// Discards records appended since the last commit (call when the
    /// session rejected the batch — the repair is atomic, so the log must
    /// forget the batch too).
    pub fn rollback(&mut self) -> std::io::Result<()> {
        self.writer.rollback_to_committed()
    }

    /// Flush + fsync regardless of policy (clean shutdown).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.writer.sync()
    }

    /// Records in the current-epoch log.
    pub fn wal_records(&self) -> u64 {
        self.writer.records()
    }

    /// Bytes in the current-epoch log (buffered included).
    pub fn wal_bytes(&self) -> u64 {
        self.writer.bytes()
    }

    /// Compactions performed over this handle's lifetime (recovery resets
    /// the count — it is a process-level statistic).
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// When this handle last compacted, if ever.
    pub fn last_snapshot(&self) -> Option<Instant> {
        self.last_snapshot
    }

    /// The current WAL epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` once the current log has outgrown either configured
    /// threshold; the serve layer checks this after every committed flush.
    pub fn needs_compaction(&self) -> bool {
        self.writer.records() >= self.config.compact_records
            || self.writer.bytes() >= self.config.compact_bytes
    }

    /// Compacts: snapshots the live state (`k`/`phi` budget, ascending
    /// `(id, point)` live set, `next_id` horizon) at epoch `e+1`, starts the
    /// next log and deletes the superseded one **last**.  On any error the
    /// old (snapshot, log) pair is still intact and recovery-consistent.
    pub fn compact(
        &mut self,
        k: usize,
        phi: f64,
        next_id: usize,
        live: Vec<(usize, Point)>,
    ) -> std::io::Result<()> {
        self.check_compact_poison()?;
        // Barrier: if the snapshot write crashes midway, recovery falls
        // back to the current log — it must hold every committed record.
        // A failure here poisons the *writer*; any later failure poisons
        // the *compaction* (the disk may or may not have published the new
        // epoch — only try_recover's reconciliation can tell).
        self.writer.sync()?;
        let state = SnapshotState {
            epoch: self.epoch + 1,
            k,
            phi,
            next_id,
            live,
        };
        if let Err(e) = self.publish_compaction(&state) {
            self.compact_poison = Some(format!("compaction failed: {e}"));
            return Err(e);
        }
        Ok(())
    }

    /// The non-idempotent half of a compaction: publish the snapshot,
    /// switch to the next epoch's log, delete the superseded one last.
    fn publish_compaction(&mut self, state: &SnapshotState) -> std::io::Result<()> {
        state.write_atomic_with(&*self.vfs, &self.dir)?;
        let next_path = wal_path(&self.dir, self.epoch + 1);
        // A crashed previous compaction could have left an empty next-epoch
        // log that recovery did not sweep (it only sweeps what it can see);
        // the snapshot supersedes it either way.
        let _ = std::fs::remove_file(&next_path);
        let old_path = wal_path(&self.dir, self.epoch);
        self.writer = WalWriter::create_with(&*self.vfs, &next_path, self.config.sync)?;
        self.epoch += 1;
        self.snapshots += 1;
        self.last_snapshot = Some(Instant::now());
        let _ = std::fs::remove_file(old_path);
        Ok(())
    }
}

/// A tenant [`Store::recover`] rebuilt.
#[derive(Debug)]
pub struct RecoveredTenant {
    /// The tenant's (directory) name.
    pub name: String,
    /// The fully rebuilt live session (budget available via
    /// [`DynamicSolverSession::budget`]).
    pub session: DynamicSolverSession,
    /// The reopened write handle, truncated to the salvaged prefix.
    pub wal: TenantWal,
    /// How the log's tail looked (anything but [`WalTail::Clean`] means a
    /// torn or corrupt tail was cut).
    pub wal_tail: WalTail,
    /// Bytes discarded past the salvaged prefix.
    pub lost_bytes: u64,
}

/// A tenant directory [`Store::recover`] could not rebuild (corrupt
/// snapshot, missing `CREATE`, inconsistent log).  The directory is left on
/// disk untouched for inspection.
#[derive(Debug, Clone)]
pub struct SkippedTenant {
    /// The tenant's (directory) name.
    pub name: String,
    /// Why recovery gave up on it.
    pub reason: String,
}

/// Everything [`Store::recover`] found, tenants sorted by name.
#[derive(Debug)]
pub struct Recovery {
    /// Successfully rebuilt tenants.
    pub tenants: Vec<RecoveredTenant>,
    /// Directories recovery refused to guess about.
    pub skipped: Vec<SkippedTenant>,
}

/// A durable data directory holding one subdirectory per tenant.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    config: StoreConfig,
    vfs: Arc<dyn Vfs>,
}

impl Store {
    /// Opens (creating if needed) a data directory on the real filesystem.
    pub fn open(root: impl Into<PathBuf>, config: StoreConfig) -> std::io::Result<Store> {
        Self::open_with_vfs(root, config, Arc::new(RealVfs))
    }

    /// Opens a data directory whose **write path** goes through `vfs` —
    /// the chaos suite's entry point (see [`crate::vfs::FaultVfs`]).
    /// Recovery-time reads stay on the real filesystem.
    pub fn open_with_vfs(
        root: impl Into<PathBuf>,
        config: StoreConfig,
        vfs: Arc<dyn Vfs>,
    ) -> std::io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Store { root, config, vfs })
    }

    /// The data directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    fn tenant_dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Creates a tenant directory and its epoch-0 log, whose first record
    /// is the `CREATE` (budget + seed deployment), synced unconditionally.
    /// Fails with `AlreadyExists` when the directory is already present —
    /// a name collision with a live, dropped-but-undeletable, or
    /// recovery-skipped tenant is never silently merged.
    pub fn create_tenant(
        &self,
        name: &str,
        k: usize,
        phi: f64,
        points: &[Point],
    ) -> std::io::Result<TenantWal> {
        let dir = self.tenant_dir(name);
        std::fs::create_dir(&dir)?;
        let mut writer = WalWriter::create_with(&*self.vfs, &wal_path(&dir, 0), self.config.sync)?;
        writer.append(&WalRecord::Create {
            k,
            phi,
            points: points.to_vec(),
        })?;
        writer.sync()?;
        writer.commit();
        Ok(TenantWal {
            dir,
            epoch: 0,
            writer,
            config: self.config,
            vfs: Arc::clone(&self.vfs),
            snapshots: 0,
            last_snapshot: None,
            compact_poison: None,
        })
    }

    /// Removes a tenant directory (idempotent: a missing directory is ok).
    pub fn drop_tenant(&self, name: &str) -> std::io::Result<()> {
        match std::fs::remove_dir_all(self.tenant_dir(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Walks every tenant directory and rebuilds each into a live session:
    /// one bulk build of the snapshot (if any), then the salvaged
    /// current-epoch log tail through **one** coalesced repair
    /// ([`DynamicSolverSession::replay`]).  Torn/corrupt tails are
    /// truncated, stale-epoch logs and leftover `snapshot.tmp` files are
    /// swept, and unrecoverable tenants land in [`Recovery::skipped`]
    /// rather than failing the call.
    pub fn recover(&self) -> std::io::Result<Recovery> {
        let mut tenants = Vec::new();
        let mut skipped = Vec::new();
        let mut names: Vec<(String, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue; // stray files in the root are not tenants
            }
            match entry.file_name().into_string() {
                Ok(name) => names.push((name, entry.path())),
                Err(raw) => skipped.push(SkippedTenant {
                    name: raw.to_string_lossy().into_owned(),
                    reason: "non-UTF-8 tenant directory name".to_string(),
                }),
            }
        }
        names.sort();
        for (name, dir) in names {
            match self.recover_tenant(&name, &dir) {
                Ok(Ok(tenant)) => tenants.push(tenant),
                Ok(Err(reason)) => skipped.push(SkippedTenant { name, reason }),
                Err(e) => skipped.push(SkippedTenant {
                    name,
                    reason: format!("i/o error: {e}"),
                }),
            }
        }
        Ok(Recovery { tenants, skipped })
    }

    /// One tenant's recovery.  `Ok(Err(reason))` = structurally
    /// unrecoverable (skip), `Err(_)` = environmental I/O failure.
    fn recover_tenant(
        &self,
        name: &str,
        dir: &Path,
    ) -> std::io::Result<Result<RecoveredTenant, String>> {
        // 1. Snapshot (or its absence) fixes the epoch and the base state.
        let snapshot = match read_snapshot(&dir.join("snapshot.bin"))? {
            SnapshotReadOutcome::Valid(state) => Some(state),
            SnapshotReadOutcome::Missing => None,
            SnapshotReadOutcome::Corrupt(why) => {
                return Ok(Err(format!("corrupt snapshot: {why}")))
            }
        };
        let epoch = snapshot.as_ref().map_or(0, |s| s.epoch);

        // 2. Salvage the current-epoch log.
        let log_path = wal_path(dir, epoch);
        let outcome = read_wal(&log_path)?;
        let mut records = outcome.records.into_iter();

        // 3. Base state: the snapshot, or the CREATE at the head of
        //    wal.0.log for a never-compacted tenant.
        let (budget, base, next_id): (AntennaBudget, Vec<(SensorId, Point)>, SensorId) =
            match &snapshot {
                Some(s) => (
                    AntennaBudget::new(s.k, s.phi),
                    s.live.clone(),
                    s.next_id,
                ),
                None => match records.next() {
                    Some(WalRecord::Create { k, phi, points }) => {
                        let n = points.len();
                        let base = points.into_iter().enumerate().collect();
                        (AntennaBudget::new(k, phi), base, n)
                    }
                    Some(_) => {
                        return Ok(Err(
                            "epoch-0 log does not start with a CREATE record".to_string()
                        ))
                    }
                    None => {
                        return Ok(Err(format!(
                            "no snapshot and no salvageable CREATE record ({:?} tail, {} of {} bytes salvaged)",
                            outcome.tail, outcome.salvaged_bytes, outcome.file_bytes
                        )))
                    }
                },
            };

        // 4. Tail edits: everything after the base.  A CREATE anywhere else
        //    is structurally impossible under our write path — refuse to
        //    guess.
        let mut tail: Vec<Edit> = Vec::new();
        for record in records {
            match record {
                WalRecord::Edit(edit) => tail.push(edit),
                WalRecord::Create { .. } => {
                    return Ok(Err("unexpected CREATE record mid-log".to_string()))
                }
            }
        }
        let salvaged_records = (tail.len() + usize::from(snapshot.is_none())) as u64;

        // 5. One bulk build plus one coalesced tail repair.
        let session = match DynamicSolverSession::replay(budget, &base, next_id, &tail) {
            Ok(session) => session,
            Err(e) => return Ok(Err(format!("replay failed: {e}"))),
        };

        // 6. Sweep stale epochs (crashed compactions) and tmp snapshots.
        let _ = std::fs::remove_file(dir.join("snapshot.tmp"));
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(file_epoch) = entry.file_name().to_str().and_then(parse_wal_epoch) {
                if file_epoch != epoch {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }

        // 7. Reopen the log for appending, cutting any torn/corrupt tail.
        let writer = WalWriter::open_salvaged_with(
            &*self.vfs,
            &log_path,
            self.config.sync,
            outcome.salvaged_bytes,
            salvaged_records,
        )?;
        Ok(Ok(RecoveredTenant {
            name: name.to_string(),
            session,
            wal: TenantWal {
                dir: dir.to_path_buf(),
                epoch,
                writer,
                config: self.config,
                vfs: Arc::clone(&self.vfs),
                snapshots: 0,
                last_snapshot: None,
                compact_poison: None,
            },
            wal_tail: outcome.tail,
            lost_bytes: outcome.file_bytes - outcome.salvaged_bytes,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("antennae-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn grid(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i % 4) as f64 * 3.0, (i / 4) as f64 * 2.0))
            .collect()
    }

    fn assert_sessions_bit_equal(a: &mut DynamicSolverSession, b: &mut DynamicSolverSession) {
        assert_eq!(a.instance().ids(), b.instance().ids());
        assert_eq!(a.instance().next_id(), b.instance().next_id());
        for id in a.instance().ids() {
            let pa = a.instance().point(id).unwrap();
            let pb = b.instance().point(id).unwrap();
            assert_eq!(pa.x.to_bits(), pb.x.to_bits());
            assert_eq!(pa.y.to_bits(), pb.y.to_bits());
        }
        assert_eq!(a.instance().lmax().to_bits(), b.instance().lmax().to_bits());
        assert_eq!(
            a.instance().mst_total_weight().to_bits(),
            b.instance().mst_total_weight().to_bits()
        );
        assert_eq!(a.algorithm(), b.algorithm());
        assert_eq!(a.scheme(), b.scheme());
        assert_eq!(a.digraph(), b.digraph());
        assert_eq!(
            a.report().is_strongly_connected,
            b.report().is_strongly_connected
        );
        assert_eq!(
            a.report().max_radius.to_bits(),
            b.report().max_radius.to_bits()
        );
    }

    #[test]
    fn create_append_recover_round_trip() {
        let root = tmp_root("round-trip");
        let store = Store::open(&root, StoreConfig::default()).unwrap();
        let seeds = grid(6);
        let budget = AntennaBudget::new(2, 5.0);

        let mut live =
            DynamicSolverSession::new(DynamicInstance::new(&seeds).unwrap(), budget).unwrap();
        let mut wal = store
            .create_tenant("alpha", budget.k, budget.phi, &seeds)
            .unwrap();
        let edits = vec![
            Edit::Insert(Point::new(10.0, 1.0)),
            Edit::Remove(2),
            Edit::Move(0, Point::new(-1.0, -1.0)),
        ];
        for e in &edits {
            wal.append_edit(e).unwrap();
        }
        live.apply_coalesced(&edits).unwrap();
        wal.commit();
        wal.sync().unwrap();
        drop(wal);

        let recovery = store.recover().unwrap();
        assert!(recovery.skipped.is_empty(), "{:?}", recovery.skipped);
        assert_eq!(recovery.tenants.len(), 1);
        let tenant = &recovery.tenants[0];
        assert_eq!(tenant.name, "alpha");
        assert_eq!(tenant.wal_tail, WalTail::Clean);
        assert_eq!(tenant.lost_bytes, 0);
        assert_eq!(tenant.wal.wal_records(), 4); // CREATE + 3 edits
        assert_sessions_bit_equal(&mut tenant.session.clone(), &mut live.clone());
    }

    #[test]
    fn compaction_supersedes_the_old_log_and_survives_recovery() {
        let root = tmp_root("compaction");
        let store = Store::open(
            &root,
            StoreConfig {
                sync: SyncPolicy::Never,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let seeds = grid(5);
        let budget = AntennaBudget::new(2, 5.0);
        let mut live =
            DynamicSolverSession::new(DynamicInstance::new(&seeds).unwrap(), budget).unwrap();
        let mut wal = store
            .create_tenant("beta", budget.k, budget.phi, &seeds)
            .unwrap();

        // Churn, compact, churn again.
        let first = vec![Edit::Insert(Point::new(9.0, 9.0)), Edit::Remove(1)];
        for e in &first {
            wal.append_edit(e).unwrap();
        }
        live.apply_coalesced(&first).unwrap();
        wal.commit();

        let live_set: Vec<(usize, Point)> = live
            .instance()
            .ids()
            .into_iter()
            .map(|id| (id, live.instance().point(id).unwrap()))
            .collect();
        wal.compact(budget.k, budget.phi, live.instance().next_id(), live_set)
            .unwrap();
        assert_eq!(wal.epoch(), 1);
        assert_eq!(wal.snapshots(), 1);
        assert_eq!(wal.wal_records(), 0);
        assert!(!wal_path(&root.join("beta"), 0).exists());
        assert!(root.join("beta/snapshot.bin").exists());

        let second = vec![Edit::Move(0, Point::new(0.5, 0.5))];
        for e in &second {
            wal.append_edit(e).unwrap();
        }
        live.apply_coalesced(&second).unwrap();
        wal.commit();
        wal.sync().unwrap();
        drop(wal);

        let recovery = store.recover().unwrap();
        assert!(recovery.skipped.is_empty(), "{:?}", recovery.skipped);
        let tenant = &recovery.tenants[0];
        assert_eq!(tenant.wal.epoch(), 1);
        assert_eq!(tenant.wal.wal_records(), 1);
        assert_sessions_bit_equal(&mut tenant.session.clone(), &mut live.clone());
    }

    #[test]
    fn stale_epoch_log_from_crashed_compaction_is_ignored_and_swept() {
        let root = tmp_root("stale-epoch");
        let store = Store::open(&root, StoreConfig::default()).unwrap();
        let seeds = grid(4);
        let budget = AntennaBudget::new(2, 5.0);
        let mut live =
            DynamicSolverSession::new(DynamicInstance::new(&seeds).unwrap(), budget).unwrap();
        let mut wal = store
            .create_tenant("gamma", budget.k, budget.phi, &seeds)
            .unwrap();
        let edits = vec![Edit::Insert(Point::new(7.0, 7.0))];
        for e in &edits {
            wal.append_edit(e).unwrap();
        }
        live.apply_coalesced(&edits).unwrap();
        wal.commit();

        // Simulate a compaction that crashed after the snapshot rename but
        // before deleting the old log: snapshot at epoch 1 exists, both
        // wal.0.log and wal.1.log exist, wal.0.log still holds records that
        // the snapshot already absorbed.
        let live_set: Vec<(usize, Point)> = live
            .instance()
            .ids()
            .into_iter()
            .map(|id| (id, live.instance().point(id).unwrap()))
            .collect();
        SnapshotState {
            epoch: 1,
            k: budget.k,
            phi: budget.phi,
            next_id: live.instance().next_id(),
            live: live_set,
        }
        .write_atomic(&root.join("gamma"))
        .unwrap();
        wal.sync().unwrap();
        drop(wal); // wal.0.log remains — the "crash" skipped the delete

        let recovery = store.recover().unwrap();
        assert!(recovery.skipped.is_empty(), "{:?}", recovery.skipped);
        let tenant = &recovery.tenants[0];
        assert_eq!(tenant.wal.epoch(), 1);
        assert_eq!(tenant.wal.wal_records(), 0, "stale records not re-applied");
        assert_sessions_bit_equal(&mut tenant.session.clone(), &mut live.clone());
        assert!(
            !wal_path(&root.join("gamma"), 0).exists(),
            "stale epoch swept"
        );
    }

    #[test]
    fn duplicate_tenant_dir_is_rejected_at_create() {
        let root = tmp_root("duplicate");
        let store = Store::open(&root, StoreConfig::default()).unwrap();
        store.create_tenant("delta", 2, 5.0, &grid(3)).unwrap();
        let err = store.create_tenant("delta", 2, 5.0, &grid(3)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn drop_tenant_removes_the_directory_and_is_idempotent() {
        let root = tmp_root("drop");
        let store = Store::open(&root, StoreConfig::default()).unwrap();
        store.create_tenant("eps", 2, 5.0, &grid(3)).unwrap();
        assert!(root.join("eps").exists());
        store.drop_tenant("eps").unwrap();
        assert!(!root.join("eps").exists());
        store.drop_tenant("eps").unwrap(); // second drop: no-op
        assert!(store.recover().unwrap().tenants.is_empty());
    }

    #[test]
    fn rollback_keeps_log_equal_to_applied_history() {
        let root = tmp_root("rollback");
        let store = Store::open(&root, StoreConfig::default()).unwrap();
        let seeds = grid(4);
        let budget = AntennaBudget::new(2, 5.0);
        let mut live =
            DynamicSolverSession::new(DynamicInstance::new(&seeds).unwrap(), budget).unwrap();
        let mut wal = store
            .create_tenant("zeta", budget.k, budget.phi, &seeds)
            .unwrap();

        // A batch the session rejects (dead id): log it, watch the repair
        // fail, roll the log back.
        let bad = vec![Edit::Insert(Point::new(1.0, 8.0)), Edit::Remove(99)];
        for e in &bad {
            wal.append_edit(e).unwrap();
        }
        assert!(live.apply_coalesced(&bad).is_err());
        wal.rollback().unwrap();

        let good = vec![Edit::Insert(Point::new(1.0, 8.0))];
        for e in &good {
            wal.append_edit(e).unwrap();
        }
        live.apply_coalesced(&good).unwrap();
        wal.commit();
        wal.sync().unwrap();
        drop(wal);

        let recovery = store.recover().unwrap();
        assert!(recovery.skipped.is_empty(), "{:?}", recovery.skipped);
        assert_sessions_bit_equal(&mut recovery.tenants[0].session.clone(), &mut live.clone());
    }

    use antennae_core::DynamicInstance;
}
