//! The transport-independent service core: parse a request line, execute it
//! against the [`Registry`], format a response line.
//!
//! Both front doors share this type: the TCP server
//! ([`crate::server::Server`]) feeds it socket lines, the in-process client
//! ([`crate::client::LocalClient`]) calls it directly — which is what the
//! protocol robustness suite, the concurrency oracle and the `serve` bench
//! drive, so the tested surface is exactly the served surface.

use crate::protocol::{parse_request, EditOp, ErrorCode, Request, Response, MAX_CREATE_POINTS};
use crate::registry::{process_ms, storage_error, Registry, Tenant};
use antennae_core::antenna::AntennaBudget;
use antennae_core::shard::ShardSpec;
use antennae_core::solver::Registry as AlgorithmRegistry;
use antennae_geometry::Point;
use antennae_store::{Store, WalTail};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Server-wide request counters.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Request lines handled (OK and ERR alike).
    pub requests: AtomicU64,
    /// Requests answered with a structured error.
    pub errors: AtomicU64,
    /// Edits buffered across all tenants.
    pub edits_buffered: AtomicU64,
    /// Coalesced repairs run across all tenants.
    pub batches: AtomicU64,
    /// Connections refused at the worker-pool queue cap (`overloaded`).
    pub shed_requests: AtomicU64,
    /// Connections evicted by the read/write deadline (slow-loris defence).
    pub timed_out_connections: AtomicU64,
}

/// Per-connection protocol state.  The TCP server keeps one per socket,
/// [`crate::client::LocalClient`] keeps one per client; the ctx-free
/// [`Service::handle_line`] fabricates a fresh one per line (authenticated
/// only when no token is configured).
#[derive(Debug, Clone)]
pub struct ConnState {
    authenticated: bool,
}

impl ConnState {
    /// Whether the connection may issue verbs beyond `PING`/`AUTH`.
    pub fn authenticated(&self) -> bool {
        self.authenticated
    }
}

/// Length-gated constant-time token comparison (no early exit on the first
/// differing byte, so response timing does not leak a prefix match).
fn token_matches(expected: &str, got: &str) -> bool {
    expected.len() == got.len()
        && expected
            .bytes()
            .zip(got.bytes())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
}

/// What [`Service::open_durable`] found on disk at boot.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Names of the tenants rebuilt and re-registered, sorted.
    pub recovered: Vec<String>,
    /// Tenants recovery refused to rebuild, as `(name, reason)` — their
    /// directories are left on disk untouched.
    pub skipped: Vec<(String, String)>,
    /// Tenants whose log had a torn or corrupt tail that was truncated.
    pub truncated_tails: usize,
    /// Total bytes discarded across all truncated tails.
    pub lost_bytes: u64,
}

/// The multi-tenant orientation service (see the [module docs](self)).
#[derive(Default)]
pub struct Service {
    registry: Registry,
    stats: ServiceStats,
    shutdown: AtomicBool,
    /// The durability layer (`None` = ephemeral mode, the default).
    store: Option<Store>,
    /// Tenants rebuilt from disk at boot.
    recovered: AtomicU64,
    /// When set, connections must `AUTH <token>` before any verb other than
    /// `PING` (configured before the service is shared).
    auth_token: Option<String>,
    /// When set, caps each tenant's buffered-edit queue: `EDIT` beyond the
    /// cap is rejected with `overloaded` until a repair drains the buffer.
    tenant_quota: Option<usize>,
    /// Spatial-sharding policy applied to every tenant at creation
    /// (bit-exact to the one-tile index; a pure cost knob).
    shard_spec: ShardSpec,
}

impl Service {
    /// An empty, ephemeral service (no durability).
    pub fn new() -> Self {
        Service::default()
    }

    /// Opens a durable service over `store`'s data directory: every tenant
    /// directory is recovered into a live session (one bulk build of the
    /// snapshot + one coalesced replay of the salvaged WAL tail each) and
    /// re-registered, and every subsequent `CREATE`/`EDIT`/`DROP` is logged.
    /// Recovered and created tenants alike shard per the store's
    /// [`StoreConfig::shards`](antennae_store::StoreConfig::shards).
    /// Structurally broken tenant directories are skipped (reported in the
    /// [`RecoveryReport`]), torn log tails are truncated — boot never
    /// panics on bad bytes.
    pub fn open_durable(store: Store) -> std::io::Result<(Self, RecoveryReport)> {
        let recovery = store.recover()?;
        let service = Service {
            shard_spec: store.config().shards,
            store: Some(store),
            ..Service::default()
        };
        let mut report = RecoveryReport::default();
        for tenant in recovery.tenants {
            if tenant.wal_tail != WalTail::Clean {
                report.truncated_tails += 1;
                report.lost_bytes += tenant.lost_bytes;
            }
            match service
                .registry
                .install_recovered(&tenant.name, tenant.session, tenant.wal)
            {
                Ok(_) => report.recovered.push(tenant.name),
                Err(e) => report.skipped.push((tenant.name, e.message)),
            }
        }
        report
            .skipped
            .extend(recovery.skipped.into_iter().map(|s| (s.name, s.reason)));
        service
            .recovered
            .store(report.recovered.len() as u64, Ordering::Relaxed);
        Ok((service, report))
    }

    /// Requires `AUTH <token>` on every connection before any verb other
    /// than `PING`.  `None` (the default) disables authentication.  Set
    /// before the service is shared across threads.
    pub fn set_auth_token(&mut self, token: Option<String>) {
        self.auth_token = token;
    }

    /// Caps each tenant's buffered-edit queue: once `pending` reaches the
    /// quota, further `EDIT`s are rejected with `overloaded` (and a
    /// retry-after hint) until `ORIENT`/`VERIFY` drains the buffer.  `None`
    /// (the default) disables the quota.
    pub fn set_tenant_quota(&mut self, quota: Option<usize>) {
        self.tenant_quota = quota;
    }

    /// The configured per-tenant pending-edit quota, if any.
    pub fn tenant_quota(&self) -> Option<usize> {
        self.tenant_quota
    }

    /// Sets the sharding policy — the tile grid of the spatial index — for
    /// tenants created from now on (the `--shards auto|N|off` flag); their
    /// MST is the global build either way.  Set before the service is
    /// shared; a durable service takes it from its store's configuration,
    /// which recovery builds with too.
    pub fn set_shard_spec(&mut self, spec: ShardSpec) {
        self.shard_spec = spec;
    }

    /// The sharding policy applied at tenant creation.
    pub fn shard_spec(&self) -> ShardSpec {
        self.shard_spec
    }

    /// A fresh per-connection state: already authenticated when no token is
    /// configured, otherwise gated until a successful `AUTH`.
    pub fn new_conn(&self) -> ConnState {
        ConnState {
            authenticated: self.auth_token.is_none(),
        }
    }

    /// The durability layer, when the service runs durable.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// The tenant registry (tests and the bench reach through for setup).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Server-wide counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Returns `true` once a `SHUTDOWN` request was accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Flips the shutdown flag directly (the wire-level `SHUTDOWN` verb does
    /// the same; this is for hosts that own the service in process).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Handles one request line end to end, returning the response line
    /// (without the trailing newline).  Never panics: malformed input maps
    /// to `ERR` lines (pinned by `tests/protocol_robustness.rs`).  Each call
    /// gets a fresh [`ConnState`], so with a token configured this entry
    /// point can only `PING` — hosts with real connections use
    /// [`Service::handle_line_on`].
    pub fn handle_line(&self, line: &str) -> String {
        let mut conn = self.new_conn();
        self.handle_line_on(line, &mut conn)
    }

    /// Handles one request line against a connection's state (see
    /// [`Service::handle_line`] for the response contract).
    pub fn handle_line_on(&self, line: &str, conn: &mut ConnState) -> String {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let response = match parse_request(line) {
            Ok(request) => self.execute_on(request, conn),
            Err(e) => Response::Err(e),
        };
        if !response.is_ok() {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        response.to_line()
    }

    /// Executes one parsed request against a fresh connection state (tests
    /// and in-process hosts that don't track authentication).
    pub fn execute(&self, request: Request) -> Response {
        let mut conn = self.new_conn();
        self.execute_on(request, &mut conn)
    }

    /// Executes one parsed request against a connection's state.
    pub fn execute_on(&self, request: Request, conn: &mut ConnState) -> Response {
        // Authentication gates everything except liveness checks and the
        // AUTH verb itself — an unauthenticated connection learns nothing
        // about the deployment set.
        if !conn.authenticated && !matches!(request, Request::Ping | Request::Auth { .. }) {
            return Response::err(
                ErrorCode::Unauthorized,
                "authenticate with AUTH <token> first",
            );
        }
        if self.shutdown_requested() && !matches!(request, Request::Ping | Request::Stats { .. }) {
            return Response::err(ErrorCode::ShuttingDown, "server is shutting down");
        }
        match request {
            Request::Create {
                name,
                k,
                phi,
                points,
            } => self.create(&name, k, phi, &points),
            Request::Edit { name, op } => self.edit(&name, op),
            Request::Orient { name } => self.orient(&name),
            Request::Verify { name } => self.verify(&name),
            Request::Query { name, id } => self.query(&name, id),
            Request::Stats { name } => self.stats_response(name.as_deref()),
            Request::Drop { name } => self.drop_deployment(&name),
            Request::Recover { name } => self.recover(&name),
            Request::Auth { token } => self.auth(&token, conn),
            Request::Ping => Response::ok("pong"),
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::Release);
                // Clean shutdown promises durability regardless of the sync
                // policy: fsync every tenant's log before acknowledging.
                // Failures downgrade the promise, so they are surfaced.
                // Degraded tenants are skipped — their log can't be synced
                // until RECOVER, and the poison discipline already capped
                // what the log acknowledges.
                for tenant in self.registry.tenants() {
                    if tenant.is_degraded() {
                        continue;
                    }
                    if let Err(e) = tenant.sync_wal() {
                        return Response::Err(storage_error(
                            &format!("wal sync for {:?} at shutdown", tenant.name()),
                            &e,
                        ));
                    }
                }
                Response::ok("shutting-down")
            }
        }
    }

    fn create(&self, name: &str, k: usize, phi: f64, points: &[(f64, f64)]) -> Response {
        if points.len() > MAX_CREATE_POINTS {
            return Response::err(
                ErrorCode::TooLarge,
                format!("CREATE carries more than {MAX_CREATE_POINTS} points"),
            );
        }
        let budget = AntennaBudget::new(k, phi);
        // Reject budgets no registered construction serves *before* building
        // the tenant, so `CREATE` fails fast with a budget error instead of
        // a solver error halfway through session construction.  (k = 0 or
        // k > 5 land here too: no paper construction covers them.)
        if AlgorithmRegistry::paper().best_guarantee(&budget).is_none() {
            return Response::err(
                ErrorCode::BadBudget,
                format!("no registered construction serves k={k} phi={phi:.4}"),
            );
        }
        let pts: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let created = match &self.store {
            None => self
                .registry
                .create_with_wal(name, budget, &pts, None, self.shard_spec),
            Some(store) => {
                // Fail duplicates fast before touching the disk; the
                // registry re-checks under its write lock, so a race still
                // resolves correctly (the loser cleans its directory up).
                if self.registry.contains(name) {
                    Err(crate::protocol::ProtocolError::new(
                        ErrorCode::DuplicateDeployment,
                        format!("deployment {name:?} already exists"),
                    ))
                } else {
                    match store.create_tenant(name, k, phi, &pts) {
                        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                            Err(crate::protocol::ProtocolError::new(
                                ErrorCode::DuplicateDeployment,
                                format!("deployment {name:?} already exists on disk"),
                            ))
                        }
                        Err(e) => Err(storage_error("create tenant directory", &e)),
                        Ok(wal) => self
                            .registry
                            .create_with_wal(name, budget, &pts, Some(wal), self.shard_spec)
                            .inspect_err(|_| {
                                // The solve or the name race failed after the
                                // directory was written: remove it so the bad
                                // CREATE leaves no durable trace.
                                let _ = store.drop_tenant(name);
                            }),
                    }
                }
            }
        };
        match created {
            Ok(tenant) => {
                let snap = tenant.snapshot();
                Response::ok(format!(
                    "created {name} n={} k={k} phi={phi:.6} algo={} incremental={} valid={}",
                    snap.n,
                    snap.algorithm,
                    snap.incremental,
                    snap.report.is_valid()
                ))
            }
            Err(e) => Response::Err(e),
        }
    }

    fn drop_deployment(&self, name: &str) -> Response {
        // The registry is authoritative: unregister first so no new request
        // can reach the tenant, then remove its directory.  A directory
        // removal failure is reported (the name is free again, but a restart
        // would resurrect the tenant from the leftover files).
        if let Err(e) = self.registry.drop_tenant(name) {
            return Response::Err(e);
        }
        if let Some(store) = &self.store {
            if let Err(e) = store.drop_tenant(name) {
                return Response::Err(storage_error(
                    &format!("dropped {name} from the registry, but removing its directory failed"),
                    &e,
                ));
            }
        }
        Response::ok(format!("dropped {name}"))
    }

    fn with_tenant(&self, name: &str, f: impl FnOnce(&Arc<Tenant>) -> Response) -> Response {
        match self.registry.get(name) {
            Ok(tenant) => {
                let response = f(&tenant);
                if !response.is_ok() {
                    tenant.stats.errors.fetch_add(1, Ordering::Relaxed);
                }
                response
            }
            Err(e) => Response::Err(e),
        }
    }

    fn auth(&self, token: &str, conn: &mut ConnState) -> Response {
        match self.auth_token.as_deref() {
            None => {
                conn.authenticated = true;
                Response::ok("auth ok no-token-configured")
            }
            Some(expected) if token_matches(expected, token) => {
                conn.authenticated = true;
                Response::ok("auth ok")
            }
            Some(_) => Response::err(ErrorCode::Unauthorized, "bad token"),
        }
    }

    fn recover(&self, name: &str) -> Response {
        self.with_tenant(name, |tenant| match tenant.recover() {
            Ok(()) => Response::ok(format!(
                "recover {name} degraded=false pending={}",
                tenant.pending()
            )),
            Err(e) => Response::Err(e),
        })
    }

    fn edit(&self, name: &str, op: EditOp) -> Response {
        self.with_tenant(name, |tenant| {
            // The quota is a soft bound read without the tenant mutex: a
            // racing burst can land a few edits past it, but the buffer
            // stays O(quota) and the rejection is cheap (no lock, no I/O).
            if let Some(quota) = self.tenant_quota {
                if tenant.pending() >= quota {
                    tenant
                        .stats
                        .quota_rejections
                        .fetch_add(1, Ordering::Relaxed);
                    return Response::err(
                        ErrorCode::Overloaded,
                        format!(
                            "pending-edit quota reached ({quota} buffered); \
                             drain with ORIENT retry-after-ms=100"
                        ),
                    );
                }
            }
            match tenant.buffer_edit(op) {
                Ok((inserted, pending)) => {
                    self.stats.edits_buffered.fetch_add(1, Ordering::Relaxed);
                    match inserted {
                        Some(id) => Response::ok(format!("edit {name} id={id} pending={pending}")),
                        None => Response::ok(format!("edit {name} pending={pending}")),
                    }
                }
                Err(e) => Response::Err(e),
            }
        })
    }

    fn orient(&self, name: &str) -> Response {
        self.with_tenant(name, |tenant| match tenant.flush() {
            Ok(flushed) => {
                self.stats.batches.fetch_add(1, Ordering::Relaxed);
                let o = &flushed.outcome;
                Response::ok(format!(
                    "orient {name} n={} applied={} algo={} incremental={} mst_changed={} \
                     rows={} valid={} radius={:.6} radius_over_lmax={:.6} revision={}",
                    flushed.n,
                    o.applied,
                    o.algorithm,
                    o.incremental_orientation,
                    o.mst_changed,
                    o.rows_recomputed,
                    o.report.is_valid(),
                    o.report.max_radius,
                    o.measured_radius_over_lmax,
                    flushed.revision,
                ))
            }
            Err(e) => Response::Err(e),
        })
    }

    fn verify(&self, name: &str) -> Response {
        self.with_tenant(name, |tenant| {
            // A degraded tenant keeps serving reads: report the last
            // published snapshot (stale but self-consistent) instead of
            // flushing, and say so on the wire.
            if tenant.is_degraded() {
                let snap = tenant.snapshot();
                let r = &snap.report;
                return Response::ok(format!(
                    "verify {name} n={} valid={} strongly_connected={} scc={} edges={} \
                     max_radius={:.6} radius_over_lmax={:.6} spread={:.6} antennas={} \
                     violations={} revision={} degraded=true stale=true",
                    snap.n,
                    r.is_valid(),
                    r.is_strongly_connected,
                    r.scc_count,
                    r.edge_count,
                    r.max_radius,
                    r.max_radius_over_lmax,
                    r.max_spread_sum,
                    r.max_antenna_count,
                    r.violations.len(),
                    snap.revision,
                ));
            }
            match tenant.flush() {
                Ok(flushed) => {
                    self.stats.batches.fetch_add(1, Ordering::Relaxed);
                    let r = &flushed.outcome.report;
                    Response::ok(format!(
                        "verify {name} n={} valid={} strongly_connected={} scc={} edges={} \
                     max_radius={:.6} radius_over_lmax={:.6} spread={:.6} antennas={} \
                     violations={} revision={}",
                        flushed.n,
                        r.is_valid(),
                        r.is_strongly_connected,
                        r.scc_count,
                        r.edge_count,
                        r.max_radius,
                        r.max_radius_over_lmax,
                        r.max_spread_sum,
                        r.max_antenna_count,
                        r.violations.len(),
                        flushed.revision,
                    ))
                }
                Err(e) => Response::Err(e),
            }
        })
    }

    fn query(&self, name: &str, id: Option<usize>) -> Response {
        self.with_tenant(name, |tenant| {
            tenant.stats.queries.fetch_add(1, Ordering::Relaxed);
            let snap = tenant.snapshot();
            match id {
                None => Response::ok(format!(
                    "query {name} n={} pending={} revision={} lmax={:.6} mst_weight={:.6} \
                     algo={} valid={} strongly_connected={} edges={}",
                    snap.n,
                    tenant.pending(),
                    snap.revision,
                    snap.lmax,
                    snap.mst_weight,
                    snap.algorithm,
                    snap.report.is_valid(),
                    snap.report.is_strongly_connected,
                    snap.report.edge_count,
                )),
                Some(id) => match snap.position_of(id) {
                    Some(p) => Response::ok(format!(
                        "query {name} id={id} x={:.6} y={:.6} revision={}",
                        p.x, p.y, snap.revision
                    )),
                    None => Response::err(
                        ErrorCode::UnknownSensor,
                        format!(
                            "sensor id {id} is not live in snapshot revision {}",
                            snap.revision
                        ),
                    ),
                },
            }
        })
    }

    fn stats_response(&self, name: Option<&str>) -> Response {
        match name {
            None => {
                let degraded_tenants = self
                    .registry
                    .tenants()
                    .iter()
                    .filter(|t| t.is_degraded())
                    .count();
                Response::ok(format!(
                    "stats deployments={} created={} dropped={} recovered={} requests={} \
                     errors={} edits_buffered={} batches={} shed_requests={} \
                     timed_out_connections={} degraded_tenants={}",
                    self.registry.len(),
                    self.registry.created.load(Ordering::Relaxed),
                    self.registry.dropped.load(Ordering::Relaxed),
                    self.recovered.load(Ordering::Relaxed),
                    self.stats.requests.load(Ordering::Relaxed),
                    self.stats.errors.load(Ordering::Relaxed),
                    self.stats.edits_buffered.load(Ordering::Relaxed),
                    self.stats.batches.load(Ordering::Relaxed),
                    self.stats.shed_requests.load(Ordering::Relaxed),
                    self.stats.timed_out_connections.load(Ordering::Relaxed),
                    degraded_tenants,
                ))
            }
            Some(name) => self.with_tenant(name, |tenant| {
                let s = &tenant.stats;
                let snap = tenant.snapshot();
                let last_snapshot = match s.last_snapshot_ms.load(Ordering::Relaxed) {
                    0 => "none".to_string(),
                    stored => process_ms().saturating_sub(stored - 1).to_string(),
                };
                let shards = match snap.shard_grid {
                    Some((x, y)) => format!("{x}x{y}"),
                    None => "off".to_string(),
                };
                Response::ok(format!(
                    "stats {name} n={} pending={} revision={} edits_buffered={} \
                     edits_applied={} batches={} max_batch={} rows_recomputed={} \
                     mst_changed={} queries={} errors={} durable={} wal_records={} \
                     wal_bytes={} snapshots={} last_snapshot_age_ms={} \
                     quota_rejections={} degraded={} shards={shards} shard_occupied={}",
                    snap.n,
                    tenant.pending(),
                    snap.revision,
                    s.edits_buffered.load(Ordering::Relaxed),
                    s.edits_applied.load(Ordering::Relaxed),
                    s.batches.load(Ordering::Relaxed),
                    s.max_batch.load(Ordering::Relaxed),
                    s.rows_recomputed.load(Ordering::Relaxed),
                    s.mst_changed.load(Ordering::Relaxed),
                    s.queries.load(Ordering::Relaxed),
                    s.errors.load(Ordering::Relaxed),
                    tenant.durable(),
                    s.wal_records.load(Ordering::Relaxed),
                    s.wal_bytes.load(Ordering::Relaxed),
                    s.snapshots.load(Ordering::Relaxed),
                    last_snapshot,
                    s.quota_rejections.load(Ordering::Relaxed),
                    tenant.is_degraded(),
                    snap.shard_occupied.unwrap_or(0),
                ))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::payload_field;
    use antennae_core::bounds::theorem2_spread_threshold;

    fn t2(k: usize) -> f64 {
        theorem2_spread_threshold(k)
    }

    #[test]
    fn end_to_end_session_over_handle_line() {
        let svc = Service::new();
        let phi = t2(2);
        let created = svc.handle_line(&format!("CREATE west 2 {phi} 0 0 1 0 2 0.5 1.5 1.5"));
        assert!(created.starts_with("OK created west n=4"), "{created}");

        let buffered = svc.handle_line("EDIT west INSERT 0.5 0.75");
        assert_eq!(buffered, "OK edit west id=4 pending=1");
        let oriented = svc.handle_line("ORIENT west");
        assert!(
            oriented.starts_with("OK orient west n=5 applied=1"),
            "{oriented}"
        );
        let payload = oriented.strip_prefix("OK ").unwrap();
        assert_eq!(payload_field(payload, "valid"), Some("true"));
        assert_eq!(payload_field(payload, "incremental"), Some("true"));

        let verified = svc.handle_line("VERIFY west");
        assert!(verified.contains("strongly_connected=true"), "{verified}");

        let q = svc.handle_line("QUERY west 4");
        assert!(q.starts_with("OK query west id=4 x=0.5"), "{q}");

        let stats = svc.handle_line("STATS west");
        assert!(stats.contains("edits_applied=1"), "{stats}");

        assert_eq!(svc.handle_line("DROP west"), "OK dropped west");
        assert!(svc
            .handle_line("QUERY west")
            .starts_with("ERR unknown-deployment"));
    }

    #[test]
    fn bad_budgets_fail_fast() {
        let svc = Service::new();
        assert!(svc
            .handle_line("CREATE a 0 1.0")
            .starts_with("ERR bad-budget"));
        assert!(svc
            .handle_line("CREATE a 9 1.0")
            .starts_with("ERR bad-budget"));
        // Nothing was created along the way.
        assert!(svc.registry().is_empty());
    }

    #[test]
    fn shutdown_gates_new_work() {
        let svc = Service::new();
        assert_eq!(svc.handle_line("SHUTDOWN"), "OK shutting-down");
        assert!(svc.shutdown_requested());
        assert!(svc
            .handle_line("CREATE a 2 3.8")
            .starts_with("ERR shutting-down"));
        // Liveness and stats still answer during drain.
        assert_eq!(svc.handle_line("PING"), "OK pong");
        assert!(svc.handle_line("STATS").starts_with("OK stats"));
    }
}
