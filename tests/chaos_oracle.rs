//! The chaos oracle: `orientd` under injected I/O faults, overload and
//! hostile clients must **degrade gracefully and lose nothing it
//! acknowledged**.
//!
//! Storage chaos drives a durable [`Service`] whose store writes through a
//! [`FaultVfs`] running a deterministic [`FaultScript`] (disk-full, fsync
//! failure, short writes, slow I/O at scheduled operation indices).  The
//! invariants, checked against a bare [`DynamicSolverSession`] oracle that
//! serially applies exactly the acknowledged edits:
//!
//! * an edit is acknowledged only if the log durably holds it — a fault on
//!   the append/sync path un-acknowledges the edit and flips the tenant to
//!   degraded-read-only (`ERR degraded` on mutations);
//! * degraded tenants keep serving `QUERY`/`VERIFY` from the last published
//!   snapshot (stale but self-consistent);
//! * after `RECOVER` (or a restart), the served state is bit-equal
//!   (`f64::to_bits` on geometry, exact equality on scheme/digraph/report)
//!   to a never-faulted session that applied the same acknowledged history.
//!
//! Network chaos drives the real TCP server: a bounded worker queue sheds
//! with `ERR overloaded` + a retry hint, and read deadlines evict
//! slow-loris connections.
//!
//! The seeded sweep runs the pinned `CHAOS_SEEDS` below; set the
//! `CHAOS_SEEDS` env var (comma-separated u64s) to explore other schedules.

use antennae::core::antenna::AntennaBudget;
use antennae::core::bounds::theorem2_spread_threshold;
use antennae::core::dynamic::{DynamicInstance, DynamicSolverSession, Edit};
use antennae::prelude::*;
use antennae::serve::protocol::payload_field;
use antennae::serve::{Server, ServerConfig, Service};
use antennae::store::{
    FaultKind, FaultScript, FaultSpec, FaultVfs, OpClass, Store, StoreConfig, SyncPolicy,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The pinned fault schedules `scripts/verify.sh` replays.
const CHAOS_SEEDS: &[u64] = &[0x00C0_FFEE, 0x0BAD_5EED, 0x5CA1_AB1E];

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("antennae-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn budget(k: usize) -> AntennaBudget {
    AntennaBudget::new(k, theorem2_spread_threshold(k))
}

/// Opens a durable service whose write path runs the given fault script.
fn open_with_faults(
    root: &PathBuf,
    config: StoreConfig,
    script: FaultScript,
) -> (Service, FaultVfs) {
    let vfs = FaultVfs::new(script);
    let store = Store::open_with_vfs(root, config, Arc::new(vfs.clone())).expect("open store");
    let (svc, _) = Service::open_durable(store).expect("recover store");
    (svc, vfs)
}

/// Reopens the data directory on the real filesystem (restart after chaos).
fn reopen_real(root: &PathBuf, config: StoreConfig) -> (Service, antennae::serve::RecoveryReport) {
    Service::open_durable(Store::open(root, config).expect("reopen store")).expect("recover")
}

/// Issues `RECOVER` until the tenant reports healthy.  Each attempt may hit
/// further scheduled faults; the script is finite, so this terminates.
fn recover_until_ok(svc: &Service, name: &str) {
    for _ in 0..64 {
        let response = svc.handle_line(&format!("RECOVER {name}"));
        if response.starts_with("OK ") {
            return;
        }
        assert!(
            response.starts_with("ERR degraded"),
            "RECOVER answered {response:?}"
        );
    }
    panic!("tenant {name} did not recover within 64 attempts");
}

/// Sends a mutation, riding out degraded phases: on `ERR degraded` the
/// tenant is recovered and the line retried.  Returns the OK response.
/// Any other error is a test failure — the chaos layer must map every
/// injected fault onto `degraded`.
fn mutate_until_acked(svc: &Service, name: &str, line: &str) -> String {
    for _ in 0..64 {
        let response = svc.handle_line(line);
        if response.starts_with("OK ") {
            return response;
        }
        assert!(
            response.starts_with("ERR degraded"),
            "{line:?} answered {response:?}"
        );
        recover_until_ok(svc, name);
    }
    panic!("{line:?} kept failing after 64 recoveries");
}

/// The bit-equality bar shared with the durability oracle.
fn assert_bit_equal(service: &Service, name: &str, oracle: &mut DynamicSolverSession) {
    let tenant = service.registry().get(name).expect("tenant");
    tenant.with_session_mut(|served| {
        assert_eq!(served.instance().ids(), oracle.instance().ids(), "live ids");
        assert_eq!(
            served.instance().next_id(),
            oracle.instance().next_id(),
            "id horizon"
        );
        for id in oracle.instance().ids() {
            let a = served.instance().point(id).expect("served point");
            let b = oracle.instance().point(id).expect("oracle point");
            assert_eq!(a.x.to_bits(), b.x.to_bits(), "x of {id}");
            assert_eq!(a.y.to_bits(), b.y.to_bits(), "y of {id}");
        }
        assert_eq!(
            served.instance().lmax().to_bits(),
            oracle.instance().lmax().to_bits(),
            "lmax bits"
        );
        assert_eq!(
            served.instance().mst_total_weight().to_bits(),
            oracle.instance().mst_total_weight().to_bits(),
            "MST weight bits"
        );
        assert_eq!(served.algorithm(), oracle.algorithm(), "algorithm");
        assert_eq!(served.scheme(), oracle.scheme(), "scheme");
        assert_eq!(served.digraph(), oracle.digraph(), "digraph");
        assert_eq!(served.report(), oracle.report(), "report");
    });
}

/// Serially applies the acknowledged history onto a bare, never-faulted
/// session.
fn oracle_of(seeds: &[Point], k: usize, acked: &[Edit]) -> DynamicSolverSession {
    let mut oracle =
        DynamicSolverSession::new(DynamicInstance::new(seeds).expect("instance"), budget(k))
            .expect("session");
    for edit in acked {
        oracle.apply(*edit).expect("oracle edit");
    }
    oracle
}

fn create_line(name: &str, k: usize, seeds: &[Point]) -> String {
    let phi = theorem2_spread_threshold(k);
    let mut line = format!("CREATE {name} {k} {phi}");
    for p in seeds {
        line.push_str(&format!(" {} {}", p.x, p.y));
    }
    line
}

fn seed_points(seed: u64) -> Vec<Point> {
    PointSetGenerator::UniformSquare { n: 16, side: 8.0 }.generate(seed)
}

// ---------------------------------------------------------------------------
// Directed storage-fault scenarios
// ---------------------------------------------------------------------------

/// Drives inserts until one trips the scheduled fault.  Returns the edits
/// that were acknowledged.
fn insert_until_degraded(svc: &Service, name: &str, n: usize) -> (Vec<Edit>, usize) {
    let mut acked = Vec::new();
    let mut failed = usize::MAX;
    for i in 0..n {
        let (x, y) = (9.0 + i as f64, 0.5 * i as f64);
        let response = svc.handle_line(&format!("EDIT {name} INSERT {x} {y}"));
        if response.starts_with("OK ") {
            acked.push(Edit::Insert(Point::new(x, y)));
        } else {
            assert!(
                response.starts_with("ERR degraded"),
                "expected degraded, got {response:?}"
            );
            failed = i;
            break;
        }
    }
    assert_ne!(failed, usize::MAX, "the scheduled fault never fired");
    (acked, failed)
}

#[test]
fn disk_full_degrades_reads_survive_recover_restores() {
    let root = tmp_root("diskfull");
    let seeds = seed_points(11);
    let config = StoreConfig {
        sync: SyncPolicy::Always,
        ..StoreConfig::default()
    };
    // Write index 0 is the CREATE record; index 3 is the third edit append.
    let script = FaultScript::new(vec![FaultSpec {
        class: OpClass::Write,
        at: 3,
        kind: FaultKind::DiskFull,
    }]);
    let (svc, vfs) = open_with_faults(&root, config, script);
    assert!(svc
        .handle_line(&create_line("d", 2, &seeds))
        .starts_with("OK created"));

    let (mut acked, _) = insert_until_degraded(&svc, "d", 6);
    assert_eq!(acked.len(), 2, "edits 1-2 acked, edit 3 hit the fault");
    assert_eq!(vfs.faults_fired(), 1);

    // Degraded-read-only: mutations fail fast with the structured code…
    let denied = svc.handle_line("EDIT d MOVE 0 1.0 1.0");
    assert!(denied.starts_with("ERR degraded"), "{denied}");
    let denied = svc.handle_line("ORIENT d");
    assert!(denied.starts_with("ERR degraded"), "{denied}");
    // …while reads keep serving the last published snapshot.
    let q = svc.handle_line("QUERY d");
    assert!(q.starts_with("OK query d n=16"), "{q}");
    let v = svc.handle_line("VERIFY d");
    assert!(v.contains("degraded=true stale=true"), "{v}");
    // And the operator can see it.
    let stats = svc.handle_line("STATS");
    let payload = stats.strip_prefix("OK ").unwrap().to_string();
    assert_eq!(payload_field(&payload, "degraded_tenants"), Some("1"));
    let stats = svc.handle_line("STATS d");
    let payload = stats.strip_prefix("OK ").unwrap().to_string();
    assert_eq!(payload_field(&payload, "degraded"), Some("true"));

    // RECOVER re-attempts the I/O (the one-shot fault is spent) and
    // restores full service.
    assert!(svc.handle_line("RECOVER d").starts_with("OK recover d"));
    let stats = svc.handle_line("STATS d");
    let payload = stats.strip_prefix("OK ").unwrap().to_string();
    assert_eq!(payload_field(&payload, "degraded"), Some("false"));
    assert!(svc
        .handle_line("EDIT d INSERT 3.25 3.75")
        .starts_with("OK edit d"));
    acked.push(Edit::Insert(Point::new(3.25, 3.75)));
    assert!(svc.handle_line("ORIENT d").starts_with("OK orient d"));

    // Bit-equal to the never-faulted application of the acked history —
    // live, and again after a restart on the real filesystem.
    let mut oracle = oracle_of(&seeds, 2, &acked);
    assert_bit_equal(&svc, "d", &mut oracle);
    drop(svc);
    let (svc, report) = reopen_real(&root, config);
    assert_eq!(report.recovered, ["d"]);
    assert_bit_equal(&svc, "d", &mut oracle);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fsync_failure_unacknowledges_exactly_the_failing_edit() {
    let root = tmp_root("fsync");
    let seeds = seed_points(13);
    let config = StoreConfig {
        sync: SyncPolicy::Always,
        ..StoreConfig::default()
    };
    // Calibrate the sync-op index of the second edit with a fault-free
    // probe run, so the test does not hard-code how many fsyncs CREATE
    // issues.
    let probe_root = tmp_root("fsync-probe");
    let (probe, probe_vfs) = open_with_faults(&probe_root, config, FaultScript::new(vec![]));
    assert!(probe
        .handle_line(&create_line("f", 2, &seeds))
        .starts_with("OK created"));
    let (_, syncs_after_create, _) = probe_vfs.op_counts();
    assert!(probe.handle_line("EDIT f INSERT 9.0 0.0").starts_with("OK"));
    let (_, syncs_after_edit, _) = probe_vfs.op_counts();
    let syncs_per_edit = syncs_after_edit - syncs_after_create;
    assert!(
        syncs_per_edit >= 1,
        "SyncPolicy::Always must fsync each edit"
    );
    drop(probe);
    let _ = std::fs::remove_dir_all(&probe_root);

    // The write lands but the second edit's fsync reports failure: the
    // edit must be un-acknowledged all the same.
    let script = FaultScript::new(vec![FaultSpec {
        class: OpClass::Sync,
        at: syncs_after_create + syncs_per_edit,
        kind: FaultKind::SyncFailure,
    }]);
    let (svc, vfs) = open_with_faults(&root, config, script);
    assert!(svc
        .handle_line(&create_line("f", 2, &seeds))
        .starts_with("OK created"));

    let (acked, _) = insert_until_degraded(&svc, "f", 6);
    assert_eq!(acked.len(), 1, "edit 1 acked, edit 2's fsync failed");
    assert_eq!(vfs.faults_fired(), 1);

    recover_until_ok(&svc, "f");
    assert!(svc.handle_line("ORIENT f").starts_with("OK orient f"));
    let mut oracle = oracle_of(&seeds, 2, &acked);
    assert_bit_equal(&svc, "f", &mut oracle);
    // The un-acknowledged record must not resurface after a restart.
    drop(svc);
    let (svc, report) = reopen_real(&root, config);
    assert_eq!(report.recovered, ["f"]);
    assert_bit_equal(&svc, "f", &mut oracle);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn short_write_then_crash_salvages_the_acknowledged_prefix() {
    let root = tmp_root("shortcrash");
    let seeds = seed_points(17);
    let config = StoreConfig {
        sync: SyncPolicy::Always,
        ..StoreConfig::default()
    };
    let script = FaultScript::new(vec![FaultSpec {
        class: OpClass::Write,
        at: 2,
        kind: FaultKind::ShortWrite,
    }]);
    let (svc, _vfs) = open_with_faults(&root, config, script);
    assert!(svc
        .handle_line(&create_line("s", 2, &seeds))
        .starts_with("OK created"));
    let (acked, _) = insert_until_degraded(&svc, "s", 6);
    assert_eq!(acked.len(), 1);

    // Crash without RECOVER: the torn half-record is still on disk.  Boot
    // salvage must truncate it and recover exactly the acknowledged prefix.
    drop(svc);
    let (svc, report) = reopen_real(&root, config);
    assert_eq!(report.recovered, ["s"]);
    assert_eq!(report.truncated_tails, 1, "the torn tail was salvaged");
    assert!(report.lost_bytes > 0);
    let mut oracle = oracle_of(&seeds, 2, &acked);
    assert_bit_equal(&svc, "s", &mut oracle);
    // The salvaged tenant accepts new work.
    assert!(svc.handle_line("EDIT s INSERT 1.5 1.5").starts_with("OK"));
    assert!(svc.handle_line("ORIENT s").starts_with("OK orient s"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn short_write_recover_truncates_the_torn_bytes_in_place() {
    let root = tmp_root("shortrecover");
    let seeds = seed_points(19);
    let config = StoreConfig {
        sync: SyncPolicy::Always,
        ..StoreConfig::default()
    };
    let script = FaultScript::new(vec![FaultSpec {
        class: OpClass::Write,
        at: 2,
        kind: FaultKind::ShortWrite,
    }]);
    let (svc, _vfs) = open_with_faults(&root, config, script);
    assert!(svc
        .handle_line(&create_line("r", 2, &seeds))
        .starts_with("OK created"));
    let (mut acked, _) = insert_until_degraded(&svc, "r", 6);

    // RECOVER truncates the torn bytes and the tenant keeps going.
    recover_until_ok(&svc, "r");
    for i in 0..3 {
        let (x, y) = (2.0 + i as f64, 6.5);
        assert!(svc
            .handle_line(&format!("EDIT r INSERT {x} {y}"))
            .starts_with("OK"));
        acked.push(Edit::Insert(Point::new(x, y)));
    }
    assert!(svc.handle_line("ORIENT r").starts_with("OK orient r"));
    let mut oracle = oracle_of(&seeds, 2, &acked);
    assert_bit_equal(&svc, "r", &mut oracle);

    // After in-place recovery the log is clean: a restart salvages nothing.
    drop(svc);
    let (svc, report) = reopen_real(&root, config);
    assert_eq!(report.recovered, ["r"]);
    assert_eq!(report.truncated_tails, 0, "recovery already truncated");
    assert_bit_equal(&svc, "r", &mut oracle);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn slow_io_is_latency_not_damage() {
    let root = tmp_root("slowio");
    let seeds = seed_points(23);
    let config = StoreConfig {
        sync: SyncPolicy::Always,
        ..StoreConfig::default()
    };
    let script = FaultScript::new(
        (0..6)
            .map(|i| FaultSpec {
                class: if i % 2 == 0 {
                    OpClass::Write
                } else {
                    OpClass::Sync
                },
                at: i,
                kind: FaultKind::SlowIo(1),
            })
            .collect(),
    );
    let (svc, vfs) = open_with_faults(&root, config, script);
    assert!(svc
        .handle_line(&create_line("slow", 2, &seeds))
        .starts_with("OK created"));
    let mut acked = Vec::new();
    for i in 0..5 {
        let (x, y) = (10.0 + i as f64, 1.0);
        assert!(svc
            .handle_line(&format!("EDIT slow INSERT {x} {y}"))
            .starts_with("OK"));
        acked.push(Edit::Insert(Point::new(x, y)));
    }
    assert!(svc.handle_line("ORIENT slow").starts_with("OK orient"));
    assert!(vfs.faults_fired() >= 4, "slow-io faults did fire");
    let stats = svc.handle_line("STATS slow");
    let payload = stats.strip_prefix("OK ").unwrap().to_string();
    assert_eq!(payload_field(&payload, "degraded"), Some("false"));
    assert_bit_equal(&svc, "slow", &mut oracle_of(&seeds, 2, &acked));
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Seeded chaos sweep
// ---------------------------------------------------------------------------

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("CHAOS_SEEDS: comma-separated u64s"))
            .collect(),
        Err(_) => CHAOS_SEEDS.to_vec(),
    }
}

/// For each pinned seed: run a generated churn under a generated fault
/// schedule, riding out every degraded phase with RECOVER, and require the
/// final state to be bit-equal to a serial, never-faulted application of
/// exactly the acknowledged edits — then once more after a restart.
#[test]
fn seeded_fault_scripts_preserve_every_acknowledged_edit() {
    let mut total_fired = 0u64;
    for seed in chaos_seeds() {
        let root = tmp_root(&format!("sweep-{seed}"));
        let seeds = seed_points(seed);
        let config = StoreConfig {
            sync: SyncPolicy::Always,
            compact_records: 24, // force compactions under fire
            ..StoreConfig::default()
        };
        let (svc, vfs) = open_with_faults(&root, config, FaultScript::seeded(seed, 10, 200));
        let name = "sweep";
        // CREATE may itself hit scheduled faults; each retry consumes them.
        for attempt in 0.. {
            assert!(attempt < 16, "CREATE kept failing");
            let response = svc.handle_line(&create_line(name, 2, &seeds));
            if response.starts_with("OK created") {
                break;
            }
            assert!(
                response.starts_with("ERR storage") || response.starts_with("ERR degraded"),
                "CREATE answered {response:?}"
            );
        }

        // Scripted churn over a local liveness model.
        let mut rng = seed | 1;
        let mut live: Vec<usize> = (0..seeds.len()).collect();
        let mut next_id = seeds.len();
        let mut acked: Vec<Edit> = Vec::new();
        for step in 0..80 {
            let r = xorshift(&mut rng);
            let x = (r >> 16) % 1600;
            let y = (r >> 32) % 1600;
            let (x, y) = (x as f64 / 100.0, y as f64 / 100.0);
            match r % 3 {
                0 => {
                    mutate_until_acked(&svc, name, &format!("EDIT {name} INSERT {x} {y}"));
                    acked.push(Edit::Insert(Point::new(x, y)));
                    live.push(next_id);
                    next_id += 1;
                }
                1 => {
                    let id = live[(r >> 8) as usize % live.len()];
                    mutate_until_acked(&svc, name, &format!("EDIT {name} MOVE {id} {x} {y}"));
                    acked.push(Edit::Move(id, Point::new(x, y)));
                }
                _ if live.len() > 3 => {
                    let at = (r >> 8) as usize % live.len();
                    let id = live.swap_remove(at);
                    mutate_until_acked(&svc, name, &format!("EDIT {name} REMOVE {id}"));
                    acked.push(Edit::Remove(id));
                }
                _ => {}
            }
            if step % 7 == 6 {
                mutate_until_acked(&svc, name, &format!("ORIENT {name}"));
            }
        }
        // Settle: healthy, fully flushed.
        recover_until_ok(&svc, name);
        mutate_until_acked(&svc, name, &format!("ORIENT {name}"));
        total_fired += vfs.faults_fired();

        let mut oracle = oracle_of(&seeds, 2, &acked);
        assert_bit_equal(&svc, name, &mut oracle);
        // Restart on the real filesystem: nothing acknowledged is lost.
        drop(svc);
        let (svc, report) = reopen_real(&root, config);
        assert_eq!(report.recovered, [name], "seed {seed}");
        assert_bit_equal(&svc, name, &mut oracle);
        let _ = std::fs::remove_dir_all(&root);
    }
    assert!(total_fired > 0, "the sweep never exercised a fault");
}

// ---------------------------------------------------------------------------
// Network chaos: overload shedding, slow-loris eviction, TCP auth
// ---------------------------------------------------------------------------

fn read_all(stream: &mut TcpStream) -> String {
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

#[test]
fn bounded_queue_sheds_with_overloaded_and_a_retry_hint() {
    let service = Arc::new(Service::new());
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            threads: 1,
            read_timeout: None,
            max_queue: Some(1),
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    // Pin the single worker: connection A is being served (a PING round
    // trip proves its job left the queue).
    let mut a = TcpStream::connect(addr).unwrap();
    a.write_all(b"PING\n").unwrap();
    let mut pong = [0u8; 8];
    a.read_exact(&mut pong).unwrap();
    assert_eq!(&pong, b"OK pong\n");
    // Connection B fills the one queue slot.
    let b = TcpStream::connect(addr).unwrap();
    // Give the accept loop a moment to enqueue B before C arrives.
    std::thread::sleep(Duration::from_millis(100));
    // Connection C is shed at the front door.
    let mut c = TcpStream::connect(addr).unwrap();
    let refused = read_all(&mut c);
    assert!(refused.starts_with("ERR overloaded"), "{refused:?}");
    assert!(refused.contains("retry-after-ms="), "{refused:?}");

    // Releasing A lets the worker drain B normally.
    drop(a);
    let mut b = b;
    b.write_all(b"PING\n").unwrap();
    let mut pong = [0u8; 8];
    b.read_exact(&mut pong).unwrap();
    assert_eq!(&pong, b"OK pong\n");
    drop(b);

    assert!(
        service
            .stats()
            .shed_requests
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    let stats = service.handle_line("STATS");
    let payload = stats.strip_prefix("OK ").unwrap().to_string();
    let shed: u64 = payload_field(&payload, "shed_requests")
        .unwrap()
        .parse()
        .unwrap();
    assert!(shed >= 1, "{stats}");
    handle.stop().unwrap();
}

#[test]
fn slow_loris_connections_are_evicted_by_the_read_deadline() {
    let service = Arc::new(Service::new());
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            threads: 2,
            read_timeout: Some(Duration::from_millis(100)),
            max_queue: Some(64),
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    // A well-behaved client inside the deadline works.
    let mut good = TcpStream::connect(addr).unwrap();
    good.write_all(b"PING\n").unwrap();
    let mut pong = [0u8; 8];
    good.read_exact(&mut pong).unwrap();
    assert_eq!(&pong, b"OK pong\n");

    // The loris dribbles a prefix and never finishes the line: the server
    // must evict it (EOF on our side) instead of pinning a worker forever.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"PIN").unwrap();
    let leftovers = read_all(&mut loris);
    assert_eq!(leftovers, "", "evicted without a response: {leftovers:?}");

    // Eviction is visible to the operator.  (The idle `good` connection is
    // evicted by the same deadline while we wait — also counted.)
    for _ in 0..50 {
        let timed_out = service
            .stats()
            .timed_out_connections
            .load(std::sync::atomic::Ordering::Relaxed);
        if timed_out >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        service
            .stats()
            .timed_out_connections
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    drop(good);
    // And the server still serves fresh connections.
    let mut fresh = TcpStream::connect(addr).unwrap();
    fresh.write_all(b"PING\n").unwrap();
    fresh.read_exact(&mut pong).unwrap();
    assert_eq!(&pong, b"OK pong\n");
    drop(fresh);
    handle.stop().unwrap();
}

#[test]
fn tcp_connections_authenticate_per_connection() {
    let mut svc = Service::new();
    svc.set_auth_token(Some("hunter2".to_string()));
    let service = Arc::new(svc);
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = antennae::serve::TcpClient::connect(addr).unwrap();
    assert_eq!(client.request("PING").unwrap().to_line(), "OK pong");
    let denied = client.request("STATS").unwrap().to_line();
    assert!(denied.starts_with("ERR unauthorized"), "{denied}");
    let denied = client.request("AUTH wrong").unwrap().to_line();
    assert!(denied.starts_with("ERR unauthorized"), "{denied}");
    assert_eq!(
        client.request("AUTH hunter2").unwrap().to_line(),
        "OK auth ok"
    );
    assert!(client
        .request("STATS")
        .unwrap()
        .to_line()
        .starts_with("OK stats"));

    // A second connection starts unauthenticated.
    let mut stranger = antennae::serve::TcpClient::connect(addr).unwrap();
    let denied = stranger.request("STATS").unwrap().to_line();
    assert!(denied.starts_with("ERR unauthorized"), "{denied}");
    handle.stop().unwrap();
}
