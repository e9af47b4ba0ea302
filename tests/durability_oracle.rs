//! The durability oracle: a recovered `orientd` service must be **bit-equal**
//! to the state it acknowledged before going down.
//!
//! Every scenario drives a sim-generated churn script through a durable
//! [`Service`], takes the process down in a specific way (clean `SHUTDOWN`,
//! simulated crash with unflushed edits, crash after compactions, torn log
//! tail), reopens the data directory, and compares the recovered session
//! against a bare [`DynamicSolverSession`] that serially applied the same
//! acknowledged history — `f64::to_bits` on `lmax` and the MST weight, exact
//! equality on the scheme, the digraph and the verification report.
//!
//! The bridge that makes this a *deterministic* oracle is the
//! history-independence family in `tests/dynamic_oracle.rs`: coalesced
//! replay equals serial application bit for bit, so "recovered via one
//! coalesced boot replay" and "never went down" are comparable.

use antennae::core::antenna::AntennaBudget;
use antennae::core::bounds::theorem2_spread_threshold;
use antennae::core::dynamic::{DynamicInstance, DynamicSolverSession, Edit};
use antennae::prelude::*;
use antennae::serve::Service;
use antennae::sim::events::{churn_trace, ChurnMix};
use antennae::sim::serve_script::{churn_protocol_script, ProtocolScript};
use antennae::store::{Store, StoreConfig, SyncPolicy};
use std::path::PathBuf;

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "antennae-durability-oracle-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn script(
    name: &str,
    k: usize,
    seed: u64,
    events: usize,
    flush_every: usize,
) -> (ProtocolScript, Vec<Point>, AntennaBudget) {
    let phi = theorem2_spread_threshold(k);
    let seeds = PointSetGenerator::UniformSquare { n: 16, side: 8.0 }.generate(seed);
    let trace = churn_trace(ChurnMix::balanced(3.0), events, 8.0, 0.6, seed ^ 0x5eed);
    (
        churn_protocol_script(name, k, phi, &seeds, &trace, flush_every),
        seeds,
        AntennaBudget::new(k, phi),
    )
}

/// Serially applies the first `upto` recorded edits onto a bare session.
fn oracle_session(
    seeds: &[Point],
    budget: AntennaBudget,
    edits: &[(usize, Option<Point>)],
    upto: usize,
) -> DynamicSolverSession {
    let mut oracle =
        DynamicSolverSession::new(DynamicInstance::new(seeds).expect("seed instance"), budget)
            .expect("seed session");
    for &(id, op) in &edits[..upto] {
        let edit = match op {
            Some(p) if id == oracle.instance().next_id() => Edit::Insert(p),
            Some(p) => Edit::Move(id, p),
            None => Edit::Remove(id),
        };
        oracle.apply(edit).expect("oracle edit");
    }
    oracle
}

fn assert_bit_equal(service: &Service, name: &str, oracle: &mut DynamicSolverSession) {
    let tenant = service.registry().get(name).expect("recovered tenant");
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

fn open(root: &PathBuf, config: StoreConfig) -> (Service, antennae::serve::RecoveryReport) {
    Service::open_durable(Store::open(root, config).unwrap()).unwrap()
}

#[test]
fn clean_shutdown_recovers_bit_equal() {
    let root = tmp_root("clean");
    let (script, seeds, budget) = script("clean", 2, 31, 90, 6);
    let config = StoreConfig {
        // The weakest policy: clean shutdown must still be fully durable,
        // because SHUTDOWN syncs every log.
        sync: SyncPolicy::Never,
        ..StoreConfig::default()
    };
    {
        let (svc, _) = open(&root, config);
        for line in &script.lines {
            let response = svc.handle_line(line);
            assert!(response.starts_with("OK "), "{line:?} -> {response}");
        }
        assert_eq!(svc.handle_line("SHUTDOWN"), "OK shutting-down");
    }
    let (svc, report) = open(&root, config);
    assert_eq!(report.recovered, ["clean"]);
    assert_eq!(report.truncated_tails, 0, "clean shutdown tears nothing");
    let mut oracle = oracle_session(&seeds, budget, &script.edits, script.edits.len());
    assert_bit_equal(&svc, "clean", &mut oracle);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crash_with_unflushed_edits_recovers_the_acknowledged_history() {
    let root = tmp_root("crash");
    // flush_every=0: the whole churn history stays buffered (one pending
    // burst) until the final ORIENT — drop the service *before* sending it,
    // so the in-memory sessions never applied the edits at all.
    let (script, seeds, budget) = script("crash", 2, 47, 70, 0);
    let config = StoreConfig {
        sync: SyncPolicy::Always, // acknowledged => on disk
        ..StoreConfig::default()
    };
    {
        let (svc, _) = open(&root, config);
        for line in &script.lines {
            if line.starts_with("ORIENT ") || line.starts_with("VERIFY ") {
                break; // crash before any flush
            }
            let response = svc.handle_line(line);
            assert!(response.starts_with("OK "), "{line:?} -> {response}");
        }
        // No SHUTDOWN: dropping the service is the crash (sync=always means
        // every acknowledged append already hit the disk).
    }
    let (svc, report) = open(&root, config);
    assert_eq!(report.recovered, ["crash"]);
    // The recovered state contains the *full* acknowledged history — every
    // buffered edit was logged before its OK went out.
    let mut oracle = oracle_session(&seeds, budget, &script.edits, script.edits.len());
    assert_bit_equal(&svc, "crash", &mut oracle);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn compaction_is_transparent_to_recovery() {
    let root = tmp_root("compact");
    let (script, seeds, budget) = script("compact", 1, 59, 110, 4);
    let config = StoreConfig {
        sync: SyncPolicy::EveryN(4),
        compact_records: 12, // force several compactions mid-script
        ..StoreConfig::default()
    };
    {
        let (svc, _) = open(&root, config);
        for line in &script.lines {
            let response = svc.handle_line(line);
            assert!(response.starts_with("OK "), "{line:?} -> {response}");
        }
        let stats = svc.handle_line("STATS compact");
        let payload = stats.strip_prefix("OK ").unwrap().to_string();
        let snapshots: u64 = antennae::serve::protocol::payload_field(&payload, "snapshots")
            .unwrap()
            .parse()
            .unwrap();
        assert!(snapshots >= 2, "expected several compactions: {stats}");
        assert_eq!(svc.handle_line("SHUTDOWN"), "OK shutting-down");
    }
    let (svc, report) = open(&root, config);
    assert_eq!(report.recovered, ["compact"]);
    let mut oracle = oracle_session(&seeds, budget, &script.edits, script.edits.len());
    assert_bit_equal(&svc, "compact", &mut oracle);
    // Recovery itself is idempotent: reopen once more, same bits.
    drop(svc);
    let (svc, _) = open(&root, config);
    assert_bit_equal(&svc, "compact", &mut oracle);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_tail_recovers_the_longest_valid_prefix() {
    let root = tmp_root("torn");
    let (script, seeds, budget) = script("torn", 2, 71, 40, 0);
    let config = StoreConfig {
        sync: SyncPolicy::Always,
        ..StoreConfig::default()
    };
    let acked = {
        let (svc, _) = open(&root, config);
        let mut acked = 0usize;
        for line in &script.lines {
            if line.starts_with("ORIENT ") || line.starts_with("VERIFY ") {
                break;
            }
            assert!(svc.handle_line(line).starts_with("OK "), "{line:?}");
            if line.starts_with("EDIT ") {
                acked += 1;
            }
        }
        acked
    };
    // Tear the log mid-record: the crash cut the last append short.
    let wal = root.join("torn").join("wal.0.log");
    let len = std::fs::metadata(&wal).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    let (svc, report) = open(&root, config);
    assert_eq!(report.recovered, ["torn"]);
    assert_eq!(report.truncated_tails, 1);
    assert!(report.lost_bytes > 0);
    // Exactly the final acknowledged edit is lost; everything before it is
    // intact (length-prefix + CRC framing cuts at the record boundary).
    let mut oracle = oracle_session(&seeds, budget, &script.edits, acked - 1);
    assert_bit_equal(&svc, "torn", &mut oracle);
    // And the salvaged tenant accepts new work.
    assert!(svc
        .handle_line("EDIT torn INSERT 0.5 0.25")
        .starts_with("OK edit torn"));
    assert!(svc.handle_line("ORIENT torn").starts_with("OK orient torn"));
    let _ = std::fs::remove_dir_all(&root);
}
