//! `tenant_mix`: a durable `orientd` holding many small unsharded tenants
//! and one sharded 10⁴-sensor tenant.  Two connections send an open-loop
//! mix (60% point `QUERY`, 30% `EDIT` bursts + `ORIENT`, 10% `VERIFY`) over
//! Zipf-popular tenants; then `SHUTDOWN`, a restart on the same directory,
//! and the time until `PING` answers.

use crate::load::{
    check_bits, dynamic_layers, in_process, publish_and_gaps, replay, run_load, set_up_rounds,
    Replayed, Schedule, Tenant,
};
use crate::measure::{median, ms, proc_status_mb, tail, tail_at, timed, us, Report, Tracer};
use crate::plan::{
    burst_size, mask_revision, phi, poisson_times, query_line, rng, round3, Deployment, Zipf, K,
};
use crate::wire::{copy_tree, scratch_dir, wait_for_ping, Conn, Orientd};
use crate::Args;
use antennae_bench::workloads::uniform_points;
use antennae_core::antenna::AntennaBudget;
use antennae_core::dynamic::{DynamicSolverSession, Edit};
use antennae_geometry::Point;
use antennae_serve::protocol::EditOp;
use antennae_serve::{parse_request, Request};
use antennae_store::{Store, StoreConfig, TenantWal};
use rand::Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Percentile of `op_tail_ms`.  Above it sit the bursts queued behind a
/// compaction or a slow fsync on the same connection worker: a handful of
/// events per run whose length follows the disk, so p99 and beyond move by
/// more than the bound from run to run.  That rarer tail is
/// `loadgen.orient_tail_ms`.
const TAIL_PERCENTILE: f64 = 0.95;

struct Params {
    small_tenants: usize,
    small_sensors: usize,
    big_sensors: usize,
    /// Zipf rank of the large tenant (0 = most popular).
    big_rank: usize,
    /// Requests per second over both connections.
    rate: f64,
}

fn params(args: &Args) -> Params {
    if args.smoke {
        Params {
            small_tenants: 20,
            small_sensors: 16,
            big_sensors: 300,
            big_rank: 4,
            rate: 100.0,
        }
    } else {
        Params {
            small_tenants: 1000,
            small_sensors: 64,
            big_sensors: 10_000,
            big_rank: 4,
            rate: 400.0,
        }
    }
}

fn deployment(name: &str, n: usize, seed: u64) -> Deployment {
    let side = (n as f64).sqrt() * 2.0;
    Deployment::new(
        name,
        round3(uniform_points(n, seed)),
        side,
        1.0,
        n / 2,
        seed ^ 0x7E4A,
    )
}

fn schedule(args: &Args, p: &Params) -> Schedule {
    let mut tenants: Vec<Tenant> = (0..p.small_tenants)
        .map(|i| {
            let seed = args.seed.wrapping_mul(7919).wrapping_add(i as u64);
            deployment(&format!("t{i:04}"), p.small_sensors, seed)
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|dep| Tenant {
            dep,
            ops: Vec::new(),
            reads: Vec::new(),
        })
        .collect();
    tenants.push(Tenant {
        dep: deployment("big", p.big_sensors, args.seed ^ 0xB16),
        ops: Vec::new(),
        reads: Vec::new(),
    });
    let big = tenants.len() - 1;
    // Popularity rank → tenant index, with the large tenant at `big_rank`.
    let mut by_rank: Vec<usize> = (0..p.small_tenants).collect();
    by_rank.insert(p.big_rank, big);

    let mut s = Schedule::new(tenants);
    let zipf = Zipf::new(by_rank.len(), 1.0);
    let mut r = rng(args.seed, 2);
    for at in poisson_times(p.rate, args.seconds, &mut r) {
        let t = by_rank[zipf.sample(&mut r)];
        let conn = t % 2;
        let u: f64 = r.random_range(0.0..1.0);
        if u < 0.6 {
            let id = s.tenants[t].dep.live_id(r.random());
            s.read(conn, at, t, id);
        } else if u < 0.9 {
            let size = burst_size(&mut r);
            s.burst(conn, at, t, size);
        } else {
            s.verify(conn, at, t);
        }
    }
    s
}

/// Boots a durable `orientd` on an empty `dir` and creates every tenant.
fn set_up(args: &Args, s: &Schedule, dir: &Path) -> std::io::Result<(Orientd, Conn)> {
    let _ = std::fs::remove_dir_all(dir);
    let server = Orientd::start(&args.orientd, Some(dir))?;
    let mut conn = Conn::connect(server.addr)?;
    let mut lines: Vec<String> = s.tenants.iter().map(|t| t.dep.create_line()).collect();
    lines.extend(s.tenants.iter().map(|t| format!("ORIENT {}", t.dep.name)));
    for reply in conn.pipeline(&lines)? {
        if !reply.starts_with("OK") {
            return Err(std::io::Error::other(format!("set-up answered {reply}")));
        }
    }
    Ok((server, conn))
}

pub fn run(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let p = params(args);
    let scratch = scratch_dir("tenant_mix")?;
    let result = run_in(args, &p, &scratch, report);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(args: &Args, p: &Params, scratch: &Path, report: &mut Report) -> std::io::Result<()> {
    let data = scratch.join("data");
    let rounds = if args.trace { 1 } else { SETUPS };
    let (mut s, server, conn) = set_up_rounds(rounds, report, || {
        let s = schedule(args, p);
        let (server, conn) = set_up(args, &s, &data)?;
        Ok((s, server, conn))
    })
    .map_err(|e| context("set-up", e))?;
    let (lat, cpu_util, mut conn) =
        run_load(&mut s, &server, conn, report).map_err(|e| context("load", e))?;

    // STATS and every tenant's state over connection 0, then shut down.
    let names: Vec<String> = s.tenants.iter().map(|t| t.dep.name.clone()).collect();
    let mut lines = vec!["STATS".to_string()];
    lines.extend(names.iter().map(|n| format!("STATS {n}")));
    lines.extend(names.iter().map(|n| format!("QUERY {n}")));
    let finals = conn
        .pipeline(&lines)
        .map_err(|e| context("final STATS/QUERY", e))?;
    report.attempted += lines.len() as u64;
    let (stats, rest) = finals.split_first().expect("STATS was sent");
    let (tenant_stats, before) = rest.split_at(names.len());
    let rss = proc_status_mb(&server.pid().to_string(), "VmHWM:");
    server
        .shutdown(&mut conn)
        .map_err(|e| context("shutdown", e))?;

    // Restart on the same directory: time to the first PING answer, then
    // every tenant must read back as it was (revision aside).
    let restart = Instant::now();
    let server = Orientd::start(&args.orientd, Some(&data))?;
    let recover_s = wait_for_ping(server.addr, restart)
        .map_err(|e| context("restart", e))?
        .as_secs_f64();
    let mut conn = Conn::connect(server.addr)?;
    let after = conn
        .pipeline(
            &names
                .iter()
                .map(|n| format!("QUERY {n}"))
                .collect::<Vec<_>>(),
        )
        .map_err(|e| context("QUERY after restart", e))?;
    report.attempted += names.len() as u64 + 1;
    server
        .shutdown(&mut conn)
        .map_err(|e| context("restart shutdown", e))?;
    for (b, a) in before.iter().zip(&after) {
        if mask_revision(b) != mask_revision(a) {
            report.mismatch(format!("after restart: {a:?}, before: {b:?}"));
        }
    }

    // Oracle: every tenant's acknowledged history on a bare session.
    let mut replays: Vec<Replayed> = s.tenants.iter().map(|t| replay(t, report)).collect();
    for ((t, r), line) in s.tenants.iter().zip(&replays).zip(before) {
        if *line != query_line(&t.dep.name, &r.session, r.revision) {
            report.mismatch(format!("final QUERY {}: {line}", t.dep.name));
        }
    }
    let compactions: f64 = tenant_stats
        .iter()
        .filter_map(|l| {
            antennae_serve::protocol::payload_field(l, "snapshots")?
                .parse::<f64>()
                .ok()
        })
        .sum();

    report.metric("peak_rss_mb", rss, "MB");
    report.metric("op_p50_ms", median(&lat.orient), "ms");
    report.tail_metric("op_tail_ms", &tail_at(&lat.orient, TAIL_PERCENTILE), "ms");
    report.metric("orientd.recover_s", recover_s, "s");
    crate::loadgen_metrics(report, &lat, cpu_util, stats, tenant_stats);
    report.note(format!(
        "tenant_mix: tenants={}x{} + 1x{} rate={}/s bursts={} reads={} verifies={} \
         orientd compactions={compactions} recover_s={recover_s:.3}",
        p.small_tenants,
        p.small_sensors,
        p.big_sensors,
        p.rate,
        lat.orient.len(),
        lat.query.len(),
        lat.verify.len()
    ));

    if args.trace {
        let mut tracer = Tracer::new();
        let big = s.tenants.len() - 1;
        crate::static_build::static_layers(&s.tenants[big].dep.seeds, &mut tracer, report);
        let pairs: Vec<(&Tenant, &Replayed)> = s.tenants.iter().zip(replays.iter()).collect();
        dynamic_layers(&pairs, replays[big].session_new, report);
        replay_layer(&replays[big].session, report);
        let inproc = in_process(&s, &mut tracer, report);
        let mut shadows: Vec<(&str, &mut DynamicSolverSession)> = s
            .tenants
            .iter()
            .zip(replays.iter_mut())
            .map(|(t, r)| (t.dep.name.as_str(), &mut r.session))
            .collect();
        check_bits(&inproc.service, &mut shadows, report);
        drop(shadows);
        let refs: Vec<&Replayed> = replays.iter().collect();
        publish_and_gaps(&inproc, &refs, &lat, report);
        store_layers(&s, scratch, report)?;
        let copy = scratch.join("data-copy");
        copy_tree(&data, &copy)?;
        let (recovered, took) = timed(|| Store::open(&copy, StoreConfig::default())?.recover());
        if recovered?.tenants.len() != s.tenants.len() {
            report.mismatch("Store::recover did not rebuild every tenant");
        }
        report.metric("store.recover_s", took.as_secs_f64(), "s");
        crate::write_spans(&tracer, "tenant_mix", report);
    }
    Ok(())
}

/// `DynamicSolverSession::replay` of the large tenant's live set.
fn replay_layer(session: &DynamicSolverSession, report: &mut Report) {
    let inst = session.instance();
    let base: Vec<(usize, Point)> = inst
        .ids()
        .into_iter()
        .map(|id| (id, inst.point(id).expect("live id")))
        .collect();
    let budget = AntennaBudget::new(K, phi());
    let (rebuilt, took) =
        timed(|| DynamicSolverSession::replay(budget, &base, inst.next_id(), &[]));
    match rebuilt {
        Ok(r) if r.instance().lmax().to_bits() == inst.lmax().to_bits() => {}
        _ => report.mismatch("replay of the large tenant differs from its live session"),
    }
    report.metric("core.dynamic.replay_s", took.as_secs_f64(), "s");
}

/// The WAL path on a shadow `Store` with the server's default config:
/// every acknowledged edit appended (timed), and each flush committing and
/// compacting past the thresholds (timed) the way the registry does.
fn store_layers(s: &Schedule, scratch: &Path, report: &mut Report) -> std::io::Result<()> {
    let store = Store::open(scratch.join("shadow"), StoreConfig::default())?;
    let mut wals = BTreeMap::new();
    let mut live: BTreeMap<&str, (BTreeMap<usize, Point>, usize)> = BTreeMap::new();
    for t in &s.tenants {
        let name = t.dep.name.as_str();
        wals.insert(name, store.create_tenant(name, K, phi(), &t.dep.seeds)?);
        live.insert(
            name,
            (
                t.dep.seeds.iter().copied().enumerate().collect(),
                t.dep.seeds.len(),
            ),
        );
    }
    let (mut append, mut compact) = (Vec::new(), Vec::new());
    let (mut bytes, mut edits) = (0u64, 0u64);
    for line in s.lines_in_time_order() {
        match parse_request(line) {
            Ok(Request::Edit { name, op }) => {
                let wal = wals.get_mut(name.as_str()).expect("known tenant");
                let (set, next_id) = live.get_mut(name.as_str()).expect("known tenant");
                let edit = match op {
                    EditOp::Insert(x, y) => {
                        set.insert(*next_id, Point::new(x, y));
                        *next_id += 1;
                        Edit::Insert(Point::new(x, y))
                    }
                    EditOp::Remove(id) => {
                        set.remove(&id);
                        Edit::Remove(id)
                    }
                    EditOp::Move(id, x, y) => {
                        set.insert(id, Point::new(x, y));
                        Edit::Move(id, Point::new(x, y))
                    }
                };
                let before = wal.wal_bytes();
                let (appended, took) = timed(|| wal.append_edit(&edit));
                appended?;
                append.push(us(took));
                bytes += wal.wal_bytes().saturating_sub(before);
                edits += 1;
            }
            Ok(Request::Orient { name } | Request::Verify { name }) => {
                let wal = wals.get_mut(name.as_str()).expect("known tenant");
                wal.commit();
                if wal.needs_compaction() {
                    compact.push(compact_timed(wal, &live[name.as_str()])?);
                }
            }
            _ => {}
        }
    }
    // Few logs reach the threshold in one run, so every tenant's log is
    // also compacted once at the end to time the snapshot write itself.
    let triggered = compact.len();
    for (name, wal) in &mut wals {
        compact.push(compact_timed(wal, &live[name])?);
    }
    report.metric("store.wal.append_p50_us", median(&append), "us");
    report.tail_metric("store.wal.append_tail_us", &tail(&append), "us");
    report.metric("store.wal.compact_ms", median(&compact), "ms");
    report.metric("store.wal.compactions", triggered as f64, "count");
    report.metric(
        "store.wal.bytes_per_edit",
        bytes as f64 / edits.max(1) as f64,
        "bytes",
    );
    Ok(())
}

/// One timed `TenantWal::compact` of a tenant's live `(ids → point, next_id)`.
fn compact_timed(
    wal: &mut TenantWal,
    (set, next_id): &(BTreeMap<usize, Point>, usize),
) -> std::io::Result<f64> {
    let state: Vec<(usize, Point)> = set.iter().map(|(&i, &p)| (i, p)).collect();
    let (done, took) = timed(|| wal.compact(K, phi(), *next_id, state));
    done?;
    Ok(ms(took))
}

fn context(stage: &str, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{stage}: {e}"))
}
