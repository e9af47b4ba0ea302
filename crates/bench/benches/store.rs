//! Durability-layer headline numbers:
//!
//! * `store/wal_append/<policy>` — single-record append cost under each
//!   sync policy.  `always` pays an fsync per record, `every-n=32`
//!   amortizes it across a burst, `never` is the pure framing+CRC+buffer
//!   cost — the spread is the price list the `--sync` flag chooses from.
//! * `store/recover/1000` — cold-boot recovery of a 1000-tenant data
//!   directory (snapshot read + WAL salvage + one coalesced replay per
//!   tenant).  The acceptance bar is under two seconds per pass.
//! * `store/recover_tenant/{10000,100000}` — recovery of one large tenant
//!   from a snapshot plus a short WAL tail: one bulk build of the snapshot
//!   (O(n log n), sharded per the default `auto` spec) and one coalesced
//!   tail repair, so 10× the sensors should cost about 10× the time.
//! * `store/serve_sweep_1000_tenants/{ephemeral,durable_every_n}` — the
//!   serve bench's coalesced 1000-tenant burst sweep, ephemeral versus
//!   `--data-dir` with the default group-commit policy.  The gap between
//!   the two ids *is* the durable overhead (acceptance: ≤15%).
//!
//! Everything runs through the real protocol path ([`LocalClient`]) or the
//! real store types — no mocked I/O.

use antennae_bench::workloads::uniform_points;
use antennae_core::bounds::theorem2_spread_threshold;
use antennae_core::dynamic::Edit;
use antennae_geometry::Point;
use antennae_serve::{LocalClient, Service};
use antennae_store::{Store, StoreConfig, SyncPolicy, WalRecord, WalWriter};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

const TENANTS: usize = 1000;
const SEEDS_PER_TENANT: usize = 8;
const BURST: usize = 4;

fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "antennae-store-bench-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    dir
}

/// Append cost per policy.  The log is reset (truncated to the committed
/// watermark, i.e. empty) every 8192 records so the file never grows
/// unboundedly during the `never`-policy's very fast iterations; the
/// occasional `set_len` amortizes to noise.
fn bench_wal_append(c: &mut Criterion) {
    let root = bench_dir("append");
    let mut group = c.benchmark_group("store/wal_append");
    for policy in [
        SyncPolicy::Always,
        SyncPolicy::EveryN(32),
        SyncPolicy::Never,
    ] {
        let path = root.join(format!("{}.log", policy.as_flag()));
        let mut writer = WalWriter::create(&path, policy).expect("create log");
        let record = WalRecord::Edit(Edit::Move(3, Point::new(1.25, -0.5)));
        group.bench_function(BenchmarkId::from_parameter(policy.as_flag()), |b| {
            b.iter(|| {
                writer.append(&record).expect("append");
                if writer.records() >= 8192 {
                    writer.rollback_to_committed().expect("reset log");
                }
                black_box(writer.bytes())
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

/// Cold recovery of a 1000-tenant directory: every tenant is a small
/// deployment (CREATE + a short edit tail), so the pass is dominated by the
/// per-tenant fixed costs recovery actually pays at boot — directory walk,
/// snapshot/WAL reads, CRC validation and one coalesced replay each.
fn bench_recover_1k(c: &mut Criterion) {
    let root = bench_dir("recover");
    let store = Store::open(
        &root,
        StoreConfig {
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        },
    )
    .expect("open store");
    let phi = theorem2_spread_threshold(2);
    for t in 0..TENANTS {
        let seeds = uniform_points(4, t as u64 + 1);
        let mut wal = store
            .create_tenant(&format!("t{t}"), 2, phi, &seeds)
            .expect("create tenant");
        wal.append_edit(&Edit::Insert(Point::new(0.1 * t as f64 % 3.0, 0.5)))
            .expect("edit");
        wal.append_edit(&Edit::Move(1, Point::new(0.75, 0.25)))
            .expect("edit");
        wal.commit();
        wal.sync().expect("close cleanly");
    }

    let mut group = c.benchmark_group("store/recover");
    group.bench_function(BenchmarkId::from_parameter(TENANTS), |b| {
        b.iter(|| {
            let recovery = store.recover().expect("recover");
            assert_eq!(recovery.tenants.len(), TENANTS);
            assert!(recovery.skipped.is_empty());
            black_box(recovery.tenants.len())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

/// Recovery of one large tenant: a snapshot of `n` uniform sensors plus a
/// WAL tail of moves, inserts and removes.
fn bench_recover_tenant(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/recover_tenant");
    let phi = theorem2_spread_threshold(2);
    for n in [10_000usize, 100_000] {
        let root = bench_dir(&format!("recover-tenant-{n}"));
        let config = StoreConfig {
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        };
        let store = Store::open(&root, config).expect("open store");
        let seeds = uniform_points(n, 5);
        let mut wal = store
            .create_tenant("big", 2, phi, &seeds)
            .expect("create tenant");
        let live = seeds.iter().copied().enumerate().collect();
        wal.compact(2, phi, n, live).expect("snapshot");
        for e in 0..16 {
            let p = seeds[e * 97];
            let edit = match e % 4 {
                0 => Edit::Insert(Point::new(p.x + 0.5, p.y + 0.25)),
                1 => Edit::Remove(e * 97 + 1),
                _ => Edit::Move(e * 97, Point::new(p.x + 0.3, p.y - 0.2)),
            };
            wal.append_edit(&edit).expect("edit");
        }
        wal.commit();
        wal.sync().expect("close cleanly");
        drop(wal);

        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let recovery = store.recover().expect("recover");
                assert_eq!(recovery.tenants.len(), 1, "{:?}", recovery.skipped);
                black_box(recovery.tenants[0].session.instance().len())
            })
        });
        let _ = std::fs::remove_dir_all(&root);
    }
    group.finish();
}

/// One coalesced burst sweep over every tenant (the serve bench's
/// `coalesced_1thread` shape), returning the OK count.
fn sweep(client: &LocalClient, names: &[String], round: usize) -> usize {
    let mut ok = 0;
    for name in names {
        for e in 0..BURST {
            let id = e % SEEDS_PER_TENANT;
            let dx = 0.3 + 0.1 * ((round + e) % 3) as f64;
            let line = format!("EDIT {name} MOVE {id} {dx} {}", 0.2 + 0.05 * e as f64);
            ok += usize::from(client.request(&line).is_ok());
        }
        ok += usize::from(client.request(&format!("ORIENT {name}")).is_ok());
    }
    ok
}

fn populated(service: Arc<Service>) -> (LocalClient, Vec<String>) {
    let client = LocalClient::new(service);
    let phi = theorem2_spread_threshold(2);
    let names: Vec<String> = (0..TENANTS).map(|t| format!("t{t}")).collect();
    for (t, name) in names.iter().enumerate() {
        let mut line = format!("CREATE {name} 2 {phi}");
        for p in uniform_points(SEEDS_PER_TENANT, t as u64 + 1) {
            line.push_str(&format!(" {} {}", p.x, p.y));
        }
        let response = client.request(&line).to_line();
        assert!(response.starts_with("OK created"), "{response}");
    }
    (client, names)
}

/// Ephemeral side of the durable-overhead pair.
fn bench_sweep_ephemeral(c: &mut Criterion) {
    let (client, names) = populated(Arc::new(Service::new()));
    let mut group = c.benchmark_group("store/serve_sweep_1000_tenants");
    let mut round = 0usize;
    group.bench_function("ephemeral", |b| {
        b.iter(|| {
            round += 1;
            black_box(sweep(&client, &names, round))
        })
    });
    group.finish();
}

/// Durable side: same request stream, every edit logged under the default
/// `every-n=32` group-commit policy (plus whatever compactions trigger).
fn bench_sweep_durable(c: &mut Criterion) {
    let root = bench_dir("sweep");
    let store = Store::open(&root, StoreConfig::default()).expect("open store");
    let (service, _) = Service::open_durable(store).expect("durable service");
    let (client, names) = populated(Arc::new(service));
    let mut group = c.benchmark_group("store/serve_sweep_1000_tenants");
    let mut round = 0usize;
    group.bench_function("durable_every_n", |b| {
        b.iter(|| {
            round += 1;
            black_box(sweep(&client, &names, round))
        })
    });
    group.finish();
    drop(client);
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(
    benches,
    bench_wal_append,
    bench_recover_1k,
    bench_recover_tenant,
    bench_sweep_ephemeral,
    bench_sweep_durable
);
criterion_main!(benches);
