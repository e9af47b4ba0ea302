//! Service-layer headline: sustained edit throughput across **1000
//! concurrent deployments** through the full protocol path (parse →
//! per-tenant buffering → one coalesced incremental repair per flush →
//! serialize), against the serial one-deployment-at-a-time baseline a
//! client is stuck with when no service layer buffers for it: every edit
//! must be applied — and repaired — before the next one is issued.
//!
//! Three sides, all through [`LocalClient`] so the measured path is
//! byte-for-byte what the TCP server executes (only the socket hop is
//! elided):
//!
//! * `parallel/<threads>` — the service path: bursts buffered per tenant,
//!   one coalesced repair per `ORIENT`, fanned out over the same worker
//!   count the server's pool uses.
//! * `coalesced_1thread` — the identical request stream on one thread,
//!   isolating what coalescing alone buys (the threading term is the gap
//!   to `parallel`, which collapses to zero on a single-core container).
//! * `serial_baseline` — no batching: `ORIENT` after every `EDIT`, one
//!   deployment at a time, paying one incremental repair per edit.
//!
//! The committed `BENCH_*.json` trajectory records all three; the
//! acceptance bar is `parallel` ahead of `serial_baseline` at 1000
//! tenants.  The durable-mode twin of this sweep lives in the `store`
//! bench (`store/serve_sweep_1000_tenants`).

use antennae_bench::workloads::uniform_points;
use antennae_core::bounds::theorem2_spread_threshold;
use antennae_parallel::{default_threads, parallel_map};
use antennae_serve::{LocalClient, Service};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

const TENANTS: usize = 1000;
const SEEDS_PER_TENANT: usize = 8;
/// Edits buffered per tenant per iteration before the coalesced flush.
const BURST: usize = 4;

/// A service pre-populated with `TENANTS` small deployments.
fn populated_service() -> (Arc<Service>, Vec<String>) {
    let service = Arc::new(Service::new());
    let client = LocalClient::new(Arc::clone(&service));
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
    (service, names)
}

/// One tenant's burst: `BURST` edits (a bounded move oscillation) buffered
/// over the wire grammar, then one `ORIENT` paying a single coalesced
/// repair.  Returns the number of OK responses, so the bench can't be
/// optimized into skipping the protocol work.
fn burst(client: &LocalClient, name: &str, round: usize) -> usize {
    let mut ok = 0;
    for e in 0..BURST {
        let id = e % SEEDS_PER_TENANT;
        let dx = 0.3 + 0.1 * ((round + e) % 3) as f64;
        let line = format!("EDIT {name} MOVE {id} {dx} {}", 0.2 + 0.05 * e as f64);
        ok += usize::from(client.request(&line).is_ok());
    }
    ok += usize::from(client.request(&format!("ORIENT {name}")).is_ok());
    ok
}

/// Headline: all 1000 tenants bursting, fanned out over the default worker
/// count with the same chunk-claimed primitive the server's pool sizes by.
fn bench_parallel_edits(c: &mut Criterion) {
    let (service, names) = populated_service();
    let threads = default_threads();
    let mut group = c.benchmark_group("serve/edits_1000_tenants");
    let mut round = 0usize;
    group.bench_function(BenchmarkId::new("parallel", threads), |b| {
        b.iter(|| {
            round += 1;
            let client = LocalClient::new(Arc::clone(&service));
            let oks = parallel_map(&names, threads, |name| burst(&client, name, round));
            black_box(oks.iter().sum::<usize>())
        })
    });
    group.finish();
}

/// Identical coalesced request stream on one thread: the gap to
/// `parallel` is the threading term alone.
fn bench_coalesced_single_thread(c: &mut Criterion) {
    let (service, names) = populated_service();
    let client = LocalClient::new(service);
    let mut group = c.benchmark_group("serve/edits_1000_tenants");
    let mut round = 0usize;
    group.bench_function(BenchmarkId::new("coalesced_1thread", 1), |b| {
        b.iter(|| {
            round += 1;
            let total: usize = names.iter().map(|name| burst(&client, name, round)).sum();
            black_box(total)
        })
    });
    group.finish();
}

/// Serial one-deployment-at-a-time baseline: the same `BURST` moves per
/// tenant, but with no buffering layer every edit must be followed by an
/// `ORIENT` before the next is issued — one incremental repair per edit
/// instead of one per burst.
fn bench_serial_baseline(c: &mut Criterion) {
    let (service, names) = populated_service();
    let client = LocalClient::new(service);
    let mut group = c.benchmark_group("serve/edits_1000_tenants");
    let mut round = 0usize;
    group.bench_function(BenchmarkId::new("serial_baseline", 1), |b| {
        b.iter(|| {
            round += 1;
            let mut ok = 0usize;
            for name in &names {
                for e in 0..BURST {
                    let id = e % SEEDS_PER_TENANT;
                    let dx = 0.3 + 0.1 * ((round + e) % 3) as f64;
                    let line = format!("EDIT {name} MOVE {id} {dx} {}", 0.2 + 0.05 * e as f64);
                    ok += usize::from(client.request(&line).is_ok());
                    ok += usize::from(client.request(&format!("ORIENT {name}")).is_ok());
                }
            }
            black_box(ok)
        })
    });
    group.finish();
}

/// Snapshot reads while every tenant is mid-burst: QUERY must stay cheap
/// (it only clones an `Arc` and formats), pinning the lock-free read path.
fn bench_snapshot_reads(c: &mut Criterion) {
    let (service, names) = populated_service();
    let client = LocalClient::new(service);
    let mut group = c.benchmark_group("serve/query_snapshot");
    let mut i = 0usize;
    group.bench_function(BenchmarkId::from_parameter(TENANTS), |b| {
        b.iter(|| {
            i = (i + 1) % names.len();
            let response = client.request(&format!("QUERY {}", names[i]));
            black_box(response.is_ok())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_edits,
    bench_coalesced_single_thread,
    bench_serial_baseline,
    bench_snapshot_reads
);
criterion_main!(benches);
