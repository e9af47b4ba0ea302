//! `edit_stream`: one large ephemeral tenant on `orientd`.  Connection 0
//! sends open-loop bursts of 1–4 churn `EDIT`s, each followed by `ORIENT`;
//! connection 1 sends point `QUERY`s at a fixed rate beside them.

use crate::load::{
    check_bits, dynamic_layers, in_process, publish_and_gaps, replay, run_load, set_up_rounds,
    Schedule, Tenant,
};
use crate::measure::{median, proc_status_mb, tail_at, Report, Tracer};
use crate::plan::{burst_size, poisson_times, query_line, rng, round3, verify_line, Deployment};
use crate::wire::{Conn, Orientd};
use crate::Args;
use antennae_bench::workloads::uniform_points;
use rand::Rng;

const NAME: &str = "stream";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Percentile of `op_tail_ms`.  A few edits per run repair the MST for
/// 0.1–0.2 s, and how many land in a 20 s run varies from seed to seed; p75
/// stays below them, so it repeats.  The rarer tail is
/// `loadgen.orient_tail_ms`.
const TAIL_PERCENTILE: f64 = 0.75;

struct Params {
    sensors: usize,
    /// Edit bursts per second (each 1–4 edits, then `ORIENT`).
    burst_rate: f64,
    /// Point reads per second on the second connection.
    query_rate: f64,
}

fn params(args: &Args) -> Params {
    if args.smoke {
        Params {
            sensors: 300,
            burst_rate: 20.0,
            query_rate: 50.0,
        }
    } else {
        Params {
            sensors: 20_000,
            burst_rate: 5.0,
            query_rate: 200.0,
        }
    }
}

fn schedule(args: &Args, p: &Params) -> Schedule {
    let seeds = round3(uniform_points(p.sensors, args.seed));
    let side = (p.sensors as f64).sqrt() * 2.0;
    let dep = Deployment::new(NAME, seeds, side, 1.0, p.sensors / 2, args.seed ^ 0xED17);
    let mut s = Schedule::new(vec![Tenant {
        dep,
        ops: Vec::new(),
        reads: Vec::new(),
    }]);
    let mut r = rng(args.seed, 1);
    for at in poisson_times(p.burst_rate, args.seconds, &mut r) {
        let size = burst_size(&mut r);
        s.burst(0, at, 0, size);
    }
    // Reads target seed sensors no edit removes, so every read must succeed.
    let stable = s.tenants[0].dep.surviving_seeds();
    for at in poisson_times(p.query_rate, args.seconds, &mut r) {
        let id = stable[r.random_range(0..stable.len())];
        s.read(1, at, 0, id);
    }
    s
}

/// Boots `orientd`, creates the tenant and runs the first `ORIENT`.
fn set_up(args: &Args, create: &str) -> std::io::Result<(Orientd, Conn)> {
    let server = Orientd::start(&args.orientd, None)?;
    let mut conn = Conn::connect(server.addr)?;
    for line in [create, &format!("ORIENT {NAME}")] {
        let reply = conn.request(line)?;
        if !reply.starts_with("OK") {
            return Err(std::io::Error::other(format!("set-up answered {reply}")));
        }
    }
    Ok((server, conn))
}

pub fn run(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let p = params(args);
    let rounds = if args.trace { 1 } else { SETUPS };
    let (mut s, server, conn) = set_up_rounds(rounds, report, || {
        let s = schedule(args, &p);
        let (server, conn) = set_up(args, &s.tenants[0].dep.create_line())?;
        Ok((s, server, conn))
    })?;
    let (lat, cpu_util, mut conn) = run_load(&mut s, &server, conn, report)?;

    // Final state, STATS and memory over connection 0, then shut down.
    let finals = conn.pipeline(&[
        format!("VERIFY {NAME}"),
        format!("QUERY {NAME}"),
        "STATS".to_string(),
        format!("STATS {NAME}"),
    ])?;
    report.attempted += 4;
    let rss = proc_status_mb(&server.pid().to_string(), "VmHWM:");
    server.shutdown(&mut conn)?;

    // Oracle: a bare session replaying exactly the acknowledged edits.
    let mut replayed = replay(&s.tenants[0], report);
    let rev = replayed.revision + 1;
    let n = replayed.session.instance().len();
    if finals[0] != verify_line(NAME, n, replayed.session.report(), rev) {
        report.mismatch(format!("final VERIFY {NAME}: {}", finals[0]));
    }
    if finals[1] != query_line(NAME, &replayed.session, rev) {
        report.mismatch(format!("final QUERY {NAME}: {}", finals[1]));
    }

    report.metric("peak_rss_mb", rss, "MB");
    report.metric("op_p50_ms", median(&lat.orient), "ms");
    report.tail_metric("op_tail_ms", &tail_at(&lat.orient, TAIL_PERCENTILE), "ms");
    crate::loadgen_metrics(report, &lat, cpu_util, &finals[2], &[finals[3].clone()]);
    report.note(format!(
        "edit_stream: n={} bursts={} reads={} burst_rate={}/s query_rate={}/s",
        p.sensors,
        lat.orient.len(),
        lat.query.len(),
        p.burst_rate,
        p.query_rate
    ));

    if args.trace {
        let mut tracer = Tracer::new();
        crate::static_build::static_layers(&s.tenants[0].dep.seeds, &mut tracer, report);
        dynamic_layers(&[(&s.tenants[0], &replayed)], replayed.session_new, report);
        let inproc = in_process(&s, &mut tracer, report);
        check_bits(
            &inproc.service,
            &mut [(NAME, &mut replayed.session)],
            report,
        );
        publish_and_gaps(&inproc, &[&replayed], &lat, report);
        crate::write_spans(&tracer, "edit_stream", report);
    }
    Ok(())
}
