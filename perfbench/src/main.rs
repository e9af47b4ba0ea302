//! The repository's benchmark: one workload per run, inputs generated from
//! `--seed`, outputs checked by an oracle, and every metric printed by name
//! with its unit.  The last line of standard output is one JSON object.
//!
//! ```text
//! perfbench --workload static_build|edit_stream|tenant_mix --seed N
//!           --seconds S --trace 0|1 --orientd PATH [--smoke]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics.  `--trace 1` repeats the load
//! and then calls each layer's public functions in process on the same
//! inputs, timing them from outside; it reports the per-layer metrics and
//! writes its spans under `.bench_build/perfbench/`.  `--smoke` shrinks every
//! input to a few hundred sensors.

mod edit_stream;
mod load;
mod measure;
mod plan;
mod static_build;
mod tenant_mix;
mod wire;

use load::Latencies;
use measure::{median, percentile, tail, Report, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Reported by every workload with `--trace 1`; a layer the workload does
/// not run reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("geometry.kdtree.build_ms", "ms"),
    ("graph.euclidean.mst_s", "s"),
    ("graph.euclidean.boruvka_self_s", "s"),
    ("graph.euclidean.mst_growth", "ratio"),
    ("graph.euclidean.parallel_speedup", "ratio"),
    ("core.solver.run_ms", "ms"),
    ("core.verify.digraph_ms", "ms"),
    ("core.verify.edges_per_sensor", "count"),
    ("graph.scc.summary_ms", "ms"),
    ("static.stage_coverage", "ratio"),
    ("core.dynamic.substrate_p50_ms", "ms"),
    ("core.dynamic.substrate_tail_ms", "ms"),
    ("core.dynamic.apply_p50_ms", "ms"),
    ("core.dynamic.apply_tail_ms", "ms"),
    ("core.dynamic.mst_changed_per_edit", "count"),
    ("core.dynamic.rows_per_burst", "count"),
    ("core.dynamic.session_new_s", "s"),
    ("core.dynamic.replay_s", "s"),
    ("serve.service.edit_us", "us"),
    ("serve.service.orient_us", "us"),
    ("serve.service.query_us", "us"),
    ("serve.service.verify_us", "us"),
    ("serve.registry.publish_ms", "ms"),
    ("serve.protocol.parse_us", "us"),
    ("store.wal.append_p50_us", "us"),
    ("store.wal.append_tail_us", "us"),
    ("store.wal.compact_ms", "ms"),
    ("store.wal.compactions", "count"),
    ("store.wal.bytes_per_edit", "bytes"),
    ("store.recover_s", "s"),
    ("orientd.cpu_util", "ratio"),
    ("orientd.recover_s", "s"),
    ("serve.stats.shed_requests", "count"),
    ("serve.stats.timed_out_connections", "count"),
    ("serve.stats.quota_rejections", "count"),
    ("serve.stats.errors", "count"),
    ("loadgen.send_lag_p99_ms", "ms"),
    ("loadgen.error_rate", "fraction"),
    ("loadgen.edit_p50_us", "us"),
    ("loadgen.edit_tail_us", "us"),
    ("loadgen.query_p50_us", "us"),
    ("loadgen.query_tail_us", "us"),
    ("loadgen.verify_p50_ms", "ms"),
    ("loadgen.orient_tail_ms", "ms"),
    ("gap.transport_queue_trace.edit_us", "us"),
    ("gap.transport_queue_trace.query_us", "us"),
    ("gap.transport_queue_trace.orient_ms", "ms"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub orientd: PathBuf,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        orientd: PathBuf::new(),
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => args.trace = value()? == "1",
            "--orientd" => args.orientd = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Metrics the serve workloads share: the load generator's per-verb view,
/// `orientd`'s CPU use and its final `STATS`.
pub fn loadgen_metrics(
    report: &mut Report,
    lat: &Latencies,
    cpu_util: f64,
    stats: &str,
    tenant_stats: &[String],
) {
    let field = |line: &str, key: &str| -> f64 {
        antennae_serve::protocol::payload_field(line, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    report.metric("orientd.cpu_util", cpu_util, "ratio");
    for key in ["shed_requests", "timed_out_connections", "errors"] {
        report.metric(&format!("serve.stats.{key}"), field(stats, key), "count");
    }
    let quota: f64 = tenant_stats
        .iter()
        .map(|l| field(l, "quota_rejections"))
        .sum();
    report.metric("serve.stats.quota_rejections", quota, "count");
    let mut lag = lat.send_lag.clone();
    lag.sort_by(f64::total_cmp);
    report.metric("loadgen.send_lag_p99_ms", percentile(&lag, 0.99), "ms");
    report.metric("loadgen.edit_p50_us", median(&lat.edit), "us");
    report.tail_metric("loadgen.edit_tail_us", &tail(&lat.edit), "us");
    report.metric("loadgen.query_p50_us", median(&lat.query), "us");
    report.tail_metric("loadgen.query_tail_us", &tail(&lat.query), "us");
    report.metric("loadgen.verify_p50_ms", median(&lat.verify), "ms");
    report.tail_metric("loadgen.orient_tail_ms", &tail(&lat.orient), "ms");
    for (took, tenant, at) in &lat.slowest {
        report.note(format!(
            "slow burst: {took:.3} ms on {tenant} due at {:.3} s",
            at.as_secs_f64()
        ));
    }
}

/// Writes the traced run's spans beside the build output.
pub fn write_spans(tracer: &Tracer, workload: &str, report: &mut Report) {
    let path = PathBuf::from(".bench_build")
        .join("perfbench")
        .join(format!("spans-{workload}-{}.tsv", std::process::id()));
    match tracer.write(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "static_build" => {
            static_build::run(&args, &mut report);
            Ok(())
        }
        "edit_stream" => edit_stream::run(&args, &mut report),
        "tenant_mix" => tenant_mix::run(&args, &mut report),
        other => Err(std::io::Error::other(format!("unknown workload {other:?}"))),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(2);
    }

    report.metric(
        "loadgen.error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "fraction",
    );
    let (names, kind): (&[(&'static str, &'static str)], &str) = if args.trace {
        (&PER_LAYER, "per-layer")
    } else {
        (&END_TO_END, "end-to-end")
    };
    let mut out = Report::default();
    for &(name, unit) in names {
        match report.get(name) {
            Some(value) => out.metric(name, value, unit),
            None if args.trace => {
                out.metric(name, 0.0, unit);
                out.note(format!("{name}: layer not run by {}", args.workload));
            }
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                return ExitCode::from(2);
            }
        }
    }
    out.attempted = report.attempted;
    out.failed = report.failed;
    out.mismatches = std::mem::take(&mut report.mismatches);
    for line in report.notes.iter().chain(&out.notes) {
        println!("# {line}");
    }
    for line in out.mismatches.iter().take(20) {
        println!("# MISMATCH {line}");
    }
    println!(
        "# error_rate {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!(
        "# {kind} metrics of {} (seed {}):",
        args.workload, args.seed
    );
    for (name, unit) in out.names() {
        println!("#   {name} = {} {unit}", out.get(name).unwrap_or(0.0));
    }
    println!("{}", out.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
