//! The serve workloads' shared machinery: a schedule of per-tenant requests
//! spread over two connections, the open-loop run over TCP, and the oracle
//! that replays exactly the acknowledged edits on bare sessions.

use crate::measure::{median, ms, proc_cpu_s, tail, timed, us, Report, Tracer};
use crate::plan::{edit_ack, orient_line, point_line, revision_of, verify_line, Deployment, K};
use crate::wire::{open_loop, Conn, Orientd, Outcome, Planned};
use antennae_core::antenna::AntennaBudget;
use antennae_core::dynamic::{DynamicInstance, DynamicSolverSession, Edit};
use antennae_core::shard::ShardSpec;
use antennae_serve::{parse_request, Service};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One request of a tenant's history, with the responses the run got.
pub enum Op {
    /// `EDIT`s then `ORIENT`, all due at the same time.
    Burst {
        edits: Vec<Edit>,
        /// The id the burst's first insert must be assigned.
        first_id: usize,
        acks: Vec<Option<String>>,
        orient: Option<String>,
    },
    Verify(Option<String>),
}

/// A point read `QUERY <name> <id>` and its response.
pub struct Read {
    pub id: usize,
    pub response: Option<String>,
}

pub struct Tenant {
    pub dep: Deployment,
    pub ops: Vec<Op>,
    pub reads: Vec<Read>,
}

#[derive(Clone, Copy)]
enum Role {
    Ack { op: usize, j: usize },
    Orient { op: usize },
    Verify { op: usize },
    Read { read: usize },
}

/// Requests per verb, as latencies from their scheduled send.
#[derive(Default)]
pub struct Latencies {
    pub edit: Vec<f64>,
    pub orient: Vec<f64>,
    pub query: Vec<f64>,
    pub verify: Vec<f64>,
    pub send_lag: Vec<f64>,
    /// The slowest bursts: `(ms, tenant, due at)`.
    pub slowest: Vec<(f64, String, Duration)>,
}

/// Every tenant plus the two connections' schedules.
pub struct Schedule {
    pub tenants: Vec<Tenant>,
    plans: [Vec<Planned>; 2],
    roles: [Vec<(usize, Role)>; 2],
}

impl Schedule {
    pub fn new(tenants: Vec<Tenant>) -> Self {
        Schedule {
            tenants,
            plans: [Vec::new(), Vec::new()],
            roles: [Vec::new(), Vec::new()],
        }
    }

    /// Schedules an edit burst of `size` plus `ORIENT` on tenant `t`.
    pub fn burst(&mut self, conn: usize, at: Duration, t: usize, size: usize) {
        let tenant = &mut self.tenants[t];
        let op = tenant.ops.len();
        let first_id = tenant.dep.next_id();
        let mut edits = Vec::with_capacity(size);
        for j in 0..size {
            let (edit, line) = tenant.dep.next_edit();
            edits.push(edit);
            self.plans[conn].push(Planned { at, line });
            self.roles[conn].push((t, Role::Ack { op, j }));
        }
        self.plans[conn].push(Planned {
            at,
            line: format!("ORIENT {}", tenant.dep.name),
        });
        self.roles[conn].push((t, Role::Orient { op }));
        tenant.ops.push(Op::Burst {
            acks: vec![None; edits.len()],
            edits,
            first_id,
            orient: None,
        });
    }

    pub fn verify(&mut self, conn: usize, at: Duration, t: usize) {
        let tenant = &mut self.tenants[t];
        let op = tenant.ops.len();
        tenant.ops.push(Op::Verify(None));
        self.plans[conn].push(Planned {
            at,
            line: format!("VERIFY {}", tenant.dep.name),
        });
        self.roles[conn].push((t, Role::Verify { op }));
    }

    pub fn read(&mut self, conn: usize, at: Duration, t: usize, id: usize) {
        let tenant = &mut self.tenants[t];
        let read = tenant.reads.len();
        tenant.reads.push(Read { id, response: None });
        self.plans[conn].push(Planned {
            at,
            line: format!("QUERY {} {id}", tenant.dep.name),
        });
        self.roles[conn].push((t, Role::Read { read }));
    }

    pub fn requests(&self) -> usize {
        self.plans[0].len() + self.plans[1].len()
    }

    /// Every scheduled line of both connections, merged by due time.
    pub fn lines_in_time_order(&self) -> Vec<&str> {
        let mut all: Vec<(Duration, usize, &str)> = Vec::with_capacity(self.requests());
        for (c, plan) in self.plans.iter().enumerate() {
            all.extend(plan.iter().map(|p| (p.at, c, p.line.as_str())));
        }
        all.sort_by_key(|&(at, c, _)| (at, c));
        all.into_iter().map(|(_, _, line)| line).collect()
    }

    /// Runs both schedules as open loops on `conns`, one thread each, and
    /// files every response with its request.
    pub fn run(&mut self, conns: &mut [Conn; 2]) -> Latencies {
        let start = Instant::now() + Duration::from_millis(20);
        let plans = &self.plans;
        let results: Vec<(Vec<Outcome>, Vec<Duration>)> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(plans.iter())
                .map(|(conn, plan)| s.spawn(move || open_loop(conn, plan, start)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let mut lat = Latencies::default();
        for (c, (outcomes, lag)) in results.into_iter().enumerate() {
            lat.send_lag.extend(lag.iter().map(|d| ms(*d)));
            for (i, (&(t, role), outcome)) in self.roles[c].iter().zip(outcomes).enumerate() {
                let tenant = &mut self.tenants[t];
                let answered = outcome.response.is_some();
                match role {
                    Role::Ack { op, j } => {
                        if let Op::Burst { acks, .. } = &mut tenant.ops[op] {
                            acks[j] = outcome.response;
                        }
                        if answered {
                            lat.edit.push(us(outcome.latency));
                        }
                    }
                    Role::Orient { op } => {
                        if let Op::Burst { orient, .. } = &mut tenant.ops[op] {
                            *orient = outcome.response;
                        }
                        if answered {
                            lat.orient.push(ms(outcome.latency));
                            lat.slowest.push((
                                ms(outcome.latency),
                                tenant.dep.name.clone(),
                                self.plans[c][i].at,
                            ));
                        }
                    }
                    Role::Verify { op } => {
                        tenant.ops[op] = Op::Verify(outcome.response);
                        if answered {
                            lat.verify.push(ms(outcome.latency));
                        }
                    }
                    Role::Read { read } => {
                        tenant.reads[read].response = outcome.response;
                        if answered {
                            lat.query.push(us(outcome.latency));
                        }
                    }
                }
            }
        }
        lat.slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
        lat.slowest.truncate(10);
        lat
    }
}

/// Runs `set_up` (input generation, `orientd` boot, every `CREATE` and the
/// first `ORIENT`) `rounds` times, records their median as `setup_s`, and
/// keeps the last set-up running; the others are shut down.
pub fn set_up_rounds(
    rounds: usize,
    report: &mut Report,
    mut set_up: impl FnMut() -> std::io::Result<(Schedule, Orientd, Conn)>,
) -> std::io::Result<(Schedule, Orientd, Conn)> {
    let mut times = Vec::with_capacity(rounds);
    loop {
        let start = Instant::now();
        let (s, server, mut conn) = set_up()?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= rounds {
            report.metric("setup_s", median(&times), "s");
            return Ok((s, server, conn));
        }
        server.shutdown(&mut conn)?;
    }
}

/// Runs the schedule over `conn0` and a second connection, and returns the
/// latencies, `orientd`'s CPU use over the load, and `conn0`.  Connection 1
/// is closed at the end: a connection that ends while `SHUTDOWN` syncs the
/// logs makes `orientd` close every connection, the one waiting for the
/// `SHUTDOWN` answer included.
pub fn run_load(
    s: &mut Schedule,
    server: &Orientd,
    conn0: Conn,
    report: &mut Report,
) -> std::io::Result<(Latencies, f64, Conn)> {
    let mut conns = [conn0, Conn::connect(server.addr)?];
    let (cpu0, wall0) = (proc_cpu_s(server.pid()), Instant::now());
    let lat = s.run(&mut conns);
    let cpu_util = (proc_cpu_s(server.pid()) - cpu0) / wall0.elapsed().as_secs_f64();
    report.attempted += s.requests() as u64;
    let [conn0, _] = conns;
    Ok((lat, cpu_util, conn0))
}

/// What replaying one tenant's acknowledged history produced.
pub struct Replayed {
    pub session: DynamicSolverSession,
    /// Revision the served tenant is at after its history.
    pub revision: u64,
    /// Per burst: `apply_coalesced` time, edits, `mst_changed`, rows.
    pub bursts: Vec<(Duration, usize, usize, usize)>,
    pub session_new: Duration,
}

fn expect(report: &mut Report, what: &str, got: Option<&String>, want: &str) {
    match got {
        Some(line) if line == want => {}
        Some(line) => report.mismatch(format!("{what}: got {line:?}, want {want:?}")),
        None => report.mismatch(format!("{what}: no response (want {want:?})")),
    }
}

/// Replays tenant `t`'s history on a bare session (sharded like the server's
/// `--shards auto`) and checks every response: insert ids, `ORIENT` and
/// `VERIFY` payloads, and each point read against the session state at the
/// revision the read reports.
pub fn replay(t: &Tenant, report: &mut Report) -> Replayed {
    let name = &t.dep.name;
    let budget = AntennaBudget::new(K, crate::plan::phi());
    let start = Instant::now();
    let inst =
        DynamicInstance::new_sharded(&t.dep.seeds, ShardSpec::Auto).expect("seed deployment");
    let mut session = DynamicSolverSession::new(inst, budget).expect("seed session");
    let session_new = start.elapsed();

    let mut reads: BTreeMap<u64, Vec<&Read>> = BTreeMap::new();
    for read in &t.reads {
        match read.response.as_deref().and_then(revision_of) {
            Some(rev) => reads.entry(rev).or_default().push(read),
            None => report.mismatch(format!("QUERY {name} {}: {:?}", read.id, read.response)),
        }
    }
    let mut check_reads = |rev: u64, session: &DynamicSolverSession, report: &mut Report| {
        for read in reads.remove(&rev).unwrap_or_default() {
            match session.instance().point(read.id) {
                Ok(p) => expect(
                    report,
                    &format!("QUERY {name} {}", read.id),
                    read.response.as_ref(),
                    &point_line(name, read.id, p, rev),
                ),
                Err(_) => report.mismatch(format!("QUERY {name} {}: id not live", read.id)),
            }
        }
    };

    // Revision 1 is the set-up ORIENT over the seeds.
    let mut revision = 1;
    check_reads(revision, &session, report);
    let mut bursts = Vec::new();
    for op in &t.ops {
        revision += 1;
        match op {
            Op::Burst {
                edits,
                first_id,
                acks,
                orient,
            } => {
                let start = Instant::now();
                let outcome = session.apply_coalesced(edits);
                let took = start.elapsed();
                let Ok(outcome) = outcome else {
                    report.mismatch(format!("{name}: shadow session rejected a burst"));
                    continue;
                };
                let mut id = *first_id;
                for (j, (edit, ack)) in edits.iter().zip(acks).enumerate() {
                    expect(
                        report,
                        &format!("EDIT {name}"),
                        ack.as_ref(),
                        &edit_ack(name, edit, id, j + 1),
                    );
                    if matches!(edit, Edit::Insert(_)) {
                        id += 1;
                    }
                }
                let n = session.instance().len();
                expect(
                    report,
                    &format!("ORIENT {name}"),
                    orient.as_ref(),
                    &orient_line(name, n, &outcome, revision),
                );
                bursts.push((
                    took,
                    edits.len(),
                    outcome.mst_changed,
                    outcome.rows_recomputed,
                ));
            }
            Op::Verify(response) => {
                if session.apply_coalesced(&[]).is_err() {
                    report.mismatch(format!("{name}: shadow session rejected a flush"));
                }
                let n = session.instance().len();
                expect(
                    report,
                    &format!("VERIFY {name}"),
                    response.as_ref(),
                    &verify_line(name, n, session.report(), revision),
                );
            }
        }
        check_reads(revision, &session, report);
    }
    for (rev, left) in reads {
        report.mismatch(format!(
            "{name}: {} reads at unknown revision {rev}",
            left.len()
        ));
    }
    Replayed {
        session,
        revision,
        bursts,
        session_new,
    }
}

/// `DynamicInstance::{insert,remove,move_sensor}` timed one edit at a time
/// on a shadow sharded instance: `(ms, edit, sensor id, mst_changed, burst)`.
fn substrate(t: &Tenant) -> Vec<(f64, &'static str, usize, usize, usize)> {
    let mut inst =
        DynamicInstance::new_sharded(&t.dep.seeds, ShardSpec::Auto).expect("seed deployment");
    let mut out = Vec::new();
    let bursts = t.ops.iter().filter_map(|op| match op {
        Op::Burst { edits, .. } => Some(edits),
        Op::Verify(_) => None,
    });
    for (burst, edits) in bursts.enumerate() {
        for edit in edits {
            let start = Instant::now();
            let (kind, id) = match *edit {
                Edit::Insert(p) => ("insert", inst.insert(p)),
                Edit::Remove(id) => {
                    inst.remove(id).expect("live id");
                    ("remove", id)
                }
                Edit::Move(id, p) => {
                    inst.move_sensor(id, p).expect("live id");
                    ("move", id)
                }
            };
            out.push((
                ms(start.elapsed()),
                kind,
                id,
                inst.changed_ids().len(),
                burst,
            ));
        }
    }
    out
}

/// The repair split of the shadow sessions and the substrate edits' tail,
/// over every `(tenant, its replay)` pair.
pub fn dynamic_layers(pairs: &[(&Tenant, &Replayed)], session_new: Duration, report: &mut Report) {
    let bursts: Vec<&(Duration, usize, usize, usize)> =
        pairs.iter().flat_map(|(_, r)| r.bursts.iter()).collect();
    let apply: Vec<f64> = bursts.iter().map(|b| ms(b.0)).collect();
    let edits: usize = bursts.iter().map(|b| b.1).sum();
    let changed: usize = bursts.iter().map(|b| b.2).sum();
    let rows: usize = bursts.iter().map(|b| b.3).sum();
    report.metric("core.dynamic.apply_p50_ms", median(&apply), "ms");
    report.tail_metric("core.dynamic.apply_tail_ms", &tail(&apply), "ms");
    report.metric(
        "core.dynamic.mst_changed_per_edit",
        changed as f64 / edits.max(1) as f64,
        "count",
    );
    report.metric(
        "core.dynamic.rows_per_burst",
        rows as f64 / bursts.len().max(1) as f64,
        "count",
    );
    report.metric("core.dynamic.session_new_s", session_new.as_secs_f64(), "s");

    let mut sub = Vec::new();
    for (t, replayed) in pairs {
        for (took, kind, id, changed, burst) in substrate(t) {
            let rows = replayed.bursts.get(burst).map_or(0, |b| b.3);
            sub.push((took, kind, id, changed, rows, t.dep.name.as_str()));
        }
    }
    let times: Vec<f64> = sub.iter().map(|e| e.0).collect();
    report.metric("core.dynamic.substrate_p50_ms", median(&times), "ms");
    report.tail_metric("core.dynamic.substrate_tail_ms", &tail(&times), "ms");
    sub.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (took, kind, id, changed, rows, name) in sub.iter().take(10) {
        report.note(format!(
            "slow substrate edit: {took:.3} ms {kind} {name} id={id} mst_changed={changed} \
             rows_recomputed={rows} (its burst)"
        ));
    }
}

/// `Service::handle_line` run in process over the same request stream.
pub struct InProcess {
    pub service: Service,
    /// Per `ORIENT`, in stream order: its tenant and its time.
    pub orients: Vec<(usize, Duration)>,
    pub per_verb_us: [f64; 4],
}

/// Replays the schedule's lines through an ephemeral in-process `Service`,
/// one span per request, and records the per-verb and parse costs.
pub fn in_process(s: &Schedule, tracer: &mut Tracer, report: &mut Report) -> InProcess {
    let service = Service::new();
    let index: BTreeMap<&str, usize> = s
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.dep.name.as_str(), i))
        .collect();
    for t in &s.tenants {
        service.handle_line(&t.dep.create_line());
        service.handle_line(&format!("ORIENT {}", t.dep.name));
    }
    let lines = s.lines_in_time_order();
    let mut per_verb: [Vec<f64>; 4] = Default::default();
    let mut orients = Vec::new();
    for (request, line) in lines.iter().enumerate() {
        let (reply, took) = tracer.span("serve.service.handle_line", None, request as u64, |_| {
            service.handle_line(line)
        });
        if !reply.starts_with("OK") {
            report.mismatch(format!("in-process {line}: {reply}"));
        }
        let mut words = line.split(' ');
        match (words.next(), words.next()) {
            (Some("EDIT"), _) => per_verb[0].push(us(took)),
            (Some("ORIENT"), Some(name)) => {
                per_verb[1].push(us(took));
                orients.push((index[name], took));
            }
            (Some("QUERY"), _) => per_verb[2].push(us(took)),
            _ => per_verb[3].push(us(took)),
        }
    }
    // A closing VERIFY per tenant keeps the verb measured on every workload.
    for t in &s.tenants {
        let (_, took) = timed(|| service.handle_line(&format!("VERIFY {}", t.dep.name)));
        per_verb[3].push(us(took));
    }
    let parse: Vec<f64> = lines
        .iter()
        .map(|l| us(timed(|| parse_request(l)).1))
        .collect();
    let per_verb_us = per_verb.each_ref().map(|v| median(v));
    for (verb, value) in ["edit", "orient", "query", "verify"]
        .iter()
        .zip(per_verb_us)
    {
        report.metric(&format!("serve.service.{verb}_us"), value, "us");
    }
    report.metric("serve.protocol.parse_us", median(&parse), "us");
    InProcess {
        service,
        orients,
        per_verb_us,
    }
}

/// Served state against the shadow sessions, under `f64::to_bits`.
pub fn check_bits(
    service: &Service,
    shadows: &mut [(&str, &mut DynamicSolverSession)],
    report: &mut Report,
) {
    for (name, shadow) in shadows.iter_mut() {
        let Ok(tenant) = service.registry().get(name) else {
            report.mismatch(format!("in-process tenant {name} missing"));
            continue;
        };
        let same = tenant.with_session_mut(|served| {
            served.instance().ids() == shadow.instance().ids()
                && served.instance().lmax().to_bits() == shadow.instance().lmax().to_bits()
                && served.instance().mst_total_weight().to_bits()
                    == shadow.instance().mst_total_weight().to_bits()
                && served.report() == shadow.report()
                && served.digraph() == shadow.digraph()
        });
        if !same {
            report.mismatch(format!(
                "in-process {name}: state differs from the bare session"
            ));
        }
    }
}

/// `serve.registry.publish_ms` (an `ORIENT` in process minus the shadow
/// repair of the same burst) and the gap between the TCP run and the
/// in-process run, which holds transport, queueing and tracing together.
pub fn publish_and_gaps(
    inproc: &InProcess,
    replays: &[&Replayed],
    lat: &Latencies,
    report: &mut Report,
) {
    let mut next = vec![0usize; replays.len()];
    let mut publish = Vec::new();
    for &(t, took) in &inproc.orients {
        if let Some(b) = replays.get(t).and_then(|r| r.bursts.get(next[t])) {
            publish.push(ms(took) - ms(b.0));
        }
        next[t] += 1;
    }
    report.metric("serve.registry.publish_ms", median(&publish), "ms");
    let [edit, orient, query, _] = inproc.per_verb_us;
    report.metric(
        "gap.transport_queue_trace.edit_us",
        median(&lat.edit) - edit,
        "us",
    );
    report.metric(
        "gap.transport_queue_trace.query_us",
        median(&lat.query) - query,
        "us",
    );
    report.metric(
        "gap.transport_queue_trace.orient_ms",
        median(&lat.orient) - orient / 1e3,
        "ms",
    );
}
