//! Inputs of the serve workloads, generated from the seed: deployments with
//! their projected state, churn edits rendered as protocol lines the way
//! `antennae_sim::serve_script` renders them, Poisson arrival times and
//! Zipf tenant popularity.
//!
//! The projected state mirrors the server's id rules (dense monotone ids,
//! `pick % live` over ascending live ids), so the id every `EDIT INSERT`
//! acknowledgement must carry is known in advance.

use antennae_core::dynamic::Edit;
use antennae_core::verify::VerificationReport;
use antennae_geometry::Point;
use antennae_sim::events::{churn_trace, ChurnMix, ChurnOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Budget every deployment is created with: k = 2 at the Theorem-2
/// threshold, the regime the server repairs incrementally.
pub const K: usize = 2;

/// Rounds to 3 decimals, so a 6·10⁴-sensor `CREATE` fits the 1 MiB line
/// cap; `{}` then prints the value back exactly.
pub fn round3(points: Vec<Point>) -> Vec<Point> {
    points
        .into_iter()
        .map(|p| Point::new((p.x * 1e3).round() / 1e3, (p.y * 1e3).round() / 1e3))
        .collect()
}

/// One deployment's projected state and its private churn source.
pub struct Deployment {
    pub name: String,
    pub seeds: Vec<Point>,
    side: f64,
    max_step: f64,
    min_live: usize,
    seed: u64,
    generation: u64,
    trace: Vec<ChurnOp>,
    cursor: usize,
    /// Position per ever-assigned id, `None` once removed.
    slots: Vec<Option<Point>>,
    /// Live ids, ascending.
    live: Vec<usize>,
}

impl Deployment {
    /// `min_live` keeps failures from draining the deployment: a failure
    /// event is skipped while at most that many sensors are live.
    pub fn new(
        name: &str,
        seeds: Vec<Point>,
        side: f64,
        max_step: f64,
        min_live: usize,
        seed: u64,
    ) -> Self {
        Deployment {
            name: name.to_string(),
            slots: seeds.iter().copied().map(Some).collect(),
            live: (0..seeds.len()).collect(),
            seeds,
            side,
            max_step,
            min_live,
            seed,
            generation: 0,
            trace: Vec::new(),
            cursor: 0,
        }
    }

    pub fn create_line(&self) -> String {
        let mut line = format!("CREATE {} {K} {}", self.name, phi());
        for p in &self.seeds {
            line.push_str(&format!(" {} {}", p.x, p.y));
        }
        line
    }

    fn next_op(&mut self) -> ChurnOp {
        if self.cursor == self.trace.len() {
            self.trace = churn_trace(
                ChurnMix::balanced(1.0),
                1024,
                self.side,
                self.max_step,
                self.seed ^ (self.generation << 40),
            )
            .into_iter()
            .map(|e| e.op)
            .collect();
            self.generation += 1;
            self.cursor = 0;
        }
        self.cursor += 1;
        self.trace[self.cursor - 1]
    }

    /// The next churn edit, applied to the projected state, with its line.
    pub fn next_edit(&mut self) -> (Edit, String) {
        let name = &self.name.clone();
        loop {
            match self.next_op() {
                ChurnOp::Arrive(p) => {
                    self.live.push(self.slots.len());
                    self.slots.push(Some(p));
                    return (
                        Edit::Insert(p),
                        format!("EDIT {name} INSERT {} {}", p.x, p.y),
                    );
                }
                ChurnOp::Fail { pick } => {
                    if self.live.len() <= self.min_live {
                        continue;
                    }
                    let id = self.live.remove((pick % self.live.len() as u64) as usize);
                    self.slots[id] = None;
                    return (Edit::Remove(id), format!("EDIT {name} REMOVE {id}"));
                }
                ChurnOp::Step { pick, dx, dy } => {
                    let id = self.live[(pick % self.live.len() as u64) as usize];
                    let from = self.slots[id].expect("live id has a position");
                    let to = Point::new(from.x + dx, from.y + dy);
                    self.slots[id] = Some(to);
                    return (
                        Edit::Move(id, to),
                        format!("EDIT {name} MOVE {id} {} {}", to.x, to.y),
                    );
                }
            }
        }
    }

    /// A live id chosen by `draw`.
    pub fn live_id(&self, draw: u64) -> usize {
        self.live[(draw % self.live.len() as u64) as usize]
    }

    /// Ids assigned so far (the next insert's id).
    pub fn next_id(&self) -> usize {
        self.slots.len()
    }

    /// Seed ids no edit has removed so far.
    pub fn surviving_seeds(&self) -> Vec<usize> {
        (0..self.seeds.len())
            .filter(|&i| self.slots[i].is_some())
            .collect()
    }
}

pub fn phi() -> f64 {
    antennae_core::bounds::theorem2_spread_threshold(K)
}

/// Arrival times of a Poisson process of `rate` per second over `seconds`.
pub fn poisson_times(rate: f64, seconds: f64, rng: &mut StdRng) -> Vec<Duration> {
    let mut times = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate;
        if t >= seconds {
            return times;
        }
        times.push(Duration::from_secs_f64(t));
    }
}

/// Burst size: 1 to 4 edits, uniform.
pub fn burst_size(rng: &mut StdRng) -> usize {
    rng.random_range(1..5usize)
}

/// An independent generator per `(seed, stream)`.  The seed is hashed
/// first: the vendored `StdRng` is SplitMix64, whose streams from nearby raw
/// states are shifted copies of each other.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    let mut z = seed ^ stream.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Zipf popularity over `n` ranks with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n` (0 is the most popular).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The `ORIENT` payload the server must answer for a repair.
pub fn orient_line(
    name: &str,
    n: usize,
    o: &antennae_core::dynamic::BatchOutcome,
    revision: u64,
) -> String {
    format!(
        "OK orient {name} n={n} applied={} algo={} incremental={} mst_changed={} rows={} valid={} \
         radius={:.6} radius_over_lmax={:.6} revision={revision}",
        o.applied,
        o.algorithm,
        o.incremental_orientation,
        o.mst_changed,
        o.rows_recomputed,
        o.report.is_valid(),
        o.report.max_radius,
        o.measured_radius_over_lmax,
    )
}

/// The `VERIFY` payload for a verdict.
pub fn verify_line(name: &str, n: usize, r: &VerificationReport, revision: u64) -> String {
    format!(
        "OK verify {name} n={n} valid={} strongly_connected={} scc={} edges={} max_radius={:.6} \
         radius_over_lmax={:.6} spread={:.6} antennas={} violations={} revision={revision}",
        r.is_valid(),
        r.is_strongly_connected,
        r.scc_count,
        r.edge_count,
        r.max_radius,
        r.max_radius_over_lmax,
        r.max_spread_sum,
        r.max_antenna_count,
        r.violations.len(),
    )
}

/// The `QUERY <name>` payload of a session with nothing pending.
pub fn query_line(
    name: &str,
    s: &antennae_core::dynamic::DynamicSolverSession,
    revision: u64,
) -> String {
    let r = s.report();
    format!(
        "OK query {name} n={} pending=0 revision={revision} lmax={:.6} mst_weight={:.6} algo={} \
         valid={} strongly_connected={} edges={}",
        s.instance().len(),
        s.instance().lmax(),
        s.instance().mst_total_weight(),
        s.algorithm(),
        r.is_valid(),
        r.is_strongly_connected,
        r.edge_count,
    )
}

/// The `QUERY <name> <id>` payload for a live sensor.
pub fn point_line(name: &str, id: usize, p: Point, revision: u64) -> String {
    format!(
        "OK query {name} id={id} x={:.6} y={:.6} revision={revision}",
        p.x, p.y
    )
}

/// The `EDIT` acknowledgement for the `pending`-th buffered edit.
pub fn edit_ack(name: &str, edit: &Edit, id: usize, pending: usize) -> String {
    match edit {
        Edit::Insert(_) => format!("OK edit {name} id={id} pending={pending}"),
        _ => format!("OK edit {name} pending={pending}"),
    }
}

/// Revision carried by a `revision=` field.
pub fn revision_of(line: &str) -> Option<u64> {
    line.rsplit_once("revision=")?
        .1
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `line` with its `revision=` value masked.
pub fn mask_revision(line: &str) -> String {
    match line.split_once("revision=") {
        Some((head, rest)) => {
            let tail = rest.split_once(' ').map_or("", |(_, t)| t);
            format!("{head}revision=* {tail}").trim_end().to_string()
        }
        None => line.to_string(),
    }
}
