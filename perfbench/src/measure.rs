//! Measurement helpers: percentiles and tails, the metric set a run reports,
//! `/proc` readings, and the in-memory span recorder of the traced run.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending sample (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Percentiles a tail may be reported at, lowest first.
const TAIL_PERCENTILES: [f64; 7] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999];

/// The tail of a sample: the highest percentile, up to p99.9, with at least
/// ten samples beyond it; the maximum when the sample is too small for any.
pub struct Tail {
    /// The value at that percentile.
    pub value: f64,
    /// The percentile (`1.0` for the maximum).
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Computes [`Tail`] over an unsorted sample.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let chosen = TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| n - ((p * n as f64).ceil() as usize).min(n) >= 10);
    match chosen {
        Some(&p) => Tail {
            value: percentile(&sorted, p),
            percentile: p,
            samples: n,
        },
        None => Tail {
            value: sorted.last().copied().unwrap_or(0.0),
            percentile: 1.0,
            samples: n,
        },
    }
}

/// A fixed percentile as a [`Tail`], for closed loops whose sample count
/// moves with the speed of the code.
pub fn tail_at(values: &[f64], p: f64) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Tail {
        value: percentile(&sorted, p),
        percentile: p,
        samples: sorted.len(),
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The metrics a run reports, in insertion order, plus free-form notes
/// (sample counts, tail percentiles, the slowest edits) printed beside them.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches and other correctness failures, one line each.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a tail metric and notes its percentile and sample count.
    pub fn tail_metric(&mut self, name: &str, t: &Tail, unit: &'static str) {
        self.metric(name, t.value, unit);
        self.notes.push(format!(
            "{name}: p{} over {} samples",
            t.percentile * 100.0,
            t.samples
        ));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a correctness failure (counted in `failed`).
    pub fn mismatch(&mut self, line: impl Into<String>) {
        self.failed += 1;
        self.mismatches.push(line.into());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn names(&self) -> Vec<(&str, &'static str)> {
        self.metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// A `key:  <n> kB` field of `/proc/<pid>/status`, in MB.
pub fn proc_status_mb(pid: &str, key: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) a process has used, from `/proc/<pid>/stat`.
/// Assumes the Linux default of 100 clock ticks per second.
pub fn proc_cpu_s(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// One traced interval.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

/// Spans kept in memory during the traced run and written out at its end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result with the span's length.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, Duration) {
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        let out = f(self);
        let end = self.origin.elapsed();
        self.spans[index].end = end;
        (out, end - start)
    }

    /// Index of the span the next [`Tracer::span`] call opens (pass it as
    /// the parent of spans nested inside that call).
    pub fn next_index(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as a tab-separated line:
    /// `index name start_us end_us parent request`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("index\tname\tstart_us\tend_us\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{:.1}\t{:.1}\t{parent}\t{}",
                s.name,
                us(s.start),
                us(s.end),
                s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.percentile, 0.99);
        assert_eq!(t.value, 990.0);
        let small: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&small).value, 5.0);
        assert_eq!(tail(&small).percentile, 1.0);
    }
}
