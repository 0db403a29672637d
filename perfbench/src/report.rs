//! The end-to-end metric set, per-layer metric records, and the result
//! line the benchmark prints last.

use crate::checks::CheckError;
use crate::stats::{median, percentile, percentile_label, samples_beyond};
use fragalign::model::Score;
use serde::Value;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit string, e.g. `ms`, `1/s`, `ratio`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// What happened to one attempted op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpSample {
    /// Latency in milliseconds (on an open loop, from the op's
    /// scheduled send time).
    pub latency_ms: f64,
    /// Whether the op was answered and its output passed every check.
    /// A refused or failed op is `false`.
    pub ok: bool,
}

/// The raw material of a workload's end-to-end metrics.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Median program-side set-up time, seconds.
    pub setup_s: f64,
    /// One sample per op attempted in the timed phase.
    pub ops: Vec<OpSample>,
    /// Wall-clock length of the timed phase, seconds.
    pub wall_s: f64,
    /// Process CPU time (user + sys, all threads) of the timed phase.
    pub cpu_s: f64,
    /// Σ score of every answered op.
    pub score_sum: i64,
    /// Σ `score_upper_bound()` over the same ops.
    pub bound_sum: i64,
    /// The workload's fixed tail percentile.
    pub tail_q: f64,
    /// The workload's fixed latency limit, milliseconds.
    pub slo_ms: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mib: f64,
    /// Every failed check, described.
    pub problems: Vec<String>,
}

/// The end-to-end metrics, in report order: (name, unit).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("slo_ok_ratio", "ratio"),
    ("quality_ratio", "ratio"),
    ("error_ratio", "ratio"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics the result line carries. `error_ratio` is
/// printed in the table but travels in the line's `failed` /
/// `attempted` fields instead: it is 0 on a correct program, and a
/// gated metric must never read 0.
pub const GATED_END_TO_END: [&str; 8] = [
    "setup_s",
    "throughput_rps",
    "latency_p50_ms",
    "latency_tail_ms",
    "slo_ok_ratio",
    "quality_ratio",
    "cpu_ms_per_req",
    "peak_rss_mb",
];

impl EndToEnd {
    /// An empty record for a workload with this tail percentile and
    /// latency limit; the run fills in the rest.
    pub fn new(tail_q: f64, slo_ms: f64) -> Self {
        EndToEnd {
            setup_s: 0.0,
            ops: Vec::new(),
            wall_s: 0.0,
            cpu_s: 0.0,
            score_sum: 0,
            bound_sum: 0,
            tail_q,
            slo_ms,
            peak_rss_mib: 0.0,
            problems: Vec::new(),
        }
    }

    /// Account one op on `input`: its latency, its instance's upper
    /// bound, and the verdict of its output checks.
    pub fn record(
        &mut self,
        input: usize,
        latency_ms: f64,
        bound: Score,
        verdict: Result<Score, CheckError>,
    ) {
        self.bound_sum += bound;
        let ok = match verdict {
            Ok(score) => {
                self.score_sum += score;
                true
            }
            Err(e) => {
                self.problems.push(format!("op on input {input}: {e}"));
                false
            }
        };
        self.ops.push(OpSample { latency_ms, ok });
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Ops that failed, were refused, or were wrong.
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    /// Ops answered correctly within the latency limit.
    pub fn slo_ok(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.ok && o.latency_ms <= self.slo_ms)
            .count() as u64
    }

    /// Latencies of every attempted op, milliseconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.latency_ms).collect()
    }

    /// The nine end-to-end metrics in [`END_TO_END`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.ops.len().max(1) as f64;
        let lat = self.latencies();
        let values = [
            self.setup_s,
            self.ops.len() as f64 / self.wall_s,
            median(&lat).unwrap_or(f64::NAN),
            percentile(&lat, self.tail_q).unwrap_or(f64::NAN),
            self.slo_ok() as f64 / n,
            self.score_sum as f64 / self.bound_sum.max(1) as f64,
            self.failed() as f64 / n,
            self.cpu_s * 1e3 / n,
            self.peak_rss_mib,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, unit, value))
            .collect()
    }

    /// How the tail was taken, for the report: `p90 of 152 ops, 15
    /// beyond`.
    pub fn tail_note(&self) -> String {
        format!(
            "{} of {} ops, {} beyond; latency limit {} ms",
            percentile_label(self.tail_q),
            self.ops.len(),
            samples_beyond(self.ops.len(), self.tail_q),
            self.slo_ms
        )
    }
}

/// Render the result line: one JSON object with `correct`,
/// `attempted`, `failed` and the chosen metrics. A value that is not
/// finite (which a correct run never produces) becomes `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let entry = |k: &str, v: Value| (k.to_string(), v);
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = Value::Object(vec![
                entry("value", Value::Float(m.value)),
                entry("unit", Value::Str(m.unit.to_string())),
            ]);
            (m.name.clone(), value)
        })
        .collect();
    let line = Value::Object(vec![
        entry("correct", Value::Bool(correct)),
        entry("attempted", Value::Int(attempted as i64)),
        entry("failed", Value::Int(failed as i64)),
        entry("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always renders")
}

/// Print a table of metrics under a heading, one per line.
pub fn print_table(heading: &str, metrics: &[Metric]) {
    println!("== {heading}");
    for m in metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}
