//! The per-layer metric set and the per-instance layer probes the
//! traced run shares across workloads.

use crate::checks::{check_against_reference, encode_answer, Answer, CheckError, Outcome};
use crate::report::Metric;
use crate::spans::self_times;
use crate::stats::median;
use fragalign::align::ScoreOracle;
use fragalign::core::obs::TraceHandle;
use fragalign::core::obs::TraceSink;
use fragalign::core::{
    CancelToken, EngineOptions, InstanceFeatures, Router, SolveRun, SolverRegistry,
};
use fragalign::model::{check_consistency, FragId, Instance};
use fragalign::prelude::DpWorkspace;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric, in report order: (name, unit). A workload
/// that does not exercise a layer reports 0 for it and says so.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("core.engine.solve_ms.p50", "ms"),
    ("core.engine.route_us", "us"),
    ("core.engine.routed.csr", "ratio"),
    ("core.engine.routed.full", "ratio"),
    ("core.engine.routed.four", "ratio"),
    ("core.improve.attempts", "count/op"),
    ("core.improve.rounds", "count/op"),
    ("core.improve.us_per_attempt", "us"),
    ("core.batch.busy_ratio", "ratio"),
    ("obs.improve_round.self_ms", "ms"),
    ("obs.table_fill.self_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
    ("align.dp_fills", "count/op"),
    ("align.table_misses", "count/op"),
    ("align.pair_misses", "count/op"),
    ("align.fill_waste_ratio", "ratio"),
    ("align.table_fill_us", "us"),
    ("align.ms_us", "us"),
    ("model.decode_us", "us"),
    ("model.encode_us", "us"),
    ("model.consistency_us", "us"),
    ("serve.client.hit_ms.p50", "ms"),
    ("serve.client.miss_ms.p50", "ms"),
    ("serve.client.miss_ms.tail", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.server.queue_wait_ms.p50", "ms"),
    ("serve.server.queue_wait_ms.p99", "ms"),
    ("serve.server.service_ms.p50", "ms"),
    ("serve.server.service_ms.p99", "ms"),
    ("serve.http.parse_us", "us"),
    ("serve.cache.fingerprint_us", "us"),
    ("serve.admission.degraded", "count"),
    ("serve.rejected_503", "count"),
    ("serve.keepalive_reuse", "count"),
    ("serve.generator.late_ms", "ms"),
];

/// The solver every workload asks for: the shape router.
pub const SOLVER: &str = "auto";

/// Layer readings of one traced run, by metric name.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Record a reading. Panics on a name missing from [`PER_LAYER`]
    /// (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Every per-layer metric in [`PER_LAYER`] order, 0 for layers
    /// this workload does not exercise, plus the names of those.
    pub fn finish(self) -> (Vec<Metric>, Vec<&'static str>) {
        let mut unexercised = Vec::new();
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or_else(|| {
                    unexercised.push(name);
                    0.0
                });
                Metric::new(name, unit, value)
            })
            .collect();
        (metrics, unexercised)
    }
}

/// Solve each instance with `auto` on a dedicated pool of `width`
/// threads, one at a time, with a warm workspace.
pub fn solve_all(insts: &[&Instance], width: usize) -> Vec<SolveRun> {
    fragalign::par::with_threads(width, || {
        let mut ws = DpWorkspace::new();
        insts
            .iter()
            .map(|inst| {
                SolverRegistry::global()
                    .solve_traced(
                        SOLVER,
                        inst,
                        EngineOptions::default(),
                        &mut ws,
                        CancelToken::never(),
                        TraceHandle::disabled(),
                    )
                    .expect("auto runs on every instance")
            })
            .collect()
    })
    .0
}

/// Width-1 counters and the routed shares over `runs`, one per
/// distinct instance: attempts, rounds and the oracle counters are
/// exact at width 1.
pub fn record_width1(layers: &mut Layers, runs: &[SolveRun]) {
    let n = runs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&SolveRun) -> f64| runs.iter().map(f).sum::<f64>();
    let attempts = sum(&|r| r.report.attempts as f64);
    layers.set("core.improve.attempts", attempts / n);
    layers.set("core.improve.rounds", sum(&|r| r.report.rounds as f64) / n);
    layers.set("align.dp_fills", sum(&|r| r.report.dp_fills as f64) / n);
    layers.set(
        "align.table_misses",
        sum(&|r| r.report.table_misses as f64) / n,
    );
    layers.set(
        "align.pair_misses",
        sum(&|r| r.report.pair_misses as f64) / n,
    );
    let wall_us = sum(&|r| r.report.wall_secs) * 1e6;
    layers.set(
        "core.improve.us_per_attempt",
        if attempts > 0.0 {
            wall_us / attempts
        } else {
            0.0
        },
    );
    for (metric, solver) in [
        ("core.engine.routed.csr", "csr"),
        ("core.engine.routed.full", "full"),
        ("core.engine.routed.four", "four"),
    ] {
        let hits = runs
            .iter()
            .filter(|r| r.report.routed_by.as_deref() == Some(solver))
            .count();
        layers.set(metric, hits as f64 / n);
    }
}

/// `align.fill_waste_ratio`: Σ DP fills at width 2 over Σ at width 1
/// for the same instances.
pub fn record_fill_waste(layers: &mut Layers, width2_fills: u64, width1_fills: u64) {
    layers.set(
        "align.fill_waste_ratio",
        width2_fills as f64 / width1_fills.max(1) as f64,
    );
}

/// What the width-1 pass of a traced run found.
pub struct ReferencePass {
    /// Distinct input indices the ops touched, ascending.
    pub used: Vec<usize>,
    /// The width-1 run of each, in `used` order.
    pub refs: Vec<SolveRun>,
    /// Ops whose outcome failed a check or differed from its reference.
    pub failed: u64,
    /// Those failures, described.
    pub problems: Vec<String>,
}

/// The traced run's width-1 pass over the ops of its phases, given as
/// (input index, outcome, width-2 DP fills): solve every distinct
/// instance at width 1, record its counters and routed shares, check
/// every outcome against its instance's reference score, and record
/// `align.fill_waste_ratio` from each instance's first op.
pub fn reference_pass<'a>(
    layers: &mut Layers,
    insts: &[Instance],
    ops: &[(usize, Outcome<'a>, u64)],
) -> ReferencePass {
    let mut used: Vec<usize> = ops.iter().map(|(i, _, _)| *i).collect();
    used.sort_unstable();
    used.dedup();
    let used_insts: Vec<&Instance> = used.iter().map(|&i| &insts[i]).collect();
    let refs = solve_all(&used_insts, 1);
    record_width1(layers, &refs);
    let reference = |input: usize| &refs[used.binary_search(&input).expect("input is in used")];

    let mut pass_failed = 0;
    let mut problems = Vec::new();
    for (input, outcome, _) in ops {
        let verdict = outcome
            .map_err(|e| CheckError::Failed(e.to_string()))
            .and_then(|(score, matches)| {
                check_against_reference(&insts[*input], score, matches, reference(*input).score)
            });
        if let Err(e) = verdict {
            pass_failed += 1;
            problems.push(format!("op on input {input}: {e}"));
        }
    }

    let (mut w2, mut w1) = (0, 0);
    let mut seen = BTreeSet::new();
    for (input, _, fills) in ops {
        if seen.insert(*input) {
            w2 += fills;
            w1 += reference(*input).report.dp_fills;
        }
    }
    record_fill_waste(layers, w2, w1);
    ReferencePass {
        used,
        refs,
        failed: pass_failed,
        problems,
    }
}

/// Microsecond timings of the model, engine and align layers, taken on
/// `insts` (JSON `texts`) and their width-1 `runs`: decode, encode,
/// consistency check, routing, interval-table fills on a fresh oracle
/// for every (plug, container) fragment pair, and `MS(h, m)` on a fresh
/// oracle for every match of the result. Each is the median per call.
/// A match whose score differs from the oracle's score for its site
/// pair in its orientation is a check failure.
pub fn record_micro(
    layers: &mut Layers,
    insts: &[&Instance],
    texts: &[&str],
    runs: &[SolveRun],
) -> Vec<CheckError> {
    let mut failures = Vec::new();
    let (mut decode, mut encode, mut consistency, mut route, mut table, mut ms) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let router = Router::default();
    let opts = EngineOptions::default();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for ((inst, text), run) in insts.iter().zip(texts).zip(runs) {
        let t = Instant::now();
        let decoded: Instance = serde_json::from_str(text).expect("generated instances decode");
        decode.push(us(t));
        black_box(decoded);

        let t = Instant::now();
        let body = encode_answer(&Answer {
            solver: run.report.routed_by.as_deref().unwrap_or(SOLVER),
            score: run.score,
            matches: &run.matches,
            report: &run.report,
        });
        encode.push(us(t));
        black_box(body);

        let t = Instant::now();
        let ok = check_consistency(inst, &run.matches).is_ok();
        consistency.push(us(t));
        black_box(ok);

        let t = Instant::now();
        let features = InstanceFeatures::of(black_box(inst));
        let picked = router.route(inst, &opts);
        route.push(us(t));
        black_box((features, picked));

        let oracle = ScoreOracle::new(inst);
        for h in 0..inst.h.len() {
            for m in 0..inst.m.len() {
                for (plug, container) in
                    [(FragId::h(h), FragId::m(m)), (FragId::m(m), FragId::h(h))]
                {
                    let t = Instant::now();
                    let tab = oracle.interval_table(plug, container);
                    table.push(us(t));
                    black_box(tab);
                }
            }
        }

        let oracle = ScoreOracle::new(inst);
        for (_, mt) in run.matches.iter() {
            let t = Instant::now();
            black_box(oracle.ms(mt.h, mt.m));
            ms.push(us(t));
            let score = oracle.ms_oriented(mt.h, mt.m, mt.orient);
            if score != mt.score {
                failures.push(CheckError::MatchScore {
                    claimed: mt.score,
                    oracle: score,
                });
            }
        }
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    layers.set("model.decode_us", med(&decode));
    layers.set("model.encode_us", med(&encode));
    layers.set("model.consistency_us", med(&consistency));
    layers.set("core.engine.route_us", med(&route));
    layers.set("align.table_fill_us", med(&table));
    layers.set("align.ms_us", med(&ms));
    failures
}

/// `obs.improve_round.self_ms` and `obs.table_fill.self_ms` from
/// traced width-2 solves of `insts`, one at a time: the self time of
/// the program's own spans, mean per solve. For workloads whose timed
/// path has no trace hook (the batch call, the server's workers).
pub fn record_spans(layers: &mut Layers, insts: &[&Instance]) {
    let per_solve = fragalign::par::with_threads(2, || {
        let mut ws = DpWorkspace::new();
        insts
            .iter()
            .map(|inst| {
                let sink = TraceSink::new();
                SolverRegistry::global()
                    .solve_traced(
                        SOLVER,
                        inst,
                        EngineOptions::default(),
                        &mut ws,
                        CancelToken::never(),
                        TraceHandle::new(sink.clone()),
                    )
                    .expect("auto runs on every instance");
                self_times(&sink.drain().events)
            })
            .collect::<Vec<_>>()
    })
    .0;
    for (metric, span) in [
        ("obs.improve_round.self_ms", "improve_round"),
        ("obs.table_fill.self_ms", "table_fill"),
    ] {
        let ms: Vec<f64> = per_solve
            .iter()
            .map(|t| t.get(span).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        layers.set(metric, ms.iter().sum::<f64>() / ms.len().max(1) as f64);
    }
}
