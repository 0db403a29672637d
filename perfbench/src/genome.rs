//! genome-solve: a closed loop of one caller solving 120-region,
//! 8×8-fragment simulated genome pairs one at a time with `auto` on a
//! pinned 2-wide pool. Each op decodes the instance JSON, solves it
//! and encodes the answer.

use crate::checks::{decode_answer, encode_answer, Answer, Checker, Outcome};
use crate::inputs::{decode_all, genome_inputs, stream, Input};
use crate::layers::{self, Layers, SOLVER};
use crate::phase::{Budget, PoolDecode, Stopwatch};
use crate::report::EndToEnd;
use crate::spans::self_times;
use crate::stats::{median, Rng, ShuffledCycle};
use crate::sys::peak_rss_mib;
use crate::Traced;
use fragalign::core::obs::{TraceHandle, TraceSink};
use fragalign::core::{CancelToken, EngineOptions, SolverRegistry};
use fragalign::model::{Instance, MatchSet, Score};
use fragalign::prelude::DpWorkspace;
use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

/// Distinct instances per run; more than a run reaches, so ops rarely
/// repeat an instance.
pub const POOL: usize = 200;
/// Pool width of every solve.
pub const WIDTH: usize = 2;
/// Tail percentile: a run has about 190 ops, so about 38 lie beyond
/// it (and at least 10 in every run). p90, with 19 beyond, spread 22%
/// across ten seeds: it rests on the few heaviest instances of a seed.
pub const TAIL_Q: f64 = 0.8;
/// Latency limit of one op.
pub const SLO_MS: f64 = 2000.0;
/// Parts the pool's decode (the set-up) is timed in, one part after
/// every op: about 15 ms against an op of about 170 ms, and about
/// twenty timings of every part over a run.
pub const SETUP_PARTS: usize = 10;

/// One timed op.
pub struct Op {
    /// Pool index of the instance.
    pub idx: usize,
    /// Decode + solve + encode, milliseconds.
    pub latency_ms: f64,
    /// The solve call alone, milliseconds.
    pub solve_ms: f64,
    /// The encoded answer, or why the op failed.
    pub answer: Result<String, String>,
    /// DP fills of this solve (width 2).
    pub dp_fills: u64,
    /// Self time per span name, when traced.
    pub self_ns: BTreeMap<&'static str, u64>,
}

fn run_op(text: &str, idx: usize, ws: &mut DpWorkspace, traced: bool) -> Op {
    let sink = traced.then(TraceSink::new);
    let trace = sink
        .as_ref()
        .map(|s| TraceHandle::new(s.clone()))
        .unwrap_or_default();
    let t0 = Instant::now();
    let op_span = trace.span("bench.op");
    let decode_span = trace.span("bench.decode");
    let inst: Result<Instance, _> = serde_json::from_str(text);
    drop(decode_span);
    let mut solve_ms = 0.0;
    let mut dp_fills = 0;
    let answer = inst.map_err(|e| format!("decode: {e:?}")).and_then(|inst| {
        let solve_span = trace.span("bench.solve");
        let t = Instant::now();
        let run = SolverRegistry::global().solve_traced(
            SOLVER,
            &inst,
            EngineOptions::default(),
            ws,
            CancelToken::never(),
            trace.clone(),
        );
        solve_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(solve_span);
        let run = run.map_err(|e| e.to_string())?;
        dp_fills = run.report.dp_fills;
        let _encode_span = trace.span("bench.encode");
        Ok(encode_answer(&Answer {
            solver: run.report.routed_by.as_deref().unwrap_or(SOLVER),
            score: run.score,
            matches: &run.matches,
            report: &run.report,
        }))
    });
    drop(op_span);
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let self_ns = sink
        .map(|s| self_times(&s.drain().events))
        .unwrap_or_default();
    Op {
        idx,
        latency_ms,
        solve_ms,
        answer,
        dp_fills,
        self_ns,
    }
}

/// Run ops in `order` until `budget` is spent, untraced, handing each
/// to `sink` outside the measured time. Returns the phase's (wall,
/// CPU) seconds over the ops alone.
fn timed_phase(
    inputs: &[Input],
    order: &mut ShuffledCycle,
    budget: Budget,
    mut sink: impl FnMut(Op) + Send,
) -> (f64, f64) {
    fragalign::par::with_threads(WIDTH, || {
        let mut ws = DpWorkspace::new();
        let mut watch = Stopwatch::default();
        let mut ops = 0;
        while !watch.done(&budget, ops) {
            let idx = order.next().expect("endless");
            let op = watch.time(|| run_op(&inputs[idx].text, idx, &mut ws, false));
            sink(op);
            ops += 1;
        }
        watch.read()
    })
    .0
}

/// The traced run's overhead phase: each op's instance is run untraced
/// and traced back to back, the arm that goes first alternating, so
/// both arms see the same instances under the same host conditions.
/// Runs until `budget` is spent over both arms; returns the (untraced,
/// traced) ops.
fn paired_phase(inputs: &[Input], order: &mut ShuffledCycle, budget: Budget) -> (Vec<Op>, Vec<Op>) {
    fragalign::par::with_threads(WIDTH, || {
        let mut ws = DpWorkspace::new();
        let mut watch = Stopwatch::default();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while !watch.done(&budget, plain.len()) {
            let idx = order.next().expect("endless");
            let traced_first = plain.len() % 2 == 1;
            for arm in [traced_first, !traced_first] {
                let op = watch.time(|| run_op(&inputs[idx].text, idx, &mut ws, arm));
                if arm {
                    traced.push(op);
                } else {
                    plain.push(op);
                }
            }
        }
        (plain, traced)
    })
    .0
}

/// Decode an op's encoded answer.
fn decode_op(op: &Op) -> Result<(Score, MatchSet), String> {
    let text = op.answer.as_ref().map_err(String::clone)?;
    decode_answer(text).map_err(|e| e.to_string())
}

/// A decoded answer as a check outcome.
fn outcome(decoded: &Result<(Score, MatchSet), String>) -> Outcome<'_> {
    decoded
        .as_ref()
        .map(|(s, m)| (*s, m))
        .map_err(String::as_str)
}

/// The timed (untraced) run. Each answer is checked as soon as its op
/// returns, and then dropped; then a part of the pool is decoded again
/// for the set-up timing.
pub fn run(seed: u64, seconds: f64) -> io::Result<EndToEnd> {
    let inputs = genome_inputs(seed, POOL);
    let (mut setup, insts) = PoolDecode::new(&inputs, SETUP_PARTS);
    let mut checker = Checker::new(&insts);
    let mut order = ShuffledCycle::new(POOL, Rng::new(seed, stream::ORDER));
    let mut e2e = EndToEnd::new(TAIL_Q, SLO_MS);
    let (wall, cpu) = timed_phase(&inputs, &mut order, Budget::new(seconds, TAIL_Q), |op| {
        let verdict = checker.check(op.idx, outcome(&decode_op(&op)));
        e2e.record(
            op.idx,
            op.latency_ms,
            insts[op.idx].score_upper_bound(),
            verdict,
        );
        setup.sample();
    });
    e2e.wall_s = wall;
    e2e.cpu_s = cpu;
    e2e.setup_s = setup.setup_s();
    e2e.peak_rss_mib = peak_rss_mib()?;
    Ok(e2e)
}

/// The traced run: a paired phase over half the budget (each op run
/// untraced and traced), then the width-1 reference solve and the layer
/// probes on every instance the phase touched.
pub fn run_traced(seed: u64, seconds: f64) -> Traced {
    let inputs = genome_inputs(seed, POOL);
    let insts = decode_all(&inputs);
    let mut order = ShuffledCycle::new(POOL, Rng::new(seed, stream::ORDER));
    let (plain, traced) = paired_phase(&inputs, &mut order, Budget::new(seconds / 2.0, 0.5));

    let mut layers = Layers::default();
    let p50 =
        |ops: &[Op]| median(&ops.iter().map(|o| o.latency_ms).collect::<Vec<_>>()).unwrap_or(0.0);
    layers.set("obs.overhead_ratio", p50(&traced) / p50(&plain));
    let solve_ms: Vec<f64> = plain.iter().map(|o| o.solve_ms).collect();
    layers.set("core.engine.solve_ms.p50", median(&solve_ms).unwrap_or(0.0));
    for (metric, span) in [
        ("obs.improve_round.self_ms", "improve_round"),
        ("obs.table_fill.self_ms", "table_fill"),
    ] {
        let total_ns: u64 = traced
            .iter()
            .map(|o| o.self_ns.get(span).copied().unwrap_or(0))
            .sum();
        layers.set(metric, total_ns as f64 / 1e6 / traced.len() as f64);
    }

    let ops: Vec<Op> = plain.into_iter().chain(traced).collect();
    let decoded: Vec<_> = ops.iter().map(decode_op).collect();
    let checked: Vec<(usize, Outcome<'_>, u64)> = ops
        .iter()
        .zip(&decoded)
        .map(|(op, d)| (op.idx, outcome(d), op.dp_fills))
        .collect();
    let pass = layers::reference_pass(&mut layers, &insts, &checked);
    let used_insts: Vec<&Instance> = pass.used.iter().map(|&i| &insts[i]).collect();
    let texts: Vec<&str> = pass.used.iter().map(|&i| inputs[i].text.as_str()).collect();
    let mut problems = pass.problems;
    for e in layers::record_micro(&mut layers, &used_insts, &texts, &pass.refs) {
        problems.push(e.to_string());
    }
    Traced {
        layers,
        attempted: ops.len() as u64,
        failed: pass.failed,
        problems,
    }
}
