//! shred-batch: torn-paper and read-soup instances at 48 regions,
//! solved with `auto` through `solve_batch_reports` on a pinned 2-wide
//! pool. The router sends every one of them to `four`, so no
//! improvement attempt runs: DP pair scoring, the ISP step and the
//! batch's load balance hold the time.

use crate::checks::{Checker, Outcome};
use crate::inputs::{decode_all, shred_inputs, stream};
use crate::layers::{self, Layers, SOLVER};
use crate::phase::{Budget, PoolDecode, Stopwatch};
use crate::report::EndToEnd;
use crate::stats::{median, Rng, ShuffledCycle};
use crate::sys::peak_rss_mib;
use crate::Traced;
use fragalign::core::obs::{TraceHandle, TraceSink};
use fragalign::core::{
    solve_batch_reports, solve_single_traced, BatchOptions, BatchSolution, SolveReport,
};
use fragalign::model::Instance;
use fragalign::prelude::DpWorkspace;
use std::io;

/// Distinct instances per run (half torn, half soup).
pub const POOL: usize = 512;
/// Instances per `solve_batch_reports` call.
pub const BATCH: usize = 256;
/// Pool width of every batch call.
pub const WIDTH: usize = 2;
/// Tail percentile: a run has thousands of ops.
pub const TAIL_Q: f64 = 0.99;
/// Latency limit of one instance's solve.
pub const SLO_MS: f64 = 250.0;
/// Parts the pool's decode (the set-up) is timed in, two parts after
/// every batch call: about 40 ms against a call of about 0.7 s, and
/// about twelve timings of every part over a run.
pub const SETUP_PARTS: usize = 8;

/// One solved instance.
pub struct Op {
    /// Pool index of the instance.
    pub idx: usize,
    /// The solution, or why the solve failed.
    pub result: Result<(BatchSolution, SolveReport), String>,
}

impl Op {
    /// The op's latency: the per-instance report's wall, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        match &self.result {
            Ok((_, report)) => report.wall_secs * 1e3,
            Err(_) => f64::INFINITY,
        }
    }

    /// The op's input index and outcome, for the checks.
    fn outcome(&self) -> (usize, Outcome<'_>) {
        let outcome = match &self.result {
            Ok((sol, _)) => Ok((sol.score, &sol.matches)),
            Err(e) => Err(e.as_str()),
        };
        (self.idx, outcome)
    }
}

/// Run batch calls over `order` until `budget` is spent, handing each
/// call's solved instances to `sink` outside the measured time. Returns
/// the phase's (wall, CPU) seconds over the batch calls alone.
fn timed_phase(
    insts: &[Instance],
    order: &mut ShuffledCycle,
    budget: Budget,
    mut sink: impl FnMut(Vec<Op>) + Send,
) -> (f64, f64) {
    let opts = BatchOptions::new(SOLVER);
    fragalign::par::with_threads(WIDTH, || {
        let mut watch = Stopwatch::default();
        let mut ops = 0;
        while !watch.done(&budget, ops) {
            let idxs: Vec<usize> = order.by_ref().take(BATCH).collect();
            let batch: Vec<Instance> = idxs.iter().map(|&i| insts[i].clone()).collect();
            let out = watch.time(|| solve_batch_reports(&batch, &opts));
            ops += idxs.len();
            sink(match out {
                Ok(results) => idxs
                    .into_iter()
                    .zip(results)
                    .map(|(idx, r)| Op { idx, result: Ok(r) })
                    .collect(),
                Err(e) => idxs
                    .into_iter()
                    .map(|idx| Op {
                        idx,
                        result: Err(e.to_string()),
                    })
                    .collect(),
            });
        }
        watch.read()
    })
    .0
}

/// The traced run's overhead phase. The batch call takes no trace
/// handle, so tracing is measured on single solves: each op's instance
/// is solved with `solve_single_report` and with `solve_single_traced`
/// back to back, the arm that goes first alternating, so both arms see
/// the same instances under the same host conditions. Runs until
/// `budget` is spent over both arms; returns the (untraced, traced)
/// ops.
fn paired_phase(
    insts: &[Instance],
    order: &mut ShuffledCycle,
    budget: Budget,
) -> (Vec<Op>, Vec<Op>) {
    let opts = BatchOptions::new(SOLVER);
    fragalign::par::with_threads(WIDTH, || {
        let mut ws = DpWorkspace::new();
        let mut watch = Stopwatch::default();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while !watch.done(&budget, plain.len()) {
            let idx = order.next().expect("endless");
            let traced_first = plain.len() % 2 == 1;
            for arm in [traced_first, !traced_first] {
                let sink = arm.then(TraceSink::new);
                let trace = sink
                    .as_ref()
                    .map(|s| TraceHandle::new(s.clone()))
                    .unwrap_or_default();
                let result = watch
                    .time(|| solve_single_traced(&insts[idx], &opts, &mut ws, trace))
                    .map_err(|e| e.to_string());
                if let Some(s) = sink {
                    s.drain();
                }
                let op = Op { idx, result };
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

/// The timed (untraced) run. Each solution is checked as soon as its
/// batch call returns, and then dropped; then two parts of the pool are
/// decoded again for the set-up timing.
pub fn run(seed: u64, seconds: f64) -> io::Result<EndToEnd> {
    let inputs = shred_inputs(seed, POOL);
    let (mut setup, insts) = PoolDecode::new(&inputs, SETUP_PARTS);
    let mut checker = Checker::new(&insts);
    let mut order = ShuffledCycle::new(POOL, Rng::new(seed, stream::ORDER));
    let mut e2e = EndToEnd::new(TAIL_Q, SLO_MS);
    let (wall, cpu) = timed_phase(&insts, &mut order, Budget::new(seconds, TAIL_Q), |ops| {
        for op in ops {
            let (idx, outcome) = op.outcome();
            let verdict = checker.check(idx, outcome);
            e2e.record(
                idx,
                op.latency_ms(),
                insts[idx].score_upper_bound(),
                verdict,
            );
        }
        setup.sample();
        setup.sample();
    });
    e2e.wall_s = wall;
    e2e.cpu_s = cpu;
    e2e.setup_s = setup.setup_s();
    e2e.peak_rss_mib = peak_rss_mib()?;
    Ok(e2e)
}

/// Most distinct instances the traced run probes layer by layer.
const PROBE_CAP: usize = 256;

/// The traced run: a batch phase of a quarter of the budget, a paired
/// phase of single solves over another quarter (for the tracing
/// overhead), then the width-1 reference solve of every instance the
/// phases touched and the layer probes on up to [`PROBE_CAP`] of them.
/// The program's own spans come from traced single solves of the
/// probed instances.
pub fn run_traced(seed: u64, seconds: f64) -> Traced {
    let inputs = shred_inputs(seed, POOL);
    let insts = decode_all(&inputs);
    let budget = Budget::new(seconds / 4.0, 0.5);
    let order = || ShuffledCycle::new(POOL, Rng::new(seed, stream::ORDER));
    let mut plain = Vec::new();
    let (plain_wall, _) = timed_phase(&insts, &mut order(), budget, |ops| plain.extend(ops));
    let (single, traced) = paired_phase(&insts, &mut order(), budget);

    let mut layers = Layers::default();
    let p50 =
        |ops: &[Op]| median(&ops.iter().map(Op::latency_ms).collect::<Vec<_>>()).unwrap_or(0.0);
    layers.set("obs.overhead_ratio", p50(&traced) / p50(&single));
    layers.set("core.engine.solve_ms.p50", p50(&plain));
    let report_wall: f64 = plain
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|(_, r)| r.wall_secs)
        .sum();
    layers.set(
        "core.batch.busy_ratio",
        report_wall / (plain_wall * WIDTH as f64),
    );

    let ops: Vec<&Op> = plain.iter().chain(&single).chain(&traced).collect();
    let checked: Vec<(usize, Outcome<'_>, u64)> = ops
        .iter()
        .map(|op| {
            let (i, outcome) = op.outcome();
            let fills = op.result.as_ref().map_or(0, |(_, r)| r.dp_fills);
            (i, outcome, fills)
        })
        .collect();
    let pass = layers::reference_pass(&mut layers, &insts, &checked);
    let cap = pass.used.len().min(PROBE_CAP);
    let probed: Vec<&Instance> = pass.used[..cap].iter().map(|&i| &insts[i]).collect();
    let texts: Vec<&str> = pass.used[..cap]
        .iter()
        .map(|&i| inputs[i].text.as_str())
        .collect();
    layers::record_spans(&mut layers, &probed);
    let mut problems = pass.problems;
    for e in layers::record_micro(&mut layers, &probed, &texts, &pass.refs[..cap]) {
        problems.push(e.to_string());
    }
    Traced {
        layers,
        attempted: ops.len() as u64,
        failed: pass.failed,
        problems,
    }
}
